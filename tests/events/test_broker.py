"""Tests for the seeded, hash-deterministic broker loss model."""

import pytest

from repro.events import AttemptOutcome, BrokerConfig, SimulatedBroker


class TestBrokerConfig:
    def test_rejects_out_of_range_rates(self):
        with pytest.raises(ValueError):
            BrokerConfig(loss_rate=-0.1)
        with pytest.raises(ValueError):
            BrokerConfig(loss_rate=1.0)
        with pytest.raises(ValueError):
            BrokerConfig(ack_loss_rate=-0.1)
        with pytest.raises(ValueError):
            BrokerConfig(ack_loss_rate=1.0)

    def test_rejects_combined_rates_at_or_above_one(self):
        with pytest.raises(ValueError):
            BrokerConfig(loss_rate=0.6, ack_loss_rate=0.4)


class TestSimulatedBroker:
    def test_outcome_is_deterministic(self):
        a = SimulatedBroker(BrokerConfig(loss_rate=0.3, ack_loss_rate=0.2, seed=7))
        b = SimulatedBroker(BrokerConfig(loss_rate=0.3, ack_loss_rate=0.2, seed=7))
        outcomes_a = [a.outcome(f"cam{i}/e0/{i}", j) for i in range(50) for j in range(3)]
        outcomes_b = [b.outcome(f"cam{i}/e0/{i}", j) for i in range(50) for j in range(3)]
        assert outcomes_a == outcomes_b

    def test_seed_changes_outcomes(self):
        a = SimulatedBroker(BrokerConfig(loss_rate=0.5, seed=1))
        b = SimulatedBroker(BrokerConfig(loss_rate=0.5, seed=2))
        outcomes_a = [a.outcome(f"k{i}", 0) for i in range(200)]
        outcomes_b = [b.outcome(f"k{i}", 0) for i in range(200)]
        assert outcomes_a != outcomes_b

    def test_lossless_broker_always_delivers(self):
        broker = SimulatedBroker(BrokerConfig())
        assert all(
            broker.outcome(f"k{i}", j) is AttemptOutcome.DELIVERED
            for i in range(20)
            for j in range(3)
        )

    def test_loss_split_tracks_configured_rates(self):
        broker = SimulatedBroker(BrokerConfig(loss_rate=0.2, ack_loss_rate=0.1, seed=3))
        outcomes = [broker.outcome(f"cam/e0/{i}", 0) for i in range(5000)]
        lost = sum(o is AttemptOutcome.LOST for o in outcomes) / len(outcomes)
        ack_lost = sum(o is AttemptOutcome.DELIVERED_ACK_LOST for o in outcomes) / len(
            outcomes
        )
        assert lost == pytest.approx(0.2, abs=0.03)
        assert ack_lost == pytest.approx(0.1, abs=0.03)

    def test_plan_stops_at_first_ack(self):
        broker = SimulatedBroker(BrokerConfig(loss_rate=0.4, ack_loss_rate=0.2, seed=11))
        for i in range(200):
            plan = broker.plan(f"k{i}", max_attempts=6)
            assert 1 <= len(plan) <= 6
            # Only the last attempt may be acked; everything before failed.
            assert all(not outcome.acked for outcome in plan[:-1])
            if len(plan) < 6:
                assert plan[-1].acked

    def test_plan_is_prefix_stable(self):
        """The same key replans identically — retries never reroll history."""
        broker = SimulatedBroker(BrokerConfig(loss_rate=0.4, ack_loss_rate=0.2, seed=5))
        assert broker.plan("cam9/e1/3", 4) == broker.plan("cam9/e1/3", 4)
