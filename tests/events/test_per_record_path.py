"""The event path's four per-record primitives against their one-shot references.

``SimulatedBroker.plan``, ``NodeOutbox.offer``, ``ConstrainedUplink.upload``
and ``DatacenterIngest.ingest`` look per-config constants up instead of
re-deriving them per record.  ``outcome`` / ``send_time`` / ``backoff`` /
``service_seconds`` stay as the reference forms; everything here is ``==`` on
floats, never ``approx``.
"""

import math
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge import ConstrainedUplink, UplinkTransfer
from repro.events import (
    AttemptOutcome,
    BrokerConfig,
    DatacenterIngest,
    IngestResult,
    NodeOutbox,
    OutboxConfig,
    OutboxEntry,
    SimulatedBroker,
)


class TestCachedConstantsAreReadOnly:
    @pytest.mark.parametrize(
        "owner, attr",
        [
            (DatacenterIngest(consumer_rate_eps=10.0), "consumer_rate_eps"),
            (SimulatedBroker(BrokerConfig(loss_rate=0.1)), "config"),
            (NodeOutbox("node0", OutboxConfig(max_queue=4)), "config"),
        ],
        ids=["ingest.consumer_rate_eps", "broker.config", "outbox.config"],
    )
    def test_what_the_fast_path_caches_cannot_be_reassigned(self, owner, attr):
        # Each is copied into the per-record path at construction; assigning
        # it afterwards would leave that copy stale.
        with pytest.raises(AttributeError):
            setattr(owner, attr, getattr(owner, attr))


class TestFastPathsAreExact:
    def test_outcome_flags(self):
        table = {outcome: (outcome.reaches_datacenter, outcome.acked) for outcome in AttemptOutcome}
        assert table == {
            AttemptOutcome.LOST: (False, False),
            AttemptOutcome.DELIVERED: (True, True),
            AttemptOutcome.DELIVERED_ACK_LOST: (True, False),
        }

    def test_plan_thresholds_tie_exactly(self):
        # loss_rate sits exactly on attempt 0's draw and loss_rate +
        # ack_loss_rate exactly on attempt 1's: a draw equal to a threshold is
        # not below it, so attempt 0 is not lost and attempt 1 is acked.
        seed = 3
        draws = {
            key: [zlib.crc32(f"{key}#{attempt}#{seed}".encode()) for attempt in (0, 1)]
            for key in (f"cam0/e0/{index}" for index in range(64))
        }
        key, (first, second) = next((k, d) for k, d in draws.items() if d[0] < d[1])
        loss_rate = first / 2**32
        ack_loss_rate = second / 2**32 - loss_rate
        assert loss_rate + ack_loss_rate == second / 2**32  # both sums are exact
        broker = SimulatedBroker(BrokerConfig(loss_rate, ack_loss_rate, seed))
        expected = [broker.outcome(key, 0), broker.outcome(key, 1)]
        assert expected == [AttemptOutcome.DELIVERED_ACK_LOST, AttemptOutcome.DELIVERED]
        assert broker.plan(key, 4) == expected

    def test_upload_tie_keeps_available_at(self):
        # A fresh link is free at +0.0: the tie keeps available_at, sign bit too.
        transfer = ConstrainedUplink(100.0).upload(8.0, available_at=-0.0)
        assert math.copysign(1.0, transfer.start_time) == -1.0


class TestGuardsFailClosedOnNaN:
    @pytest.mark.parametrize(
        "closed_at, bits", [(math.nan, 8.0), (6.0, math.nan), (6.0, -8.0), (6.0, math.inf)]
    )
    def test_offer(self, closed_at, bits):
        outbox = NodeOutbox("node0", OutboxConfig())
        outbox.offer("a", closed_at=5.0, bits=8.0, attempts=1)
        with pytest.raises(ValueError):
            outbox.offer("b", closed_at=closed_at, bits=bits, attempts=1)
        # The refused offer changed nothing: the ordering check still holds.
        assert outbox.occupancy == 1 and len(outbox.entries) == 1
        with pytest.raises(ValueError):
            outbox.offer("c", closed_at=1.0, bits=8.0, attempts=1)

    def test_ingest(self):
        ingest = DatacenterIngest(consumer_rate_eps=10.0)
        ingest.ingest("a", 5.0)
        with pytest.raises(ValueError):
            ingest.ingest("b", math.nan)
        assert not ingest.has_ingested("b") and ingest.unique_ingests == 1
        with pytest.raises(ValueError):
            ingest.ingest("c", 1.0)

    @pytest.mark.parametrize(
        "bits, available_at", [(math.nan, 0.0), (math.inf, 0.0), (-1.0, 0.0), (8.0, math.nan)]
    )
    def test_upload(self, bits, available_at):
        uplink = ConstrainedUplink(100.0)
        uplink.upload(50.0, available_at=1.0)
        with pytest.raises(ValueError):
            uplink.upload(bits, available_at=available_at)
        assert uplink.total_bits == 50.0 and uplink.busy_until == 1.5
        assert len(uplink.transfers) == 1


class TestBackoffSaturates:
    def test_huge_attempt_caps_instead_of_overflowing(self):
        config = OutboxConfig(max_retries=1100, backoff_base_seconds=0.05, backoff_cap_seconds=2.0)
        assert config.backoff(1100) == 2.0
        assert [config.backoff(a) for a in range(7)] == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0]

    def test_large_max_retries_builds_its_table(self):
        config = OutboxConfig(max_retries=1100, backoff_base_seconds=0.05, backoff_cap_seconds=2.0)
        offsets, backoffs = config.schedule
        assert len(offsets) == len(backoffs) == 1101
        assert all(window == 2.0 for window in backoffs[6:])
        entry = NodeOutbox("node0", config).offer("a", closed_at=0.5, bits=8.0, attempts=1101)
        assert entry.send_times[-1] == config.send_time(0.5, 1100)


outbox_configs = st.builds(
    lambda retries, base, factor: OutboxConfig(
        max_queue=1,
        max_retries=retries,
        backoff_base_seconds=base,
        backoff_cap_seconds=base * factor,
    ),
    retries=st.integers(0, 8),
    base=st.floats(1e-3, 10.0),
    factor=st.floats(1.0, 300.0),
)
close_times = st.lists(st.floats(0.0, 1e6), min_size=1, max_size=6).map(sorted)


class TestTablesMatchReferences:
    @given(config=outbox_configs, closes=close_times, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_offer_send_times_and_slot_release(self, config, closes, data):
        # A one-slot outbox: the next offer is admitted if, and only if, the
        # previous entry's slot has been released by then.
        outbox = NodeOutbox("node0", config)
        held_until = -math.inf
        for index, closed_at in enumerate(closes):
            attempts = data.draw(st.integers(1, config.max_attempts))
            entry = outbox.offer(f"k{index}", closed_at, 64.0, attempts)
            if held_until > closed_at:
                assert entry is None and outbox.occupancy == 1
                continue
            assert entry.send_times == tuple(
                config.send_time(closed_at, attempt) for attempt in range(attempts)
            )
            assert entry.attempts == attempts
            held_until = entry.send_times[-1] + config.backoff(attempts - 1)
        assert outbox.dropped + len(outbox.entries) == len(closes)

    @given(
        key=st.text(max_size=24) | st.sampled_from(["cam#1#0", "камера/e0/1", "#", "a#0#7"]),
        seed=st.integers(-(2**40), 2**40),
        loss=st.floats(0.0, 0.6),
        ack_loss=st.floats(0.0, 0.39),
        lengths=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_plan_is_the_acked_prefix_of_outcomes(self, key, seed, loss, ack_loss, lengths):
        broker = SimulatedBroker(BrokerConfig(loss_rate=loss, ack_loss_rate=ack_loss, seed=seed))
        # Several lengths on one broker, in any order: the suffix table grows.
        for max_attempts in lengths:
            expected = []
            for attempt in range(max_attempts):
                expected.append(broker.outcome(key, attempt))
                if expected[-1].acked:
                    break
            assert broker.plan(key, max_attempts) == expected

    @given(
        rate=st.sampled_from([0.0, 3.0, 1000.0]) | st.floats(1e-3, 1e6),
        arrivals=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=8).map(sorted),
    )
    @settings(max_examples=100, deadline=None)
    def test_ingest_completion_uses_service_seconds(self, rate, arrivals):
        ingest = DatacenterIngest(consumer_rate_eps=rate)
        busy_until = 0.0
        for index, arrived_at in enumerate(arrivals):
            result = ingest.ingest(f"k{index}", arrived_at)
            busy_until = max(arrived_at, busy_until) + ingest.service_seconds
            assert result == IngestResult(f"k{index}", True, arrived_at, busy_until)


RECORDS = [
    (UplinkTransfer, dict(description="evt", bits=8.0, start_time=1.0, end_time=3.0), "duration", 2.0),
    (OutboxEntry, dict(key="k", closed_at=1.0, bits=8.0, send_times=(1.0, 1.05)), "attempts", 2),
    (IngestResult, dict(key="k", accepted=True, arrived_at=1.0, completed_at=1.5), "consumer_lag", 0.5),
]


@pytest.mark.parametrize("record_type, fields, derived, value", RECORDS)
class TestRecordsAreImmutableValues:
    def test_keyword_and_positional_construction_agree(self, record_type, fields, derived, value):
        record = record_type(**fields)
        assert record == record_type(*fields.values())
        assert {record: 1}[record_type(**fields)] == 1
        assert all(getattr(record, name) == field for name, field in fields.items())
        assert getattr(record, derived) == value

    def test_differs_by_any_field(self, record_type, fields, derived, value):
        record = record_type(**fields)
        for name in fields:
            assert record != record._replace(**{name: None})

    def test_assignment_raises_attribute_error(self, record_type, fields, derived, value):
        record = record_type(**fields)
        for name in [*fields, derived, "brand_new"]:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)

    def test_is_a_plain_tuple_too(self, record_type, fields, derived, value):
        # The one semantic change from the frozen dataclasses (docs/EVENTS.md).
        record = record_type(**fields)
        assert record == tuple(fields.values())
        assert [*record] == list(fields.values())
