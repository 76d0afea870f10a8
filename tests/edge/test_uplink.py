"""Tests for the constrained uplink."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge.uplink import (
    ConstrainedUplink,
    LinkPort,
    SharedTransfer,
    WorkConservingUplink,
)


class TestConstrainedUplink:
    def test_transfer_duration_is_bits_over_capacity(self):
        uplink = ConstrainedUplink(capacity_bps=1000)
        transfer = uplink.upload(5000)
        assert transfer.duration == pytest.approx(5.0)
        assert transfer.start_time == 0.0

    def test_transfers_are_serialized(self):
        uplink = ConstrainedUplink(capacity_bps=1000)
        first = uplink.upload(1000, available_at=0.0)
        second = uplink.upload(1000, available_at=0.0)
        assert second.start_time == pytest.approx(first.end_time)
        assert uplink.busy_until == pytest.approx(2.0)

    def test_transfer_waits_for_availability_time(self):
        uplink = ConstrainedUplink(capacity_bps=1000)
        transfer = uplink.upload(500, available_at=10.0)
        assert transfer.start_time == 10.0
        assert transfer.end_time == pytest.approx(10.5)

    def test_total_bits_and_utilization(self):
        uplink = ConstrainedUplink(capacity_bps=2000)
        uplink.upload(1000)
        uplink.upload(3000)
        assert uplink.total_bits == 4000
        assert uplink.utilization(duration=10.0) == pytest.approx(0.2)

    def test_backlog_reports_lag_behind_real_time(self):
        uplink = ConstrainedUplink(capacity_bps=100)
        uplink.upload(1000)  # takes 10 seconds
        assert uplink.backlog_seconds(now=4.0) == pytest.approx(6.0)
        assert uplink.backlog_seconds(now=20.0) == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ConstrainedUplink(capacity_bps=0)
        uplink = ConstrainedUplink(capacity_bps=100)
        with pytest.raises(ValueError):
            uplink.upload(-1)

    def test_empty_window_utilization_is_zero(self):
        # A zero-length run used to crash report finalization with a
        # ValueError; an empty window simply used nothing of the link.
        uplink = ConstrainedUplink(capacity_bps=100)
        uplink.upload(50)
        assert uplink.utilization(duration=0.0) == 0.0
        assert uplink.utilization(duration=-1.0) == 0.0

    def test_transfer_descriptions_recorded(self):
        uplink = ConstrainedUplink(capacity_bps=100)
        uplink.upload(10, description="event 1")
        assert uplink.transfers[0].description == "event 1"


def static_link(capacity, weights):
    """The shared link with reclaim off: every port is a fixed slice."""
    return WorkConservingUplink(capacity, weights, reclaim=False)


class TestStaticSlices:
    def test_weighted_split(self):
        link = static_link(1000.0, {"node0": 3.0, "node1": 1.0})
        assert link.links["node0"].capacity_bps == pytest.approx(750.0)
        assert link.links["node1"].capacity_bps == pytest.approx(250.0)
        assert sum(port.capacity_bps for port in link.links.values()) == pytest.approx(1000.0)

    def test_equal_weights_split_evenly(self):
        link = static_link(900.0, {"a": 1.0, "b": 1.0, "c": 1.0})
        for port in link.links.values():
            assert port.capacity_bps == pytest.approx(300.0)

    def test_aggregate_accounting(self):
        link = static_link(1000.0, {"node0": 1.0, "node1": 1.0})
        link.links["node0"].upload(500.0)  # 1s on a 500 bps slice
        link.links["node1"].upload(250.0)  # 0.5s, and node0 does not speed up after
        link.drain()
        assert link.total_bits == pytest.approx(750.0)
        assert link.links["node0"].utilization(duration=1.0) == pytest.approx(1.0)
        assert link.links["node1"].utilization(duration=1.0) == pytest.approx(0.5)
        assert link.links["node0"].backlog_seconds(now=0.25) == pytest.approx(0.75)
        assert link.reclaimed_bits == 0.0

    def test_idle_link_has_no_backlog(self):
        link = static_link(100.0, {"a": 1.0})
        link.drain()
        assert link.links["a"].backlog_seconds(now=1.0) == 0.0

    def test_empty_window_utilization_is_zero(self):
        link = static_link(1000.0, {"node0": 1.0})
        link.links["node0"].upload(500.0)
        link.drain()
        assert link.links["node0"].utilization(duration=0.0) == 0.0

    def test_slices_refuse_re_weighting(self):
        link = static_link(100.0, {"a": 1.0, "b": 1.0})
        with pytest.raises(RuntimeError, match="re-weighted"):
            link.schedule_weights(0.0, {"a": 9.0, "b": 1.0})
        assert link.scheduled_weights == {"a": 1.0, "b": 1.0}


class TestWorkConservingUplink:
    def make_link(self, capacity=100.0, weights=None):
        return WorkConservingUplink(capacity, weights or {"a": 1.0, "b": 1.0})

    def request(self, node, bits, at, description="upload"):
        return SharedTransfer(node_id=node, bits=bits, available_at=at, description=description)

    def test_lone_backlogged_node_gets_the_whole_link(self):
        link = self.make_link()
        [transfer] = link.drain([self.request("a", 100.0, 0.0)])
        # 100 bits at the full 100 bps, not the 50 bps static guarantee.
        assert transfer.start_time == pytest.approx(0.0)
        assert transfer.end_time == pytest.approx(1.0)
        # Half the bits moved above the guarantee.
        assert link.reclaimed_bits == pytest.approx(50.0)
        assert link.links["a"].total_bits == pytest.approx(100.0)

    def test_concurrent_nodes_split_by_weight(self):
        link = self.make_link(weights={"a": 3.0, "b": 1.0})
        transfers = link.drain(
            [self.request("a", 75.0, 0.0), self.request("b", 25.0, 0.0)]
        )
        # Both drain exactly at their guaranteed rates: done at t=1, no reclaim.
        assert all(t.end_time == pytest.approx(1.0) for t in transfers)
        assert link.reclaimed_bits == pytest.approx(0.0)

    def test_capacity_flows_when_a_node_finishes(self):
        link = self.make_link()
        transfers = {
            t.node_id: t
            for t in link.drain(
                [self.request("a", 50.0, 0.0), self.request("b", 150.0, 0.0)]
            )
        }
        # Shared 50/50 until t=1 (a done), then b alone at 100 bps.
        assert transfers["a"].end_time == pytest.approx(1.0)
        assert transfers["b"].end_time == pytest.approx(2.0)
        assert link.reclaimed_bits == pytest.approx(50.0)

    def test_fifo_per_node(self):
        link = self.make_link()
        transfers = link.drain(
            [
                self.request("a", 50.0, 0.0, "first"),
                self.request("a", 50.0, 0.0, "second"),
            ]
        )
        by_name = {t.description: t for t in transfers}
        assert by_name["first"].end_time <= by_name["second"].start_time + 1e-9
        assert by_name["second"].end_time == pytest.approx(1.0)

    def test_zero_bit_transfer_completes_instantly(self):
        link = self.make_link()
        [transfer] = link.drain([self.request("a", 0.0, 0.5)])
        assert transfer.start_time == pytest.approx(0.5)
        assert transfer.end_time == pytest.approx(0.5)

    def test_late_availability_waits(self):
        link = self.make_link()
        [transfer] = link.drain([self.request("a", 100.0, 2.0)])
        assert transfer.start_time == pytest.approx(2.0)
        assert transfer.end_time == pytest.approx(3.0)
        assert link.links["a"].backlog_seconds(2.5) == pytest.approx(0.5)
        assert link.links["b"].backlog_seconds(2.5) == 0.0
        # Of a's 50 bps guarantee over 3 s: it moved 100 bits, reclaiming b's idle half.
        assert link.links["a"].utilization(duration=3.0) == pytest.approx(100.0 / 150.0)

    def test_scheduled_weight_change_shifts_rates(self):
        link = self.make_link()
        link.schedule_weights(1.0, {"a": 9.0, "b": 1.0})
        transfers = {
            t.node_id: t
            for t in link.drain(
                [self.request("a", 100.0, 0.0), self.request("b", 100.0, 0.0)]
            )
        }
        # Until t=1: 50/50 (50 bits each).  After: a at 90 bps finishes its
        # remaining 50 bits at t ~= 1.556; b finishes last.
        assert transfers["a"].end_time == pytest.approx(1.0 + 50.0 / 90.0, rel=1e-6)
        assert transfers["b"].end_time > transfers["a"].end_time

    def test_port_guarantee_uses_initial_weights(self):
        link = self.make_link(weights={"a": 1.0, "b": 3.0})
        link.schedule_weights(0.0, {"a": 1.0, "b": 1.0})
        assert link.links["a"].capacity_bps == pytest.approx(25.0)
        assert link.links["b"].capacity_bps == pytest.approx(75.0)

    def test_empty_window_utilization_is_zero(self):
        link = self.make_link()
        link.drain([self.request("a", 100.0, 0.0)])
        assert link.links["a"].utilization(duration=0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkConservingUplink(0.0, {"a": 1.0})
        with pytest.raises(ValueError):
            WorkConservingUplink(100.0, {})
        with pytest.raises(ValueError):
            WorkConservingUplink(100.0, {"a": 0.0})
        link = self.make_link()
        with pytest.raises(ValueError, match="cover exactly"):
            link.schedule_weights(0.0, {"a": 1.0})
        with pytest.raises(ValueError):
            link.schedule_weights(-1.0, {"a": 1.0, "b": 1.0})
        with pytest.raises(ValueError, match="Unknown node"):
            link.drain([self.request("zz", 1.0, 0.0)])

    def test_drain_is_single_shot(self):
        link = self.make_link()
        link.drain([])
        with pytest.raises(RuntimeError, match="once"):
            link.drain([])
        with pytest.raises(RuntimeError, match="after drain"):
            link.schedule_weights(0.0, {"a": 1.0, "b": 1.0})

    def test_a_port_refuses_uploads_once_the_link_has_drained(self):
        link = self.make_link()
        early = link.links["a"].upload(100.0, 0.0, "early")
        link.drain()
        # The link will never run again, so a late upload would vanish.
        with pytest.raises(RuntimeError, match="after drain"):
            link.links["a"].upload(50.0, 1.0, "late")
        assert link.total_bits == 100.0
        assert link.transfers == [early]

    def test_drain_completes_the_transfers_the_ports_returned(self):
        link = self.make_link()
        a0 = link.links["a"].upload(100.0, 0.0, "a0")
        b0 = link.links["b"].upload(50.0, 0.0, "b0")
        extra = self.request("b", 25.0, 2.0, "b1")
        assert (a0.start_time, a0.end_time) == (None, None)  # nothing moves before the drain
        transfers = link.drain([extra])
        # The very objects submitted come back, completed in place, in completion order.
        assert [id(t) for t in transfers] == [id(b0), id(a0), id(extra)]
        assert link.transfers == transfers
        assert (b0.start_time, b0.end_time) == (0.0, pytest.approx(1.0))
        assert (a0.start_time, a0.end_time) == (0.0, pytest.approx(1.5))
        assert (extra.start_time, extra.end_time) == (2.0, pytest.approx(2.25))

    def test_an_unknown_node_leaves_the_link_drainable(self):
        link = self.make_link()
        link.links["a"].upload(100.0, 0.0, "a0")
        with pytest.raises(ValueError, match="Unknown node"):
            link.drain([self.request("zz", 1.0, 0.0)])
        [transfer] = link.drain()
        assert transfer.description == "a0"
        assert transfer.end_time == pytest.approx(1.0)

    def test_drain_is_deterministic(self):
        def run():
            link = self.make_link(weights={"a": 2.0, "b": 1.0})
            link.schedule_weights(0.5, {"a": 1.0, "b": 2.0})
            reqs = [
                self.request("a", 120.0, 0.0, "a0"),
                self.request("a", 30.0, 0.4, "a1"),
                self.request("b", 80.0, 0.2, "b0"),
                self.request("b", 0.0, 0.9, "b1"),
            ]
            transfers = link.drain(reqs)
            return [
                (t.node_id, t.description, t.start_time, t.end_time) for t in transfers
            ], link.reclaimed_bits

        assert run() == run()


# (node, bits, available_at) triples; descriptions are made unique per request.
port_requests = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    ),
    max_size=24,
)


class TestLinkPorts:
    @given(requests=port_requests)
    @settings(deadline=None)
    def test_ports_conserve_bits_and_serve_each_node_fifo(self, requests):
        link = WorkConservingUplink(1000.0, {"a": 2.0, "b": 1.0, "c": 1.0})
        submitted = {node: [] for node in link.links}
        for index, (node, bits, at) in enumerate(requests):
            link.links[node].upload(bits, at, f"r{index:02d}")
            submitted[node].append((at, f"r{index:02d}", bits))
        link.drain()
        for node, port in link.links.items():
            assert port.total_bits == pytest.approx(sum(b for _, _, b in submitted[node]))
            # FIFO in (available_at, description) order, one transfer at a time.
            served = [t for t in link.transfers if t.node_id == node]
            assert [t.description for t in served] == [
                description for _, description, _ in sorted(submitted[node])
            ]
            for earlier, later in zip(served, served[1:]):
                assert later.start_time >= earlier.end_time - 1e-9
        assert link.total_bits == pytest.approx(sum(bits for _, bits, _ in requests))
        assert len(link.transfers) == len(requests)

    @given(requests=port_requests)
    @settings(deadline=None)
    def test_a_one_node_link_is_a_constrained_uplink(self, requests):
        """A slice is GPS with nobody to share with."""
        link = WorkConservingUplink(1000.0, {"a": 1.0})
        port = link.links["a"]
        for index, (_, bits, at) in enumerate(requests):
            port.upload(bits, at, f"r{index:02d}")
        link.drain()
        serial = ConstrainedUplink(1000.0)
        for index, (_, bits, at) in sorted(enumerate(requests), key=lambda r: (r[1][2], r[0])):
            serial.upload(bits, at, f"r{index:02d}")
        assert port.capacity_bps == serial.capacity_bps
        assert link.reclaimed_bits == 0.0
        assert [t.description for t in link.transfers] == [
            t.description for t in serial.transfers
        ]
        for shared, alone in zip(link.transfers, serial.transfers):
            assert shared.end_time == pytest.approx(alone.end_time, abs=1e-9)
        assert port.backlog_seconds(5.0) == pytest.approx(serial.backlog_seconds(5.0), abs=1e-9)

    @given(requests=port_requests)
    @settings(deadline=None)
    def test_a_static_port_is_a_constrained_uplink_at_its_guarantee(self, requests):
        """With reclaim off a port never feels its neighbours, busy or idle."""
        link = static_link(1000.0, {"a": 2.0, "b": 1.0, "c": 1.0})
        alone = {node: ConstrainedUplink(port.capacity_bps) for node, port in link.links.items()}
        for index, (node, bits, at) in enumerate(requests):
            link.links[node].upload(bits, at, f"r{index:02d}")
        for index, (node, bits, at) in sorted(enumerate(requests), key=lambda r: (r[1][2], r[0])):
            alone[node].upload(bits, at, f"r{index:02d}")
        link.drain()
        assert link.reclaimed_bits == 0.0
        for node, serial in alone.items():
            served = [t for t in link.transfers if t.node_id == node]
            assert [t.description for t in served] == [t.description for t in serial.transfers]
            for shared, single in zip(served, serial.transfers):
                assert shared.start_time == pytest.approx(single.start_time, abs=1e-9)
                assert shared.end_time == pytest.approx(single.end_time, abs=1e-9)

    def test_every_port_is_a_link_port(self):
        """The things a node can be handed all satisfy the one protocol."""
        ports = [
            ConstrainedUplink(1000.0),
            static_link(1000.0, {"a": 1.0}).links["a"],
            WorkConservingUplink(1000.0, {"a": 1.0}).links["a"],
        ]
        assert all(isinstance(port, LinkPort) for port in ports)
        link = WorkConservingUplink(1000.0, {"a": 1.0})
        assert not isinstance(link, LinkPort)  # a link is not a port


NOT_A_QUANTITY = [float("nan"), float("inf"), -1.0]


class TestNonFiniteInputsAreRefused:
    """A NaN or infinity must be refused where it is submitted.

    Once queued it cannot be: ``drain()`` never advances past a NaN arrival
    (``max(t, nan)``) and never finishes an infinite or NaN residual, so each
    of these used to hang the drain rather than fail.  Nothing here drains.
    """

    @pytest.mark.parametrize("bits", NOT_A_QUANTITY)
    def test_port_refuses_bad_bits_and_queues_nothing(self, bits):
        link = WorkConservingUplink(100.0, {"a": 1.0, "b": 1.0})
        with pytest.raises(ValueError, match="bits"):
            link.links["a"].upload(bits, 0.0, "bad")
        assert link.drain() == []

    @pytest.mark.parametrize("available_at", NOT_A_QUANTITY)
    def test_port_refuses_a_bad_arrival_time_and_queues_nothing(self, available_at):
        link = WorkConservingUplink(100.0, {"a": 1.0, "b": 1.0})
        with pytest.raises(ValueError, match="available_at"):
            link.links["a"].upload(10.0, available_at, "bad")
        assert link.drain() == []

    @pytest.mark.parametrize("value", NOT_A_QUANTITY)
    def test_a_request_cannot_be_built_around_one(self, value):
        with pytest.raises(ValueError):
            SharedTransfer("a", value, 0.0)
        with pytest.raises(ValueError):
            SharedTransfer("a", 1.0, value)

    @pytest.mark.parametrize("value", NOT_A_QUANTITY + [0.0])
    def test_schedule_weights_refuses_bad_times_and_weights(self, value):
        link = WorkConservingUplink(100.0, {"a": 1.0, "b": 1.0})
        if value != 0.0:  # a change at t = 0 is fine; a zero weight is not
            with pytest.raises(ValueError, match="at_time"):
                link.schedule_weights(value, {"a": 1.0, "b": 1.0})
        with pytest.raises(ValueError, match="weight"):
            link.schedule_weights(0.5, {"a": 1.0, "b": value})
        # Nothing was scheduled: the link still shares evenly.
        link.links["a"].upload(50.0, 0.0, "a0")
        link.links["b"].upload(50.0, 0.0, "b0")
        assert [t.end_time for t in link.drain()] == pytest.approx([1.0, 1.0])

    @pytest.mark.parametrize("value", NOT_A_QUANTITY + [0.0])
    def test_links_refuse_bad_capacities_and_weights(self, value):
        for reclaim in (True, False):
            with pytest.raises(ValueError):
                WorkConservingUplink(value, {"a": 1.0}, reclaim=reclaim)
            with pytest.raises(ValueError):
                WorkConservingUplink(100.0, {"a": 1.0, "b": value}, reclaim=reclaim)
