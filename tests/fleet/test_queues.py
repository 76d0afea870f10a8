"""Drop-policy and admission-control semantics under overload."""

import numpy as np
import pytest

from repro.fleet.camera import CameraSpec
from repro.fleet.queues import AdmissionController, DropPolicy, FrameQueue
from repro.fleet.runtime import FleetConfig, FleetRuntime
from repro.video.frame import Frame


def make_frame(index: int) -> Frame:
    return Frame(index=index, timestamp=index / 10.0, pixels=np.zeros((4, 4, 3), dtype=np.float32))


class TestFrameQueueBasics:
    def test_fifo_order(self):
        queue = FrameQueue(capacity=4)
        for i in range(3):
            queue.offer(make_frame(i))
        assert [queue.pop().index for _ in range(3)] == [0, 1, 2]
        assert queue.pop() is None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FrameQueue(capacity=0)

    def test_high_water_mark(self):
        # One slow worker: frame 0 goes into service, frames 1-5 wait, then drain.
        camera = CameraSpec("cam", 32, 32, frame_rate=10.0, num_frames=6)
        config = FleetConfig(num_workers=1, queue_capacity=8, service_time_scale=100.0)
        report = FleetRuntime([camera], config=config).run().cameras["cam"]
        assert report.frames_scored == 6
        assert report.queue_high_water == 5


class TestDropPoliciesUnderOverload:
    def test_drop_oldest_keeps_freshest(self):
        queue = FrameQueue(capacity=3, policy=DropPolicy.DROP_OLDEST)
        outcomes = [queue.offer(make_frame(i)) for i in range(10)]
        assert all(o.admitted for o in outcomes)
        evicted = [o.evicted.index for o in outcomes if o.evicted is not None]
        assert evicted == [0, 1, 2, 3, 4, 5, 6]
        assert [o.evicted is not None for o in outcomes] == [False] * 3 + [True] * 7
        assert [queue.pop().index for _ in range(3)] == [7, 8, 9]

    def test_drop_newest_keeps_earliest(self):
        queue = FrameQueue(capacity=3, policy=DropPolicy.DROP_NEWEST)
        outcomes = [queue.offer(make_frame(i)) for i in range(10)]
        assert [o.admitted for o in outcomes] == [True] * 3 + [False] * 7
        # The rejected frame comes back as "evicted" so the caller can account it.
        assert [o.evicted.index for o in outcomes[3:]] == list(range(3, 10))
        assert all(o.evicted is None for o in outcomes[:3])
        assert [queue.pop().index for _ in range(3)] == [0, 1, 2]

    def test_stats_conservation(self):
        for policy in DropPolicy:
            queue = FrameQueue(capacity=2, policy=policy)
            outcomes = [queue.offer(make_frame(i)) for i in range(9)]
            admitted = sum(o.admitted for o in outcomes)
            dropped_oldest = sum(o.admitted and o.evicted is not None for o in outcomes)
            dropped_newest = sum(not o.admitted for o in outcomes)
            assert admitted + dropped_newest == 9
            assert admitted - dropped_oldest == queue.depth


class TestAdmissionController:
    def test_budget_enforced(self):
        controller = AdmissionController(max_in_flight=2)
        assert controller.try_admit("cam0") and controller.try_admit("cam1")
        assert not controller.try_admit("cam2")
        controller.release("cam0")
        assert controller.try_admit("cam2")
        assert controller.in_flight == 2

    def test_release_without_admit_raises(self):
        controller = AdmissionController(max_in_flight=1)
        with pytest.raises(RuntimeError, match="without a matching try_admit"):
            controller.release("cam0")

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_in_flight=0)
        with pytest.raises(ValueError):
            AdmissionController(max_in_flight=4, per_camera_quota=0)

    def test_per_camera_quota_enforced(self):
        controller = AdmissionController(max_in_flight=8, per_camera_quota=2)
        assert controller.try_admit("cam0") and controller.try_admit("cam0")
        # cam0 is at quota even though the node has headroom...
        assert not controller.try_admit("cam0")
        assert controller.rejected_over_quota == 1
        # ...while other cameras are still welcome.
        assert controller.try_admit("cam1")
        controller.release("cam0")
        assert controller.try_admit("cam0")
        # The release freed exactly one of cam0's two slots: it is at quota again.
        assert not controller.try_admit("cam0")
        assert controller.in_flight == 3

    def test_cameras_are_counted_without_a_quota(self):
        controller = AdmissionController(max_in_flight=4)
        assert controller.try_admit("cam0") and controller.try_admit("cam0")
        with pytest.raises(RuntimeError, match="release\\('cam1'\\)"):
            controller.release("cam1")
        controller.release("cam0")
        controller.release("cam0")
        assert controller.in_flight == 0
        with pytest.raises(RuntimeError, match="without a matching try_admit"):
            controller.release("cam0")

    def test_failed_release_leaves_state_intact(self):
        controller = AdmissionController(max_in_flight=4, per_camera_quota=2)
        controller.try_admit("cam0")
        with pytest.raises(RuntimeError):
            controller.release("cam1")
        # The failed release must not corrupt the node-wide count.
        assert controller.in_flight == 1
        controller.release("cam0")
        assert controller.in_flight == 0

    def test_release_unknown_camera_raises(self):
        controller = AdmissionController(max_in_flight=4, per_camera_quota=1)
        controller.try_admit("cam0")
        with pytest.raises(RuntimeError):
            controller.release("cam1")

    def test_node_budget_still_binds_under_quota(self):
        controller = AdmissionController(max_in_flight=2, per_camera_quota=2)
        assert controller.try_admit("cam0") and controller.try_admit("cam1")
        assert not controller.try_admit("cam2")
        assert controller.rejected_over_quota == 0
