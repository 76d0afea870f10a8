"""Edge-node runtime: constrained uplink, local archive, and phased scheduling.

FilterForward runs on an edge node collocated with the cameras.  Besides the
filtering pipeline itself, the deployment described in the paper needs:

* a bandwidth-constrained uplink shared by the node's uploads
  (Section 2.2.1: a few hundred kilobits per second per camera);
* a local disk archive of the original stream, from which datacenter
  applications can demand-fetch additional context around matched events
  (Section 3.2);
* phased execution of the base DNN and the microclassifiers so the two
  inference stacks do not contend for CPU cores (Section 4.4).
"""

from repro.edge.archive import ArchivedSegment, FrameArchive
from repro.edge.node import EdgeNode, EdgeNodeReport
from repro.edge.scheduler import Phase, PhasedSchedule, build_phased_schedule
from repro.edge.uplink import (
    ConstrainedUplink,
    SharedTransfer,
    SharedTransferRequest,
    UplinkTransfer,
    WorkConservingUplink,
)

__all__ = [
    "ArchivedSegment",
    "ConstrainedUplink",
    "EdgeNode",
    "EdgeNodeReport",
    "FrameArchive",
    "Phase",
    "PhasedSchedule",
    "SharedTransfer",
    "SharedTransferRequest",
    "UplinkTransfer",
    "WorkConservingUplink",
    "build_phased_schedule",
]
