"""The edge node: pipeline + archive + constrained uplink.

:class:`EdgeNode` ties the FilterForward pipeline to the deployment
substrate: every frame of the camera stream is archived locally, matched
event frames are pushed through the bandwidth-constrained uplink, and
datacenter applications can demand-fetch context segments (which also
consume uplink bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.pipeline import PipelineResult
from repro.core.streaming import StreamingPipeline
from repro.edge.archive import ArchivedSegment, FrameArchive
from repro.edge.uplink import ConstrainedUplink
from repro.video.stream import InMemoryVideoStream

__all__ = ["EdgeNodeReport", "EdgeNode"]


@dataclass
class EdgeNodeReport:
    """What one stream's worth of edge processing produced."""

    pipeline_result: PipelineResult
    archived_frames: int
    uplink_utilization: float
    uplink_backlog_seconds: float
    demand_fetches: list[ArchivedSegment] = field(default_factory=list)

    @property
    def within_bandwidth_budget(self) -> bool:
        """Whether event uploads fit within the uplink capacity in real time."""
        return self.uplink_backlog_seconds <= 0.0


class EdgeNode:
    """A camera-collocated edge node running FilterForward.

    Parameters
    ----------
    session:
        The filtering session (feature extractor + microclassifiers) at the
        stream's frame rate; a session filters one stream.
    uplink:
        The constrained wide-area uplink.
    archive:
        Local frame archive (defaults to a 4 GiB budget).
    """

    def __init__(
        self,
        session: StreamingPipeline,
        uplink: ConstrainedUplink,
        archive: FrameArchive | None = None,
    ) -> None:
        self.session = session
        self.uplink = uplink
        self.archive = archive or FrameArchive()

    def process_stream(self, stream: InMemoryVideoStream) -> EdgeNodeReport:
        """Archive, filter, and upload one camera stream.

        The session filters the stream, then every frame is archived.  The
        session raises (before anything is archived) on a stream at another
        frame rate or resolution, or on a second stream.
        """
        result = self.session.process_stream(stream)
        for frame in stream:
            self.archive.store(frame)
        # Upload each MC's encoded event frames; uploads become available as
        # the corresponding events end.
        for mc_result in result.per_mc.values():
            for event in mc_result.events:
                available_at = event.end / stream.frame_rate
                self.uplink.upload(
                    mc_result.event_bits(event),
                    available_at=available_at,
                    description=f"{mc_result.mc_name}/event{event.event_id}",
                )
        utilization = self.uplink.utilization(stream.duration)
        backlog = self.uplink.backlog_seconds(stream.duration)
        return EdgeNodeReport(
            pipeline_result=result,
            archived_frames=len(self.archive),
            uplink_utilization=utilization,
            uplink_backlog_seconds=backlog,
        )

    def demand_fetch(self, start: int, end: int, report: EdgeNodeReport | None = None) -> ArchivedSegment:
        """Serve a datacenter demand-fetch for frames ``[start, end)``.

        The fetched frames' raw bits are charged against the uplink; if a
        ``report`` is given the fetch is recorded there.
        """
        segment = self.archive.demand_fetch(start, end)
        bits = float(sum(f.pixels.nbytes * 8 for f in segment.frames))
        self.uplink.upload(bits, description=f"demand_fetch[{start}:{end}]")
        if report is not None:
            report.demand_fetches.append(segment)
        return segment
