"""Cross-camera batched inference over a shared resident base DNN.

A FilterForward edge node hosts many cameras whose pipelines share one base
DNN per resolution (the co-location placement policy groups cameras for
exactly this).  The per-camera streaming path still pays one ``N=1`` NumPy
forward pass per camera per tick; :class:`BatchedScorer` collects all frames
bound for the same resident base DNN, runs **one** bit-exact batched forward
over the union of the subscribers' tapped layers
(:func:`repro.nn.batched.batched_forward_with_taps`), and fans each camera's
activation slice back out into that camera's
:class:`~repro.features.extractor.FeatureExtractor` cache — as views into
the batch tensor, so feature maps are never copied between the shared
forward pass and the microclassifiers.

The scorer never touches smoothing, events, thresholds, telemetry, or
tracing: those remain per-camera inside each
:class:`~repro.core.streaming.StreamingPipeline`, which simply finds its
activations already cached when :meth:`~repro.core.streaming.StreamingPipeline.push`
runs.  Because the batched forward is bit-exact against the ``N=1`` path,
every downstream output — probabilities, decisions, events, upload bits,
control traces — is bit-identical to per-camera scoring.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.streaming import StreamingPipeline
from repro.nn.batched import batched_forward_with_taps
from repro.video.frame import Frame

__all__ = ["BatchedScorer"]

# One (camera session, frame) pair awaiting scoring.
Entry = tuple[StreamingPipeline, Frame]


class BatchedScorer:
    """Batches frames that hit the same resident base DNN into one forward.

    Usage inside a node tick::

        scorer.prefetch(entries)          # one forward pass per base DNN
        for session, frame in entries:    # any order, any interleaving
            scorer.prime(session, frame)  # hand the slice to the camera
            session.push(frame)           # cache hit; no per-camera forward

    ``prefetch`` may be called with frames whose activations are already
    cached or already prefetched; those are skipped.  Ragged tails are fine:
    a group of one camera degenerates to the bit-exact ``N=1`` batched
    forward.
    """

    def __init__(self) -> None:
        # (id(extractor), frame_index) -> that extractor's tapped activations.
        self._ready: dict[tuple[int, int], dict[str, np.ndarray]] = {}
        self.batches_run = 0
        self.frames_batched = 0

    # -- introspection -----------------------------------------------------
    def has(self, session: StreamingPipeline, frame: Frame) -> bool:
        """Whether ``frame``'s activations are ready (prefetched or cached)."""
        extractor = session.extractor
        return (id(extractor), frame.index) in self._ready or extractor.is_cached(frame.index)

    # -- the batched forward -----------------------------------------------
    def prefetch(self, entries: Iterable[Entry]) -> int:
        """Run one batched base-DNN forward per resident base DNN.

        Groups ``entries`` by the identity of each session extractor's
        ``base_dnn`` (cameras at one resolution share the model object, the
        FilterForward computation-sharing premise), stacks each group's
        pixels, and computes the union of the group's tapped layers in one
        bit-exact batched pass.  Frames already cached or already prefetched
        are skipped.  Returns the number of frames actually computed.
        """
        groups: dict[int, list[Entry]] = {}
        for session, frame in entries:
            if self.has(session, frame):
                continue
            groups.setdefault(id(session.extractor.base_dnn), []).append((session, frame))
        computed = 0
        for group in groups.values():
            self._run_group(group)
            computed += len(group)
        return computed

    def _run_group(self, group: Sequence[Entry]) -> None:
        """One batched forward for frames sharing a resident base DNN."""
        base_dnn = group[0][0].extractor.base_dnn
        expected = base_dnn.input_shape
        taps: list[str] = []
        for session, _ in group:
            taps.extend(session.extractor.tap_layers)
        taps = list(dict.fromkeys(taps))
        pixels = []
        for session, frame in group:
            sample = np.asarray(frame.pixels, dtype=np.float64)
            if expected is not None and tuple(sample.shape) != tuple(expected):
                raise ValueError(
                    f"Frame pixels have shape {sample.shape}, but the resident base DNN "
                    f"was built for {tuple(expected)}"
                )
            pixels.append(sample)
        batch = np.stack(pixels, axis=0)
        activations = batched_forward_with_taps(base_dnn, batch, taps)
        for k, (session, frame) in enumerate(group):
            extractor = session.extractor
            self._ready[(id(extractor), frame.index)] = {
                name: activations[name][k] for name in extractor.tap_layers
            }
        self.batches_run += 1
        self.frames_batched += len(group)

    # -- fan-out -----------------------------------------------------------
    def prime(self, session: StreamingPipeline, frame: Frame) -> bool:
        """Hand a prefetched activation slice to the camera's extractor.

        Returns True when a prefetched slice was installed; False when the
        frame was never prefetched (the subsequent ``push`` then scores it
        through the per-camera path — correct, just unbatched).
        """
        activations = self._ready.pop((id(session.extractor), frame.index), None)
        if activations is None:
            return False
        session.extractor.prime(frame.index, activations)
        return True
