"""Offline training of microclassifiers and discrete classifiers.

Microclassifiers are trained offline by the application developer on labelled
feature maps; discrete classifiers (the NoScope-style baseline) are trained
the same way but on raw pixels.  Both expose the same minimal training
interface — logits forward, gradient backward, parameter list — so a single
trainer covers them.

Class imbalance matters: relevant events are rare, so the trainer draws
balanced mini-batches (positives and negatives in near-equal numbers).

The loop every offline caller runs around the trainer (paper §4.2, §4.5) is
here once: :func:`score_classifier`, :func:`calibrate_threshold` and
:func:`fit_and_calibrate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Protocol, Sequence

import numpy as np

from repro.core.architectures import WindowedLocalizedBinaryClassifierMC
from repro.core.smoothing import KVotingSmoother
from repro.metrics.event_metrics import event_f1_score
from repro.nn.layers import Parameter
from repro.nn.losses import SigmoidBinaryCrossEntropy
from repro.nn.optimizers import Adam

__all__ = [
    "TrainableClassifier",
    "TrainingConfig",
    "TrainingHistory",
    "calibrate_threshold",
    "fit_and_calibrate",
    "score_classifier",
    "train_classifier",
]


class TrainableClassifier(Protocol):
    """Anything the trainer can optimize and score (microclassifiers, discrete classifiers)."""

    def forward_logits(self, inputs: np.ndarray, training: bool) -> np.ndarray: ...

    def predict_proba_batch(self, inputs: np.ndarray) -> np.ndarray: ...

    def backward(self, grad_logits: np.ndarray) -> None: ...

    def parameters(self) -> list[Parameter]: ...


@dataclass
class TrainingConfig:
    """Hyper-parameters for offline classifier training.

    ``epochs`` may be fractional: the paper trains on "0.5 epochs of data"
    (Section 4.5), i.e. half of the training frames, once.
    """

    epochs: float = 2.0
    batch_size: int = 16
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        # Written so that a NaN fails each guard.
        if not self.epochs > 0:
            raise ValueError("epochs must be positive")
        if not self.batch_size > 0:
            raise ValueError("batch_size must be positive")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class TrainingHistory:
    """Per-step loss values and summary statistics from a training run."""

    losses: list[float] = field(default_factory=list)
    steps: int = 0

    @property
    def final_loss(self) -> float:
        """Loss of the final training step (NaN if no steps ran)."""
        return self.losses[-1] if self.losses else float("nan")


# Inputs per predict_proba_batch call in score_classifier (bounds peak memory).
_SCORE_CHUNK = 32

# Calibration smooths as the live pipeline does: the paper's N=5, K=2.
_CALIBRATION_SMOOTHER = KVotingSmoother()


def _balanced_order(labels: np.ndarray, total: int, rng: np.random.Generator) -> np.ndarray:
    """Sample indices so positives and negatives appear in near-equal numbers."""
    pos = np.flatnonzero(labels > 0.5)
    neg = np.flatnonzero(labels <= 0.5)
    if pos.size == 0 or neg.size == 0:
        order = rng.permutation(labels.size)
        return np.resize(order, total)
    half = total // 2
    pos_draw = rng.choice(pos, size=half, replace=pos.size < half)
    neg_draw = rng.choice(neg, size=total - half, replace=neg.size < (total - half))
    order = np.concatenate([pos_draw, neg_draw])
    rng.shuffle(order)
    return order


def train_classifier(
    classifier: TrainableClassifier,
    inputs: np.ndarray | Sequence[np.ndarray],
    labels: np.ndarray | Sequence[int],
    config: TrainingConfig | None = None,
) -> TrainingHistory:
    """Train a classifier on labelled inputs with sigmoid BCE and Adam.

    Each epoch's worth of samples is drawn balanced: half positives, half
    negatives (uniform over all inputs when one class is absent).

    Parameters
    ----------
    classifier:
        A built microclassifier or discrete classifier.
    inputs:
        ``(N, H, W, C)`` feature maps (for MCs) or pixels (for DCs).
    labels:
        Length-``N`` binary labels.
    config:
        Training hyper-parameters (defaults to :class:`TrainingConfig`).

    Returns
    -------
    TrainingHistory
        Per-step loss trace.
    """
    config = config or TrainingConfig()
    inputs = np.asarray(inputs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    if inputs.shape[0] != labels.shape[0]:
        raise ValueError(
            f"inputs and labels disagree on sample count: {inputs.shape[0]} vs {labels.shape[0]}"
        )
    if inputs.shape[0] == 0:
        raise ValueError("Cannot train on an empty dataset")

    rng = np.random.default_rng(config.seed)
    loss_fn = SigmoidBinaryCrossEntropy()
    optimizer = Adam(learning_rate=config.learning_rate)
    params = classifier.parameters()
    if not params:
        raise ValueError("Classifier has no trainable parameters (was it built?)")

    total_samples = int(round(config.epochs * inputs.shape[0]))
    total_samples = max(total_samples, config.batch_size)
    order = _balanced_order(labels, total_samples, rng)

    history = TrainingHistory()
    for start in range(0, total_samples, config.batch_size):
        batch_idx = order[start : start + config.batch_size]
        if batch_idx.size == 0:
            break
        x = inputs[batch_idx]
        y = labels[batch_idx].reshape(-1, 1)
        optimizer.zero_grad(params)
        logits = classifier.forward_logits(x, training=True)
        loss = loss_fn.forward(logits, y)
        grad = loss_fn.backward(logits, y)
        classifier.backward(grad)
        optimizer.step(params)
        history.losses.append(float(loss))
        history.steps += 1
    return history


def score_classifier(classifier: TrainableClassifier, inputs: np.ndarray) -> np.ndarray:
    """Per-input probabilities of ``classifier`` over a stack of inputs.

    A windowed microclassifier reads ``inputs`` as one consecutive stream
    (each frame's window is its neighbours); every other classifier scores
    chunks of 32 inputs through ``predict_proba_batch``.  BLAS specializes
    by problem size, so another chunk size can move the last bit of a row.
    """
    if isinstance(classifier, WindowedLocalizedBinaryClassifierMC):
        return classifier.predict_proba_stream(inputs)
    probabilities = np.empty(inputs.shape[0])
    for start in range(0, inputs.shape[0], _SCORE_CHUNK):
        chunk = inputs[start : start + _SCORE_CHUNK]
        probabilities[start : start + chunk.shape[0]] = classifier.predict_proba_batch(chunk)
    return probabilities


def calibrate_threshold(probabilities: np.ndarray, labels: np.ndarray, default: float) -> float:
    """The decision threshold maximizing smoothed event F1 on a labelled split.

    Candidates are 19 quantiles of ``probabilities`` clipped to
    ``[0.02, 0.98]``; the first with the highest event F1 after the
    pipeline's K-vote smoothing (N=5, K=2) wins.  A split with zero positive
    frames gives the sweep no signal: every candidate scores either F1 = 0.0
    (it fires on something, all false positives) or the degenerate 1.0 of an
    empty prediction against empty truth, and the sweep would "win" with an
    arbitrary quantile — often the lowest, a threshold that fires on
    everything live.  So ``default`` is kept both on an all-negative split
    and whenever no candidate beats F1 = 0.
    """
    if not np.asarray(labels).any():
        return default
    candidates = np.unique(
        np.clip(np.quantile(probabilities, np.linspace(0.05, 0.95, 19)), 0.02, 0.98)
    )
    best_threshold, best_f1 = default, 0.0
    for candidate in candidates:
        smoothed = _CALIBRATION_SMOOTHER.smooth((probabilities >= candidate).astype(np.int8))
        f1 = event_f1_score(labels, smoothed)
        if f1 > best_f1:
            best_threshold, best_f1 = float(candidate), f1
    return best_threshold


def fit_and_calibrate(
    classifier: TrainableClassifier,
    inputs: np.ndarray,
    labels: np.ndarray,
    config: TrainingConfig,
    augment_flip: bool = False,
) -> tuple[TrainingHistory, np.ndarray]:
    """Train ``classifier`` on a labelled split, then calibrate its threshold there.

    ``augment_flip`` also trains on the horizontally mirrored inputs.  The
    split is scored unaugmented with :func:`score_classifier`, and the
    :func:`calibrate_threshold` result (defaulting to the configured
    threshold) is written back into ``classifier.config``.  Returns the
    training history and the split's probabilities.
    """
    fit_inputs, fit_labels = inputs, labels
    if augment_flip:
        fit_inputs = np.concatenate([inputs, inputs[:, :, ::-1, :]], axis=0)
        fit_labels = np.concatenate([labels, labels])
    history = train_classifier(classifier, fit_inputs, fit_labels, config)
    probabilities = score_classifier(classifier, inputs)
    threshold = calibrate_threshold(probabilities, labels, default=classifier.config.threshold)
    classifier.config = replace(classifier.config, threshold=threshold)
    return history, probabilities
