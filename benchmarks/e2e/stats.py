"""Small numeric and I/O helpers shared by the end-to-end benchmark.

Each lives here once: the nearest-rank percentile, the calibration GEMM, the
SHA-256 run digest, and the JSON writer.  Nothing is imported from
``benchmarks/bench_*.py`` or ``tools/``.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path
from typing import Sequence

CALIB_GEMM_SIZE = 512
CALIB_GEMM_ROUNDS = 5


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of an unsorted sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(q * len(ordered))) - 1])


def calibration_gemm_gflops() -> float:
    """Best-of-rounds GFLOP/s of a fixed 512x512 float64 matrix product.

    A yardstick for the host, not a metric of the program: it says how far
    the base-DNN forward's multiply-adds per second sit from what one pinned
    BLAS thread can do on this machine.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((CALIB_GEMM_SIZE, CALIB_GEMM_SIZE))
    b = rng.standard_normal((CALIB_GEMM_SIZE, CALIB_GEMM_SIZE))
    a @ b  # first call pays BLAS thread-pool and page-fault set-up
    best = math.inf
    for _ in range(CALIB_GEMM_ROUNDS):
        started = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - started)
    return 2.0 * CALIB_GEMM_SIZE**3 / best / 1e9


def sim_digest(payload: object, *blobs: bytes) -> str:
    """SHA-256 over a sorted-JSON dump of ``payload`` plus raw ``blobs``."""
    digest = hashlib.sha256()
    digest.update(json.dumps(payload, sort_keys=True, default=repr).encode())
    for blob in blobs:
        digest.update(blob)
    return digest.hexdigest()


def digest_number(hex_digest: str) -> int:
    """The digest's leading 48 bits as an integer (exact in a JSON double)."""
    return int(hex_digest[:12], 16)


def write_json(path: str | Path, payload: object) -> Path:
    """Write ``payload`` as stable, human-diffable JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
