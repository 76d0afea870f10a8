"""The one comparator: exact by default, tolerant only where an entry says why.

:func:`first_difference` walks two records in step — dataclass fields,
mapping keys, sequence items, array elements — and returns the first
:class:`Difference`, named by its path (``nodes.node1.report.cameras.cam000.
frames_generated``, ``timeline[3].values``).  Numbers compare with ``==``
unless an entry declares a :class:`Tolerance` for a path pattern (fnmatch,
first match wins); an unbounded tolerance leaves the field uncompared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from fnmatch import fnmatchcase
from numbers import Real
from typing import Callable, Mapping

import numpy as np


@dataclass(frozen=True)
class Tolerance:
    """``|variant - reference| <= abs + rel * |scale|``, and the reason it may.

    ``scale`` reads the reference record; by default it is the field's own
    reference value.
    """

    reason: str
    abs: float = 0.0
    rel: float = 0.0
    scale: Callable[[object], float] | None = None


def not_compared(reason: str) -> Tolerance:
    """A field the variant is not expected to reproduce at all."""
    return Tolerance(reason, abs=math.inf)


@dataclass(frozen=True)
class Difference:
    path: str
    reference: object
    variant: object

    def __str__(self) -> str:
        return f"{self.path}: reference {self.reference!r} != variant {self.variant!r}"


def first_difference(
    reference, variant, tolerances: Mapping[str, Tolerance] | None = None
) -> Difference | None:
    """The first field at which ``variant`` leaves ``reference``, or ``None``."""
    tolerances = dict(tolerances or {})

    def bound(tolerance, own):
        scale = own if tolerance.scale is None else abs(tolerance.scale(reference))
        return tolerance.abs + tolerance.rel * scale

    def first(children):
        return next((d for d in (walk(*child) for child in children) if d is not None), None)

    def walk(a, b, path):
        tolerance = next((t for p, t in tolerances.items() if fnmatchcase(path, p)), None)
        if tolerance is not None and tolerance.abs == math.inf:
            return None
        prefix = f"{path}." if path else ""
        if is_dataclass(a) and not isinstance(a, type):
            if type(a) is not type(b):
                return Difference(path, type(a).__name__, type(b).__name__)
            children = ((getattr(a, f.name), getattr(b, f.name), prefix + f.name) for f in fields(a))
            return first(children)
        if isinstance(a, Mapping) and isinstance(b, Mapping):
            for key in [*a, *(k for k in b if k not in a)]:
                if key not in a or key not in b:
                    missing = "<missing>"
                    return Difference(f"{prefix}{key}", a.get(key, missing), b.get(key, missing))
            return first((a[key], b[key], f"{prefix}{key}") for key in a)
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            a, b = np.asarray(a), np.asarray(b)
            if a.shape != b.shape:
                return Difference(f"{path}.shape", a.shape, b.shape)
            differs = a != b
            if tolerance is not None:
                differs &= ~(np.abs(b - a) <= bound(tolerance, np.abs(a)))
            if not differs.any():
                return None
            index = tuple(int(i) for i in np.argwhere(differs)[0])
            return Difference(f"{path}{list(index)}", a[index].item(), b[index].item())
        if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
            if len(a) != len(b):
                return Difference(f"{path}.length", len(a), len(b))
            return first((x, y, f"{path}[{i}]") for i, (x, y) in enumerate(zip(a, b)))
        numbers = all(isinstance(x, Real) and not isinstance(x, bool) for x in (a, b))
        if a == b or numbers and math.isnan(a) and math.isnan(b):
            return None
        if numbers and tolerance is not None and abs(b - a) <= bound(tolerance, abs(a)):
            return None
        return Difference(path, a, b)

    return walk(reference, variant, "")
