#!/usr/bin/env python3
"""parity: one gate for every deterministic artifact the repository produces.

    python tools/parity.py rerun [--only NAME ...] [--out DIR]
    python tools/parity.py base TREE [--only NAME ...] [--out DIR]

Everything here is simulated and seeded, so the evidence is bit-identity.
An entry of :data:`MANIFEST` is one producing command, run in a fresh
directory ``DIR/<run>/<entry>/`` with its sizes in the environment, and the
artifacts it leaves there.  Each run is compared with the ``head`` run, this
checkout's first:

* ``rerun`` runs every entry twice in this checkout (``head``, ``rerun``);
* ``base`` runs ``head``, then each entry's ``references``: ``rerun`` again
  here and ``base`` in ``TREE`` (another checkout, such as the merge base),
  each tree on its own ``src/``.  An entry lists only the references it
  needs, so one ``base`` call is all CI runs.

Every artifact is gated byte for byte.  Its reader only says where two runs
part:

* ``bytes`` -- the first differing offset and its line;
* ``json`` -- the first differing key path;
* ``jsonl`` -- one document per line: file, line and key, e.g.
  ``out/delivery_log.jsonl:17 state: reference 'acked' != variant
  'dead_letter'``;
* ``e2e`` -- a ``benchmarks/e2e/run.py --out`` file, read as each workload's
  ``sim_digest`` and the ledger's ``EXACT_METRICS`` only (its wall-clock
  readings are ``compare.py``'s to judge), so it is the one artifact not
  gated by its bytes.

Documents go through :func:`first_difference`, the repository's one
comparator (the oracle registry under ``tests/oracles`` uses it too).  Equal
documents in unequal bytes (``1`` against ``1.0``, key order, spacing) are
reported at their first differing byte.  Only a path an entry lists as
``not_compared`` may differ, and only a wall-clock field may be listed
there, with its reason; no artifact has one today.

A producer that exits non-zero fails its entry.  Against ``rerun`` every
compared path is gated.  Against ``base`` so is every path except those an
entry lists under ``moves_in_base``: an exact count may move on purpose, and
the change names it, so those are printed (``moved``) and not failed on.
An entry whose producer or artifact the base tree lacks is ``new``: printed,
not gated.  Exit status 0 when no entry is ``DIFFERENT`` or ``FAILED``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import textwrap
import time
from dataclasses import dataclass, fields, is_dataclass
from fnmatch import fnmatchcase
from numbers import Real
from pathlib import Path
from typing import Callable, Iterator, Mapping

import numpy as np

REPO = Path(__file__).resolve().parent.parent

# --- the one comparator ------------------------------------------------------


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


def differences(
    reference, variant, tolerances: Mapping[str, Tolerance] | None = None
) -> Iterator[Difference]:
    """Every field at which ``variant`` leaves ``reference``, in walk order.

    The walk goes through dataclass fields, mapping keys, sequence items and
    array elements in step, naming each field by its path
    (``nodes.node1.report.cameras.cam000.frames_generated``,
    ``timeline[3].values``).  Numbers compare with ``==`` unless a
    :class:`Tolerance` is declared for a path pattern (fnmatch, first match
    wins); an unbounded tolerance leaves the field uncompared.  Below a
    length, shape or type mismatch, and within one array, it reports only
    the first.
    """
    tolerances = dict(tolerances or {})

    def bound(tolerance, own):
        scale = own if tolerance.scale is None else abs(tolerance.scale(reference))
        return tolerance.abs + tolerance.rel * scale

    def walk(a, b, path):
        tolerance = next((t for p, t in tolerances.items() if fnmatchcase(path, p)), None)
        if tolerance is not None and tolerance.abs == math.inf:
            return
        prefix = f"{path}." if path else ""
        if is_dataclass(a) and not isinstance(a, type):
            if type(a) is not type(b):
                yield Difference(path, type(a).__name__, type(b).__name__)
                return
            for f in fields(a):
                yield from walk(getattr(a, f.name), getattr(b, f.name), prefix + f.name)
            return
        if isinstance(a, Mapping) and isinstance(b, Mapping):
            missing = "<missing>"
            for key in [*a, *(k for k in b if k not in a)]:
                if key not in a or key not in b:
                    yield Difference(f"{prefix}{key}", a.get(key, missing), b.get(key, missing))
            for key in a:
                if key in b:
                    yield from walk(a[key], b[key], f"{prefix}{key}")
            return
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            a, b = np.asarray(a), np.asarray(b)
            if a.shape != b.shape:
                yield Difference(f"{prefix}shape", a.shape, b.shape)
                return
            differs = a != b
            if tolerance is not None:
                differs &= ~(np.abs(b - a) <= bound(tolerance, np.abs(a)))
            if differs.any():
                index = tuple(int(i) for i in np.argwhere(differs)[0])
                yield Difference(f"{path}{list(index)}", a[index].item(), b[index].item())
            return
        if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
            if len(a) != len(b):
                yield Difference(f"{prefix}length", len(a), len(b))
                return
            for i, (x, y) in enumerate(zip(a, b)):
                yield from walk(x, y, f"{path}[{i}]")
            return
        numbers = all(isinstance(x, Real) and not isinstance(x, bool) for x in (a, b))
        if a == b or numbers and math.isnan(a) and math.isnan(b):
            return
        if numbers and tolerance is not None and abs(b - a) <= bound(tolerance, abs(a)):
            return
        yield Difference(path, a, b)

    return walk(reference, variant, "")


def first_difference(
    reference, variant, tolerances: Mapping[str, Tolerance] | None = None
) -> Difference | None:
    """The first field at which ``variant`` leaves ``reference``, or ``None``."""
    return next(differences(reference, variant, tolerances), None)




# --- the manifest --------------------------------------------------------------

# Each entry: ``command`` (arguments to the Python interpreter; ``{tree}`` is
# the checkout's absolute path; the run directory is the working directory),
# ``env`` (added to the environment), ``artifacts`` (path in the run
# directory -> reader; ``stdout.txt`` is the command's standard output) and,
# optionally, ``references`` (what ``base`` compares the head run with;
# both ``rerun`` and ``base`` unless listed) and ``not_compared`` /
# ``moves_in_base`` (path pattern -> reason).  Each entry lists the
# references CI compared before this gate, so CI runs no producer more often:
# a rerun where it checked determinism, the base where it checked a change,
# the base alone where it only smoke-ran (the observable-fleet demo, the
# quick-preset report).  The incident demo, once rerun only, is compared with
# the base too: only it exports a control trace of decision records.
# ``base`` runs the base tree with the head's entry: a renamed output path
# reads as ``new`` there, but a renamed size variable runs the base at its
# own defaults and fails, so a change that renames one says so.
MANIFEST = (
    {
        "name": "e2e",
        "command": ["{tree}/benchmarks/e2e/run.py", "--quick", "--out", "e2e.json"],
        "artifacts": {"e2e.json": "e2e"},
        "moves_in_base": {
            "*.exact_counts.*": "an exact count may move on purpose; the change names it",
        },
    },
    {
        "name": "event_demo",
        "command": ["{tree}/examples/event_backbone_demo.py"],
        "env": {"EVENT_DEMO_HOT": "4", "EVENT_DEMO_FILL": "6", "EVENT_DEMO_DURATION": "2.0",
                "EVENT_DEMO_OUT": "out"},
        "artifacts": {"stdout.txt": "bytes", "out/delivery_log.jsonl": "jsonl",
                      "out/delivery_report.json": "json"},
    },
    {
        "name": "incident_demo",
        "command": ["{tree}/examples/incident_demo.py"],
        "env": {"INCIDENT_DEMO_HOT": "4", "INCIDENT_DEMO_FILL": "6",
                "INCIDENT_DEMO_DURATION": "1.5", "INCIDENT_DEMO_OUT": "out"},
        "artifacts": {"stdout.txt": "bytes", "out/control_trace.jsonl": "jsonl",
                      "out/alerts.jsonl": "jsonl", "out/timeline.jsonl": "jsonl",
                      "out/incidents.json": "json", "out/incidents.md": "bytes"},
    },
    {
        "name": "observable_fleet",
        "command": ["{tree}/examples/observable_fleet.py"],
        "env": {"OBSERVABLE_FLEET_HOT": "4", "OBSERVABLE_FLEET_FILL": "6",
                "OBSERVABLE_FLEET_DURATION": "1.5", "OBSERVABLE_FLEET_OUT": "out"},
        "artifacts": {"stdout.txt": "bytes", "out/trace.json": "json",
                      "out/metrics.prom": "bytes", "out/metrics.jsonl": "jsonl"},
        "references": ("base",),
    },
    *(
        {"name": example, "command": [f"{{tree}}/examples/{example}.py"],
         "artifacts": {"stdout.txt": "bytes"}, "references": ("base",)}
        for example in ("quickstart", "multi_tenant_edge_node", "bandwidth_planning")
    ),
    # The untrained fleets: one node's four regimes and three placements on
    # four nodes, at the sizes CI once smoke-ran them, and the flat control
    # plane against a hotspot at a size where it migrates cameras (4 here;
    # none at 8 hot / 12 fill / 1.5 s).
    {
        "name": "fleet_simulation",
        "command": ["{tree}/examples/fleet_simulation.py"],
        "env": {"FLEET_SIM_CAMERAS": "8", "FLEET_SIM_DURATION": "1.5"},
        "artifacts": {"stdout.txt": "bytes"},
        "references": ("base",),
    },
    {
        "name": "sharded_fleet",
        "command": ["{tree}/examples/sharded_fleet.py"],
        "env": {"SHARDED_FLEET_CAMERAS": "12", "SHARDED_FLEET_DURATION": "1.0"},
        "artifacts": {"stdout.txt": "bytes"},
        "references": ("base",),
    },
    {
        "name": "adaptive_fleet",
        "command": ["{tree}/examples/adaptive_fleet.py"],
        "env": {"ADAPTIVE_FLEET_HOT": "12", "ADAPTIVE_FLEET_FILL": "24",
                "ADAPTIVE_FLEET_DURATION": "2.0"},
        "artifacts": {"stdout.txt": "bytes"},
        "references": ("base",),
    },
    # The trained fleets: TrainedMicroClassifiers.pipeline_factory() and
    # fit_and_calibrate end to end, at the sizes CI once smoke-ran them, but
    # the value-aware fleet runs 3.0 s, where its threshold drift controller
    # sets two cameras' thresholds (none at 1.5 s, so nothing else here would
    # run a live threshold change).
    {
        "name": "accuracy_fleet",
        "command": ["{tree}/examples/accuracy_fleet.py"],
        "env": {"ACCURACY_FLEET_CAMERAS": "4", "ACCURACY_FLEET_DURATION": "2.0",
                "ACCURACY_FLEET_TRAIN_FRAMES": "48"},
        "artifacts": {"stdout.txt": "bytes"},
        "references": ("base",),
    },
    {
        "name": "value_aware_fleet",
        "command": ["{tree}/examples/value_aware_fleet.py"],
        "env": {"VALUE_FLEET_DENSE": "3", "VALUE_FLEET_SPARSE": "3",
                "VALUE_FLEET_DURATION": "3.0", "VALUE_FLEET_TRAIN_FRAMES": "48"},
        "artifacts": {"stdout.txt": "bytes"},
        "references": ("base",),
    },
    {
        "name": "paper_numbers",
        "command": ["{tree}/tools/paper_numbers.py"],
        "artifacts": {"stdout.txt": "json"},
        "references": ("base",),
    },
    {
        "name": "paper_report",
        "command": ["-m", "repro.experiments.runner", "--preset", "quick", "--json"],
        "artifacts": {"stdout.txt": "json"},
        "references": ("base",),
    },
    {
        "name": "golden_control_trace",
        "command": ["{tree}/tests/control/golden_scenario.py", "trace.jsonl"],
        "artifacts": {"trace.jsonl": "jsonl"},
    },
    {
        "name": "golden_hierarchy_trace",
        "command": ["{tree}/tests/control/golden_hierarchy_scenario.py", "trace.jsonl"],
        "artifacts": {"trace.jsonl": "jsonl"},
    },
)

# --- producing and reading ---------------------------------------------------


def producer(tree: Path, entry: dict) -> Path:
    """The script ``entry``'s command runs in ``tree``."""
    first, second, *_ = [*entry["command"], ""]
    if first == "-m":
        return tree / "src" / (second.replace(".", "/") + ".py")
    return Path(first.replace("{tree}", str(tree)))


def run_entry(tree: Path, entry: dict, workdir: Path) -> int | None:
    """Run ``entry``'s command for ``tree`` in ``workdir``.

    Its exit status, or ``None`` when ``tree`` has no such producer.
    """
    if not producer(tree, entry).exists():
        return None
    command = [sys.executable, *(arg.replace("{tree}", str(tree)) for arg in entry["command"])]
    env = {
        **os.environ,
        "PYTHONPATH": str(tree / "src"),
        **{f"{lib}_NUM_THREADS": "1" for lib in ("OMP", "OPENBLAS", "MKL")},
        **entry.get("env", {}),
    }
    with open(workdir / "stdout.txt", "wb") as out, open(workdir / "stderr.txt", "wb") as err:
        return subprocess.run(command, cwd=workdir, env=env, stdout=out, stderr=err).returncode


def exact_metrics() -> tuple[str, ...]:
    """The ledger's names that repeat bit for bit, from the harness itself."""
    harness = str(REPO / "benchmarks" / "e2e")
    sys.path.insert(0, harness)
    try:
        from ledger import EXACT_METRICS
    finally:
        sys.path.remove(harness)
    return EXACT_METRICS


def parse(data: bytes, kind: str):
    text = data.decode("utf-8")
    if kind == "jsonl":
        return [json.loads(line) for line in text.splitlines()]
    document = json.loads(text)
    if kind == "json":
        return document
    return {
        name: {
            "sim_digest": record["end_to_end"]["digest"],
            "exact_counts": {
                metric: record["per_layer"]["metrics"].get(metric, {}).get("value", "<missing>")
                for metric in exact_metrics()
            },
        }
        for name, record in document["workloads"].items()
    }


def byte_difference(name: str, reference: bytes, variant: bytes) -> tuple[str, Difference]:
    """Where two unequal byte strings first part: line, offset and what is there.

    What is there is the offset's line, cut to 40 bytes either side.
    """
    offset = next(
        (i for i, (x, y) in enumerate(zip(reference, variant)) if x != y),
        min(len(reference), len(variant)),
    )

    def line_at(data: bytes) -> str:
        start, end = data.rfind(b"\n", 0, offset) + 1, data.find(b"\n", offset)
        end = len(data) if end < 0 else end
        return data[max(start, offset - 40) : min(end, offset + 40)].decode(errors="replace")

    line = reference.count(b"\n", 0, offset) + 1
    return f"{name}:{line}", Difference(f"byte {offset}", line_at(reference), line_at(variant))


def artifact_differences(
    name: str, kind: str, reference: bytes, variant: bytes, tolerances
) -> Iterator[tuple[str, Difference]]:
    """Each difference between two runs' bytes of artifact ``name``, and where it is."""
    if kind != "e2e" and reference == variant:
        return
    if kind == "bytes":
        yield byte_difference(name, reference, variant)
        return
    a, b = parse(reference, kind), parse(variant, kind)
    found = False
    if kind == "jsonl":
        if len(a) != len(b):
            found = True
            yield name, Difference("lines", len(a), len(b))
        for line, (x, y) in enumerate(zip(a, b), 1):
            for difference in differences(x, y, tolerances):
                found = True
                yield f"{name}:{line}", difference
    else:
        for difference in differences(a, b, tolerances):
            found = True
            yield name, difference
    # Equal values in unequal bytes (1 and 1.0, key order, spacing), unless
    # every value that differs is one the entry does not compare.
    if not found and kind != "e2e" and first_difference(a, b) is None:
        yield byte_difference(name, reference, variant)


@dataclass
class Verdict:
    status: str  # same, new, moved, DIFFERENT or FAILED
    lines: list[str]


def judge(
    entry: dict, runs: tuple[Path, Path], statuses: tuple[int | None, int | None], base: bool
) -> Verdict:
    """Compare one entry's two runs: reference first, variant second.

    In a ``base`` comparison the reference is the base tree's run.
    """
    if base and statuses[0] is None:
        return Verdict("new", ["the base tree has no producer for this entry"])
    failed = [
        f"{run} " + ("has no producer" if status is None else f"exited {status}:")
        + f"\n{tail(run / 'stderr.txt')}"
        for run, status in zip(runs, statuses)
        if status != 0
    ]
    if failed:
        return Verdict("FAILED", failed)
    tolerances = {p: not_compared(reason) for p, reason in entry.get("not_compared", {}).items()}
    moves = entry.get("moves_in_base", {}) if base else {}
    notes, status = [], "same"
    for name, kind in entry["artifacts"].items():
        if base and not (runs[0] / name).exists():
            notes.append(f"new: the base tree writes no {name}")
            status = "new" if status == "same" else status
            continue
        try:
            reference, variant = ((run / name).read_bytes() for run in runs)
            for where, difference in artifact_differences(
                name, kind, reference, variant, tolerances
            ):
                if not any(fnmatchcase(difference.path, pattern) for pattern in moves):
                    return Verdict("DIFFERENT", [*notes, f"{where} {difference}"])
                notes.append(f"moved: {where} {difference}")
                status = "moved"
        except (OSError, ValueError, KeyError) as error:
            return Verdict("FAILED", [*notes, f"{name}: {error}"])
    return Verdict(status, notes)


def tail(path: Path, lines: int = 5) -> str:
    text = path.read_text(errors="replace") if path.exists() else ""
    return "\n".join(text.splitlines()[-lines:])


def main(
    argv: list[str] | None = None, runner: Callable[[Path, dict, Path], int | None] = run_entry
) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("rerun", "base"))
    parser.add_argument("tree", nargs="?", type=Path, help="base: the other checkout")
    parser.add_argument("--only", nargs="+", metavar="NAME", help="these entries only")
    parser.add_argument("--out", type=Path, default=Path("parity_out"), help="run directories")
    args = parser.parse_args(argv)
    if (args.mode == "base") != (args.tree is not None):
        parser.error("base takes the other checkout, rerun takes none")
    entries = [e for e in MANIFEST if not args.only or e["name"] in args.only]
    if args.only and len(entries) != len(set(args.only)):
        parser.error(f"unknown entry; the manifest has {[e['name'] for e in MANIFEST]}")
    trees = {"head": REPO, "rerun": REPO, "base": args.tree.resolve() if args.tree else None}
    print(f"parity {args.mode}: head {REPO}" + (f" vs base {trees['base']}" if args.tree else ""))
    bad = 0
    for entry in entries:
        started = time.monotonic()
        references = entry.get("references", ("rerun", "base")) if args.tree else ("rerun",)
        statuses = {}
        for label in ("head", *references):
            workdir = args.out.resolve() / label / entry["name"]
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            statuses[label] = runner(trees[label], entry, workdir)
        verdicts = {}
        for label in references:
            # The reference goes first: the rerun is judged against head,
            # head against the base.
            pair = ("head", label) if label == "rerun" else (label, "head")
            runs = tuple(args.out.resolve() / run / entry["name"] for run in pair)
            verdicts[label] = judge(
                entry, runs, tuple(statuses[run] for run in pair), base=label == "base"
            )
        bad += any(v.status in ("DIFFERENT", "FAILED") for v in verdicts.values())
        summary = ", ".join(f"{label} {v.status}" for label, v in verdicts.items())
        print(f"  {entry['name']:<24s} {summary:<28s} ({time.monotonic() - started:.1f} s)",
              flush=True)  # fmt: skip
        for label, verdict in verdicts.items():
            for line in verdict.lines:
                print(textwrap.indent(f"{label}: {line}", " " * 6))
    print(f"{'FAILED' if bad else 'ok'}: {len(entries) - bad} of {len(entries)} entries pass")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
