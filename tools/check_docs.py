#!/usr/bin/env python3
"""Docs-consistency checks, run by CI and by ``tests/test_docs.py``.

Five guarantees:

1. **Coverage** — every package under ``src/repro/`` is mentioned in
   ``docs/ARCHITECTURE.md`` (as ``repro.<name>``), so the architecture page
   cannot silently fall behind the code.
2. **Required pages** — the subsystem reference pages in ``REQUIRED_DOCS``
   exist (a rename or deletion fails CI rather than leaving dead links).
3. **Subsystem depth** — every module of the control plane is mentioned in
   ``docs/CONTROL.md`` (as ``repro.control.<name>``), mirroring the
   package-level guarantee at module granularity for the policy catalog.
4. **Accuracy plane** — ``docs/ACCURACY.md`` documents the trained-MC
   methodology and must reference every module that implements it
   (``repro.fleet.accuracy``, ``repro.control.trace``, and the
   accuracy-aware control policies in ``repro.control.value``).
5. **Observability plane** — every module of ``repro.obs`` is mentioned in
   ``docs/OBSERVABILITY.md`` (as ``repro.obs.<name>``), the same
   module-granularity guarantee the control plane gets.
6. **Batched dispatch** — ``docs/FLEET.md`` documents the batched
   cross-camera hot path and must reference every module that implements it
   (``repro.nn.batched``, ``repro.core.batched``, and the dispatch hook in
   ``repro.fleet.runtime``), and its memory-per-camera note the modules
   holding a camera's resident state (``repro.nn.layers``,
   ``repro.features.extractor``).
7. **Hierarchical scale-out** — ``docs/CONTROL.md`` documents the two-level
   control plane and must reference every module that implements it
   (``repro.control.hierarchy``, the district-partitioned fleet generator in
   ``repro.fleet.camera``, and the O(nodes) report path in
   ``repro.fleet.sharding``).
8. **Event delivery plane** — every module of ``repro.events`` is
   mentioned in ``docs/EVENTS.md`` (as ``repro.events.<name>``), plus the
   cross-package modules the delivery story depends on (the record schema
   in ``repro.core.events``, the transport integration in
   ``repro.fleet.sharding``).
9. **Snippet validity** — every fenced ``python`` code block in
   ``README.md`` and ``docs/*.md`` parses (``compile()``), so documented
   examples cannot rot into syntax errors.

Exit status 0 when everything holds; 1 with a problem list otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
ARCHITECTURE_DOC = REPO_ROOT / "docs" / "ARCHITECTURE.md"
CONTROL_DOC = REPO_ROOT / "docs" / "CONTROL.md"
ACCURACY_DOC = REPO_ROOT / "docs" / "ACCURACY.md"
OBSERVABILITY_DOC = REPO_ROOT / "docs" / "OBSERVABILITY.md"
EVENTS_DOC = REPO_ROOT / "docs" / "EVENTS.md"
REQUIRED_DOCS = (
    "ARCHITECTURE.md",
    "FLEET.md",
    "CONTROL.md",
    "ACCURACY.md",
    "OBSERVABILITY.md",
    "EVENTS.md",
)

# The accuracy plane spans two packages; its methodology page must point at
# every implementing module so none can be renamed out from under it.
# repro.control.value is the accuracy-aware control half (value shedding +
# threshold drift), documented alongside the signals it consumes.
ACCURACY_MODULES = ("repro.fleet.accuracy", "repro.control.trace", "repro.control.value")

# The batched cross-camera hot path spans three packages: the N>1 kernels,
# the per-tick scorer, and the runtime dispatch hook.  FLEET.md owns the
# data-flow story and must point at every implementing module.
BATCHED_MODULES = ("repro.nn.batched", "repro.core.batched", "repro.fleet.runtime")
# FLEET.md's "memory per camera" note says what a hosted camera keeps
# resident; it must name where the weights (and no gradients) and the
# feature-map cache live.
MEMORY_MODULES = ("repro.nn.layers", "repro.features.extractor")
FLEET_DOC = REPO_ROOT / "docs" / "FLEET.md"

# The explainability layer must stay documented even if obs-module
# auto-discovery ever changes: alerting and incident correlation are pinned
# by name, on top of the every-module check below.
OBS_REQUIRED_MODULES = ("repro.obs.alerts", "repro.obs.incident")

# The hierarchical control plane spans two packages: the node/cluster
# planes themselves, the district-partitioned fleet generator, and the
# O(nodes) cluster report path.  CONTROL.md owns the scale-out story and
# must point at every implementing module (the control-module
# auto-discovery below only covers repro.control.*).
HIERARCHY_MODULES = (
    "repro.control.hierarchy",
    "repro.fleet.camera",
    "repro.fleet.sharding",
)

# The event delivery plane spans three packages: the repro.events pipeline
# (covered module-by-module below), the record/identity schema, and the
# shared-uplink transport integration.  EVENTS.md owns the delivery story
# and must point at every implementing module.
EVENTS_REQUIRED_MODULES = ("repro.core.events", "repro.fleet.sharding")

_FENCE_RE = re.compile(r"^```")


def repro_packages(src_root: Path | None = None) -> list[str]:
    """Package names under ``src/repro/`` (directories with an __init__.py)."""
    root = (src_root or REPO_ROOT / "src") / "repro"
    return sorted(
        p.name for p in root.iterdir() if p.is_dir() and (p / "__init__.py").is_file()
    )


def check_architecture_coverage(doc_path: Path | None = None) -> list[str]:
    """Packages missing from the architecture doc (empty list = all covered)."""
    doc_path = doc_path or ARCHITECTURE_DOC
    if not doc_path.is_file():
        return [f"{doc_path} does not exist"]
    text = doc_path.read_text(encoding="utf-8")
    return [
        f"package repro.{name} is not mentioned in {doc_path.name}"
        for name in repro_packages()
        if f"repro.{name}" not in text
    ]


def check_required_docs() -> list[str]:
    """Missing subsystem reference pages (empty list = all present)."""
    return [
        f"docs/{name} is required but does not exist"
        for name in REQUIRED_DOCS
        if not (REPO_ROOT / "docs" / name).is_file()
    ]


def control_modules(src_root: Path | None = None) -> list[str]:
    """Module names under ``src/repro/control/`` (excluding __init__)."""
    root = (src_root or REPO_ROOT / "src") / "repro" / "control"
    if not root.is_dir():
        return []
    return sorted(p.stem for p in root.glob("*.py") if p.stem != "__init__")


def check_control_coverage(doc_path: Path | None = None) -> list[str]:
    """Control modules missing from the control doc (empty list = covered)."""
    doc_path = doc_path or CONTROL_DOC
    if not doc_path.is_file():
        return []  # existence is check_required_docs' problem
    text = doc_path.read_text(encoding="utf-8")
    return [
        f"module repro.control.{name} is not mentioned in {doc_path.name}"
        for name in control_modules()
        if f"repro.control.{name}" not in text
    ]


def check_accuracy_coverage(doc_path: Path | None = None) -> list[str]:
    """Accuracy modules missing from the accuracy doc (empty list = covered)."""
    doc_path = doc_path or ACCURACY_DOC
    if not doc_path.is_file():
        return []  # existence is check_required_docs' problem
    text = doc_path.read_text(encoding="utf-8")
    return [
        f"module {name} is not mentioned in {doc_path.name}"
        for name in ACCURACY_MODULES
        if name not in text
    ]


def check_hierarchy_coverage(doc_path: Path | None = None) -> list[str]:
    """Hierarchy modules missing from the control doc (empty list = covered)."""
    doc_path = doc_path or CONTROL_DOC
    if not doc_path.is_file():
        return []  # existence is check_required_docs' problem
    text = doc_path.read_text(encoding="utf-8")
    return [
        f"module {name} is not mentioned in {doc_path.name}"
        for name in HIERARCHY_MODULES
        if name not in text
    ]


def check_batched_coverage(doc_path: Path | None = None) -> list[str]:
    """Batching and memory-note modules missing from the fleet doc (empty = covered)."""
    doc_path = doc_path or FLEET_DOC
    if not doc_path.is_file():
        return []  # existence is check_required_docs' problem
    text = doc_path.read_text(encoding="utf-8")
    return [
        f"module {name} is not mentioned in {doc_path.name}"
        for name in BATCHED_MODULES + MEMORY_MODULES
        if name not in text
    ]


def obs_modules(src_root: Path | None = None) -> list[str]:
    """Module names under ``src/repro/obs/`` (excluding __init__)."""
    root = (src_root or REPO_ROOT / "src") / "repro" / "obs"
    if not root.is_dir():
        return []
    return sorted(p.stem for p in root.glob("*.py") if p.stem != "__init__")


def check_obs_coverage(doc_path: Path | None = None) -> list[str]:
    """Observability modules missing from the obs doc (empty list = covered)."""
    doc_path = doc_path or OBSERVABILITY_DOC
    if not doc_path.is_file():
        return []  # existence is check_required_docs' problem
    text = doc_path.read_text(encoding="utf-8")
    problems = [
        f"module repro.obs.{name} is not mentioned in {doc_path.name}"
        for name in obs_modules()
        if f"repro.obs.{name}" not in text
    ]
    problems.extend(
        f"required module {name} is not mentioned in {doc_path.name}"
        for name in OBS_REQUIRED_MODULES
        if name not in text and not any(name in p for p in problems)
    )
    return problems


def events_modules(src_root: Path | None = None) -> list[str]:
    """Module names under ``src/repro/events/`` (excluding __init__)."""
    root = (src_root or REPO_ROOT / "src") / "repro" / "events"
    if not root.is_dir():
        return []
    return sorted(p.stem for p in root.glob("*.py") if p.stem != "__init__")


def check_events_coverage(doc_path: Path | None = None) -> list[str]:
    """Delivery-plane modules missing from the events doc (empty = covered)."""
    doc_path = doc_path or EVENTS_DOC
    if not doc_path.is_file():
        return []  # existence is check_required_docs' problem
    text = doc_path.read_text(encoding="utf-8")
    problems = [
        f"module repro.events.{name} is not mentioned in {doc_path.name}"
        for name in events_modules()
        if f"repro.events.{name}" not in text
    ]
    problems.extend(
        f"required module {name} is not mentioned in {doc_path.name}"
        for name in EVENTS_REQUIRED_MODULES
        if name not in text
    )
    return problems


def extract_python_snippets(markdown_path: Path) -> list[tuple[int, str]]:
    """``(start_line, source)`` for each fenced python block in the file."""
    snippets: list[tuple[int, str]] = []
    fence_lang: str | None = None
    start = 0
    lines: list[str] = []
    for lineno, line in enumerate(markdown_path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if _FENCE_RE.match(stripped):
            if fence_lang is None:
                # Opening fence; the first word of the info string is the
                # language (```python title="x" still counts as python).
                info = stripped.lstrip("`").strip()
                fence_lang = info.split()[0].lower() if info else ""
                start = lineno + 1
                lines = []
            else:
                if fence_lang == "python":
                    snippets.append((start, "\n".join(lines)))
                fence_lang = None
        elif fence_lang is not None:
            lines.append(line)
    return snippets


def documentation_files() -> list[Path]:
    """Markdown files whose python snippets must parse."""
    files = [REPO_ROOT / "README.md"]
    docs_dir = REPO_ROOT / "docs"
    if docs_dir.is_dir():
        files.extend(sorted(docs_dir.glob("*.md")))
    return [f for f in files if f.is_file()]


def check_snippets() -> list[str]:
    """Syntax errors across all documented python snippets (empty = clean)."""
    problems = []
    for path in documentation_files():
        for start_line, source in extract_python_snippets(path):
            try:
                compile(source, str(path), "exec")
            except SyntaxError as exc:
                problems.append(
                    f"{path.relative_to(REPO_ROOT)}:{start_line}: "
                    f"python snippet does not parse: {exc.msg} (line {exc.lineno})"
                )
    return problems


def main() -> int:
    problems = (
        check_architecture_coverage()
        + check_required_docs()
        + check_control_coverage()
        + check_accuracy_coverage()
        + check_obs_coverage()
        + check_batched_coverage()
        + check_hierarchy_coverage()
        + check_events_coverage()
        + check_snippets()
    )
    if problems:
        print("Docs consistency check FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    packages = repro_packages()
    snippet_count = sum(len(extract_python_snippets(p)) for p in documentation_files())
    print(
        f"Docs consistency check passed: {len(packages)} packages covered, "
        f"{snippet_count} python snippets parsed."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
