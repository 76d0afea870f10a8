#!/usr/bin/env python3
"""Docs-consistency checks, run by CI and by ``tests/test_docs.py``.

Seven guarantees:

1. **Coverage** — every package under ``src/repro/`` is mentioned in
   ``docs/ARCHITECTURE.md`` (as ``repro.<name>``), so the architecture page
   cannot silently fall behind the code.
2. **Required pages** — the subsystem reference pages in ``REQUIRED_DOCS``
   exist (a rename or deletion fails CI rather than leaving dead links).
3. **Subsystem depth** — each subsystem page names the modules that
   implement what it documents: ``COVERAGE`` is the one table of page →
   modules pinned by name + a package whose every module is discovered, the
   package-level guarantee repeated at module granularity.
4. **Snippet validity** — every fenced ``python`` code block in
   ``README.md`` and ``docs/*.md`` parses (``compile()``), so documented
   examples cannot rot into syntax errors.
5. **Names resolve** — the reverse of 1: every dotted ``repro.…`` name in
   ``README.md`` and ``docs/*.md`` resolves on disk to a package or module,
   and a component past the module is defined or imported at that module's
   top level (read with ``ast``; nothing is imported).
6. **Attributes resolve** — every backticked ``Class.attr`` in the same
   files (with or without a ``repro.…`` module path in front), whose
   ``Class`` is a class defined under ``src/repro/``, names a method,
   property, annotated field, class-body assignment or ``self.`` store of
   that class or of one of its bases (read with ``ast``), so a removed field
   fails the check until the docs follow.  A class with a base from outside
   ``repro`` (an ``Enum``, a ``str``) is not checked past its own members.
7. **Class names resolve** — every code span outside fenced blocks in the
   same files that is exactly one CamelCase name (`` `NodeAggregate` ``) is
   a class defined under ``src/repro/`` or ``tests/`` (read with ``ast``),
   or a builtin or ``typing`` name, so a deleted class fails the check until
   the docs follow.  All-caps names (`` `N` ``, `` `DROP_OLDEST` ``) are
   constants, not class names.

Exit status 0 when everything holds; 1 with a problem list otherwise.
"""

from __future__ import annotations

import ast
import builtins
import re
import typing
from functools import partial
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
ARCHITECTURE_DOC = REPO_ROOT / "docs" / "ARCHITECTURE.md"
FLEET_DOC = REPO_ROOT / "docs" / "FLEET.md"
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
# repro.control.value is the accuracy-aware control half (threshold drift),
# documented alongside the signals it consumes.
ACCURACY_MODULES = ("repro.fleet.accuracy", "repro.control.trace", "repro.control.value")

# The batched cross-camera hot path spans three packages: the N>1 kernels,
# the per-tick scorer, and the runtime dispatch hook.  FLEET.md owns the
# data-flow story and must point at every implementing module.
BATCHED_MODULES = ("repro.nn.batched", "repro.core.batched", "repro.fleet.runtime")
# FLEET.md's "memory per camera" note says what a hosted camera keeps
# resident; it must name where the weights (and no gradients) and the
# feature-map cache live.
MEMORY_MODULES = ("repro.nn.layers", "repro.features.extractor")

# The explainability layer must stay documented even if obs-module
# auto-discovery ever changes: alerting and incident correlation are pinned
# by name, on top of the every-module check.
OBS_REQUIRED_MODULES = ("repro.obs.alerts", "repro.obs.incident")

# The hierarchical control plane spans two packages: the node/cluster
# planes themselves, the district-partitioned fleet generator, and the
# O(nodes) cluster report path.  CONTROL.md owns the scale-out story and
# must point at every implementing module (the control-module
# auto-discovery only covers repro.control.*).
HIERARCHY_MODULES = (
    "repro.control.hierarchy",
    "repro.fleet.camera",
    "repro.fleet.sharding",
)

# The event delivery plane spans three packages: the repro.events pipeline
# (covered module by module), the record/identity schema, and the
# shared-uplink transport integration.  EVENTS.md owns the delivery story
# and must point at every implementing module.
EVENTS_REQUIRED_MODULES = ("repro.core.events", "repro.fleet.sharding")

# check -> (page, modules pinned by name, package whose every module is
# discovered or None).  A page may carry several checks.
COVERAGE: dict[str, tuple[str, tuple[str, ...], str | None]] = {
    "control": ("CONTROL.md", (), "control"),
    "accuracy": ("ACCURACY.md", ACCURACY_MODULES, None),
    "obs": ("OBSERVABILITY.md", OBS_REQUIRED_MODULES, "obs"),
    "batched": ("FLEET.md", BATCHED_MODULES + MEMORY_MODULES, None),
    "hierarchy": ("CONTROL.md", HIERARCHY_MODULES, None),
    "events": ("EVENTS.md", EVENTS_REQUIRED_MODULES, "events"),
}

_FENCE_RE = re.compile(r"^```")
_DOTTED_NAME_RE = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
# A backticked reference that starts with a dotted name: `Class.attr`,
# `repro.fleet.runtime.Class.attr`, `Class.method()`.
_BACKTICKED_DOTTED_RE = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)")
# A code span that is exactly one CamelCase name: a lowercase letter after
# the leading capital keeps all-caps constants out.
_BARE_CLASS_RE = re.compile(r"`([A-Z]\w*[a-z]\w*)`")
# Bases that add no attribute a doc would name.
_PLAIN_BASES = {"object", "ABC", "Protocol", "Generic"}


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


def package_modules(package: str, src_root: Path | None = None) -> list[str]:
    """Module names under ``src/repro/<package>/`` (excluding __init__)."""
    root = (src_root or REPO_ROOT / "src") / "repro" / package
    if not root.is_dir():
        return []
    return sorted(p.stem for p in root.glob("*.py") if p.stem != "__init__")


def check_coverage(check: str, doc_path: Path | None = None) -> list[str]:
    """Modules of one ``COVERAGE`` row missing from its page (empty list = covered)."""
    page, pinned, package = COVERAGE[check]
    doc_path = doc_path or REPO_ROOT / "docs" / page
    if not doc_path.is_file():
        return []  # existence is check_required_docs' problem
    text = doc_path.read_text(encoding="utf-8")
    names = [f"repro.{package}.{name}" for name in package_modules(package)] if package else []
    # A pinned module that discovery also found is complained about once.
    names += [name for name in pinned if name not in names]
    return [
        f"module {name} is not mentioned in {doc_path.name}" for name in names if name not in text
    ]


# The names tests/test_docs.py and older callers use, as entries over the table.
control_modules = partial(package_modules, "control")
obs_modules = partial(package_modules, "obs")
events_modules = partial(package_modules, "events")
check_control_coverage = partial(check_coverage, "control")
check_accuracy_coverage = partial(check_coverage, "accuracy")
check_obs_coverage = partial(check_coverage, "obs")
check_batched_coverage = partial(check_coverage, "batched")
check_hierarchy_coverage = partial(check_coverage, "hierarchy")
check_events_coverage = partial(check_coverage, "events")


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


def top_level_names(module_path: Path) -> set[str]:
    """Names a module defines, assigns or imports at top level."""
    names: set[str] = set()
    for node in ast.parse(module_path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def resolve_dotted_name(name: str) -> str | None:
    """Why ``name`` (``repro.…``) does not resolve on disk, or None when it does."""
    path = REPO_ROOT / "src" / "repro"
    parts = name.split(".")
    for i, part in enumerate(parts[1:], 1):
        parent = ".".join(parts[:i])
        if (path / part / "__init__.py").is_file():
            path = path / part
        elif (path / f"{part}.py").is_file():
            if i + 1 < len(parts) and parts[i + 1] not in top_level_names(path / f"{part}.py"):
                return f"{parts[i + 1]!r} is not defined at the top level of {parent}.{part}"
            return None
        elif part in top_level_names(path / "__init__.py"):
            return None
        else:
            return f"{part!r} is neither a module nor a top-level name of {parent}"
    return None


def check_dotted_names(files: list[Path] | None = None) -> list[str]:
    """Dotted ``repro.…`` names in the docs that name nothing (empty = all resolve)."""
    problems = []
    for path in files if files is not None else documentation_files():
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, 1):
            for name in dict.fromkeys(_DOTTED_NAME_RE.findall(line)):
                reason = resolve_dotted_name(name)
                if reason is not None:
                    problems.append(f"{path.name}:{lineno}: {name} does not resolve: {reason}")
    return problems


def _class_members(node: ast.ClassDef) -> set[str]:
    """Attribute names a class body defines: members, fields and ``self.`` stores."""
    members: set[str] = set()
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            members.add(item.name)
        elif isinstance(item, (ast.Assign, ast.AnnAssign)):
            targets = item.targets if isinstance(item, ast.Assign) else [item.target]
            members.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Store)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
        ):
            members.add(sub.attr)
        elif (  # object.__setattr__(self, "name", ...) in a frozen dataclass
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "__setattr__"
            and len(sub.args) >= 2
            and isinstance(sub.args[0], ast.Name)
            and sub.args[0].id == "self"
            and isinstance(sub.args[1], ast.Constant)
        ):
            members.add(sub.args[1].value)
    return members


def class_index(src_root: Path | None = None) -> dict[str, list[tuple[str, list[str], set[str]]]]:
    """Class name -> ``(module, base names, members)`` for every class under ``repro``."""
    root = src_root or REPO_ROOT / "src"
    index: dict[str, list[tuple[str, list[str], set[str]]]] = {}
    for path in sorted((root / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases = [
                    base.id if isinstance(base, ast.Name) else base.attr
                    for base in (b.value if isinstance(b, ast.Subscript) else b for b in node.bases)
                    if isinstance(base, (ast.Name, ast.Attribute))
                ]
                index.setdefault(node.name, []).append((module, bases, _class_members(node)))
    return index


def resolve_attribute(index, class_name: str, attr: str, module: str | None = None) -> bool:
    """Whether ``attr`` is a member of ``class_name`` (in ``module`` when given) or a base."""
    seen: set[str] = set()
    pending = [(class_name, module)]
    while pending:
        name, in_module = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        entries = [e for e in index.get(name, ()) if in_module is None or e[0] == in_module]
        if not entries:
            if name not in _PLAIN_BASES:
                return True  # a base from outside repro: its members are not read here
            continue
        for _, bases, members in entries:
            if attr in members:
                return True
            pending.extend((base, None) for base in bases)
    return False


def check_attribute_references(files: list[Path] | None = None) -> list[str]:
    """Backticked ``Class.attr`` references in the docs that name no member (empty = all do)."""
    index = class_index()
    problems = []
    for path in files if files is not None else documentation_files():
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, 1):
            for reference in dict.fromkeys(_BACKTICKED_DOTTED_RE.findall(line)):
                parts = reference.split(".")
                for i, part in enumerate(parts[:-1]):
                    if part in index:
                        module = ".".join(parts[:i]) if parts[0] == "repro" and i else None
                        if not resolve_attribute(index, part, parts[i + 1], module):
                            problems.append(
                                f"{path.name}:{lineno}: `{reference}`: {parts[i + 1]!r} is not "
                                f"an attribute of {part}"
                            )
                        break
    return problems


def check_class_names(files: list[Path] | None = None) -> list[str]:
    """Bare backticked class names in the docs' prose that name no class (empty = all do)."""
    known = set(class_index()) | set(dir(builtins)) | set(dir(typing))
    for path in sorted((REPO_ROOT / "tests").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        known.update(node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef))
    problems = []
    for path in files if files is not None else documentation_files():
        in_fence = False
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if _FENCE_RE.match(line.strip()):
                in_fence = not in_fence
            elif not in_fence:
                problems += [
                    f"{path.name}:{lineno}: `{name}` is not a class under src/repro/ or tests/"
                    for name in dict.fromkeys(_BARE_CLASS_RE.findall(line))
                    if name not in known
                ]
    return problems


def main() -> int:
    problems = check_architecture_coverage() + check_required_docs()
    for check in COVERAGE:
        problems += check_coverage(check)
    problems += check_snippets()
    problems += check_dotted_names()
    problems += check_attribute_references()
    problems += check_class_names()
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
