"""No module-level import that its module never uses.

Every tracked ``.py`` file (``git ls-files``) is parsed with :mod:`ast`.  A
name bound by an import at module level (in the module body, or in a
module-level ``if`` / ``try`` / ``with`` block) must be read somewhere in the
module: as a name, as the head of an attribute chain, in a quoted
annotation, or as a string in the module's ``__all__``.  ``from __future__``
imports, star imports and lines marked ``# noqa: F401`` (an import kept for
its side effect) are exempt.
"""

import ast
import re
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
NOQA_F401 = re.compile(r"#\s*noqa:[\s\w,]*\bF401\b")


def _module_level_imports(body):
    """``(alias, statement)`` for every import outside a function or class body."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias, node
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            blocks = [node.body, getattr(node, "orelse", []), getattr(node, "finalbody", [])]
            blocks += [handler.body for handler in getattr(node, "handlers", [])]
            for block in blocks:
                yield from _module_level_imports(block)


def _quoted_annotations(tree):
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            for constant in ast.walk(annotation) if annotation is not None else ():
                if isinstance(constant, ast.Constant) and isinstance(constant.value, str):
                    yield constant.value


def _exported(tree):
    """The strings of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                if isinstance(node.value, (ast.List, ast.Tuple)):
                    for element in node.value.elts:
                        if isinstance(element, ast.Constant) and isinstance(element.value, str):
                            yield element.value


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each module-level import ``source`` never references."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for text in _quoted_annotations(tree):
        try:
            quoted = ast.parse(text, mode="eval")
        except SyntaxError:
            continue
        used |= {node.id for node in ast.walk(quoted) if isinstance(node, ast.Name)}
    used |= set(_exported(tree))
    unused = []
    for alias, statement in _module_level_imports(tree.body):
        name = alias.asname or alias.name.split(".")[0]
        marked = {lines[statement.lineno - 1], lines[alias.lineno - 1]}
        if name not in used and not any(NOQA_F401.search(line) for line in marked):
            unused.append((alias.lineno, name))
    return unused


def tracked_python_files() -> list[Path]:
    try:
        listed = subprocess.run(
            ["git", "ls-files", "*.py"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout: no tracked files to scan")
    return [REPO_ROOT / name for name in listed if (REPO_ROOT / name).is_file()]


def test_no_module_level_import_is_unused():
    files = tracked_python_files()
    assert files, "git ls-files listed no python file"
    problems = [
        f"{path.relative_to(REPO_ROOT)}:{line}: {name} imported and never used"
        for path in files
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert problems == []


class TestScanner:
    def test_unused_import_is_flagged(self):
        source = "import os\nimport re as regex\nfrom json import dumps, loads\nloads('1')\n"
        assert unused_imports(source) == [(1, "os"), (2, "regex"), (3, "dumps")]

    def test_references_count_wherever_they_are(self):
        source = (
            "import os.path\nfrom typing import Any\nimport json\n"
            "def f(x: 'Any') -> None:\n    return os.path.join(json.dumps(x))\n"
        )
        assert unused_imports(source) == []

    def test_future_imports_all_and_noqa_are_honoured(self):
        source = (
            "from __future__ import annotations\n"
            "from json import dumps\n"
            "import repro  # noqa: F401\n"
            "from os import (  # noqa: F401\n    sep,\n)\n"
            "__all__ = ['dumps']\n"
        )
        assert unused_imports(source) == []

    def test_other_noqa_codes_do_not_exempt(self):
        assert unused_imports("import os  # noqa: E402\n") == [(1, "os")]

    def test_imports_in_module_level_blocks_are_scanned(self):
        source = "try:\n    import numpy\nexcept ImportError:\n    import json\n"
        assert unused_imports(source) == [(2, "numpy"), (4, "json")]

    def test_function_level_imports_are_not_scanned(self):
        assert unused_imports("def f():\n    import os\n") == []
