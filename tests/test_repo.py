"""Repository hygiene: no tracked file is one that .gitignore excludes, and
no public definition in src/wplzx is dead code."""

from __future__ import annotations

import ast
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def test_no_tracked_file_is_ignored():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    if _git("rev-parse", "--is-inside-work-tree").stdout.strip() != "true":
        pytest.skip("not a git checkout")
    listed = _git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout == "", f"tracked but ignored (generated?) files:\n{listed.stdout}"


# Public names kept although nothing in src/, perfbench/ or the acceptance
# tests reaches them, each with its reason.
REACH_ALLOWLIST = {
    "diagram_to_circuit": "the only producer of optimized circuits for `metrics --opt`",
}


def _referenced(tree: ast.AST) -> set[str]:
    """Names, attribute names and imported names used in ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def test_every_public_name_is_reached():
    """Each top-level public def or class in src/wplzx is used by another
    definition in src/, by perfbench/ or by the acceptance tests.

    Uses are names, attribute names and imports in the syntax tree, so a
    mention in a docstring or an ``__init__`` re-export does not count.
    """
    defined, units = [], []
    for path in sorted((ROOT / "src" / "wplzx").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            units.append((stmt, _referenced(stmt)))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not stmt.name.startswith("_"):
                    defined.append((path.relative_to(ROOT), stmt))
    outside = set()
    for path in [*sorted((ROOT / "perfbench").rglob("*.py")), ROOT / "tests" / "test_acceptance.py"]:
        outside |= _referenced(ast.parse(path.read_text()))

    unreached = {
        stmt.name: f"{path}:{stmt.lineno} {stmt.name}"
        for path, stmt in defined
        if stmt.name not in outside
        and not any(stmt.name in names for unit, names in units if unit is not stmt)
    }
    dead = [where for name, where in unreached.items() if name not in REACH_ALLOWLIST]
    assert not dead, "public definitions nothing reaches:\n" + "\n".join(dead)
    stale = sorted(set(REACH_ALLOWLIST) - set(unreached))
    assert not stale, f"allowlisted names that are now reached or gone: {stale}"
