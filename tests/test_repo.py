"""Repository hygiene: no tracked file is one that .gitignore excludes, no
public or private definition in src/wplzx is dead code, no class member
there is one that nothing reads, no default parameter of a public function
is one that no caller sets, no module-level constant is one that nothing
reads, no package re-exports a name that nothing imports through it, the exact engine imports without numpy, the sources
parse with the oldest Python grammar pyproject.toml accepts, README lists
every flag of every command and the columns of every CSV, every function
the benchmark harness wraps still exists, and the harness's own tests pass."""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
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


# Private definitions kept although nothing else in src/ references them,
# as "module.name" or "module.Class.name", each with its reason.
PRIVATE_ALLOWLIST: dict[str, str] = {}


def _reference_counts(tree: ast.AST) -> Counter:
    """How often each name, attribute name and imported name is used in
    ``tree``."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
    return out


def test_every_private_function_is_called():
    """Each top-level or method def or class in src/wplzx whose name starts
    with one underscore is referenced somewhere in src/ outside its own
    definition.

    ``test_every_public_name_is_reached`` skips these names, so without this
    rule a helper whose last caller is deleted would stay behind unnoticed.
    A recursive call is inside the definition and does not count.
    """
    trees = {path: ast.parse(path.read_text()) for path in sorted((ROOT / "src").rglob("*.py"))}
    total = sum((_reference_counts(tree) for tree in trees.values()), Counter())
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    uncalled = {}
    for path, tree in trees.items():
        module = _module_name(path)
        for stmt in tree.body:
            members = stmt.body if isinstance(stmt, ast.ClassDef) else []
            for prefix, node in [("", stmt), *((f"{stmt.name}.", m) for m in members)]:
                if not isinstance(node, kinds) or node.name[:1] != "_" or node.name[:2] == "__":
                    continue
                if total[node.name] == _reference_counts(node)[node.name]:
                    key = f"{module}.{prefix}{node.name}"
                    uncalled[key] = f"{path.relative_to(ROOT)}:{node.lineno} {key}"
    dead = [where for key, where in uncalled.items() if key not in PRIVATE_ALLOWLIST]
    assert not dead, "private definitions nothing else references:\n" + "\n".join(dead)
    stale = sorted(set(PRIVATE_ALLOWLIST) - set(uncalled))
    assert not stale, f"allowlisted private definitions that are now referenced or gone: {stale}"


# Default parameters kept although no call in src/, perfbench/ or the
# acceptance tests sets them, as "function(parameter)", each with its reason.
KEYWORD_ALLOWLIST: dict[str, str] = {}


def _public_functions():
    for path in sorted((ROOT / "src" / "wplzx").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not stmt.name.startswith("_"):
                    yield path.relative_to(ROOT), stmt


def test_every_keyword_parameter_is_set():
    """Each parameter with a default, of each public top-level function in
    src/wplzx, is set by keyword or by position in some call to a function
    of that name in src/, perfbench/ or the acceptance tests.

    A call that passes ``*args`` or ``**kwargs`` counts as setting them all.
    Otherwise the parameter is a fixed policy and belongs in a constant.
    """
    calls: dict[str, list[ast.Call]] = {}
    paths = [
        *sorted((ROOT / "src").rglob("*.py")),
        *sorted((ROOT / "perfbench").rglob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
    ]
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)

    unset = {}
    for path, fn in _public_functions():
        args = fn.args
        positional = [*args.posonlyargs, *args.args]
        first = len(positional) - len(args.defaults)
        # (position or None for keyword-only, name) of each defaulted parameter
        defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
        defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
        for index, param in defaulted:
            if not any(
                any(isinstance(a, ast.Starred) for a in call.args)
                or any(kw.arg in (None, param) for kw in call.keywords)
                or (index is not None and len(call.args) > index)
                for call in calls.get(fn.name, ())
            ):
                key = f"{fn.name}({param})"
                unset[key] = f"{path}:{fn.lineno} {key}"
    fixed = [where for key, where in unset.items() if key not in KEYWORD_ALLOWLIST]
    assert not fixed, "default parameters no caller sets:\n" + "\n".join(fixed)
    stale = sorted(set(KEYWORD_ALLOWLIST) - set(unset))
    assert not stale, f"allowlisted parameters that are now set or gone: {stale}"


# Class members kept although nothing in src/, perfbench/ or the acceptance
# tests reads them, as "Class.member", each with its reason.
MEMBER_ALLOWLIST: dict[str, str] = {}


def _reads(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Attribute names loaded (``x.name``) and string constants in ``tree``,
    outside the subtree ``skip``."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_member_is_read():
    """Each field (annotated class-body name) and each non-dunder method or
    property of each top-level class in src/wplzx is read somewhere in src/,
    perfbench/ or the acceptance tests, outside its own definition.

    A read is an attribute load ``x.name`` or a string constant equal to the
    name (as ``getattr`` or a field list would use it); a keyword in a
    constructor call is not a read.
    """
    paths = [
        *sorted((ROOT / "src").rglob("*.py")),
        *sorted((ROOT / "perfbench").rglob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
    ]
    trees = {path: ast.parse(path.read_text()) for path in paths}
    reads = {path: _reads(tree) for path, tree in trees.items()}

    unread = {}
    for path, tree in trees.items():
        if ROOT / "src" / "wplzx" not in path.parents or path.name == "__init__.py":
            continue
        elsewhere = set().union(*(names for p, names in reads.items() if p != path))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    name = stmt.target.id
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = stmt.name
                    if name.startswith("__") and name.endswith("__"):
                        continue
                else:
                    continue
                if name not in elsewhere and name not in _reads(tree, skip=stmt):
                    key = f"{cls.name}.{name}"
                    unread[key] = f"{path.relative_to(ROOT)}:{stmt.lineno} {key}"
    dead = [where for key, where in unread.items() if key not in MEMBER_ALLOWLIST]
    assert not dead, "class members nothing reads:\n" + "\n".join(dead)
    stale = sorted(set(MEMBER_ALLOWLIST) - set(unread))
    assert not stale, f"allowlisted members that are now read or gone: {stale}"


# Module-level names kept although nothing in src/, perfbench/ or the
# acceptance tests loads them, as "module.NAME", each with its reason.
CONSTANT_ALLOWLIST: dict[str, str] = {}


def _loads(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names loaded (``name``) and attribute names loaded (``x.name``) in
    ``tree``, outside the subtree ``skip``."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_module_constant_is_read():
    """Each name that a module-level assignment in src/wplzx binds, other
    than ``__all__``, is loaded somewhere in src/, perfbench/ or the
    acceptance tests, outside its own assignment.

    A load is a name ``NAME`` or an attribute ``module.NAME`` read in the
    syntax tree; an import, a mention in a docstring or a re-assignment is
    not.  The rules above cover definitions, members, parameters and
    re-exports; without this one, a cap or a table whose last reader is
    deleted would stay behind unnoticed.
    """
    paths = [
        *sorted((ROOT / "src").rglob("*.py")),
        *sorted((ROOT / "perfbench").rglob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
    ]
    trees = {path: ast.parse(path.read_text()) for path in paths}
    loads = {path: _loads(tree) for path, tree in trees.items()}

    unread = {}
    for path, tree in trees.items():
        if ROOT / "src" / "wplzx" not in path.parents:
            continue
        elsewhere = set().union(*(names for p, names in loads.items() if p != path))
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            else:
                continue
            for target in targets:
                for node in ast.walk(target):
                    if not isinstance(node, ast.Name) or node.id == "__all__":
                        continue
                    if node.id not in elsewhere and node.id not in _loads(tree, skip=stmt):
                        key = f"{_module_name(path)}.{node.id}"
                        unread[key] = f"{path.relative_to(ROOT)}:{stmt.lineno} {key}"
    dead = [where for key, where in unread.items() if key not in CONSTANT_ALLOWLIST]
    assert not dead, "module-level names nothing reads:\n" + "\n".join(dead)
    stale = sorted(set(CONSTANT_ALLOWLIST) - set(unread))
    assert not stale, f"allowlisted module-level names that are now read or gone: {stale}"


# Names a package __init__ in src/wplzx re-exports although nothing imports
# them through the package, as "package.name", each with its reason.
REEXPORT_ALLOWLIST: dict[str, str] = {}


def _module_name(path: Path) -> str:
    """Dotted name of the module or package at ``path``, from src/ for files
    there and from the repository root otherwise."""
    base = ROOT / "src" if ROOT / "src" in path.parents else ROOT
    parts = path.relative_to(base).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_from(path: Path, node: ast.ImportFrom) -> str:
    """Absolute name of the module that ``node``, in the file at ``path``,
    imports from."""
    if not node.level:
        return node.module
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package.pop()
    package = package[: len(package) - node.level + 1]
    return ".".join([*package, node.module] if node.module else package)


def test_every_reexport_is_imported_through_its_package():
    """Each name that a package ``__init__`` in src/wplzx binds with
    ``from .module import name`` is listed in its ``__all__``, if it has one,
    and is imported as ``from package import name`` (or relatively from
    inside src/) somewhere in src/, perfbench/ or tests/.

    Tests count as importers, since a re-export serves whoever imports
    through it; whether each definition is live is the question of
    ``test_every_public_name_is_reached``.
    """
    imported = set()  # (module, name) of each ``from module import name``
    for top in ("src", "perfbench", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    module = _imported_from(path, node)
                    imported |= {(module, alias.name) for alias in node.names}

    unlisted, unimported = [], {}
    for path in sorted((ROOT / "src" / "wplzx").rglob("__init__.py")):
        package, where = _module_name(path), path.relative_to(ROOT)
        body = ast.parse(path.read_text()).body
        bound = {
            alias.asname or alias.name
            for stmt in body
            if isinstance(stmt, ast.ImportFrom) and stmt.level and stmt.module
            for alias in stmt.names
        }
        for stmt in body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
            ):
                listed = set(ast.literal_eval(stmt.value))
                if listed != bound:
                    unlisted.append(f"{where}: {sorted(listed ^ bound)}")
        for name in sorted(bound):
            if (package, name) not in imported:
                unimported[f"{package}.{name}"] = f"{where} {name}"
    assert not unlisted, "__all__ differs from the re-exported names:\n" + "\n".join(unlisted)
    unused = [where for key, where in unimported.items() if key not in REEXPORT_ALLOWLIST]
    assert not unused, "re-exports nothing imports through their package:\n" + "\n".join(unused)
    stale = sorted(set(REEXPORT_ALLOWLIST) - set(unimported))
    assert not stale, f"allowlisted re-exports that are now imported or gone: {stale}"


@pytest.mark.parametrize("module", ["wplzx.phase", "wplzx.diagram", "wplzx.rewrite"])
def test_exact_engine_imports_without_numpy(module):
    """Phase arithmetic, diagrams and rewriting are exact and use no numpy,
    so importing one of them in a fresh interpreter does not load it."""
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = f"import sys, {module}; print('numpy' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


def test_sources_parse_with_the_oldest_supported_grammar():
    """Every .py under src/, tests/ and perfbench/ parses with the grammar of
    the oldest Python that pyproject.toml's ``requires-python`` accepts.

    This checks grammar only.  A call to a function or method added in a
    later version, such as ``BaseException.add_note`` (3.11), still parses.
    """
    pyproject = (ROOT / "pyproject.toml").read_text()
    oldest = re.search(r'requires-python = ">=3\.(\d+)"', pyproject)
    assert oldest, "pyproject.toml declares no requires-python lower bound"
    version = (3, int(oldest.group(1)))
    for top in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            ast.parse(path.read_text(), filename=str(path), feature_version=version)


def _readme_flag_lists() -> tuple[str, dict[str, set[str]]]:
    """README's Commands section up to its first subsection, and for each
    ``### name`` subsection the options its bullets list: the code spans
    starting with ``-`` that open a bullet, before the bullet's text."""
    readme = (ROOT / "README.md").read_text()
    section = re.search(r"^## Commands\n(.*?)(?=^## )", readme, re.M | re.S)
    assert section, "README.md has no '## Commands' section"
    preamble, *parts = re.split(r"^### (\S+)\n", section.group(1), flags=re.M)
    listed = {}
    for name, body in zip(parts[::2], parts[1::2]):
        bullets = (b.replace("\n  ", " ") for b in re.findall(r"^- .*(?:\n  .*)*", body, re.M))
        heads = (re.match(r"- ((?:`-[^`]*`,? ?)*)", b).group(1) for b in bullets)
        listed[name] = {flag for head in heads for flag in re.findall(r"`(-[\w-]+)", head)}
    return preamble, listed


def test_readme_documents_every_flag():
    """Under README's Commands section, each subcommand has a subsection
    whose bullets list exactly the options of its parser, apart from ``-h``
    and ``--config``, which every command takes and the section states once
    above the subsections; and the parser's description, which ``wplzx
    --help`` prints, names every subcommand."""
    from wplzx.cli import build_parser

    parser = build_parser()
    preamble, listed = _readme_flag_lists()
    assert sorted(listed) == sorted(parser.commands), "README command subsections"
    for name, command in parser.commands.items():
        assert {"help", "config"} <= set(command.flags), name
        options = {
            option
            for dest, action in command.flags.items()
            if dest not in ("help", "config")
            for option in action.option_strings
        }
        missing, extra = sorted(options - listed[name]), sorted(listed[name] - options)
        assert not missing, f"README does not list these flags of {name}: {missing}"
        assert not extra, f"README lists flags that {name} does not have: {extra}"
    assert "`-h`" in preamble and "`--config FILE`" in preamble
    for name in parser.commands:
        assert re.search(rf"\b{name}\b", parser.description), f"--help omits {name}"


def test_readme_gives_the_columns_each_csv_prints(capsys):
    """The columns README's ``sweep``, ``metrics`` and ``curvature``
    subsections give are the header each command prints: a one-trial
    sweep and a one-point curvature landscape are run, and ``metrics``'
    header is ``METRIC_COLUMNS``."""
    from wplzx import cli

    readme = (ROOT / "README.md").read_text()
    section = re.search(r"^## Commands\n(.*?)(?=^## )", readme, re.M | re.S).group(1)
    _, *parts = re.split(r"^### (\S+)\n", section, flags=re.M)
    listed = {
        name: re.findall(r"columns\s+`([^`]*)`", body)
        for name, body in zip(parts[::2], parts[1::2])
    }
    printed = {"metrics": ",".join(cli.METRIC_COLUMNS)}
    runs = {
        "sweep": ["sweep", "--lambdas", "0", "--trials", "1"],
        "curvature": ["curvature", "--points", "1"],
    }
    for name, argv in runs.items():
        assert cli.main(argv) == 0
        printed[name] = capsys.readouterr().out.split("\n", 1)[0]
    for name, header in printed.items():
        assert listed[name] == [header], f"README's {name} columns"


def test_benchmark_harness_names_exist(monkeypatch):
    # perfbench's own tests are not collected here, so a rename of a
    # function it wraps would otherwise first show as a failed traced run
    monkeypatch.syspath_prepend(str(ROOT))
    import perfbench.tracing
    import perfbench.workloads  # noqa: F401  (it must import, too)

    for module, attr, name, _ in perfbench.tracing.LAYERS:
        assert callable(getattr(module, attr, None)), (module.__name__, attr, name)


def test_benchmark_harness_tests_pass():
    # perfbench/tests is collected on its own (its conftest clashes with
    # this one), so run it here: a src/ change that breaks the harness fails
    # this suite rather than a benchmark run.
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert run.returncode == 0, (run.stdout + run.stderr)[-3000:]
