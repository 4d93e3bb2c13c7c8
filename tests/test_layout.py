"""Package layout rules: no code in src/ that only tests call, one module
that indexes final-DAG nodes, one that keeps a run's counters, a CLI that
builds no record, and docs that name the variants and the CLI subcommands
the package has.

Every name a module lists in ``__all__`` or defines at top level (by
``def``, ``class`` or assignment; dunders aside) must be used somewhere in
the package outside its own definition.  A re-export from the package's ``__init__`` is not a
use.  Helpers that only tests need live in the tests; ``ALLOWED`` names
the exceptions, each with the caller outside ``src/`` that needs it.
"""

import ast
import dataclasses
import pathlib
import re

import pytest

from topk_subsets.cli import build_parser
from topk_subsets.enumerators import RunMetrics, Variant

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "topk_subsets"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def exported(tree):
    """The string entries of a module's top-level ``__all__`` list."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return [elt.value for elt in stmt.value.elts]
    return []


def used_names(stmt):
    """Identifiers a statement reads, as bare names or as attributes."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def defined_name(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return stmt.name
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
        if isinstance(target, ast.Name):
            return target.id
    return None


def defined_names(tree):
    names = (defined_name(stmt) for stmt in tree.body)
    return [name for name in names if name and not name.startswith("__")]


# (module file name, name defined by the statement or None, names it uses)
USES = [
    (path.name, defined_name(stmt), used_names(stmt))
    for path in PACKAGE.glob("*.py")
    for stmt in parse(path).body
]
ALLOWED = {}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_public_name_is_used_in_the_package(path):
    tree = parse(path)
    unused = [
        name
        for name in dict.fromkeys(exported(tree) + defined_names(tree))
        if name not in ALLOWED
        and not any(
            name in uses and (module, defined) != (path.name, name)
            for module, defined, uses in USES
        )
    ]
    assert unused == [], f"{path.name}: only tests use {unused}"


def test_every_allowed_name_is_defined():
    defined = {name for path in MODULES for name in defined_names(parse(path))}
    assert ALLOWED.keys() <= defined


def wide_indexes(tree):
    """Lines that index, slice from or ``itemgetter`` an int constant >= 5."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            keys = [node.slice.lower if isinstance(node.slice, ast.Slice) else node.slice]
        elif isinstance(node, ast.Call) and "itemgetter" in used_names(node.func):
            keys = node.args
        else:
            continue
        lines += [key.lineno for key in keys if isinstance(key, ast.Constant)
                  and type(key.value) is int and key.value >= 5]
    return lines


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "shifts.py"],
                         ids=lambda p: p.stem)
def test_only_shifts_indexes_dag_nodes(path):
    # only final-DAG nodes have more than four fields; shifts lays them out
    assert wide_indexes(parse(path)) == [], f"{path.name} reads a node field outside shifts"


def test_the_cli_formats_fields_and_builds_no_record():
    # the writer formats the walk's fields, and the delta replay lives in core alone
    tree = parse(PACKAGE / "cli.py")
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    record_names = {"RankedSubset", "Delta", "_new", "expand_deltas"}
    assert (imported | used_names(tree)) & record_names == set()


def counter_writes(tree):
    """Lines that assign or augment an attribute named after a ``RunMetrics`` field."""
    fields = {f.name for f in dataclasses.fields(RunMetrics)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        lines += [t.lineno for target in targets for t in ast.walk(target)
                  if isinstance(t, ast.Attribute) and t.attr in fields]
    return lines


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "enumerators.py"],
                         ids=lambda p: p.stem)
def test_only_the_walk_keeps_run_counters(path):
    # the best-first walk defines every counter from the pool's len()
    assert counter_writes(parse(path)) == [], f"{path.name} writes a run counter"


def test_readme_algorithm_bullets_name_the_variants():
    # a removed variant cannot linger in the docs, nor a new one go undocumented
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Algorithms\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^\* `([^`]+)`", section, flags=re.M) == [v.value for v in Variant]


def test_readme_cli_sections_follow_the_parser():
    # one `### ` section per subcommand, in the parser's order
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    usage = build_parser().format_usage()  # "usage: topk-subsets [-h] {topk,verify,...} ..."
    commands = re.search(r"\{([^}]*)\}", usage).group(1).split(",")
    assert re.findall(r"^### (\S+)$", section, flags=re.M) == commands
    assert commands == ["topk", "verify", "bench", "dag"]
