"""Every size limit is defined in ``limits`` and nowhere else, only the
engine it bounds reads it, and no entry point takes a limit of its own."""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import hyperbetti
from hyperbetti import limits
from hyperbetti.families import survey
from hyperbetti.homology import homology_of_restrictions
from hyperbetti.hypergraph import is_triangulated
from hyperbetti.taylor import analyze_taylor

PACKAGE = Path(hyperbetti.__file__).parent


def _limit_sites(path: Path) -> list[str]:
    """Module-level names with a _CAP or _BUDGET part that ``path``
    assigns, and each place it spells the environment variable
    BETTI_CAP_N."""
    tree = ast.parse(path.read_text())
    sites = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        else:
            continue
        sites += [node.id for target in targets for node in ast.walk(target)
                  if isinstance(node, ast.Name) and re.search(r"_(CAP|BUDGET)(_|$)", node.id)]
    sites += ["'BETTI_CAP_N'" for node in ast.walk(tree)
              if isinstance(node, ast.Constant) and node.value == "BETTI_CAP_N"]
    return sites


def test_only_limits_defines_size_limits():
    found = {path.name: _limit_sites(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert sorted(found.pop("limits.py")) == [
        "'BETTI_CAP_N'", "BETTI_CAP_N", "FAMILY_BUDGET", "LYUBEZNIK_BUDGET",
        "TRIANGULATED_CAP"]
    assert {name: sites for name, sites in found.items() if sites} == {}


def _limit_reads(path: Path) -> set[str]:
    """Each ``limits.NAME`` that ``path`` reads, for NAME a limit or
    ``vertex_cap``. Skip reasons name limits inside format strings,
    which are text, not reads."""
    names = set(limits.current()) | {"vertex_cap"}
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in names
            and isinstance(node.value, ast.Name) and node.value.id == "limits"}


def test_each_limit_is_read_by_the_engine_it_bounds():
    reads: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "limits.py":
            for name in _limit_reads(path):
                reads.setdefault(name, set()).add(path.stem)
    assert reads == {
        "FAMILY_BUDGET": {"families"},
        "LYUBEZNIK_BUDGET": {"taylor"},
        "TRIANGULATED_CAP": {"splitting"},
        "vertex_cap": {"homology"},
    }


def test_no_entry_point_takes_a_size_parameter():
    functions = [obj for obj in (getattr(hyperbetti, name) for name in hyperbetti.__all__)
                 if inspect.isfunction(obj)]
    functions += [homology_of_restrictions, analyze_taylor, survey, is_triangulated]
    assert hyperbetti.betti_table in functions
    offenders = [f"{fn.__module__}.{fn.__name__}({param})" for fn in functions
                 for param in inspect.signature(fn).parameters if param in ("cap", "budget")]
    assert offenders == []


def test_readme_limits_table_matches_limits():
    """The rows of the README's limits table name every limit with its
    current value."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| ([\d,]+) \|", readme, re.MULTILINE)
    assert {name: int(value.replace(",", "")) for name, value in rows} == limits.current()
    assert len(rows) == len(limits.current())
