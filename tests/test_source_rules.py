"""Rules that hold for the library source as a whole."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "relint_kit"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    """Internal invariants raise TheoremViolation: `python -O` strips assert."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


def _calls_to(name: str) -> set[tuple[str, str]]:
    """(module, enclosing top-level function) of every call to `name`,
    whether written as `name(...)` or `module.name(...)`."""
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if callee == name:
                    sites.add((path.stem, owner))
    return sites


def test_one_lp_front_end():
    """The tableau is built in one place, and only the general LP front
    end and the cone-membership test encode problems for it.  Above the
    front end, the slack LP is the one encoding of every LP question."""
    assert _calls_to("_Simplex") == {("lp", "simplex_max")}
    assert _calls_to("simplex_max") == {("lp", "lp_solve"), ("polyhedra", "cone_contains")}
    assert _calls_to("lp_solve") == {("polyhedra", "_max_slack")}


def test_integer_scaling_lives_in_rational():
    """A rational vector is put over the integers in one place: only
    rational.py calls lcm or gcd, or reads a numerator or denominator."""
    for name in ("lcm", "gcd"):
        assert {module for module, _ in _calls_to(name)} == {"rational"}, name
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if any(isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator")
               for node in ast.walk(tree)):
            readers.add(path.stem)
    assert readers == {"rational"}


def _memo_name(node) -> str | None:
    """'lru_cache' or 'cache' when `node` is such a decorator, bare or called."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name if name in ("lru_cache", "cache") else None


def test_memo_tables_are_the_listed_four():
    """Every memo table is unbounded and keyed on whole sets or maps, so a
    new one is a deliberate choice: add it here."""
    memoized, other_uses = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    if _memo_name(dec):
                        memoized.add((path.stem, node.name))
                        decorators.add(id(dec.func if isinstance(dec, ast.Call) else dec))
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Name, ast.Attribute)) and _memo_name(node)
                    and id(node) not in decorators):
                other_uses.append((path.name, node.lineno))
    assert memoized == {("polyhedra", "h_to_v"), ("polyhedra", "_interior"),
                        ("setmaps", "map_domain"), ("setmaps", "epi_polyhedron")}
    assert other_uses == []
