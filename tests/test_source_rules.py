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
    """The tableau is built in one place, and only the integer LP entry
    hands problems to it.  Above that entry, `lp_solve` (which scales an
    `LPProblem`), the slack LP and the Farkas dual of cone membership are
    the only encodings of an LP question; the library itself poses its
    LPs over the integers and never through `lp_solve`."""
    assert _calls_to("_Simplex") == {("lp", "simplex_max")}
    assert _calls_to("simplex_max") == {("lp", "_solve_ints")}
    assert _calls_to("_solve_ints") == {("lp", "lp_solve"), ("polyhedra", "_max_slack"),
                                        ("polyhedra", "_cone_contains")}
    assert _calls_to("lp_solve") == set()


def test_only_lp_builds_an_lp_problem():
    """An `LPProblem` is built in the LP module alone: every other mention
    of the name in the library is the package root's re-export."""
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "lp":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name == "LPProblem":
                sites.add((path.stem, type(node).__name__))
    assert sites == {("__init__", "alias")}


def _takes_free(fn) -> bool:
    args = fn.args
    return any(arg.arg == "free" for arg in args.posonlyargs + args.args + args.kwonlyargs)


def test_one_encoding_of_free_variables():
    """Every variable of the tableau is free, its (+) column stored once
    and its (-) column read negated: no module defines `_split` or
    `_join`, which would encode free variables a second way as explicit
    column pairs, and neither `simplex_max` nor `_Simplex.__init__` takes
    a `free` parameter that would bring back a nonnegative mode."""
    helpers, params = [], {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name in ("_split", "_join"):
                    helpers.append((path.stem, node.name))
            elif isinstance(node, ast.Assign):
                helpers += [(path.stem, t.id) for t in node.targets
                            if isinstance(t, ast.Name) and t.id in ("_split", "_join")]
        if path.stem == "lp":
            for top in tree.body:
                if isinstance(top, ast.FunctionDef) and top.name == "simplex_max":
                    params["simplex_max"] = _takes_free(top)
                if isinstance(top, ast.ClassDef) and top.name == "_Simplex":
                    for fn in top.body:
                        if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                            params["_Simplex.__init__"] = _takes_free(fn)
    assert helpers == []
    assert params == {"simplex_max": False, "_Simplex.__init__": False}


def _reads_lp(tree) -> tuple[bool, set[str]]:
    """(imports the LP module, the LP outcome names it mentions) for one
    module: `from .lp import ...`, `from . import lp` and `import
    relint_kit.lp` all count as imports."""
    imports, named = False, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[-1] == "lp" or any(a.name == "lp" for a in node.names):
                imports = True
        elif isinstance(node, ast.Import):
            imports = imports or any(a.name.split(".")[-1] == "lp" for a in node.names)
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else
                node.name if isinstance(node, ast.alias) else None)
        if name in ("Optimal", "Infeasible", "dual_ineq", "multipliers_ineq"):
            named.add(name)
    return imports, named


def test_only_polyhedra_reads_lp_outcomes():
    """Every slack LP is encoded and read in `polyhedra._max_slack`, which
    hands back (t, x, y, z): among the library modules only `polyhedra`
    and the package root import from the LP module, and no other module
    names its outcome types or their multiplier fields."""
    importers, readers = set(), {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "lp":
            continue
        imports, named = _reads_lp(ast.parse(path.read_text(), filename=str(path)))
        if imports:
            importers.add(path.stem)
        if named and path.stem not in ("polyhedra", "__init__"):
            readers[path.stem] = sorted(named)
    assert importers == {"polyhedra", "__init__"}
    assert readers == {}

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


def test_one_bounded_memo_table():
    """Facts derived from a set, a map or a function are cached on that
    object; the one memo table is the bounded parse cache, a bare
    `@lru_cache`.  An unbounded table (`lru_cache(maxsize=None)` or
    `cache`) fails here."""
    memoized, other_uses = set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    if _memo_name(dec):
                        memoized.add((path.stem, node.name, ast.unparse(dec)))
                        decorators.add(id(dec.func if isinstance(dec, ast.Call) else dec))
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Name, ast.Attribute)) and _memo_name(node)
                    and id(node) not in decorators):
                other_uses.append((path.name, node.lineno))
    assert memoized == {("docio", "parse_instance", "lru_cache")}
    assert other_uses == []


SERIALIZERS = ("ser_vec", "ser_mat", "certificate_doc", "witness_doc",
               "membership_report_doc", "classification_doc")


def test_one_report_encoder():
    """Report values reach JSON through `docio.to_json` alone: only its
    private recursion formats a rational, and no module defines one of the
    per-type serializers that it replaced."""
    assert _calls_to("format_rational") == {("docio", "_encode")}
    defined = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [(path.stem, node.name) for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name in SERIALIZERS]
    assert defined == []


def test_report_objects_carry_no_constants():
    """A report field is computed from its inputs: no module imports or
    annotates `ClassVar`, the way a flag that is constant by construction
    would ride on a report class.  Report format 1 prints its constant
    flags from the CLI alone."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name == "ClassVar":
                sites.append((path.stem, getattr(node, "lineno", None)))
    assert sites == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _exported() -> set[str]:
    """The names the package root imports, and so exports."""
    tree = ast.parse((SRC / "__init__.py").read_text(), filename="__init__.py")
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_private_helper_has_a_caller():
    """Every private function or method of the library, and every
    top-level function the package root does not export, is named
    somewhere in the library outside its own definition: as a name, an
    attribute or an import.  A helper left behind after its last caller
    went fails here, public or not; tests do not count as callers.  The
    CLI's `main` is exempt as the entry point."""
    exported = _exported()
    defined, used = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        top_level = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    _is_private(node.name)
                    or id(node) in top_level and node.name not in exported):
                defined.append((node.name, path.stem, node.lineno, node.end_lineno))
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name is not None:
                used.append((name, path.stem, node.lineno))
    assert defined
    assert ("main", "cli") in {(name, module) for name, module, _, _ in defined}
    uncalled = [(module, name) for name, module, first, last in defined
                if (module, name) != ("cli", "main")
                and not any(n == name and (m != module or not first <= line <= last)
                            for n, m, line in used)]
    assert uncalled == []


def test_tuples_are_built_from_lists():
    """No `tuple(<generator expression>)` in the library: a tuple built
    from a generator is over-allocated and then shrunk, and CPython parks
    its block on a per-length free list when it dies (see the comment in
    lp.py), so the library builds tuples from lists, which is also faster
    for the short vectors it works with."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        sites += [(path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "tuple" and len(node.args) == 1
                  and isinstance(node.args[0], ast.GeneratorExp)]
    assert sites == []


def _package_imports(tree) -> set[str]:
    """The package modules one module imports, however written:
    `from .m import x`, `from . import m`, `from relint_kit.m import x`,
    `from relint_kit import m` and `import relint_kit.m`."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "relint_kit":
                    continue
                parts = parts[1:]
            modules |= {parts[0]} if parts and parts[0] else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            modules |= {a.name.partition(".")[2] or a.name for a in node.names
                        if a.name.split(".")[0] == "relint_kit"}
    return modules


def test_double_description_is_a_leaf_over_integers():
    """`dd.py` imports nothing from the package except `rational`: the
    double description kernel works on plain integer rows, so no set type,
    solver or linear algebra reaches into it, and each caller hands it the
    integers it already holds."""
    assert _package_imports(ast.parse((SRC / "dd.py").read_text())) == {"rational"}
    assert _package_imports(ast.parse(
        "from . import lp\nfrom relint_kit.linalg import rank\nimport relint_kit.polyhedra\n"
        "from relint_kit import docio\nimport fractions\n")) == {
            "lp", "linalg", "polyhedra", "docio"}
