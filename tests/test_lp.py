"""LP solver outcomes and their self-validating certificates."""

import random
from decimal import Decimal
from fractions import Fraction
from math import comb

import pytest
from conftest import split_lp_solve
from hypothesis import given, settings, strategies as st

from relint_kit.errors import InputError
from relint_kit.lp import (
    FarkasCertificate,
    Infeasible,
    LPProblem,
    Optimal,
    Unbounded,
    _Simplex,
    lp_solve,
    verify_farkas,
)
from relint_kit.rational import dot, mat, scaled_ints, vec

UNIT_SQUARE = (
    mat([[1, 0], [-1, 0], [0, 1], [0, -1]]),
    vec([1, 0, 1, 0]),
)


def test_optimal_unit_square_against_vertex_enumeration():
    # Independent oracle: the maximum of a linear functional over the unit
    # square is attained at one of its four corners.
    corners = [vec([0, 0]), vec([1, 0]), vec([0, 1]), vec([1, 1])]
    objective = vec([1, 1])
    expected = max(dot(objective, v) for v in corners)
    out = lp_solve(LPProblem.maximize(objective, UNIT_SQUARE))
    assert isinstance(out, Optimal)
    assert out.value == expected == 2
    assert out.point == vec([1, 1])


def test_infeasible_with_verifying_certificate():
    p = LPProblem.maximize(vec([1]), (mat([[1], [-1]]), vec([0, -1])))
    out = lp_solve(p)
    assert isinstance(out, Infeasible)
    assert verify_farkas(p, out.certificate)


def test_unbounded_halfline():
    p = LPProblem.maximize(vec([1]), (mat([[-1]]), vec([0])))
    out = lp_solve(p)
    assert isinstance(out, Unbounded)
    assert out.ray == vec([1])
    assert p.ineq_lhs[0][0] * out.ray[0] <= 0
    assert dot(p.objective, out.ray) > 0


def test_unbounded_invariants_with_equalities():
    # max x + y on the line x = y: improving ray along the diagonal.
    p = LPProblem.maximize(vec([1, 1]), eq=(mat([[1, -1]]), vec([0])))
    out = lp_solve(p)
    assert isinstance(out, Unbounded)
    assert dot(p.eq_lhs[0], out.ray) == 0
    assert dot(p.objective, out.ray) > 0
    assert dot(p.eq_lhs[0], out.feasible_point) == 0


def test_minimize_sense():
    out = lp_solve(LPProblem.minimize(vec([1, 1]), UNIT_SQUARE))
    assert isinstance(out, Optimal)
    assert out.value == 0
    assert out.point == vec([0, 0])


def test_optimal_point_satisfies_constraints_exactly():
    p = LPProblem.maximize(
        vec(["2/3", "-1/7"]),
        (mat([["1/2", 1], [-1, "1/3"], [0, -1]]), vec([3, "5/2", 1])),
    )
    out = lp_solve(p)
    assert isinstance(out, Optimal)
    for row, beta in zip(p.ineq_lhs, p.ineq_rhs):
        assert dot(row, out.point) <= beta
    assert out.value == dot(p.objective, out.point)


def test_empty_constraint_sets_whole_space():
    out = lp_solve(LPProblem.maximize(vec([0, 0])))
    assert isinstance(out, Optimal) and out.value == 0
    out = lp_solve(LPProblem.maximize(vec([1, 0])))
    assert isinstance(out, Unbounded)


def test_verify_farkas_rejects_noncontradiction():
    p = LPProblem.maximize(vec([1]), (mat([[1]]), vec([1])))
    assert not verify_farkas(p, FarkasCertificate(vec([1]), ()))


def test_verify_farkas_rejects_negative_multiplier():
    p = LPProblem.maximize(vec([1]), (mat([[1], [-1]]), vec([0, -1])))
    assert not verify_farkas(p, FarkasCertificate(vec([-1, -1]), ()))
    assert not verify_farkas(p, FarkasCertificate(vec([1]), ()))


@pytest.mark.parametrize("bad", [None, "1", 1.0, True, Decimal(1), FarkasCertificate(None, ()),
                                 FarkasCertificate((1,), None), FarkasCertificate(5, ())],
                         ids=["none", "str", "float", "bool", "decimal", "ineq-none", "eq-none",
                              "ineq-int"])
def test_verify_farkas_rejects_inexact_multipliers(bad):
    # x <= -1 and -x <= -1 add up to 0 <= -2 with multipliers (1, 1); the
    # same value as a float, a bool or a Decimal is not a certificate, and
    # None or a string is no multiplier at all, nor is a field that is not
    # a sequence a list of multipliers.
    p = LPProblem.maximize(vec([1]), (mat([[1], [-1]]), vec([-1, -1])), (mat([[1]]), vec([0])))
    assert verify_farkas(p, FarkasCertificate((1, Fraction(1)), (0,)))
    if isinstance(bad, FarkasCertificate):
        assert not verify_farkas(p, bad)
    else:
        assert not verify_farkas(p, FarkasCertificate((bad, 1), (0,)))
        assert not verify_farkas(p, FarkasCertificate((1, 1), (bad,)))


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError):
        LPProblem.maximize(vec([1, 2]), (mat([[1]]), vec([0])))


@pytest.mark.parametrize("args, block", [
    (((1.5,), "max", ((1.0,),), (2.0,)), "objective"),
    (((1,), "max", ((Decimal("1"),),), (2,)), "inequalities"),
    (((1,), "min", ((1,),), (Fraction(1, 2),), ((1,),), (0.5,)), "equalities"),
    (((True,), "max"), "objective"),
], ids=["float", "decimal", "float-rhs", "bool"])
def test_inexact_entries_rejected(args, block):
    with pytest.raises(InputError, match=f"^{block}: entry "):
        LPProblem(*args)


def _random_feasible_bounded(rng, n, m):
    """Origin-feasible rows plus a box, so the LP is feasible and bounded.

    Equality rows pass through the origin, which keeps feasibility."""
    A, b = [], []
    E, d = [], []
    for _ in range(m):
        row = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            E.append(tuple(row))
            d.append(Fraction(0))
        else:
            A.append(tuple(row))
            b.append(Fraction(rng.randint(0, 9)))
    for j in range(n):
        e = [Fraction(0)] * n
        e[j] = Fraction(1)
        A.append(tuple(e))
        b.append(Fraction(rng.randint(1, 9)))
        A.append(tuple(-v for v in e))
        b.append(Fraction(rng.randint(1, 9)))
    c = vec([rng.randint(-9, 9) for _ in range(n)])
    return LPProblem.maximize(c, (tuple(A), tuple(b)), (tuple(E), tuple(d)))


def _dual_problem(p: LPProblem) -> LPProblem:
    """min b·lam + d·mu st A^T lam + E^T mu = c, lam >= 0 as an explicit LP."""
    m1, m2, n = len(p.ineq_lhs), len(p.eq_lhs), p.dim
    eq_rows = tuple(
        tuple(p.ineq_lhs[i][j] for i in range(m1))
        + tuple(p.eq_lhs[i][j] for i in range(m2))
        for j in range(n)
    )
    nonneg = tuple(
        tuple(-Fraction(int(i == k)) for i in range(m1 + m2))
        for k in range(m1)
    )
    return LPProblem.minimize(
        p.ineq_rhs + p.eq_rhs, (nonneg, vec([0] * m1)), (eq_rows, p.objective)
    )


def test_lp_duality_exact_on_random_instances():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 6)
        p = _random_feasible_bounded(rng, n, rng.randint(1, 12))
        primal = lp_solve(p)
        assert isinstance(primal, Optimal)
        dual = lp_solve(_dual_problem(p))
        assert isinstance(dual, Optimal)
        assert primal.value == dual.value
        # The multipliers reported with the primal are dual-feasible too.
        lam, mu = primal.dual_ineq, primal.dual_eq
        assert all(v >= 0 for v in lam)
        combo = [
            sum(lam[i] * p.ineq_lhs[i][j] for i in range(len(lam)))
            + sum(mu[i] * p.eq_lhs[i][j] for i in range(len(mu)))
            for j in range(n)
        ]
        assert vec(combo) == p.objective
        assert dot(lam, p.ineq_rhs) + dot(mu, p.eq_rhs) == primal.value


def test_pivot_counts_stay_within_combinatorial_bound():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = rng.randint(1, 10)
        p = _random_feasible_bounded(rng, n, m)
        out = lp_solve(p)
        rows = m + 2 * n
        assert out.pivots <= comb(2 * n + rows + 1, rows)


def test_deterministic_repeat():
    p = LPProblem.maximize(
        vec([1, 2]), (mat([[1, 1], [1, -1], [-1, 0], [0, -1]]), vec([2, 1, 0, 0]))
    )
    assert lp_solve(p) == lp_solve(p)


def _small_rat(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 5)))


def _random_lp(rng: random.Random) -> LPProblem:
    """Small LP with either sense and optional equality rows; about a third
    of the draws are optimal, a quarter infeasible, the rest unbounded."""
    n = rng.randint(1, 4)
    m1 = rng.randint(0, 6)
    m2 = rng.choice((0, 0, 1, 2))
    A = tuple(tuple(_small_rat(rng) for _ in range(n)) for _ in range(m1))
    b = tuple(_small_rat(rng) + rng.randint(-1, 3) for _ in range(m1))
    E = tuple(tuple(_small_rat(rng) for _ in range(n)) for _ in range(m2))
    d = tuple(_small_rat(rng) for _ in range(m2))
    c = tuple(_small_rat(rng) for _ in range(n))
    return LPProblem(c, rng.choice(("max", "min")), A, b, E, d)


def test_status_matches_highs():
    # Independent oracle: HiGHS shares no code with the exact simplex. Its
    # presolve is off because it reported "infeasible" for two feasible,
    # unbounded LPs in 2,400 draws of this generator, one of them
    # min 2x + 2y - 2z subject to 3 <= 3x - 2y - 3z <= 4.
    scipy_optimize = pytest.importorskip("scipy.optimize")

    def floats(rows):
        return [[float(a) for a in row] for row in rows] or None

    status_of = {Optimal: 0, Infeasible: 2, Unbounded: 3}
    rng = random.Random(4006)
    seen = set()
    for _ in range(300):
        p = _random_lp(rng)
        out = lp_solve(p)
        sign = -1 if p.sense == "max" else 1
        res = scipy_optimize.linprog(
            [sign * float(a) for a in p.objective],
            A_ub=floats(p.ineq_lhs), b_ub=[float(a) for a in p.ineq_rhs] or None,
            A_eq=floats(p.eq_lhs), b_eq=[float(a) for a in p.eq_rhs] or None,
            bounds=(None, None), method="highs", options={"presolve": False},
        )
        assert res.status == status_of[type(out)], (p, out, res.message)
        if isinstance(out, Optimal):
            assert sign * res.fun == pytest.approx(float(out.value), rel=1e-7, abs=1e-7)
        seen.add(type(out))
    assert seen == {Optimal, Infeasible, Unbounded}


def _rat(rng: random.Random, wide: bool) -> Fraction:
    den = rng.choice((7919, 104729, 2**31 - 1, 10**9 + 7)) if wide else rng.choice((1, 1, 2, 3))
    return Fraction(rng.randint(-9, 9) * (den if wide and rng.random() < 0.3 else 1), den)


def _encoding_lp(rng: random.Random, kind: str) -> LPProblem:
    """A small LP of one kind: "n0" has no variables, "free" no rows,
    "eq" equalities only, "wide" large prime denominators, "mixed" both
    blocks; either sense."""
    n = 0 if kind == "n0" else rng.randint(1, 4)
    m1 = 0 if kind in ("free", "eq") else rng.randint(0, 6)
    m2 = 0 if kind == "free" else rng.randint(1, 3) if kind == "eq" else rng.randint(0, 2)
    wide = kind == "wide"

    def row():
        return tuple([_rat(rng, wide) for _ in range(n)])

    A = tuple([row() for _ in range(m1)])
    b = tuple([_rat(rng, wide) + rng.randint(-1, 3) for _ in range(m1)])
    E = tuple([row() for _ in range(m2)])
    d = tuple([_rat(rng, wide) for _ in range(m2)])
    return LPProblem(row(), rng.choice(("max", "min")), A, b, E, d)


def test_free_columns_pivot_as_the_split_tableau():
    # lp_solve stores each free variable once; the split encoding, with
    # explicit (+, -) column pairs, must give the same outcome object,
    # pivot count included.
    rng = random.Random(1401)
    seen = set()
    for i in range(2500):
        kind = ("n0", "free", "eq", "wide", "mixed", "mixed")[i % 6]
        p = _encoding_lp(rng, kind)
        out = lp_solve(p)
        assert repr(out) == repr(split_lp_solve(p)), p
        seen.add((kind, type(out).__name__))
    kinds = {k for k, _ in seen}
    for kind in ("eq", "wide", "mixed"):
        assert {(kind, t) for t in ("Optimal", "Infeasible", "Unbounded")} <= seen, kind
    assert kinds == {"n0", "free", "eq", "wide", "mixed"}
    assert ("free", "Unbounded") in seen and ("free", "Optimal") in seen


def _boxed_lp(rng: random.Random) -> LPProblem:
    """An LP with denominators up to 97, no variables in some draws and a
    box around the origin in most, so that most outcomes are optimal."""
    n = rng.choice((0, 1, 2, 3, 4, 5))

    def rat():
        return Fraction(rng.randint(-99, 99), rng.randint(1, 97))

    A = [tuple([rat() for _ in range(n)]) for _ in range(rng.randint(0, 4))]
    b = [rat() + rng.randint(0, 3) for _ in A]
    if rng.random() < 0.8:
        for j in range(n):
            for sign in (1, -1):
                A.append(tuple([Fraction(sign, rng.randint(1, 97)) if k == j else 0
                                for k in range(n)]))
                b.append(Fraction(rng.randint(1, 99), rng.randint(1, 97)))
    E = tuple([tuple([rat() for _ in range(n)]) for _ in range(rng.choice((0, 0, 1, 2)))])
    d = tuple([rat() if rng.random() < 0.7 else Fraction(0) for _ in E])
    c = tuple([rat() for _ in range(n)])
    return LPProblem(c, rng.choice(("max", "min")), tuple(A), tuple(b), E, d)


def test_optimal_value_read_off_the_tableau_is_the_objective_at_the_point():
    rng = random.Random(1601)
    seen = set()
    for _ in range(2000):
        p = _boxed_lp(rng)
        out = lp_solve(p)
        if isinstance(out, Optimal):
            assert type(out.value) is Fraction
            assert out.value == dot(p.objective, out.point), p
            seen.add((p.sense, p.dim == 0, bool(p.eq_lhs)))
    assert seen == {(sense, n0, eq) for sense in ("max", "min")
                    for n0 in (True, False) for eq in (True, False)}


_small = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def lp_problems(draw):
    n = draw(st.integers(0, 3))
    m1, m2 = draw(st.integers(0, 4)), draw(st.integers(0, 2))
    vector = st.lists(_small, min_size=n, max_size=n).map(tuple)
    A = tuple(draw(st.lists(vector, min_size=m1, max_size=m1)))
    E = tuple(draw(st.lists(vector, min_size=m2, max_size=m2)))
    b = tuple(draw(st.lists(_small, min_size=m1, max_size=m1)))
    d = tuple(draw(st.lists(_small, min_size=m2, max_size=m2)))
    return LPProblem(draw(vector), draw(st.sampled_from(("max", "min"))), A, b, E, d)


@settings(max_examples=300, deadline=None)
@given(lp_problems())
def test_free_columns_pivot_as_the_split_tableau_hypothesis(p):
    assert repr(lp_solve(p)) == repr(split_lp_solve(p))


def _holds_each_index_once(sx: _Simplex) -> bool:
    """`basis` and `nonbasic` together hold every slack once and exactly
    one half of each free variable."""
    held = sorted(sx.basis + sx.nonbasic)
    halves = [j >> 1 for j in held if j < 2 * sx.n]
    return halves == list(range(sx.n)) and held[sx.n:] == list(range(2 * sx.n, sx.total))


def test_free_tableau_stores_one_column_per_variable():
    # The tableau is stored by column: one per nonbasic slot and one for
    # the right-hand side, n + 1 in all, each holding an entry per row and
    # the objective entry, m + 1.  The phase-one auxiliary's column is gone
    # after solving.
    rng = random.Random(5)
    seen = set()
    for _ in range(50):
        p = _encoding_lp(rng, "mixed")
        rows = list(p.ineq_lhs) + list(p.eq_lhs) + [[-a for a in r] for r in p.eq_lhs]
        rhs = list(p.ineq_rhs) + list(p.eq_rhs) + [-v for v in p.eq_rhs]
        sx = _Simplex(scaled_ints(p.objective),
                      [scaled_ints([*row, beta]) for row, beta in zip(rows, rhs)])
        width, height = len(p.objective) + 1, len(rows) + 1
        assert [len(col) for col in sx.cols] == [height] * width
        assert len(sx.nonbasic) == width - 1 and _holds_each_index_once(sx)
        status = sx.solve()[0]
        seen.add(status)
        if status != "infeasible":
            assert [len(col) for col in sx.cols] == [height] * width
            assert sx.total not in sx.nonbasic + sx.basis
            assert len(sx.nonbasic) == width - 1 and _holds_each_index_once(sx)
    assert seen == {"optimal", "infeasible", "unbounded"}


def _batch_lp(rng: random.Random) -> LPProblem:
    """An LP at the sizes of the benchmark's lp-batch: 4 to 10 variables,
    up to 24 tableau rows (each equality counts twice), some equalities,
    either sense; one draw in eight is the explicit dual of a smaller LP.
    Most draws have few rows, which keeps the `Fraction` oracle fast."""
    if rng.random() < 0.125:
        n, m = rng.randint(2, 3), rng.randint(4, 10)
        return _dual_problem(LPProblem(
            tuple([_small_rat(rng) for _ in range(n)]), "max",
            tuple([tuple([_small_rat(rng) for _ in range(n)]) for _ in range(m)]),
            tuple([_small_rat(rng) + rng.randint(-1, 3) for _ in range(m)])))
    n = rng.randint(4, 10)
    m2 = rng.choice((0, 0, 1, 2, 3))
    m1 = min([rng.randint(0, 24 - 2 * m2) for _ in range(3)])

    def row():
        return tuple([_small_rat(rng) if rng.random() < 0.5 else 0 for _ in range(n)])

    A = tuple([row() for _ in range(m1)])
    b = tuple([_small_rat(rng) + rng.randint(-1, 4) for _ in range(m1)])
    E = tuple([row() for _ in range(m2)])
    d = tuple([_small_rat(rng) for _ in range(m2)])
    return LPProblem(row(), rng.choice(("max", "min")), A, b, E, d)


def test_condensed_tableau_pivots_as_the_split_tableau_at_batch_sizes(monkeypatch):
    # Records the three paths where the condensed tableau departs most
    # from the split one: a (-) half entering, a free variable leaving the
    # basis, and the phase-one exit pivot (the auxiliary leaving outside
    # Bland's iterations).
    paths = set()
    pivot, bland = _Simplex._pivot, _Simplex._bland

    def spy_pivot(sx, r, s):
        enter, leave = sx.nonbasic[s], sx.basis[r]
        if enter < 2 * sx.n and enter & 1:
            paths.add("minus half enters")
        if leave < 2 * sx.n:
            paths.add("free variable leaves")
        if leave == sx.total and not getattr(sx, "in_bland", False):
            paths.add("phase-one exit")
        pivot(sx, r, s)

    def spy_bland(sx):
        sx.in_bland = True
        try:
            return bland(sx)
        finally:
            sx.in_bland = False

    monkeypatch.setattr(_Simplex, "_pivot", spy_pivot)
    monkeypatch.setattr(_Simplex, "_bland", spy_bland)
    rng = random.Random(1801)
    seen = set()
    for _ in range(2000):
        p = _batch_lp(rng)
        out = lp_solve(p)
        assert repr(out) == repr(split_lp_solve(p)), p
        seen.add((p.sense, bool(p.eq_lhs), type(out).__name__))
    assert paths == {"minus half enters", "free variable leaves", "phase-one exit"}
    assert {(s, t) for s, _, t in seen} == {
        (s, t) for s in ("max", "min") for t in ("Optimal", "Infeasible", "Unbounded")}
    assert {eq for _, eq, _ in seen} == {True, False}
