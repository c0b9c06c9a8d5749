"""Representation conversions and structural set operations."""

import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    fraction_linear_image,
    fraction_minkowski_diff,
    matvec,
    primal_cone_contains,
    primitive_int,
    random_cone_rows,
    random_matrix,
    random_nonempty_hpoly,
    recession_contains,
    same_set,
    v_member,
)
from relint_kit import polyhedra
from relint_kit.dd import dd_cone
from relint_kit.errors import EmptySetError, InputError
from relint_kit.linalg import in_span, rank, solve_linear_system
from relint_kit.lp import FarkasCertificate, LPProblem, verify_farkas
from relint_kit.polyhedra import (
    AffineFlat,
    HPolyhedron,
    PolyCone,
    VPolyhedron,
    affine_hull,
    cone_contains,
    dim,
    h_to_v,
    implicit_rows,
    is_empty,
    linear_image,
    minkowski_diff,
    product,
    v_to_h,
)
from relint_kit.rational import dot, mat, unit, vec, zeros
from relint_kit.relint import ri_point

TRIANGLE = HPolyhedron.make(A=[[-1, 0], [0, -1], [1, 1]], b=[0, 0, 1])
UNIT_SQUARE = HPolyhedron.make(A=[[1, 0], [-1, 0], [0, 1], [0, -1]], b=[1, 0, 1, 0])
INTERVAL = HPolyhedron.make(A=[[1], [-1]], b=[1, 0])


# -- oracles: plain evaluation and elimination, no LP --------------------------


def contains_v_member(P: HPolyhedron, V: VPolyhedron) -> bool:
    """Every generator of V consistent with P: points inside, rays receding."""
    return all(P.contains(p) for p in V.points) and all(
        recession_contains(P, r) for r in V.rays
    )


def flat_to_hpoly(flat: AffineFlat) -> HPolyhedron:
    """The flat as an equality-only H-polyhedron whose normals span the
    orthogonal complement of its directions."""
    if flat.directions:
        sol = solve_linear_system(flat.directions, zeros(len(flat.directions)), flat.dim)
        normals = sol.nullspace_basis
    else:
        normals = tuple(unit(flat.dim, j) for j in range(flat.dim))
    d = tuple(dot(nrm, flat.basepoint) for nrm in normals)
    return HPolyhedron((), (), normals, d, flat.dim)


def flats_equal(f1: AffineFlat, f2: AffineFlat) -> bool:
    if f1.dim != f2.dim or f1.flat_dim != f2.flat_dim:
        return False
    return f1.contains(f2.basepoint) and f2.contains(f1.basepoint) and all(
        in_span(f1.directions, v) for v in f2.directions
    )


def test_is_empty_cases():
    assert is_empty(HPolyhedron.make(A=[[1], [-1]], b=[0, -1]))
    assert not is_empty(UNIT_SQUARE)
    assert UNIT_SQUARE.contains(ri_point(UNIT_SQUARE))
    assert is_empty(HPolyhedron.make(E=[[1], [1]], d=[0, 1], dim=1))


def test_triangle_vertices_against_pairwise_intersections():
    # Oracle: intersect constraint rows pairwise and keep feasible points.
    rows = list(zip(TRIANGLE.A, TRIANGLE.b))
    expected = set()
    for (a1, b1), (a2, b2) in combinations(rows, 2):
        sol = solve_linear_system((a1, a2), (b1, b2), 2)
        if sol is not None and not sol.nullspace_basis:
            if TRIANGLE.contains(sol.particular):
                expected.add(sol.particular)
    V = h_to_v(TRIANGLE)
    assert set(V.points) == expected == {vec([0, 0]), vec([1, 0]), vec([0, 1])}
    assert V.rays == ()


def test_halfline_generators():
    V = h_to_v(HPolyhedron.make(A=[[-1]], b=[0]))
    assert V.points == (vec([0]),)
    assert V.rays == (vec([1]),)


def test_line_becomes_opposite_ray_pair():
    V = h_to_v(HPolyhedron.make(E=[[1, 0]], d=[0], dim=2))
    assert V.points == (vec([0, 0]),)
    assert set(V.rays) == {vec([0, 1]), vec([0, -1])}


def test_h_to_v_empty_gives_no_generators():
    V = h_to_v(HPolyhedron.make(A=[[1], [-1]], b=[0, -1]))
    assert V.points == () and V.rays == ()
    assert V.is_empty_set


def test_v_to_h_triangle_round_trip():
    H = v_to_h(VPolyhedron.make(points=[[0, 0], [1, 0], [0, 1]]))
    assert same_set(H, TRIANGLE)


def test_v_to_h_single_point():
    H = v_to_h(VPolyhedron.make(points=[[1, 2]]))
    assert same_set(H, HPolyhedron.singleton(vec([1, 2])))


def test_v_to_h_point_plus_ray():
    H = v_to_h(VPolyhedron.make(points=[[0]], rays=[[1]]))
    assert same_set(H, HPolyhedron.make(A=[[-1]], b=[0]))


def test_v_to_h_empty():
    H = v_to_h(VPolyhedron.make(rays=[[1]], dim=1))
    assert is_empty(H)


def test_round_trip_on_random_instances():
    rng = random.Random(3)
    for _ in range(100):
        P = random_nonempty_hpoly(rng, rng.randint(1, 4), rng.randint(1, 8))
        V = h_to_v(P)
        assert contains_v_member(P, V)
        back = v_to_h(V)
        assert same_set(P, back)
        if not V.is_empty_set:
            assert v_member(V, ri_point(P))


def test_cone_contains_matches_the_primal_oracle():
    # cone_contains asks whether the Farkas dual max v·y, g·y <= 0 is
    # bounded; the oracle solves the primal Σλ_i g_i = v, λ >= 0 on a
    # simplex of its own.  Draws cover dimension 0, no generators, zero
    # generators, v = 0 and v a nonnegative combination.
    rng = random.Random(1501)

    def rat():
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))

    seen = set()
    for i in range(600):
        n, k = i % 5, rng.randint(0, 5)
        gens = [tuple([rat() for _ in range(n)]) for _ in range(k)]
        if gens and rng.random() < 0.2:
            gens[rng.randrange(k)] = zeros(n)
        mode = rng.choice(("zero", "combination", "random"))
        if mode == "zero":
            v = zeros(n)
        elif mode == "combination":
            v = zeros(n)
            for g in gens:
                t = Fraction(rng.randint(0, 3), rng.randint(1, 2))
                v = tuple([a + t * b for a, b in zip(v, g)])
        else:
            v = tuple([rat() for _ in range(n)])
        C = PolyCone(tuple(gens), n)
        inside = cone_contains(C, v)
        assert inside == primal_cone_contains(C, v), (C, v)
        assert inside or mode == "random", (C, v)
        seen.add((n > 0, k > 0, inside))
    assert seen == {(a, b, c) for a in (False, True) for b in (False, True)
                    for c in (False, True)} - {(False, True, False), (False, False, False)}


def test_dd_cone_rays_are_extreme():
    # Checks each output against its definition with rational dot products
    # and `rank`, so the adjacency test inside dd_cone is not reused here.
    rng = random.Random(4007)
    rays_seen = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        rows = random_cone_rows(rng, n)
        lineality, rays = dd_cone([primitive_int(r) for r in rows], n)
        lin = [vec(l) for l in lineality]
        assert rank(lin) == len(lin) == n - rank(rows)
        assert all(dot(m, l) == 0 for m in rows for l in lin)
        target = n - len(lin) - 1
        for r in rays:
            r = vec(r)
            values = [dot(m, r) for m in rows]
            assert all(v <= 0 for v in values)
            assert rank([m for m, v in zip(rows, values) if v == 0]) == target
        for r1, r2 in combinations(rays, 2):
            r1, r2 = vec(r1), vec(r2)
            assert not (rank([r1, r2]) == 1 and dot(r1, r2) > 0)
        rays_seen += len(rays)
    assert rays_seen >= 500


def test_affine_hull_square_in_plane_slice():
    # Unit square embedded in the plane z = 0 inside R^3; the z rows are
    # implicit inequalities rather than explicit equalities.
    P = HPolyhedron.make(
        A=[[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        b=[1, 0, 1, 0, 0, 0],
    )
    flat = affine_hull(P)
    assert flat.flat_dim == 2
    e3 = vec([0, 0, 1])
    assert all(dot(d, e3) == 0 for d in flat.directions)
    assert dim(P) == 2


def test_affine_hull_singleton_and_full():
    flat = affine_hull(HPolyhedron.singleton(vec([1, 2])))
    assert flat.flat_dim == 0
    assert flat.basepoint == vec([1, 2])
    assert affine_hull(UNIT_SQUARE).flat_dim == 2
    assert dim(HPolyhedron.make(A=[[1, 0], [-1, 0]], b=[1, 0], E=[[0, 1]], d=[0])) == 1
    assert dim(TRIANGLE) == 2


def test_affine_hull_requires_nonempty():
    with pytest.raises(EmptySetError):
        affine_hull(HPolyhedron.make(A=[[1], [-1]], b=[0, -1]))


def test_affine_hull_idempotent():
    rng = random.Random(5)
    for _ in range(30):
        P = random_nonempty_hpoly(rng, rng.randint(1, 4), rng.randint(1, 6))
        flat = affine_hull(P)
        again = affine_hull(flat_to_hpoly(flat))
        assert flats_equal(flat, again)


def test_linear_image_projection():
    img = linear_image(mat([[1, 0]]), UNIT_SQUARE)
    assert same_set(img, INTERVAL)


def test_linear_image_identity():
    img = linear_image(mat([[1, 0], [0, 1]]), UNIT_SQUARE)
    assert same_set(img, UNIT_SQUARE)


def test_linear_image_sum_functional_on_triangle():
    # Oracle: the image of a polytope is the convex hull of vertex images.
    M = mat([[1, 1]])
    vertex_images = sorted(matvec(M, v)[0] for v in h_to_v(TRIANGLE).points)
    img = linear_image(M, TRIANGLE)
    assert same_set(
        img,
        HPolyhedron.make(A=[[1], [-1]], b=[vertex_images[-1], -vertex_images[0]]),
    )
    assert same_set(img, INTERVAL)


def test_linear_image_functorial():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randint(1, 3)
        P = random_nonempty_hpoly(rng, n, n + 3)
        B = random_matrix(rng, rng.randint(1, 3), n)
        A = random_matrix(rng, rng.randint(1, 3), len(B))
        AB = tuple(
            tuple(dot(vec([A[i][k] for k in range(len(B))]),
                      vec([B[k][j] for k in range(len(B))]))
                  for j in range(n))
            for i in range(len(A))
        )
        assert same_set(linear_image(AB, P), linear_image(A, linear_image(B, P)))


def test_linear_image_dimension_mismatch():
    with pytest.raises(InputError):
        linear_image(mat([[1, 0, 0]]), UNIT_SQUARE)
    with pytest.raises(InputError, match="row 1 has length 1,"):
        linear_image(((Fraction(1), Fraction(0)), (Fraction(1),)), UNIT_SQUARE)
    with pytest.raises(InputError, match="^matrix: entry "):
        linear_image(((0.5, 0),), UNIT_SQUARE)


# Small H-polyhedra: rows with entries of denominator up to 7, some of them
# equalities; empty draws and free coordinates (lines) both occur.
_entries = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@st.composite
def small_hpolys(draw, dim):
    rows = draw(st.lists(st.tuples(st.lists(_entries, min_size=dim, max_size=dim),
                                   _entries, st.booleans()), max_size=dim + 2))
    A = tuple(tuple(row) for row, _, eq in rows if not eq)
    b = tuple(beta for _, beta, eq in rows if not eq)
    E = tuple(tuple(row) for row, _, eq in rows if eq)
    d = tuple(beta for _, beta, eq in rows if eq)
    return HPolyhedron(A, b, E, d, dim)


@st.composite
def image_instances(draw):
    n = draw(st.integers(0, 3))
    wide = st.fractions(min_value=-9, max_value=9, max_denominator=97)
    M = draw(st.lists(st.lists(wide, min_size=n, max_size=n), max_size=3))
    return tuple(tuple(row) for row in M), draw(small_hpolys(n))


@st.composite
def difference_instances(draw):
    n = draw(st.integers(0, 3))
    return draw(small_hpolys(n)), draw(small_hpolys(n))


@settings(max_examples=60, deadline=None)
@given(image_instances())
def test_linear_image_matches_the_fraction_route(instance):
    M, P = instance
    assert linear_image(M, P) == fraction_linear_image(M, P)


@settings(max_examples=60, deadline=None)
@given(difference_instances())
def test_minkowski_diff_matches_the_fraction_route(pair):
    P1, P2 = pair
    assert minkowski_diff(P1, P2) == fraction_minkowski_diff(P1, P2)


def test_minkowski_diff_interval():
    # Oracle: endpoint differences of [0,1] - [0,1] span [-1, 1].
    diffs = [p - q for p in (Fraction(0), Fraction(1)) for q in (Fraction(0), Fraction(1))]
    D = minkowski_diff(INTERVAL, INTERVAL)
    assert same_set(D, HPolyhedron.make(A=[[1], [-1]], b=[max(diffs), -min(diffs)]))


def test_minkowski_diff_zero_is_identity():
    D = minkowski_diff(UNIT_SQUARE, HPolyhedron.singleton(vec([0, 0])))
    assert same_set(D, UNIT_SQUARE)


def test_minkowski_diff_point_minus_square():
    D = minkowski_diff(HPolyhedron.singleton(vec([0, 0])), UNIT_SQUARE)
    expected = HPolyhedron.make(A=[[1, 0], [-1, 0], [0, 1], [0, -1]], b=[0, 1, 0, 1])
    assert same_set(D, expected)


def test_minkowski_diff_generator_soundness():
    rng = random.Random(13)
    for _ in range(15):
        P1 = random_nonempty_hpoly(rng, 2, 4)
        P2 = random_nonempty_hpoly(rng, 2, 4)
        D = minkowski_diff(P1, P2)
        V1, V2 = h_to_v(P1), h_to_v(P2)
        for p in V1.points:
            for q in V2.points:
                assert D.contains(vec([a - b for a, b in zip(p, q)]))
        # Every vertex of the difference decomposes as w1 - w2 by LP.
        for w in h_to_v(D).points:
            shifted = minkowski_diff(P2, HPolyhedron.singleton(tuple(-c for c in w)))
            assert not is_empty(
                HPolyhedron(
                    P1.A + shifted.A, P1.b + shifted.b,
                    P1.E + shifted.E, P1.d + shifted.d, P1.dim,
                )
            )


def test_product_square():
    prod = product(INTERVAL, INTERVAL)
    assert same_set(prod, UNIT_SQUARE)


def test_product_with_point_embeds():
    prod = product(INTERVAL, HPolyhedron.singleton(vec([5])))
    assert prod.dim == 2
    V = h_to_v(prod)
    assert set(V.points) == {vec([0, 5]), vec([1, 5])}


def test_product_triangle_segment_prism():
    prod = product(TRIANGLE, INTERVAL)
    assert prod.dim == 3
    assert len(h_to_v(prod).points) == 6


def test_same_set_distinguishes():
    assert not same_set(UNIT_SQUARE, TRIANGLE)
    assert same_set(HPolyhedron.empty(2), HPolyhedron.make(A=[[1, 0], [-1, 0]], b=[0, -1], dim=2))


def test_flat_membership():
    flat = AffineFlat(vec([1, 0]), (vec([0, 1]),), 2)
    assert flat.contains(vec([1, 5]))
    assert not flat.contains(vec([0, 0]))


def _implicit_by_generators(P):
    """Implicit rows read off the double-description generators alone."""
    V = h_to_v(P)
    return frozenset(
        i for i, (row, beta) in enumerate(zip(P.A, P.b))
        if all(dot(row, p) == beta for p in V.points)
        and all(dot(row, r) == 0 for r in V.rays)
    )


def _with_forced_rows(rng, P):
    """P plus an opposite-row pair through one of its generator points and
    the zero rows 0 <= 0 (implicit) and 0 <= 1 (never tight)."""
    p = h_to_v(P).points[0]
    row = tuple(Fraction(rng.randint(-2, 2)) for _ in range(P.dim))
    zero = tuple(Fraction(0) for _ in range(P.dim))
    extra = [(row, dot(row, p)), (tuple(-c for c in row), -dot(row, p)),
             (zero, Fraction(0)), (zero, Fraction(1))]
    rng.shuffle(extra)
    A = list(P.A) + [r for r, _ in extra]
    b = list(P.b) + [beta for _, beta in extra]
    return HPolyhedron(tuple(A), tuple(b), P.E, P.d, P.dim)


def test_implicit_rows_match_generator_oracle():
    rng = random.Random(1985)
    with_implicit = 0
    for trial in range(160):
        P = random_nonempty_hpoly(rng, rng.randint(1, 3), 6)
        if trial % 2:
            P = _with_forced_rows(rng, P)
        imp = implicit_rows(P)
        assert imp == _implicit_by_generators(P)
        with_implicit += bool(imp)
        hull = affine_hull(P)
        assert all(hull.contains(p) for p in h_to_v(P).points)
    assert with_implicit >= 80


def _count_lp_solves(monkeypatch) -> list:
    """Record every LP that polyhedra solves.  Facts are cached on each
    set, so count on a set that no earlier query has seen."""
    calls = []
    real = polyhedra._solve_ints

    def counting(*problem):
        calls.append(problem)
        return real(*problem)

    monkeypatch.setattr(polyhedra, "_solve_ints", counting)
    return calls


def test_implicit_rows_solve_one_lp_per_round(monkeypatch):
    P = HPolyhedron.make(
        A=[[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        b=[1, 0, 1, 0, 0, 0],
    )
    calls = _count_lp_solves(monkeypatch)
    imp = implicit_rows(P)
    assert imp == frozenset({4, 5})
    assert len(calls) <= 1 + len(imp)


def test_emptiness_and_interior_share_one_lp(monkeypatch):
    """On a full-dimensional set the first slack LP decides emptiness and
    already has a positive optimum, so every query below reads it."""
    square = HPolyhedron(UNIT_SQUARE.A, UNIT_SQUARE.b, UNIT_SQUARE.E, UNIT_SQUARE.d, 2)
    calls = _count_lp_solves(monkeypatch)
    assert not is_empty(square)
    p = ri_point(square)
    assert implicit_rows(square) == frozenset()
    assert affine_hull(square).flat_dim == 2
    assert all(dot(row, p) < beta for row, beta in zip(square.A, square.b))
    assert len(calls) == 1



def test_max_slack_reads_its_lp_as_t_x_y_z():
    """On random systems and random tight sets: a positive optimum t comes
    with x in P, strict on every row outside `tight`; an infeasible
    (t None) or negative slack LP comes with multipliers (y, z), one per
    row of A and of E, that prove {Ax <= b, Ex = d} empty."""
    rng = random.Random(1301)
    seen = {"positive": 0, "zero": 0, "negative": 0, "infeasible": 0}
    for _ in range(300):
        n = rng.randint(1, 3)
        A, b, E, d = [], [], [], []
        for _ in range(rng.randint(1, 6)):
            row = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
            rhs = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            if rng.random() < 0.2:
                E.append(row)
                d.append(rhs)
            else:
                A.append(row)
                b.append(rhs)
        P = HPolyhedron(tuple(A), tuple(b), tuple(E), tuple(d), n)
        tight = frozenset(i for i in range(len(A)) if rng.random() < 0.3)
        t, x, y, z = polyhedra._max_slack(*P._int_rows, n, tight)
        assert len(y) == len(A) and len(z) == len(E)
        if t is not None and t >= 0:
            assert len(x) == n and P.contains(x)
            if t > 0:
                _, ineq, _ = P.residuals(x)
                assert all(r > 0 for i, r in enumerate(ineq) if i not in tight)
            seen["positive" if t > 0 else "zero"] += 1
            continue
        assert x is None if t is None else len(x) == n
        system = LPProblem.maximize(zeros(n), (P.A, P.b), (P.E, P.d))
        assert verify_farkas(system, FarkasCertificate(y, z))
        seen["infeasible" if t is None else "negative"] += 1
    assert all(seen.values()), seen

# -- row evaluation at a point ------------------------------------------------


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _oracle_slacks(P: HPolyhedron, x) -> tuple[list[Fraction], list[Fraction]]:
    """b_i - a_i·x and d_j - e_j·x by plain Fraction arithmetic."""
    def slack(row, rhs):
        return Fraction(rhs) - sum((Fraction(a) * Fraction(c) for a, c in zip(row, x)),
                                   Fraction(0))
    return ([slack(row, beta) for row, beta in zip(P.A, P.b)],
            [slack(row, delta) for row, delta in zip(P.E, P.d)])


def test_residual_signs_match_a_fraction_oracle():
    """Each residual has the sign of its row's slack, on sets with int and
    Fraction entries, empty blocks, zero rows, wide denominators, and
    points on some of the rows."""
    rng = random.Random(808)
    dens = (1, 2, 3, 7, 30, 97, 89 * 97, 10**9 + 7)
    signs = set()

    def entry():
        num = rng.randint(-10**4, 10**4)
        return num if rng.random() < 0.3 else Fraction(num, rng.choice(dens))

    for _ in range(400):
        n = rng.randint(0, 4)
        x = tuple(entry() for _ in range(n))
        blocks = []
        for _ in range(2):
            rows, rhs = [], []
            for _ in range(rng.choice((0, 0, 1, 2, 4))):
                row = tuple(0 if rng.random() < 0.2 else entry() for _ in range(n))
                if rng.random() < 0.15:
                    row = tuple(Fraction(0) for _ in range(n))
                on_row = sum((Fraction(a) * Fraction(c) for a, c in zip(row, x)), Fraction(0))
                rhs.append(on_row if rng.random() < 0.3 else entry())
                rows.append(row)
            blocks += [tuple(rows), tuple(rhs)]
        P = HPolyhedron(*blocks, n)
        q, ineq, eq = P.residuals(x)
        want_ineq, want_eq = _oracle_slacks(P, x)
        assert type(q) is int and q > 0
        assert all(type(r) is int for r in ineq + eq)
        assert [_sign(r) for r in ineq] == [_sign(s) for s in want_ineq]
        assert [_sign(r) for r in eq] == [_sign(s) for s in want_eq]
        assert P.contains(x) == (all(s >= 0 for s in want_ineq)
                                 and all(s == 0 for s in want_eq))
        signs.update(_sign(r) for r in ineq + eq)
    assert signs == {-1, 0, 1}


def test_hash_is_the_dataclass_hash():
    P = random_nonempty_hpoly(random.Random(809), 3, 5)
    Q = HPolyhedron(tuple(P.A), tuple(P.b), tuple(P.E), tuple(P.d), P.dim)
    assert hash(P) == hash((P.A, P.b, P.E, P.d, P.dim)) == hash(Q)
    assert P == Q and P is not Q and {P: 1}[Q] == 1


@pytest.mark.parametrize("args, block", [
    ((((1.5,),), (2.0,), (), (), 1), "inequalities"),
    ((((1,),), (Fraction(1),), ((Decimal("1"),),), (0,), 1), "equalities"),
    (((), (), ((1,),), (0.5,), 1), "equalities"),
    ((((True,),), (1,), (), (), 1), "inequalities"),
], ids=["float", "decimal", "float-rhs", "bool"])
def test_inexact_entries_rejected(args, block):
    with pytest.raises(InputError, match=f"^{block}: entry "):
        HPolyhedron(*args)


@pytest.mark.parametrize("x", [(0.1,), (Decimal("0.1"),), (True,)],
                         ids=["float", "decimal", "bool"])
def test_inexact_points_rejected(x):
    P = HPolyhedron.make([[1]], [1])
    with pytest.raises(InputError, match="^point: entry "):
        P.contains(x)
    with pytest.raises(InputError, match="^point: entry "):
        P.residuals(x)


@pytest.mark.parametrize("make, what", [
    (lambda: VPolyhedron(((Fraction(1, 2),),), ((0.5,),), 1), "generators"),
    (lambda: VPolyhedron(((Decimal("0.5"),),), (), 1), "generators"),
    (lambda: PolyCone(((0.5, 0),), 2), "cone generators"),
    (lambda: AffineFlat((0.5, 0), ((1, 0),), 2), "flat basepoint"),
    (lambda: AffineFlat((0, 0), ((True, 0),), 2), "flat directions"),
], ids=["vpoly-ray-float", "vpoly-point-decimal", "cone-float", "flat-base-float",
        "flat-direction-bool"])
def test_inexact_generators_rejected(make, what):
    with pytest.raises(InputError, match=f"^{what}: entry "):
        make()


def test_inexact_or_misshapen_queries_rejected():
    with pytest.raises(InputError, match="^cone membership query: entry "):
        cone_contains(PolyCone(((1, 0),), 2), (1.0, 0))
    with pytest.raises(InputError, match="^cone membership query: entry "):
        cone_contains(PolyCone((), 2), (Decimal(0), 0))
    flat = AffineFlat(zeros(2), ((1, 0),), 2)
    with pytest.raises(InputError, match="point of length 3 in dimension 2"):
        flat.contains((1, 0, 5))
    with pytest.raises(InputError, match="^point: entry "):
        flat.contains((0.5, 0))
