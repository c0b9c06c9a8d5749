"""Cross-validation of independent computation routes on fuzzed inputs.

The anchored generator in conftest always produces nonempty sets around a
lattice point; the fuzz here also draws completely unanchored systems and
keeps whatever happens to be nonempty, so the suites see geometry that no
construction bias shaped.
"""

import random
from fractions import Fraction

from conftest import random_nonempty_hpoly, recession_contains, same_set, v_member
from relint_kit.linalg import solve_linear_system
from relint_kit.polyhedra import (
    HPolyhedron,
    VPolyhedron,
    feasible_point,
    h_to_v,
    is_empty,
    v_to_h,
)
from relint_kit.rational import vec
from relint_kit.relint import characterization_suite, in_qri
from relint_kit.sampling import sample_points
from relint_kit.separation import (
    NotSeparable,
    Separated,
    properly_separate,
    qri_nonmembership_via_separation,
    separation_iff_ri_disjoint,
    strict_separate_in_flat,
)
from relint_kit.polyhedra import AffineFlat


def random_unanchored_hpoly(rng, dim, max_rows):
    A, b, E, d = [], [], [], []
    for _ in range(rng.randint(1, max_rows)):
        row = tuple(Fraction(rng.randint(-4, 4)) for _ in range(dim))
        if all(v == 0 for v in row):
            continue
        if rng.random() < 0.2:
            E.append(row)
            d.append(Fraction(rng.randint(-3, 3)))
        else:
            A.append(row)
            b.append(Fraction(rng.randint(-3, 3)))
    return HPolyhedron(tuple(A), tuple(b), tuple(E), tuple(d), dim)


def test_generator_side_round_trip():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randint(1, 3)
        points = tuple(
            tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))
            for _ in range(rng.randint(1, 4))
        )
        rays = tuple(
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
            for _ in range(rng.randint(0, 2))
        )
        rays = tuple(r for r in rays if any(c != 0 for c in r))
        V = VPolyhedron(points, rays, n)
        H = v_to_h(V)
        back = h_to_v(H)
        assert same_set(v_to_h(back), H)
        # Original generators stay members; recovered generators were
        # members of the original hull (decided by LP decomposition).
        for p in points:
            assert H.contains(p)
            assert v_member(back, p)
        for p in back.points:
            assert v_member(V, p)
        for r in back.rays:
            assert recession_contains(H, r)


def test_membership_two_routes_agree():
    rng = random.Random(103)
    for _ in range(40):
        n = rng.randint(1, 3)
        P = random_nonempty_hpoly(rng, n, n + 4)
        V = h_to_v(P)
        for _ in range(6):
            x = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(n))
            assert P.contains(x) == v_member(V, x)


def test_suite_on_unanchored_fuzz():
    rng = random.Random(107)
    found = 0
    tried = 0
    while found < 60 and tried < 600:
        tried += 1
        P = random_unanchored_hpoly(rng, rng.randint(1, 4), 7)
        if is_empty(P):
            continue
        found += 1
        for x in sample_points(P, seed=found)[:5]:
            rep = characterization_suite(P, x)
            assert rep.agree, (P, x, rep.predicates)
            assert qri_nonmembership_via_separation(P, x).lemma_agrees
    assert found >= 40


def test_separation_on_unanchored_fuzz():
    rng = random.Random(109)
    found = 0
    tried = 0
    while found < 40 and tried < 600:
        tried += 1
        P1 = random_unanchored_hpoly(rng, 2, 5)
        P2 = random_unanchored_hpoly(rng, 2, 5)
        if is_empty(P1) or is_empty(P2):
            continue
        found += 1
        assert separation_iff_ri_disjoint(P1, P2).agree
    assert found >= 25


def test_parallel_lines_separate():
    axis = HPolyhedron.make(E=[[0, 1]], d=[0], dim=2)
    shifted = HPolyhedron.make(E=[[0, 1]], d=[1], dim=2)
    out = properly_separate(axis, shifted)
    assert isinstance(out, Separated)
    cert = out.certificate
    assert cert.sup1 == 0 and cert.inf2 == 1
    same = properly_separate(axis, axis)
    assert isinstance(same, NotSeparable)
    assert axis.contains(same.common_point)


def test_strict_separation_with_unbounded_set_in_subspace():
    L = AffineFlat(vec([0, 0]), (vec([1, 0]),), 2)
    halfline = HPolyhedron.make(A=[[-1, 0]], b=[0], E=[[0, 1]], d=[0])
    u = strict_separate_in_flat(L, halfline, vec([-1, 0]))
    V = h_to_v(halfline)
    assert all(sum(a * b for a, b in zip(u, r)) <= 0 for r in V.rays)
    sup = max(sum(a * b for a, b in zip(u, p)) for p in V.points)
    assert sup < sum(a * b for a, b in zip(u, vec([-1, 0])))


def test_qri_predicate_on_unbounded_cones():
    quadrant = HPolyhedron.make(A=[[-1, 0], [0, -1]], b=[0, 0])
    assert not in_qri(quadrant, vec([0, 0]))
    assert not in_qri(quadrant, vec([1, 0]))
    assert in_qri(quadrant, vec([1, 1]))
    whole = HPolyhedron.whole_space(2)
    assert in_qri(whole, vec([5, -3]))
    assert feasible_point(whole) == vec([0, 0])


def _emptiness_case(rng, n):
    """An unanchored system in R^n, with one of three ways to be empty
    planted about three times in four: an inconsistent pair of equality
    rows, a zero inequality row with a negative right-hand side, or two
    opposite inequality rows with a gap between them."""
    P = random_unanchored_hpoly(rng, n, 5) if n else HPolyhedron.whole_space(0)
    A, b, E, d = list(P.A), list(P.b), list(P.E), list(P.d)
    row = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
    c, gap = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(1, 3), rng.randint(1, 2))
    plant = rng.randrange(4)
    if plant == 1:
        E += [row, tuple(2 * v for v in row)]
        d += [c, 2 * c + gap]
    elif plant == 2:
        A.append((Fraction(0),) * n)
        b.append(-gap)
    elif plant == 3:
        A += [row, tuple(-v for v in row)]
        b += [c, -c - gap]
    return HPolyhedron(tuple(A), tuple(b), tuple(E), tuple(d), n)


def _emptiness_kind(P, empty):
    if solve_linear_system(P.E, P.d, P.dim) is None:
        return "inconsistent-equalities"
    if any(all(v == 0 for v in row) and beta < 0 for row, beta in zip(P.A, P.b)):
        return "zero-row-negative-rhs"
    return "empty-by-inequalities" if empty else "nonempty"


def test_is_empty_matches_double_description():
    """The slack LP's verdict against h_to_v, which shares no code with
    the simplex."""
    rng = random.Random(503)
    cases = [HPolyhedron.whole_space(0), HPolyhedron.empty(0)]
    cases += [_emptiness_case(rng, rng.choice((0, 1, 2, 2, 3, 3))) for _ in range(240)]
    kinds = {}
    for P in cases:
        empty = h_to_v(P).is_empty_set
        assert is_empty(P) == empty, P
        if not empty:
            assert P.contains(feasible_point(P))
        kind = _emptiness_kind(P, empty)
        kinds[kind] = kinds.get(kind, 0) + 1
        if P.dim == 0:
            kinds["dimension-0"] = kinds.get("dimension-0", 0) + 1
    assert set(kinds) == {"inconsistent-equalities", "zero-row-negative-rhs",
                          "empty-by-inequalities", "nonempty", "dimension-0"}
    assert min(kinds.values()) >= 10, kinds
