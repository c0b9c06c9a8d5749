"""Integer point evaluation against the `Fraction` constructions it replaced.

Each test writes out the plain `Fraction` computation that the library
once made (sums of `Fraction` products, sorted `Fraction` sets, `Fraction`
sample points, the certificate scan over `h_to_v`, one predicate call per
question) and checks that the integer code gives equal results, value and
type alike, on seeded random inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain

from conftest import matvec, primitive_int, random_nonempty_hpoly, random_pair, random_plfunction

from relint_kit.polyhedra import HPolyhedron, VPolyhedron, h_to_v, linear_image
from relint_kit.rational import common_ints, dot
from relint_kit.relint import (
    MembershipReport,
    characterization_suite,
    in_iri,
    in_qri,
    in_ri,
    quasi_regularity_report,
    ri_membership,
    ri_point,
)
from relint_kit.sampling import sample_points
from relint_kit.separation import (
    SeparationCertificate,
    _joint_slack,
    _proves_ri_disjoint,
    properly_separate,
    Separated,
)
from relint_kit.setmaps import epi_polyhedron, epi_relint_report, linear_image_ri_commutes

ZERO = Fraction(0)
DENOMINATORS = (1, 2, 3, 7, 30, 89, 97)


def _fdot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), ZERO)


def _fadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _entry(rng: random.Random):
    """An int, a zero or a `Fraction` with a denominator up to 97."""
    u = rng.random()
    if u < 0.2:
        return rng.randint(-9, 9)
    if u < 0.35:
        return rng.choice((0, ZERO))
    return Fraction(rng.randint(-99, 99), rng.choice(DENOMINATORS))


def _with_line(P: HPolyhedron, j: int) -> HPolyhedron:
    """P x R with the free coordinate at position j."""
    def widen(rows):
        return tuple(row[:j] + (ZERO,) + row[j:] for row in rows)
    return HPolyhedron(widen(P.A), P.b, widen(P.E), P.d, P.dim + 1)


def _random_set(rng: random.Random) -> HPolyhedron:
    """A nonempty set in dimension 1 to 4, often unbounded, sometimes with
    a line."""
    n = rng.randint(1, 3)
    P = random_nonempty_hpoly(rng, n, n + rng.randint(0, 3))
    return _with_line(P, rng.randrange(n + 1)) if rng.random() < 0.3 else P


def test_dot_matches_fraction_sums():
    rng = random.Random(2301)
    assert dot((), ()) == 0 and type(dot((), ())) is Fraction
    for _ in range(400):
        n = rng.randint(0, 6)
        u = tuple(_entry(rng) for _ in range(n))
        v = tuple(_entry(rng) for _ in range(n))
        got = dot(u, v)
        assert got == _fdot(u, v) and type(got) is Fraction


def test_h_to_v_lists_the_sorted_fraction_sets():
    rng = random.Random(2302)
    kinds = set()
    for _ in range(150):
        P = _random_set(rng)
        points, directions = P._int_generators
        expected = VPolyhedron(
            tuple(sorted({tuple(Fraction(k, g[-1]) for k in g[:-1]) for g in points})),
            tuple(sorted({tuple(Fraction(k) for k in g[:-1]) for g in directions})),
            P.dim) if points else VPolyhedron((), (), P.dim)
        V = h_to_v(P)
        assert V == expected
        assert all(type(a) is Fraction for g in V.points + V.rays for a in g)
        kinds.add(("points", len(V.points) > 1))
        kinds.add(("rays", bool(V.rays)))
        kinds.add(("line", any(tuple(-a for a in r) in V.rays for r in V.rays)))
        kinds.add(("fractional", any(a.denominator > 1 for p in V.points for a in p)))
    assert {(kind, True) for kind in ("points", "rays", "line", "fractional")} <= kinds


def _fraction_samples(P: HPolyhedron, seed: int, midpoint_cap: int, random_combos: int):
    """`sample_points` as it was built over `Fraction`s."""
    V = h_to_v(P)
    pts = list(V.points)
    L, ints = common_ints(pts)
    samples = list(pts)
    mids = 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if mids >= midpoint_cap:
                break
            samples.append(tuple(Fraction(a + b, 2 * L) for a, b in zip(ints[i], ints[j])))
            mids += 1
    center = ri_point(P)
    samples.append(center)
    for r in V.rays[:2]:
        samples.append(_fadd(center, r))
        samples.append(_fadd(pts[0], r))
    rng = random.Random(seed)
    columns = list(zip(*ints))
    for _ in range(random_combos):
        weights = [rng.randint(0, 4) for _ in pts]
        total = sum(weights)
        if total == 0:
            continue
        samples.append(tuple(Fraction(sum(w * c for w, c in zip(weights, col)), L * total)
                             for col in columns))
    return list(dict.fromkeys(samples))


def test_sample_points_match_the_fraction_construction():
    rng = random.Random(2303)
    for seed in range(21):
        for _ in range(4):
            P = _random_set(rng)
            cap, combos = rng.choice(((12, 10), (3, 4), (0, 10)))
            got = sample_points(P, seed=seed, midpoint_cap=cap, random_combos=combos)
            assert got == _fraction_samples(P, seed, cap, combos)
            assert all(type(a) is Fraction for x in got for a in x)


def _fraction_functional(P1: HPolyhedron, y, z):
    m, k = len(P1.A), len(P1.E)
    coeffs, rows = y[:m] + z[:k], P1.A + P1.E
    combo = [_fdot(coeffs, [row[j] for row in rows]) for j in range(P1.dim)]
    return tuple(Fraction(a) for a in primitive_int(combo))


def _fraction_certificate(x_star, P1: HPolyhedron, P2: HPolyhedron) -> SeparationCertificate:
    """The witness scan over `h_to_v`'s `Fraction` points and rays."""
    V1, V2 = h_to_v(P1), h_to_v(P2)
    vals1 = [_fdot(x_star, p) for p in V1.points]
    vals2 = [_fdot(x_star, p) for p in V2.points]
    sup1, inf2 = max(vals1), min(vals2)
    top1 = V1.points[vals1.index(sup1)]
    bot2 = V2.points[vals2.index(inf2)]
    candidates = chain([(top1, bot2)],
                       ((p, bot2) for p in V1.points),
                       ((top1, q) for q in V2.points),
                       ((_fadd(top1, r), bot2) for r in V1.rays),
                       ((top1, _fadd(bot2, r)) for r in V2.rays))
    for w1, w2 in candidates:
        if _fdot(x_star, w1) < _fdot(x_star, w2):
            return SeparationCertificate(x_star, sup1, inf2, w1, w2)
    raise AssertionError("no strict pair")


def _fraction_ri_disjoint(P1: HPolyhedron, P2: HPolyhedron, y, z) -> bool:
    """`_proves_ri_disjoint` over the `Fraction` rows."""
    rows = P1.A + P2.A + P1.E + P2.E
    if len(y) != len(P1.A + P2.A) or len(y + z) != len(rows) or any(v < 0 for v in y):
        return False
    if any(_fdot(y + z, [row[j] for row in rows]) for j in range(P1.dim)):
        return False
    const = _fdot(y + z, P1.b + P2.b + P1.d + P2.d)
    if const != 0:
        return const < 0
    slack = P1.residuals(ri_point(P1))[1] + P2.residuals(ri_point(P2))[1]
    return any(v > 0 and s > 0 for v, s in zip(y, slack))


def test_certificates_match_the_fraction_construction():
    rng = random.Random(2304)
    separated = rays = 0
    for _ in range(160):
        P1, P2 = random_pair(rng, rng.randint(1, 3), 5)
        if rng.random() < 0.2:
            P1, P2 = _with_line(P1, 0), _with_line(P2, 0)
        outcome = properly_separate(P1, P2)
        _, _, y, z = _joint_slack(P1, P2)
        assert _proves_ri_disjoint(P1, P2, y, z) == _fraction_ri_disjoint(P1, P2, y, z)
        # Tampered multipliers: one entry moved, so most no longer prove it.
        if y:
            i = rng.randrange(len(y))
            bent = y[:i] + (y[i] + Fraction(1, rng.choice(DENOMINATORS)),) + y[i + 1:]
            assert _proves_ri_disjoint(P1, P2, bent, z) == _fraction_ri_disjoint(P1, P2, bent, z)
        if isinstance(outcome, Separated):
            separated += 1
            rays += bool(h_to_v(P1).rays or h_to_v(P2).rays)
            x_star = _fraction_functional(P1, y, z)
            assert outcome.certificate == _fraction_certificate(x_star, P1, P2)
    assert separated >= 20 and rays >= 5
    # Two halflines meeting at 1/3: no pair of points separates strictly,
    # so the witness is a point shifted by a ray, over the denominator 3.
    below = HPolyhedron.make([[1]], [Fraction(1, 3)])
    above = HPolyhedron.make([[-1]], [Fraction(-1, 3)])
    cert = properly_separate(below, above).certificate
    _, _, y, z = _joint_slack(below, above)
    assert cert == _fraction_certificate(_fraction_functional(below, y, z), below, above)
    assert cert.strict_witness_1 == (Fraction(-2, 3),)


def _prolongs(P: HPolyhedron, xbar, x) -> bool:
    """Some u in P has xbar strictly between x and u: the largest s with
    xbar + s(xbar - x) in P is positive, by `Fraction` ratios."""
    w = tuple(a - b for a, b in zip(xbar, x))
    bounds = [(beta - _fdot(row, xbar)) / _fdot(row, w)
              for row, beta in zip(P.A, P.b) if _fdot(row, w) > 0]
    return min(bounds, default=Fraction(1)) > 0


def _separate_calls_suite(P: HPolyhedron, xbar) -> MembershipReport:
    """The suite from one public call per predicate, each evaluating xbar
    afresh."""
    ri = ri_membership(P, xbar)
    if ri.witness is not None and ri.witness.kind != "ineq-active":
        return MembershipReport(xbar, None, False, False, False, False, False, ri.witness)
    V = h_to_v(P)
    probes = [v for v in V.points if v != xbar] + [_fadd(xbar, r) for r in V.rays]
    prolong = all(_prolongs(P, xbar, x) for x in probes)
    iri, qri = in_iri(P, xbar), in_qri(P, xbar)
    return MembershipReport(xbar, None, ri.member, prolong, iri, iri, qri, ri.witness)


def test_one_evaluation_predicates_match_separate_calls():
    rng = random.Random(2305)
    seen = set()
    for _ in range(120):
        P = _random_set(rng)
        V = h_to_v(P)
        points = list(V.points[:3]) + [ri_point(P)]
        points += [_fadd(points[0], r) for r in V.rays[:1]]
        points.append(tuple(Fraction(rng.randint(-6, 6), rng.choice(DENOMINATORS))
                            for _ in range(P.dim)))
        for x in points:
            report = characterization_suite(P, x)
            assert report == _separate_calls_suite(P, x)
            seen.add(report.predicates + (getattr(report.witness, "kind", None),))
        assert quasi_regularity_report(P).sampled_equality_check == all(
            in_iri(P, s) == in_qri(P, s) for s in list(V.points) + [ri_point(P)])
        M = tuple(tuple(Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3)))
                        for _ in range(P.dim)) for _ in range(rng.randint(1, P.dim)))
        Q = linear_image(M, P)
        samples = [ri_point(P)] + [tuple((c + p) / 2 for c, p in zip(ri_point(P), v))
                                   for v in V.points]
        report = linear_image_ri_commutes(M, P)
        assert report.forward_ok == all(in_ri(Q, matvec(M, s)) for s in samples)
        assert report.forward_samples == len(samples)
    assert {(True,) * 5 + (None,), (False,) * 5 + ("ineq-active",),
            (False,) * 5 + ("ineq-violated",)} <= seen


def test_epigraph_report_matches_separate_calls():
    rng = random.Random(2306)
    kinds = set()
    for _ in range(80):
        f = random_plfunction(rng)
        epi = epi_polyhedron(f)
        V = h_to_v(f.domain)
        xs = list(V.points[:2]) + [ri_point(f.domain)]
        xs.append(tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                        for _ in range(f.domain.dim)))
        for x in xs:
            inside = f.domain.contains(x)
            value = max(_fdot(s, x) + c for s, c in f.pieces)
            for level in (value - 1, value, value + Fraction(1, 3)):
                report = epi_relint_report(f, x, level)
                point = x + (level,)
                strict = inside and level > value
                assert (report.lhs_ri, report.lhs_iri, report.lhs_qri) == (
                    in_ri(epi, point), in_iri(epi, point), in_qri(epi, point))
                assert (report.rhs_ri, report.rhs_iri, report.rhs_qri) == (
                    strict and in_ri(f.domain, x), strict and in_iri(f.domain, x),
                    strict and in_qri(f.domain, x))
                kinds.add((inside, report.lhs_ri, report.rhs_ri))
                if inside:
                    assert f.value(x) == value and type(f.value(x)) is Fraction
    assert {(True, True, True), (True, False, False), (False, False, False)} <= kinds
