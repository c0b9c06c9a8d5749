"""Seeded workloads of the relint-kit benchmark.

A workload turns (seed, chunk index) into a chunk: a list of operations.
An operation is one call into relint_kit plus a check that re-validates
its output by direct evaluation and returns a digest line.  The digest
lines cover only outputs that do not depend on the simplex pivot path
(LP status and optimal value, decision verdicts, canonical vertex and
facet sets, the verify-corpus check list), so a change that alters a
digest changed behaviour, not speed.

Every generator here is the benchmark's own: nothing is imported from the
test suite, so a change to the tests cannot change the load.  Library
functions are looked up as module attributes at call time (`lp.lp_solve`,
not a name bound at import), so the tracer's rebinding sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from fractions import Fraction
from functools import partial
from itertools import product
from math import gcd, lcm
from pathlib import Path
from typing import Callable, NamedTuple

from relint_kit import cli, docio, lp, polyhedra, relint, sampling, separation, setmaps
from relint_kit.lp import Infeasible, LPProblem, Optimal, Unbounded
from relint_kit.polyhedra import HPolyhedron, VPolyhedron
from relint_kit.setmaps import PLConvexFunction, PolyhedralMap

ZERO = Fraction(0)
ONE = Fraction(1)


class CheckFailed(Exception):
    """An operation returned an output that does not re-validate."""


class Op(NamedTuple):
    name: str
    call: Callable[[], object]
    check: Callable[[object], str]


def _expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- exact helpers, independent of the library ---------------------------------


def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), ZERO)


def _matvec(m, x):
    return tuple(_dot(row, x) for row in m)


def _vec(entries):
    return tuple(Fraction(e) for e in entries)


def _int_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    work = [list(r) for r in rows]
    rank = 0
    for c in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        top = work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][c]
            if f:
                work[i] = [top[c] * a - f * b for a, b in zip(work[i], top)]
        rank += 1
    return rank


def _idot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _primitive(entries) -> tuple[int, ...]:
    """Positive rescaling of a rational vector to coprime integers."""
    den = lcm(*(a.denominator for a in entries))
    ints = [int(a * den) for a in entries]
    g = gcd(*ints)
    return tuple(k // g for k in ints) if g > 1 else tuple(ints)


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _fmt_vec(v) -> str:
    return ",".join(_fmt(a) for a in v)


def _satisfies(P: HPolyhedron, x) -> bool:
    return all(_dot(r, x) <= b for r, b in zip(P.A, P.b)) and all(
        _dot(r, x) == d for r, d in zip(P.E, P.d))


def _homogeneous_rows(P: HPolyhedron):
    """Coprime integer rows (a, -b) for a·x <= b and for a·x = b.  At the
    integer form of a point they give a positive multiple of a·x - b, so
    the conversion checks below run on integers only."""
    return ([_primitive(a + (-v,)) for a, v in zip(P.A, P.b)],
            [_primitive(a + (-v,)) for a, v in zip(P.E, P.d)])


def _homogeneous(x, t: int):
    """Integer form (q·x, q·t) with q > 0: t = 1 for a point, 0 for a ray."""
    q = lcm(*(a.denominator for a in x))
    return tuple(int(a * q) for a in x) + (q * t,)


# -- LP instances ----------------------------------------------------------------


def _coeff(rng: random.Random, lo: int, hi: int) -> Fraction:
    """Mostly integers, one in eight a half, so the data is not all integral."""
    k = rng.randint(lo, hi)
    return Fraction(k, 2) if rng.random() < 0.125 else Fraction(k)


def bounded_lp(rng: random.Random, n: int, m: int) -> LPProblem:
    """Feasible (the origin satisfies every row) and bounded (box rows)."""
    A, b, E, d = [], [], [], []
    for _ in range(m):
        row = [_coeff(rng, -9, 9) for _ in range(n)]
        if not any(row):
            row[rng.randrange(n)] = ONE
        if n > 1 and rng.random() < 0.2:
            E.append(tuple(row))
            d.append(ZERO)
        else:
            A.append(tuple(row))
            b.append(Fraction(rng.randint(0, 9)))
    for j in range(n):
        unit = tuple(ONE if k == j else ZERO for k in range(n))
        A.append(unit)
        b.append(Fraction(rng.randint(1, 9)))
        A.append(tuple(-a for a in unit))
        b.append(Fraction(rng.randint(1, 9)))
    c = tuple(_coeff(rng, -9, 9) for _ in range(n))
    return LPProblem(c, "max", tuple(A), tuple(b), tuple(E), tuple(d))


def explicit_dual(p: LPProblem) -> LPProblem:
    """min b·lam + d·mu subject to A^T lam + E^T mu = c and lam >= 0, for a
    maximization primal with free variables."""
    m1, m2 = len(p.ineq_lhs), len(p.eq_lhs)
    eq_rows = tuple(
        tuple(p.ineq_lhs[i][j] for i in range(m1)) + tuple(p.eq_lhs[i][j] for i in range(m2))
        for j in range(p.dim))
    sign_rows = tuple(
        tuple(-ONE if i == k else ZERO for i in range(m1 + m2)) for k in range(m1))
    return LPProblem(p.ineq_rhs + p.eq_rhs, "min", sign_rows, (ZERO,) * m1,
                     eq_rows, p.objective)


def contradictory_lp(rng: random.Random, n: int, m: int) -> LPProblem:
    """A bounded system plus one row that two of its rows contradict:
    a_i·x <= b_i and a_j·x <= b_j imply (a_i + a_j)·x <= b_i + b_j."""
    base = bounded_lp(rng, n, m)
    i, j = rng.sample(range(len(base.ineq_lhs)), 2)
    row = tuple(-(x + y) for x, y in zip(base.ineq_lhs[i], base.ineq_lhs[j]))
    rhs = -(base.ineq_rhs[i] + base.ineq_rhs[j]) - rng.randint(1, 3)
    A = list(base.ineq_lhs)
    b = list(base.ineq_rhs)
    at = rng.randrange(len(A) + 1)
    A.insert(at, row)
    b.insert(at, rhs)
    return LPProblem(base.objective, "max", tuple(A), tuple(b), base.eq_lhs, base.eq_rhs)


def unbounded_lp(rng: random.Random, n: int, m: int) -> LPProblem:
    """Rows that all recede along a direction r the objective improves on;
    box rows only on the coordinates r leaves fixed."""
    r = [rng.randint(-2, 2) for _ in range(n)]
    if not any(r):
        r[rng.randrange(n)] = 1
    x0 = [rng.randint(-2, 2) for _ in range(n)]
    rr = _dot(r, r)
    A, b, E, d = [], [], [], []
    for _ in range(m):
        row = [_coeff(rng, -9, 9) for _ in range(n)]
        s = _dot(row, r)
        if n > 1 and rng.random() < 0.2:
            row = [rr * a - s * q for a, q in zip(row, r)]
            if any(row):
                E.append(tuple(row))
                d.append(_dot(row, x0))
            continue
        if s > 0:
            row = [-a for a in row]
        if not any(row):
            continue
        A.append(tuple(row))
        b.append(_dot(row, x0) + rng.randint(0, 4))
    for j in range(n):
        if r[j] == 0:
            A.append(tuple(ONE if k == j else ZERO for k in range(n)))
            b.append(Fraction(x0[j] + rng.randint(0, 3)))
    c = [_coeff(rng, -9, 9) for _ in range(n)]
    sense = rng.choice(("max", "min"))
    gain = _dot(c, r) if sense == "max" else -_dot(c, r)
    if gain <= 0:
        shift = (-gain // rr + 1) * (1 if sense == "max" else -1)
        c = [a + shift * q for a, q in zip(c, r)]
    return LPProblem(tuple(c), sense, tuple(A), tuple(b), tuple(E), tuple(d))


def _lp_feasible(p: LPProblem, x) -> bool:
    return all(_dot(r, x) <= v for r, v in zip(p.ineq_lhs, p.ineq_rhs)) and all(
        _dot(r, x) == v for r, v in zip(p.eq_lhs, p.eq_rhs))


def check_optimal(p: LPProblem, out) -> Fraction:
    """Primal feasibility, dual feasibility and a zero duality gap."""
    _expect(isinstance(out, Optimal), f"expected optimal, got {type(out).__name__}")
    _expect(_lp_feasible(p, out.point), "optimal point violates a row")
    c = p.objective if p.sense == "max" else tuple(-a for a in p.objective)
    lam, mu = out.dual_ineq, out.dual_eq
    _expect(len(lam) == len(p.ineq_lhs) and len(mu) == len(p.eq_lhs), "dual length")
    _expect(all(v >= 0 for v in lam), "negative inequality multiplier")
    combo = tuple(
        _dot(lam, [r[j] for r in p.ineq_lhs]) + _dot(mu, [r[j] for r in p.eq_lhs])
        for j in range(p.dim))
    _expect(combo == c, "dual multipliers do not reproduce the objective")
    _expect(_dot(lam, p.ineq_rhs) + _dot(mu, p.eq_rhs) == _dot(c, out.point),
            "nonzero duality gap")
    _expect(out.value == _dot(p.objective, out.point), "reported value")
    return out.value


def check_infeasible(p: LPProblem, out) -> str:
    _expect(isinstance(out, Infeasible), f"expected infeasible, got {type(out).__name__}")
    _expect(lp.verify_farkas(p, out.certificate), "verify_farkas rejected the certificate")
    lam, mu = out.certificate.multipliers_ineq, out.certificate.multipliers_eq
    _expect(all(v >= 0 for v in lam), "negative Farkas multiplier")
    combo = [_dot(lam, [r[j] for r in p.ineq_lhs]) + _dot(mu, [r[j] for r in p.eq_lhs])
             for j in range(p.dim)]
    _expect(not any(combo), "Farkas combination is not 0·x")
    _expect(_dot(lam, p.ineq_rhs) + _dot(mu, p.eq_rhs) < 0, "Farkas bound not negative")
    return "infeasible"


def check_unbounded(p: LPProblem, out) -> str:
    _expect(isinstance(out, Unbounded), f"expected unbounded, got {type(out).__name__}")
    _expect(_lp_feasible(p, out.feasible_point), "unbounded base point infeasible")
    _expect(all(_dot(r, out.ray) <= 0 for r in p.ineq_lhs), "ray leaves an inequality")
    _expect(all(_dot(r, out.ray) == 0 for r in p.eq_lhs), "ray leaves an equality")
    gain = _dot(p.objective, out.ray)
    _expect(gain > 0 if p.sense == "max" else gain < 0, "ray does not improve")
    return "unbounded"


def check_bounded(p: LPProblem, out) -> str:
    return f"optimal {_fmt(check_optimal(p, out))}"


# (dimension, rows) of the bounded, contradictory and unbounded LPs, and of
# the smaller primals whose explicit duals are solved: a dual has a
# variable per primal row, so it costs about ten times its primal.
LP_SHAPES = ((4, 8), (4, 12), (5, 8), (5, 12), (6, 8), (6, 12))
DUAL_SHAPES = ((2, 4), (2, 6), (2, 8), (3, 4), (3, 6), (3, 8))


def lp_batch_chunk(rng: random.Random, workdir: Path) -> list[Op]:
    """One lp_solve per operation: per shape a bounded primal, a
    contradictory system and an unbounded LP, and per dual shape a primal
    with its explicit dual, whose optimum must equal the primal's."""
    ops = []
    for (n, m), (dn, dm) in zip(LP_SHAPES, DUAL_SHAPES):
        for name, p, check in (("lp-primal", bounded_lp(rng, n, m), check_bounded),
                               ("lp-infeasible", contradictory_lp(rng, n, m), check_infeasible),
                               ("lp-unbounded", unbounded_lp(rng, n, m), check_unbounded)):
            ops.append(Op(name, lambda p=p: lp.lp_solve(p), partial(check, p)))
        primal = bounded_lp(rng, dn, dm)
        dual = explicit_dual(primal)
        values = {}

        def check_primal(out, p=primal, values=values):
            values["primal"] = check_optimal(p, out)
            return f"optimal {_fmt(values['primal'])}"

        def check_dual(out, p=dual, values=values):
            value = check_optimal(p, out)
            _expect(values.get("primal") == value, "explicit dual value differs from primal")
            return f"optimal {_fmt(value)}"

        ops.append(Op("lp-primal", lambda p=primal: lp.lp_solve(p), check_primal))
        ops.append(Op("lp-dual", lambda p=dual: lp.lp_solve(p), check_dual))
    return ops


# -- polyhedra for the decision procedures ------------------------------------------


def anchored_hpoly(rng: random.Random, dim: int, rows: int, eq_share: float = 0.2,
                   tight_share: float = 0.3, box: bool = False):
    """A nonempty polyhedron and a lattice point of it: every row is built
    to hold at the anchor, some with zero slack so that boundary and
    lower-dimensional structure is common."""
    anchor = tuple(Fraction(rng.randint(-1, 1)) for _ in range(dim))
    A, b, E, d = [], [], [], []
    for _ in range(rows):
        row = [_coeff(rng, -3, 3) for _ in range(dim)]
        if not any(row):
            row[rng.randrange(dim)] = Fraction(rng.choice((-1, 1)))
        at = _dot(row, anchor)
        if rng.random() < eq_share:
            E.append(tuple(row))
            d.append(at)
        else:
            A.append(tuple(row))
            b.append(at if rng.random() < tight_share else at + rng.randint(1, 4))
    if box:
        for j in range(dim):
            unit = tuple(ONE if k == j else ZERO for k in range(dim))
            A.append(unit)
            b.append(anchor[j] + rng.randint(1, 3))
            A.append(tuple(-a for a in unit))
            b.append(-anchor[j] + rng.randint(1, 3))
    return HPolyhedron(tuple(A), tuple(b), tuple(E), tuple(d), dim), anchor


def _random_matrix(rng: random.Random, rows: int, cols: int):
    return tuple(tuple(Fraction(rng.randint(-2, 2)) for _ in range(cols))
                 for _ in range(rows))


def _witness_consistent(P: HPolyhedron, x, witness) -> bool:
    """A blocking row is what it claims to be, by direct evaluation."""
    if witness.kind == "eq-violated":
        row, rhs = P.E[witness.index], P.d[witness.index]
        return (row, rhs) == (witness.normal, witness.rhs) and _dot(row, x) != rhs
    row, rhs = P.A[witness.index], P.b[witness.index]
    if (row, rhs) != (witness.normal, witness.rhs):
        return False
    value = _dot(row, x)
    return value > rhs if witness.kind == "ineq-violated" else value == rhs


def _vertex_flags(P: HPolyhedron, points, flags) -> str:
    """Verdicts at the generator points only: those points come from the
    double description, so the digest does not follow the pivot path."""
    vertices = set(polyhedra.h_to_v(P).points)
    return "".join("1" if f else "0" for x, f in zip(points, flags) if x in vertices)


def _suite_op(rng: random.Random, dim: int) -> Op:
    P, _ = anchored_hpoly(rng, dim, rng.randint(dim + 1, 2 * dim + 1))
    seed = rng.randrange(1 << 16)

    def call():
        points = sampling.sample_points(P, seed=seed)[:4]
        return points, [relint.characterization_suite(P, x) for x in points]

    def check(out):
        points, reports = out
        _expect(points, "no sample points")
        for x, rep in zip(points, reports):
            _expect(rep.agree, "interior characterizations disagree")
            _expect(_satisfies(P, x), "sample point outside the set")
            if rep.witness is not None:
                _expect(_witness_consistent(P, x, rep.witness), "witness row inconsistent")
            else:
                _expect(rep.ri_def, "member without witness reported outside")
        return f"suite {len(points)} {_vertex_flags(P, points, [r.ri_def for r in reports])}"

    return Op("suite", call, check)


def _separation_op(rng: random.Random, dim: int) -> Op:
    P1, _ = anchored_hpoly(rng, dim, rng.randint(dim, 2 * dim))
    P2, _ = anchored_hpoly(rng, dim, rng.randint(dim, 2 * dim))

    def call():
        rep = separation.separation_iff_ri_disjoint(P1, P2)
        valid = (separation.verify_certificate(P1, P2, rep.certificate)
                 if rep.separated else None)
        return rep, valid

    def check(out):
        rep, valid = out
        _expect(rep.agree, "separation and ri-disjointness disagree")
        if rep.separated:
            cert = rep.certificate
            _expect(valid, "verify_certificate rejected the certificate")
            _expect(_satisfies(P1, cert.strict_witness_1)
                    and _satisfies(P2, cert.strict_witness_2), "witness outside its set")
            _expect(_dot(cert.functional, cert.strict_witness_1)
                    < _dot(cert.functional, cert.strict_witness_2), "witness pair not strict")
        else:
            cp = rep.common_point
            _expect(relint.ri_membership(P1, cp).member
                    and relint.ri_membership(P2, cp).member, "common point not in both ri")
        return f"separated {int(rep.separated)}"

    return Op("separation", call, check)


def _graph_op(rng: random.Random, m: int, n: int) -> Op:
    graph, _ = anchored_hpoly(rng, m + n, m + n + rng.randint(1, 3))
    F = PolyhedralMap(graph, m, n)
    seed = rng.randrange(1 << 16)

    def call():
        pairs = sampling.sample_points(graph, seed=seed)[:3]
        return pairs, [setmaps.graph_ri_check(F, p[:m], p[m:]) for p in pairs]

    def check(out):
        pairs, reports = out
        _expect(pairs, "no sample pairs")
        for rep in reports:
            _expect(rep.product_rule_holds and rep.graph_regular_inclusion_ok
                    and rep.domain_regular_inclusion_ok and rep.both_regular_equality_ok,
                    "graph product rule failed")
        return f"graph {_vertex_flags(graph, pairs, [r.lhs for r in reports])}"

    return Op("graph", call, check)


def _epi_op(rng: random.Random, dim: int) -> Op:
    domain, _ = anchored_hpoly(rng, dim, dim + rng.randint(1, 3), eq_share=0.1, box=True)
    pieces = tuple(
        (tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim)), Fraction(rng.randint(-3, 3)))
        for _ in range(rng.randint(1, 3)))
    f = PLConvexFunction(pieces, domain)

    def call():
        xs = list(polyhedra.h_to_v(domain).points)[:2] + [relint.ri_point(domain)]
        return [setmaps.epi_relint_report(f, x, level)
                for x in xs for level in (f.value(x), f.value(x) + 1)]

    def check(reports):
        flags = []
        for rep in reports:
            _expect(rep.all_asserted_hold, "epigraph formula failed")
            flags.append(f"{int(rep.lhs_ri)}{int(rep.lhs_iri)}{int(rep.lhs_qri)}")
        return "epi " + " ".join(flags)

    return Op("epigraph", call, check)


def _image_op(rng: random.Random, dim: int) -> Op:
    P, _ = anchored_hpoly(rng, dim, dim + rng.randint(1, 3))
    M = _random_matrix(rng, rng.randint(1, dim - 1), dim)

    def call():
        return setmaps.linear_image_ri_commutes(M, P)

    def check(rep):
        _expect(rep.holds, "image commutation failed")
        _expect(_satisfies(P, rep.lifted_point), "lifted point outside the set")
        return f"image {rep.forward_samples}"

    return Op("image", call, check)


def _difference_op(rng: random.Random, dim: int) -> Op:
    P1, _ = anchored_hpoly(rng, dim, dim + rng.randint(0, 2))
    P2, _ = anchored_hpoly(rng, dim, dim + rng.randint(0, 2))

    def call():
        return setmaps.set_difference_ri_commutes(P1, P2)

    def check(rep):
        _expect(rep.holds, "difference commutation failed")
        return f"difference {rep.forward_samples}"

    return Op("difference", call, check)


def decide_fresh_chunk(rng: random.Random, workdir: Path) -> list[Op]:
    """Every decision procedure three times, each on sets of its own.  The
    separations stop at dimension 3 and the epigraphs and differences at
    dimension 2: above that one call can take ten times the median."""
    ops = []
    for dim, small in ((2, 1), (3, 2), (4, 2)):
        ops.append(_suite_op(rng, dim))
        ops.append(_separation_op(rng, min(dim, 3)))
        ops.append(_graph_op(rng, (dim + 1) // 2, dim - (dim + 1) // 2))
        ops.append(_epi_op(rng, small))
        ops.append(_image_op(rng, dim))
        ops.append(_difference_op(rng, small))
    return ops


# -- geometry for the double description ---------------------------------------------


def cut_box(rng: random.Random, n: int, cuts: int, open_coords: int = 0) -> HPolyhedron:
    """The box |x_j| <= w_j with corner cuts a·x <= beta, beta between half
    and all of the box maximum of a·x.  The first `open_coords` coordinates
    lose their lower bound and the cuts never bound them from below, so
    those directions recede."""
    w = [rng.randint(1, 3) for _ in range(n)]
    A, b = [], []
    for j in range(n):
        unit = tuple(ONE if k == j else ZERO for k in range(n))
        A.append(unit)
        b.append(Fraction(w[j]))
        if j >= open_coords:
            A.append(tuple(-a for a in unit))
            b.append(Fraction(w[j]))
    while cuts:
        a = [rng.choice((-2, -1, 0, 1, 1, 2)) for _ in range(n)]
        a[:open_coords] = [abs(v) for v in a[:open_coords]]
        top = sum(abs(v) * wj for v, wj in zip(a, w))
        if top < 2:
            continue
        A.append(_vec(a))
        b.append(Fraction(rng.randint(top // 2, top - 1)))
        cuts -= 1
    return HPolyhedron(tuple(A), tuple(b), (), (), n)


def truncated_box(rng: random.Random, n: int, corners: int) -> HPolyhedron:
    """The box |x_j| <= w_j, w_j >= 2, with `corners` distinct corners cut
    off by s·x <= sum(w) - 1 for their sign vectors s.  The cuts are too
    shallow to meet, so there are exactly 2^n + corners·(n - 1) vertices."""
    w = [rng.randint(2, 4) for _ in range(n)]
    A, b = [], []
    for j in range(n):
        unit = tuple(ONE if k == j else ZERO for k in range(n))
        A += [unit, tuple(-a for a in unit)]
        b += [Fraction(w[j]), Fraction(w[j])]
    for code in rng.sample(range(1 << n), corners):
        A.append(tuple(Fraction(1 if code >> j & 1 else -1) for j in range(n)))
        b.append(Fraction(sum(w) - 1))
    return HPolyhedron(tuple(A), tuple(b), (), (), n)


def polygon_product(rng: random.Random, sizes, redundant: int = 0, ray: bool = False):
    """Vertices of a product of polygons whose corners lie on the parabola
    y = x^2/2, so every corner is a vertex and the product has exactly
    sum(sizes) facets; optional midpoints and a ray on top."""
    polygons = [[(Fraction(t), Fraction(t * t, 2)) for t in sorted(rng.sample(range(-4, 5), k))]
                for k in sizes]
    points = [tuple(c for corner in combo for c in corner) for combo in product(*polygons)]
    for _ in range(redundant):
        p, q = rng.sample(points, 2)
        points.append(tuple((a + c) / 2 for a, c in zip(p, q)))
    dim = 2 * len(sizes)
    rays = (tuple(Fraction(rng.randint(0, 2)) for _ in range(dim - 1)) + (ONE,),) if ray else ()
    return VPolyhedron(tuple(points), rays, dim)


def _check_generators_of(P: HPolyhedron, V: VPolyhedron) -> None:
    """Every output generator satisfies every input row and is extreme:
    a vertex has n independent tight rows, an extreme ray n - 1."""
    ineq, eq = _homogeneous_rows(P)
    _expect(V.points, "nonempty set without generator points")
    for gens, t, rank in ((V.points, 1, P.dim), (V.rays, 0, P.dim - 1)):
        for g in gens:
            h = _homogeneous(g, t)
            values = [_idot(r, h) for r in ineq]
            _expect(all(v <= 0 for v in values) and not any(_idot(e, h) for e in eq),
                    "generator violates an input row")
            tight = [r[:-1] for r, v in zip(ineq, values) if v == 0] + [e[:-1] for e in eq]
            _expect(_int_rank(tight) == rank, "generator is not extreme")


def _check_rows_of(H: HPolyhedron, points, rays) -> str:
    """Every input generator satisfies every output row, and each output
    inequality is tight at some input point; returns the canonical rows."""
    ineq, eq = _homogeneous_rows(H)
    points = [_homogeneous(x, 1) for x in points]
    for h in points + [_homogeneous(r, 0) for r in rays]:
        _expect(all(_idot(r, h) <= 0 for r in ineq) and not any(_idot(e, h) for e in eq),
                "input generator violates an output row")
    for r in ineq:
        _expect(any(_idot(r, h) == 0 for h in points), "output row supports no input point")
    if eq:
        return f"rows {len(ineq)} eqs {len(eq)}"
    return "rows " + ";".join(",".join(map(str, r)) for r in sorted(ineq))


def _h_to_v_op(P: HPolyhedron) -> Op:
    def check(V):
        _check_generators_of(P, V)
        return "points " + ";".join(_fmt_vec(x) for x in V.points) + \
            " rays " + ";".join(_fmt_vec(r) for r in V.rays)

    return Op("h_to_v", lambda: polyhedra.h_to_v(P), check)


def _v_to_h_op(V: VPolyhedron, facets: int | None) -> Op:
    def check(H):
        digest = _check_rows_of(H, V.points, V.rays)
        if facets is not None:
            _expect(len(H.A) == facets and not H.E, "wrong facet count for a polygon product")
        return digest

    return Op("v_to_h", lambda: polyhedra.v_to_h(V), check)


def _image_dd_op(P: HPolyhedron, M) -> Op:
    def check(H):
        V = polyhedra.h_to_v(P)
        _check_generators_of(P, V)
        images = [_matvec(M, x) for x in V.points]
        rays = [_matvec(M, r) for r in V.rays]
        return _check_rows_of(H, images, rays)

    return Op("linear_image", lambda: polyhedra.linear_image(M, P), check)


def _diff_dd_op(P1: HPolyhedron, P2: HPolyhedron) -> Op:
    def check(H):
        V1, V2 = polyhedra.h_to_v(P1), polyhedra.h_to_v(P2)
        _check_generators_of(P1, V1)
        _check_generators_of(P2, V2)
        points = [tuple(a - c for a, c in zip(p, q)) for p in V1.points for q in V2.points]
        rays = list(V1.rays) + [tuple(-a for a in r) for r in V2.rays]
        return _check_rows_of(H, points, rays)

    return Op("minkowski_diff", lambda: polyhedra.minkowski_diff(P1, P2), check)


def geometry_dd_chunk(rng: random.Random, workdir: Path) -> list[Op]:
    """Conversions in dimension 4 to 6 with 10 to 30 rows.  The dimension-6
    truncated boxes have 104 and 124 vertices, the largest polygon product
    100; the sizes keep every operation well under a second.  Random
    dimension-6 vertex sets are avoided: one v_to_h on them can take
    anywhere from milliseconds to most of a minute."""
    ops = [_h_to_v_op(truncated_box(rng, n, k)) for n, k in ((4, 4), (5, 6), (6, 8), (6, 12))]
    ops += [_h_to_v_op(cut_box(rng, n, cuts, open_coords))
            for n, cuts, open_coords in ((5, 6, 0), (6, 5, 1))]
    for sizes, redundant, ray in (((3, 4), 0, False), ((5, 6), 3, False), ((4, 4, 4), 0, False),
                                  ((4, 4, 5), 0, False), ((4, 5, 5), 0, False),
                                  ((3, 3, 4), 2, True), ((4, 5), 0, True)):
        V = polygon_product(rng, sizes, redundant, ray)
        ops.append(_v_to_h_op(V, None if ray else sum(sizes)))
    for P, k in ((truncated_box(rng, 5, 4), 3), (truncated_box(rng, 6, 6), 3),
                 (cut_box(rng, 6, 3, 1), 3), (truncated_box(rng, 5, 6), 4)):
        ops.append(_image_dd_op(P, _random_matrix(rng, k, P.dim)))
    for P1, P2 in ((truncated_box(rng, 3, 2), truncated_box(rng, 3, 2)),
                   (truncated_box(rng, 4, 0), truncated_box(rng, 4, 0)),
                   (cut_box(rng, 3, 3, 1), truncated_box(rng, 3, 2)),
                   (truncated_box(rng, 3, 3), truncated_box(rng, 3, 1))):
        ops.append(_diff_dd_op(P1, P2))
    return ops


# -- CLI documents and calls -----------------------------------------------------------


def _hpoly_payload(P: HPolyhedron) -> dict:
    return {"A": [[_fmt(a) for a in r] for r in P.A], "b": [_fmt(v) for v in P.b],
            "E": [[_fmt(a) for a in r] for r in P.E], "d": [_fmt(v) for v in P.d],
            "dim": P.dim}


def receding_hpoly(rng: random.Random, dim: int):
    """An unbounded polyhedron: every row recedes along one direction."""
    r = [rng.randint(-1, 1) for _ in range(dim)]
    if not any(r):
        r[0] = 1
    anchor = tuple(Fraction(rng.randint(-1, 1)) for _ in range(dim))
    A, b = [], []
    for _ in range(dim + 1):
        row = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
        if _dot(row, r) > 0:
            row = [-a for a in row]
        if any(row):
            A.append(tuple(row))
            b.append(_dot(row, anchor) + rng.randint(0, 2))
    return HPolyhedron(tuple(A), tuple(b), (), (), dim), anchor


def far_box(dim: int, offset: int) -> HPolyhedron:
    """[offset, offset + 2] x [0, 2]^(dim-1): disjoint from every anchored
    box, which stays within [-4, 4]^dim."""
    A, b = [], []
    for j in range(dim):
        unit = tuple(ONE if k == j else ZERO for k in range(dim))
        lo = offset if j == 0 else 0
        A += [unit, tuple(-a for a in unit)]
        b += [Fraction(lo + 2), Fraction(-lo)]
    return HPolyhedron(tuple(A), tuple(b), (), (), dim)


class _Corpus:
    """A directory of instance documents plus the report directory the
    calls write into; both are rewritten for every chunk."""

    def __init__(self, workdir: Path):
        self.docs = workdir / "docs"
        self.out = workdir / "out"
        for d in (self.docs, self.out):
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)
        self.hpolys: dict[str, HPolyhedron] = {}

    def write(self, ident: str, kind: str, payload: dict) -> str:
        path = self.docs / f"{ident}.json"
        path.write_text(json.dumps({"id": ident, "kind": kind, "payload": payload},
                                   indent=2, sort_keys=True))
        return str(path)

    def hpoly(self, ident: str, P: HPolyhedron) -> str:
        self.hpolys[ident] = P
        return self.write(ident, "hpoly", _hpoly_payload(P))


def _cli_op(name: str, argv: list[str], report_path: Path, check) -> Op:
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv + ["--out", str(report_path)])

    def checked(code):
        _expect(code == 0, f"{name} exited {code}")
        report = json.loads(report_path.read_text())
        _expect(report["exit_code"] == 0, f"{name} report exit code")
        return f"{name} " + check(report)

    return Op(name, call, checked)


def _flags(report: dict, *keys) -> str:
    return "".join("1" if report[k] else "0" for k in keys)


def _holds(key: str, message: str, *digest_keys: str, section: str | None = None):
    """A report check: `key` must not be False (None means not applicable)."""
    def check(report):
        part = report[section] if section else report
        _expect(part[key] is not False, message)
        return _flags(part, *digest_keys)
    return check


def cli_repeat_chunk(rng: random.Random, workdir: Path) -> list[Op]:
    """Many calls per instance, so the memo caches get reused; caches are
    cleared at the start of each chunk, never between its calls.  The
    sets have dimension 1 and 2, so verify-corpus, the largest call, stays
    near half of a chunk and varies little from chunk to chunk."""
    corpus = _Corpus(workdir)
    seed = str(rng.randrange(1 << 16))
    ops: list[Op] = []

    def add(name, argv, check):
        ops.append(_cli_op(name, argv, corpus.out / f"r{len(ops)}.json", check))

    def ri_check(P):
        def check(rep):
            if not rep["in_relative_interior"]:
                w = rep["witness"]
                x = tuple(Fraction(v) for v in rep["point"])
                row = tuple(Fraction(v) for v in w["normal"])
                value, rhs = _dot(row, x), Fraction(w["rhs"])
                rows = P.E if w["kind"] == "eq-violated" else P.A
                _expect(rows[w["index"]] == row, "witness row is not an input row")
                _expect({"ineq-violated": value > rhs, "ineq-active": value == rhs,
                         "eq-violated": value != rhs}[w["kind"]], "witness row inconsistent")
            return _flags(rep, "in_relative_interior")
        return check

    def normal_cone(P):
        def check(rep):
            _expect(rep["polarity_ok"], "normal cone polarity failed")
            rows = {tuple(r) for r in P.A} | {tuple(r) for r in P.E}
            for g in rep["generators"]:
                g = tuple(Fraction(v) for v in g)
                _expect(g in rows or tuple(-a for a in g) in rows,
                        "normal cone generator is not an input row")
            return ";".join(",".join(g) for g in rep["generators"])
        return check

    def separate(P1, P2):
        def check(rep):
            if rep["separated"]:
                _expect(rep["certificate_valid"], "certificate reported invalid")
                cert = docio.parse_certificate(rep["certificate"])
                _expect(separation.verify_certificate(P1, P2, cert), "certificate does not verify")
            else:
                _expect(rep["witness_valid"], "common point reported invalid")
                cp = tuple(Fraction(v) for v in rep["common_point"])
                _expect(relint.ri_membership(P1, cp).member
                        and relint.ri_membership(P2, cp).member, "common point not in both ri")
            return _flags(rep, "separated")
        return check

    def verify_corpus(rep):
        _expect(all(c["ok"] for c in rep["checks"]), "a corpus check failed")
        _expect(rep["instances"] == sorted(idents), "corpus instance list")
        for entry in rep["certificates"]:
            id1, id2 = entry["instances"]
            cert = docio.parse_certificate(entry["certificate"])
            _expect(separation.verify_certificate(corpus.hpolys[id1], corpus.hpolys[id2], cert),
                    "corpus certificate does not verify")
        return ";".join(f"{c['instance']}:{c['check']}:{int(c['ok'])}" for c in rep["checks"])

    files, anchors = {}, {}
    for ident in ("h0", "h1", "h2"):
        P, anchors[ident] = anchored_hpoly(rng, 2, 3, box=True)
        files[ident] = corpus.hpoly(ident, P)
    P, anchors["h3"] = receding_hpoly(rng, 2)
    files["h3"] = corpus.hpoly("h3", P)
    files["h4"] = corpus.hpoly("h4", HPolyhedron(((ONE, ZERO), (-ONE, ZERO)), (ZERO, -ONE), (), (), 2))
    files["h5"] = corpus.hpoly("h5", far_box(2, 6 + rng.randint(0, 3)))
    graph, pair = anchored_hpoly(rng, 2, 3, box=True)
    files["m0"] = corpus.write("m0", "map", {"graph": _hpoly_payload(graph), "m": 1, "n": 1})
    domain, x0 = anchored_hpoly(rng, 1, 2, eq_share=0.0, box=True)
    pieces = [(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
              for _ in range(rng.randint(1, 3))]
    files["f0"] = corpus.write("f0", "plfunction", {
        "domain": _hpoly_payload(domain), "pieces": [[_fmt(a), _fmt(c)] for a, c in pieces]})
    idents = list(files)

    # Most calls are ones whose work outweighs parsing and report writing,
    # so the median call measures the library more than the file system.
    for ident in ("h0", "h1", "h2", "h3"):
        P, a = corpus.hpolys[ident], anchors[ident]
        points = [a] + [(a[0] + shift,) + a[1:] for shift in (Fraction(1, 2), Fraction(-1, 3))]
        path = files[ident]
        for x in points[:2]:
            add("ri-check", ["ri-check", path, "--point=" + _fmt_vec(x)], ri_check(P))
            add("suite", ["suite", path, "--point=" + _fmt_vec(x)], _holds(
                "agree", "interior characterizations disagree", "ri_def", "prolongation",
                "cone_subspace", "normal_cone_subspace", section="suite"))
        add("normal-cone", ["normal-cone", path, "--point=" + _fmt_vec(a)], normal_cone(P))
        for x in points:
            add("qri-sep", ["qri-sep", path, "--point=" + _fmt_vec(x)],
                _holds("lemma_agrees", "qri separation lemma disagrees", "separable"))
        for k in range(P.dim):
            axis = ",".join("1" if j == k else "0" for j in range(P.dim))
            add("image-ri", ["image-ri", path, "--matrix=" + axis],
                _holds("holds", "image commutation failed", "holds"))
    for shift in (ZERO, Fraction(1, 3), Fraction(-1, 2)):
        add("graph-ri", ["graph-ri", files["m0"], "--point=" + _fmt_vec((pair[0] + shift,) + pair[1:])],
            _holds("product_rule_holds", "graph product rule failed", "lhs", "rhs"))
    for point in (x0[0], x0[0] + Fraction(1, 2)):
        value = max(a * point + c for a, c in pieces)
        for level in (value, value + 1):
            add("epi-ri", ["epi-ri", files["f0"], "--point=" + _fmt(point), "--level=" + _fmt(level)],
                _holds("all_asserted_hold", "epigraph formula failed",
                       "lhs_ri", "rhs_ri", "lhs_iri", "lhs_qri"))
    for id1, id2, verify in (("h0", "h5", True), ("h0", "h1", False), ("h2", "h3", False)):
        P1, P2 = corpus.hpolys[id1], corpus.hpolys[id2]
        add("separate", ["separate", files[id1], files[id2]], separate(P1, P2))
        if verify:
            sep_report = str(corpus.out / f"r{len(ops) - 1}.json")
            add("verify", ["verify", sep_report, files[id1], files[id2]],
                _holds("certificate_valid", "certificate re-validation failed",
                       "certificate_valid"))
    add("diff-ri", ["diff-ri", files["h0"], files["h1"]],
        _holds("holds", "difference commutation failed", "holds"))
    add("verify-corpus", ["verify-corpus", str(corpus.docs), "--seed", seed], verify_corpus)
    return ops


WORKLOADS = {
    "lp-batch": lp_batch_chunk,
    "decide-fresh": decide_fresh_chunk,
    "geometry-dd": geometry_dd_chunk,
    "cli-repeat": cli_repeat_chunk,
}


def build_chunk(workload: str, seed: int, index: int, workdir: Path) -> list[Op]:
    """The operations of one chunk; the same (workload, seed, index) always
    gives the same operations on the same inputs."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}/{index}"), workdir)
