"""Interior calculus for polyhedra: relative interior, intrinsic and
quasi-relative interior predicates, normal cones, and the equivalence
suite that checks all five characterizations against each other.

For a polyhedron the five predicates (strict-inequality membership,
prolongation of every chord, the conic hull being a subspace, its closure
being a subspace, and the normal cone being a subspace) coincide; the
suite computes each one independently so that agreement is evidence, not
assumption.  The conic hull of a polyhedron at one of its points is
already closed, so the closure predicate reuses the same subspace test
and the report flags that equality as structural rather than evidential.

For a nonempty polyhedron, indeed for every nonempty convex set in finite
dimension, ri = iri = qri: the relative, intrinsic and quasi-relative
interiors coincide, and every such set is quasi-regular.  The
quasi-regularity report therefore states no verdict; its evidential field
is `sampled_equality_check`, which compares the intrinsic and
quasi-relative predicates point by point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .errors import EmptySetError, InputError, PointNotInSetError
from .polyhedra import (
    HPolyhedron,
    PolyCone,
    _nonempty_interior,
    cone_contains,
    dim,
    h_to_v,
    implicit_rows,
    is_empty,
)
from .rational import ONE, Rat, Vec, vadd, vneg, vscale, vsub, zeros


@dataclass(frozen=True)
class RowWitness:
    """The constraint row that blocks a membership claim."""

    kind: str  # "ineq-violated" | "ineq-active" | "eq-violated"
    index: int
    normal: Vec
    rhs: Rat


@dataclass(frozen=True)
class RiResult:
    member: bool
    witness: RowWitness | None = None

    def __bool__(self) -> bool:
        return self.member


@dataclass(frozen=True)
class MembershipReport:
    """The five interior characterizations evaluated independently at one
    point; for polyhedral inputs they must all agree."""

    point: Vec
    set_id: str | None
    ri_def: bool
    prolongation: bool
    cone_subspace: bool
    closed_cone_subspace: bool
    normal_cone_subspace: bool
    witness: RowWitness | None
    # Polyhedral conic hulls are closed, so cone_subspace and
    # closed_cone_subspace come from one subspace test.
    closure_structural: ClassVar[bool] = True

    @property
    def predicates(self) -> tuple[bool, bool, bool, bool, bool]:
        return (
            self.ri_def,
            self.prolongation,
            self.cone_subspace,
            self.closed_cone_subspace,
            self.normal_cone_subspace,
        )

    @property
    def agree(self) -> bool:
        return len(set(self.predicates)) == 1


@dataclass(frozen=True)
class QuasiRegularityReport:
    """Sufficient conditions for quasi-regularity and the sampled check.

    Every nonempty convex set in finite dimension is quasi-regular, so no
    field states it: `sampled_equality_check` is the evidence."""

    set_id: str | None
    cond_int_nonempty: bool
    cond_ri_nonempty: bool
    sampled_equality_check: bool


def _find_violation(P: HPolyhedron, ineq: list[int], eq: list[int]) -> RowWitness | None:
    """The first row that P.residuals(x) = (q, ineq, eq) shows violated."""
    for i, r in enumerate(ineq):
        if r < 0:
            return RowWitness("ineq-violated", i, P.A[i], P.b[i])
    for i, r in enumerate(eq):
        if r:
            return RowWitness("eq-violated", i, P.E[i], P.d[i])
    return None


def ri_membership(P: HPolyhedron, x: Vec) -> RiResult:
    """Membership of x in the relative interior of nonempty P: x in P with
    every non-implicit inequality strict."""
    if len(x) != P.dim:
        raise InputError(f"point of length {len(x)} in dimension {P.dim}")
    if is_empty(P):
        raise EmptySetError("relative interior of the empty set is undefined")
    _, ineq, eq = P.residuals(x)
    violated = _find_violation(P, ineq, eq)
    if violated is not None:
        return RiResult(False, violated)
    imp = implicit_rows(P)
    for i, r in enumerate(ineq):
        if r == 0 and i not in imp:
            return RiResult(False, RowWitness("ineq-active", i, P.A[i], P.b[i]))
    return RiResult(True)


def in_ri(P: HPolyhedron, x: Vec) -> bool:
    """ri-membership with the empty set reading as no members."""
    if is_empty(P):
        return False
    return ri_membership(P, x).member


def ri_point(P: HPolyhedron) -> Vec:
    """A deterministic relative-interior point of nonempty P, from the
    slack-maximization LP over the non-implicit rows."""
    return _nonempty_interior(P)[1]


def conic_hull_at(P: HPolyhedron, x: Vec) -> PolyCone:
    """cone(P - x) for x in P, generated by the shifted generator points
    and the recession rays of P."""
    if not P.contains(x):
        raise PointNotInSetError("conic hull base point must belong to the set")
    V = h_to_v(P)
    gens = set()
    for p in V.points:
        g = vsub(p, x)
        if any(c != 0 for c in g):
            gens.add(g)
    gens.update(V.rays)
    return PolyCone(tuple(sorted(gens)), P.dim)


def is_subspace(C: PolyCone) -> bool:
    """True iff -g lies in the cone for every generator g.

    Equivalent single query: a cone contains the negation of each of its
    generators exactly when it contains the negated sum of all of them.
    """
    if not C.generators:
        return True
    total = zeros(C.dim)
    for g in C.generators:
        total = vadd(total, g)
    return cone_contains(C, vneg(total))


def normal_cone(P: HPolyhedron, x: Vec) -> PolyCone:
    """N(x; P): generated by the active inequality normals, both signs of
    the implicit inequality normals, and both signs of the equality rows."""
    _, ineq, eq = P.residuals(x)
    if _find_violation(P, ineq, eq) is not None:
        raise PointNotInSetError(
            "normal cone at an outside point is empty, not the zero cone")
    imp = implicit_rows(P)
    gens = set()
    for i, (row, r) in enumerate(zip(P.A, ineq)):
        if not any(row):
            continue
        if i in imp:
            gens.add(row)
            gens.add(vneg(row))
        elif r == 0:
            gens.add(row)
    for row in P.E:
        if any(c != 0 for c in row):
            gens.add(row)
            gens.add(vneg(row))
    return PolyCone(tuple(sorted(gens)), P.dim)


def in_iri(P: HPolyhedron, x: Vec) -> bool:
    """Intrinsic relative interior: cone(P - x) is a linear subspace."""
    if is_empty(P) or not P.contains(x):
        return False
    return is_subspace(conic_hull_at(P, x))


def in_qri(P: HPolyhedron, x: Vec) -> bool:
    """Quasi-relative interior via the normal-cone subspace criterion."""
    if is_empty(P) or not P.contains(x):
        return False
    return is_subspace(normal_cone(P, x))


def prolongation_test(
    P: HPolyhedron, xbar: Vec, x: Vec
) -> tuple[Vec, Rat] | None:
    """A point u in P with xbar strictly between x and u, when one exists.

    Solves the one-dimensional program max s with xbar + s(xbar - x) in P
    in closed form by a ratio test over the inequality rows; returns
    (u, t) with xbar = t x + (1 - t) u and t in (0, 1).

    With residuals r = L q (b - a·xbar) at xbar and r' = L q' (b - a·x)
    at x, row a moves at speed a·(xbar - x) = (r' q - r q') / (L q q'),
    so its bound (b - a·xbar) / speed is exactly r q' / (r' q - r q')."""
    q, ineq, eq = P.residuals(xbar)
    if _find_violation(P, ineq, eq) is not None:
        raise InputError("prolongation requires both points in the set")
    q1, ineq1, eq1 = P.residuals(x)
    if _find_violation(P, ineq1, eq1) is not None:
        raise InputError("prolongation requires both points in the set")
    if x == xbar:
        raise InputError("prolongation requires two distinct points")
    num, den = 1, 0  # the bound s_max = num / den, +infinity until a row moves
    for r, r1 in zip(ineq, ineq1):
        speed = r1 * q - r * q1
        if speed > 0 and r * q1 * den < num * speed:
            num, den = r * q1, speed
    if num == 0:
        return None
    s = ONE if den == 0 else min(Rat(num, den), ONE)
    w = vsub(xbar, x)
    u = vadd(xbar, vscale(s, w))
    t = s / (1 + s)
    return u, t


def characterization_suite(
    P: HPolyhedron, xbar: Vec, set_id: str | None = None
) -> MembershipReport:
    """Evaluate all five interior characterizations of xbar independently.

    A point outside P yields an all-false report with the violated row as
    witness; disagreement among the predicates is surfaced by the report
    and must be treated as a failure by callers, never accepted."""
    if len(xbar) != P.dim:
        raise InputError(f"point of length {len(xbar)} in dimension {P.dim}")
    if is_empty(P):
        raise EmptySetError("characterizations require a nonempty set")
    ri_res = ri_membership(P, xbar)
    if ri_res.witness is not None and ri_res.witness.kind != "ineq-active":
        return MembershipReport(
            xbar, set_id, False, False, False, False, False, ri_res.witness)
    V = h_to_v(P)
    # Generator points alone are blind to unbounded directions: at the apex
    # of a halfline every other generator point may coincide with the base
    # point while ray-shifted points still lack a prolongation.
    probes = [v for v in V.points if v != xbar]
    probes += [vadd(xbar, r) for r in V.rays]
    prolong = all(prolongation_test(P, xbar, x) is not None for x in probes)
    # The conic hull is closed, so one test decides both cone predicates.
    cone_sub = is_subspace(conic_hull_at(P, xbar))
    normal_sub = is_subspace(normal_cone(P, xbar))
    return MembershipReport(
        xbar,
        set_id,
        ri_res.member,
        prolong,
        cone_sub,
        cone_sub,
        normal_sub,
        ri_res.witness,
    )


def quasi_regularity_report(
    P: HPolyhedron, set_id: str | None = None
) -> QuasiRegularityReport:
    """Sufficient conditions for quasi-regularity, plus a sampled check
    that the intrinsic and quasi-relative interior predicates agree."""
    if is_empty(P):
        raise EmptySetError("quasi-regularity of the empty set is undefined")
    cond_int = dim(P) == P.dim
    rp = ri_point(P)
    cond_ri = ri_membership(P, rp).member
    samples = list(h_to_v(P).points) + [rp]
    # The normal-cone subspace test decides membership in the
    # quasi-relative interior, so this compares the intrinsic predicate
    # against the closed-cone one point by point.
    sampled_equal = all(in_iri(P, s) == in_qri(P, s) for s in samples)
    return QuasiRegularityReport(set_id, cond_int, cond_ri, sampled_equal)
