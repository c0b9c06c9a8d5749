"""Certificate-producing proper and strict separation of polyhedra.

The separating functional is found by one LP over the generator
representations: the functional must not exceed a threshold on the first
set, not fall below it on the second, rays must point the right way, and
the objective maximizes the total strictness margin.  A positive optimum
is exactly proper separability of the difference set from the origin;
a zero optimum triggers construction of a common relative-interior point
instead, so every verdict comes with checkable evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptySetError, InputError, TheoremViolation
from .lp import LPProblem, Optimal, lp_solve
from .linalg import in_span, project_onto_span
from .polyhedra import (
    AffineFlat,
    HPolyhedron,
    VPolyhedron,
    _max_slack,
    h_to_v,
    implicit_rows,
    is_empty,
)
from .relint import in_qri, ri_membership
from .rational import ONE, Rat, Vec, ZERO, dot, unit, vadd, vneg, zeros


@dataclass(frozen=True)
class SeparationCertificate:
    """A functional with sup over the first set never above the inf over
    the second, plus a strictly separated witness pair.  None in a bound
    slot is the infinite flag; produced certificates are always finite."""

    functional: Vec
    sup1: Rat | None
    inf2: Rat | None
    strict_witness_1: Vec
    strict_witness_2: Vec


@dataclass(frozen=True)
class Separated:
    certificate: SeparationCertificate


@dataclass(frozen=True)
class NotSeparable:
    """Proper separation fails; the witness lies in both relative interiors."""

    common_point: Vec


@dataclass(frozen=True)
class QriSeparationReport:
    """Verdict of the point-versus-set separation test, cross-validated
    against the normal-cone subspace predicate when the point is in the set
    (None when the point lies outside and the comparison does not apply)."""

    point: Vec
    nonmember: bool
    certificate: SeparationCertificate | None
    lemma_agrees: bool | None


@dataclass(frozen=True)
class RiDisjointnessReport:
    """Two independent verdicts that must coincide: proper separability and
    emptiness of the intersection of relative interiors.  For polyhedra the
    quasi-relative interiors coincide with the relative interiors, so the
    same verdict covers them."""

    separated: bool
    ri_disjoint: bool
    certificate: SeparationCertificate | None
    common_point: Vec | None

    @property
    def agree(self) -> bool:
        return self.separated == self.ri_disjoint


def _evaluate_bounds(x_star: Vec, V: VPolyhedron) -> tuple[Rat | None, Rat | None]:
    """(sup, inf) of the functional over conv(points) + cone(rays);
    None encodes +inf / -inf respectively."""
    vals = [dot(x_star, p) for p in V.points]
    sup: Rat | None = max(vals)
    inf: Rat | None = min(vals)
    for r in V.rays:
        s = dot(x_star, r)
        if s > 0:
            sup = None
        elif s < 0:
            inf = None
    return sup, inf


def properly_separate(P1: HPolyhedron, P2: HPolyhedron):
    """Proper separation of two nonempty polyhedra, or a common
    relative-interior point when none exists."""
    if P1.dim != P2.dim:
        raise InputError("separation requires matching dimensions")
    if is_empty(P1) or is_empty(P2):
        raise EmptySetError("separation requires nonempty sets")
    n = P1.dim
    V1, V2 = h_to_v(P1), h_to_v(P2)
    # Variables (x*, sigma); sigma is the threshold between the sets.
    rows, rhs = [], []
    obj = list(zeros(n + 1))
    for p in V1.points:
        rows.append(p + (-ONE,))
        rhs.append(ZERO)
        for j, c in enumerate(p):
            obj[j] -= c
        obj[n] += ONE
    for p in V2.points:
        rows.append(vneg(p) + (ONE,))
        rhs.append(ZERO)
        for j, c in enumerate(p):
            obj[j] += c
        obj[n] -= ONE
    for r in V1.rays:
        rows.append(r + (ZERO,))
        rhs.append(ZERO)
        for j, c in enumerate(r):
            obj[j] -= c
    for r in V2.rays:
        rows.append(vneg(r) + (ZERO,))
        rhs.append(ZERO)
        for j, c in enumerate(r):
            obj[j] += c
    for j in range(n):
        e = unit(n + 1, j)
        rows.append(e)
        rhs.append(ONE)
        rows.append(vneg(e))
        rhs.append(ONE)
    out = lp_solve(LPProblem.maximize(tuple(obj), (tuple(rows), tuple(rhs))))
    if not isinstance(out, Optimal):
        raise TheoremViolation("threshold LP is feasible and box-bounded")
    if out.value > 0:
        x_star = out.point[:n]
        return Separated(_build_certificate(x_star, V1, V2))
    common = _common_ri_point(P1, P2)
    if common is None:
        raise TheoremViolation(
            "no separating functional and no common relative-interior point")
    return NotSeparable(common)


def _build_certificate(x_star: Vec, V1: VPolyhedron, V2: VPolyhedron) -> SeparationCertificate:
    vals1 = [dot(x_star, p) for p in V1.points]
    vals2 = [dot(x_star, p) for p in V2.points]
    sup1 = max(vals1)
    inf2 = min(vals2)
    top1 = V1.points[vals1.index(sup1)]
    bot2 = V2.points[vals2.index(inf2)]
    w1, w2 = None, None
    if sup1 < inf2:
        w1, w2 = top1, bot2
    if w1 is None:
        for p, v in zip(V1.points, vals1):
            if v < inf2:
                w1, w2 = p, bot2
                break
    if w1 is None:
        for p, v in zip(V2.points, vals2):
            if v > sup1:
                w1, w2 = top1, p
                break
    if w1 is None:
        for r in V1.rays:
            if dot(x_star, r) < 0:
                w1, w2 = vadd(top1, r), bot2
                break
    if w1 is None:
        for r in V2.rays:
            if dot(x_star, r) > 0:
                w1, w2 = top1, vadd(bot2, r)
                break
    if w1 is None:
        raise TheoremViolation("positive margin without a strict generator")
    return SeparationCertificate(x_star, sup1, inf2, w1, w2)


def verify_certificate(
    P1: HPolyhedron, P2: HPolyhedron, cert: SeparationCertificate
) -> bool:
    """Re-validate a certificate by direct generator evaluation, with no
    reference to how it was produced.  False when either set is empty:
    proper separation is only defined for nonempty sets."""
    x_star = cert.functional
    if P1.dim != P2.dim or any(len(v) != P1.dim for v in (
            x_star, cert.strict_witness_1, cert.strict_witness_2)):
        return False
    V1, V2 = h_to_v(P1), h_to_v(P2)
    if V1.is_empty_set or V2.is_empty_set:
        return False
    sup1, _ = _evaluate_bounds(x_star, V1)
    _, inf2 = _evaluate_bounds(x_star, V2)
    if sup1 is None or inf2 is None:
        return False
    if cert.sup1 != sup1 or cert.inf2 != inf2 or sup1 > inf2:
        return False
    if not P1.contains(cert.strict_witness_1) or not P2.contains(cert.strict_witness_2):
        return False
    return dot(x_star, cert.strict_witness_1) < dot(x_star, cert.strict_witness_2)


def _common_ri_point(P1: HPolyhedron, P2: HPolyhedron) -> Vec | None:
    """A point of ri(P1) and ri(P2) from one joint slack-maximization LP
    over P1's rows followed by P2's."""
    offset = len(P1.A)
    tight = implicit_rows(P1) | {offset + i for i in implicit_rows(P2)}
    found = _max_slack(P1.A + P2.A, P1.b + P2.b, P1.E + P2.E, P1.d + P2.d,
                       P1.dim, tight)
    if found is not None and found.value > 0:
        return found.point[:P1.dim]
    return None


def qri_nonmembership_via_separation(P: HPolyhedron, xbar: Vec) -> QriSeparationReport:
    """Whether the point can be properly separated from the set, which for
    a set member is equivalent to lying outside its quasi-relative
    interior; both routes are computed and compared."""
    if len(xbar) != P.dim:
        raise InputError("point dimension does not match the set")
    if is_empty(P):
        raise EmptySetError("separation from an empty set is undefined")
    outcome = properly_separate(HPolyhedron.singleton(xbar), P)
    nonmember = isinstance(outcome, Separated)
    cert = outcome.certificate if nonmember else None
    agrees: bool | None = None
    if P.contains(xbar):
        agrees = nonmember == (not in_qri(P, xbar))
    return QriSeparationReport(xbar, nonmember, cert, agrees)


def strict_separate_in_flat(L: AffineFlat, P: HPolyhedron, xbar: Vec) -> Vec:
    """A nonzero functional u in the subspace L with sup over P strictly
    below its value at xbar.

    Found by margin maximization in the ambient space, then orthogonal
    projection onto L, which preserves values on L."""
    if not L.is_linear_subspace():
        raise InputError("the carrier flat must be a linear subspace")
    if is_empty(P):
        raise EmptySetError("strict separation requires a nonempty set")
    if not L.contains(xbar):
        raise InputError("the point must lie in the carrier subspace")
    V = h_to_v(P)
    if not all(L.contains(p) for p in V.points) or not all(
        in_span(L.directions, r) for r in V.rays
    ):
        raise InputError("the set must be contained in the carrier subspace")
    if P.contains(xbar):
        raise InputError("strict separation requires a point outside the set")
    n = P.dim
    rows, rhs = [], []
    for p in V.points:
        rows.append(p + (-ONE,))
        rhs.append(ZERO)
    for r in V.rays:
        rows.append(r + (ZERO,))
        rhs.append(ZERO)
    for j in range(n):
        e = unit(n + 1, j)
        rows.append(e)
        rhs.append(ONE)
        rows.append(vneg(e))
        rhs.append(ONE)
    out = lp_solve(LPProblem.maximize(
        xbar + (-ONE,), (tuple(rows), tuple(rhs))))
    if not isinstance(out, Optimal) or out.value <= 0:
        raise TheoremViolation("a closed polyhedron and an outside point separate strictly")
    h = out.point[:n]
    u = project_onto_span(L.directions, h)
    if all(c == 0 for c in u):
        raise TheoremViolation("projected separator vanished on its carrier")
    return u


def separation_iff_ri_disjoint(P1: HPolyhedron, P2: HPolyhedron) -> RiDisjointnessReport:
    """Run the separation verdict and the relative-interior disjointness
    test independently; the two must agree."""
    if is_empty(P1) or is_empty(P2):
        raise EmptySetError("the equivalence requires nonempty sets")
    outcome = properly_separate(P1, P2)
    separated = isinstance(outcome, Separated)
    # A NotSeparable outcome already carries the joint slack point: the
    # same deterministic LP, so it is not solved a second time.
    common = _common_ri_point(P1, P2) if separated else outcome.common_point
    if common is not None:
        if not (ri_membership(P1, common).member and ri_membership(P2, common).member):
            raise TheoremViolation("joint slack point failed relative-interior checks")
    return RiDisjointnessReport(
        separated,
        common is None,
        outcome.certificate if separated else None,
        common,
    )
