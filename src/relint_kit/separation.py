"""Certificate-producing proper and strict separation of polyhedra.

Every separation question is one slack LP over both sets' rows, first set
first, each set's implicit rows tight, encoded and read in
`polyhedra._max_slack` alone as (t, x, y, z).  A positive t puts x in both
relative interiors.  Otherwise y = (y1 | y2) and z = (z1 | z2), duals at
an optimum <= 0 or Farkas multipliers, give x* = y1·A1 + z1·E1 =
-(y2·A2 + z2·E2) with sup_P1 x* <= y1·b1 + z1·d1 <= -(y2·b2 + z2·d2) <=
inf_P2 x*, proper because some y_i > 0 is on a non-implicit row when the
middle bound is tight (Rockafellar 1970, Thm 11.3).  The certificate is
read off the integer generators: its bounds over the points, and as
witnesses the first strictly separated pair in a fixed order of candidates
built from the extreme points and the rays, each x*·x / t compared in
integers.  The multipliers re-check without the solver as proof of
disjoint relative interiors, combining the sets' integer rows."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from operator import mul

from .errors import EmptySetError, InputError, TheoremViolation
from .linalg import in_span, project_onto_span
from .polyhedra import (
    AffineFlat,
    HPolyhedron,
    _max_slack,
    h_to_v,
    implicit_rows,
    is_empty,
)
from .relint import in_qri, ri_membership, ri_point
from .rational import Rat, Vec, combination, common_points, dot, frac_vec, primitive


@dataclass(frozen=True)
class SeparationCertificate:
    """A functional with sup over the first set never above the inf over
    the second, plus a strictly separated witness pair."""

    functional: Vec
    sup1: Rat
    inf2: Rat
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
    """Two verdicts that must coincide, each re-checked on its own evidence:
    proper separability by `verify_certificate`, disjoint relative
    interiors by the joint LP's multipliers, solver-free.  For polyhedra
    the quasi-relative interiors are the relative interiors."""

    separated: bool
    ri_disjoint: bool
    certificate: SeparationCertificate | None
    common_point: Vec | None

    @property
    def agree(self) -> bool:
        return self.separated == self.ri_disjoint


def _joint_slack(P1: HPolyhedron, P2: HPolyhedron):
    """The slack LP over P1's rows then P2's, each set's implicit rows
    tight, as `_max_slack`'s (t, x, y, z)."""
    tight = implicit_rows(P1) | {len(P1.A) + i for i in implicit_rows(P2)}
    (ineq1, eq1), (ineq2, eq2) = P1._int_rows, P2._int_rows
    return _max_slack(ineq1 + ineq2, eq1 + eq2, P1.dim, tight)


def _functional(P1: HPolyhedron, y: Vec, z: Vec) -> tuple[int, ...]:
    """x* = y1·A1 + z1·E1 from the joint multipliers, as coprime integers."""
    ineq, eq = P1._int_rows
    combo = combination(y[:len(ineq)] + z[:len(eq)], ineq + eq, P1.dim + 1)
    return primitive(combo[:-1])


def _separate(P1: HPolyhedron, P2: HPolyhedron):
    """The verdict of `properly_separate` with the joint multipliers it
    was read from, as (outcome, y, z)."""
    if P1.dim != P2.dim:
        raise InputError("separation requires matching dimensions")
    if is_empty(P1) or is_empty(P2):
        raise EmptySetError("separation requires nonempty sets")
    t, x, y, z = _joint_slack(P1, P2)
    if t is not None and t > 0:
        return NotSeparable(x), y, z
    cert = _build_certificate(_functional(P1, y, z), P1, P2)
    return Separated(cert), y, z


def properly_separate(P1: HPolyhedron, P2: HPolyhedron):
    """Proper separation of two nonempty polyhedra, or a common
    relative-interior point when none exists."""
    return _separate(P1, P2)[0]


def _proves_ri_disjoint(P1: HPolyhedron, P2: HPolyhedron, y: Vec, z: Vec) -> bool:
    """Solver-free check that multipliers y on the inequality rows of P1
    then P2, and z on their equalities, prove ri(P1) and ri(P2) disjoint:
    y >= 0, y·A + z·E = 0, and y·b + z·d < 0, or y·b + z·d = 0 with some
    y_i > 0 on a row strict at its own set's `ri_point`.  At x in both
    relative interiors, y·b + z·d = sum of y_i (b_i - a_i·x), every term
    >= 0 and that one > 0.  False for malformed multipliers."""
    (ineq1, eq1), (ineq2, eq2) = P1._int_rows, P2._int_rows
    rows = ineq1 + ineq2 + eq1 + eq2
    if len(y) != len(ineq1 + ineq2) or len(y + z) != len(rows) or any(v < 0 for v in y):
        return False
    # The rows are (a, -beta), so the last entry is -(y·b + z·d), scaled.
    *combo, const = combination(y + z, rows, P1.dim + 1)
    if any(combo):
        return False
    if const != 0:
        return const > 0
    slack = P1.residuals(ri_point(P1))[1] + P2.residuals(ri_point(P2))[1]
    return any(v > 0 and s > 0 for v, s in zip(y, slack))


def _build_certificate(x_star: tuple[int, ...], P1: HPolyhedron, P2: HPolyhedron
                       ) -> SeparationCertificate:
    """x* with its bounds over the points, and as witnesses the first pair
    (w1, w2) with x*·w1 < x*·w2 among: (top1, bot2), each point of P1 with
    bot2, top1 with each point of P2, top1 + r with bot2 for each ray r of
    P1, and top1 with bot2 + r for each ray r of P2, points and rays in the
    order of `h_to_v`.  top1 and bot2 are the first points of P1 and P2 at
    the bounds.  Every value is an integer over S = T1·T2, the points of
    P1 and P2 being integers over T1 and T2."""
    (points1, rays1), (points2, rays2) = P1._sorted_generators, P2._sorted_generators
    (T1, points1), (T2, points2) = common_points(points1), common_points(points2)
    S = T1 * T2
    vals1 = [T2 * sum(map(mul, x_star, p)) for p in points1]
    vals2 = [T1 * sum(map(mul, x_star, p)) for p in points2]
    sup1, inf2 = max(vals1), min(vals2)
    top1 = points1[vals1.index(sup1)]
    bot2 = points2[vals2.index(inf2)]
    candidates = chain([(sup1, inf2, top1, bot2)],
                       ((v, inf2, p, bot2) for v, p in zip(vals1, points1)),
                       ((sup1, v, top1, p) for v, p in zip(vals2, points2)),
                       ((sup1 + S * sum(map(mul, x_star, r)), inf2,
                         [a + T1 * k for a, k in zip(top1, r)], bot2) for r in rays1),
                       ((sup1, inf2 + S * sum(map(mul, x_star, r)), top1,
                         [a + T2 * k for a, k in zip(bot2, r)]) for r in rays2))
    for v1, v2, w1, w2 in candidates:
        if v1 < v2:
            return SeparationCertificate(frac_vec(1, x_star), Rat(sup1, S), Rat(inf2, S),
                                         frac_vec(T1, w1), frac_vec(T2, w2))
    raise TheoremViolation("proper separator without a strict generator")


def verify_certificate(
    P1: HPolyhedron, P2: HPolyhedron, cert: SeparationCertificate
) -> bool:
    """Re-validate a certificate by direct generator evaluation, with no
    reference to how it was produced.  False when either set is empty:
    proper separation is only defined for nonempty sets.  False, never an
    error, for a malformed certificate."""
    x_star = cert.functional
    vectors = (x_star, cert.strict_witness_1, cert.strict_witness_2)
    if P1.dim != P2.dim or any(not isinstance(v, Sequence) or len(v) != P1.dim
                               for v in vectors):
        return False
    # Exactly an int or a Fraction, as in `verify_farkas`: a float or a bool
    # would compare inexactly, and None or a string not at all.
    entries = [*x_star, *cert.strict_witness_1, *cert.strict_witness_2,
               cert.sup1, cert.inf2]
    if any(type(v) is not Rat and type(v) is not int for v in entries):
        return False
    V1, V2 = h_to_v(P1), h_to_v(P2)
    if V1.is_empty_set or V2.is_empty_set:
        return False
    if any(dot(x_star, r) > 0 for r in V1.rays) or any(dot(x_star, r) < 0 for r in V2.rays):
        return False
    sup1 = max(dot(x_star, p) for p in V1.points)
    inf2 = min(dot(x_star, p) for p in V2.points)
    if cert.sup1 != sup1 or cert.inf2 != inf2 or sup1 > inf2:
        return False
    if not P1.contains(cert.strict_witness_1) or not P2.contains(cert.strict_witness_2):
        return False
    return dot(x_star, cert.strict_witness_1) < dot(x_star, cert.strict_witness_2)


def qri_nonmembership_via_separation(P: HPolyhedron, xbar: Vec) -> QriSeparationReport:
    """Whether the point can be properly separated from the set, which for
    a set member is equivalent to lying outside its quasi-relative
    interior; both routes are computed and compared."""
    if len(xbar) != P.dim:
        raise InputError("point dimension does not match the set")
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

    Read from the multipliers of the joint slack LP of P and {xbar}, which
    is infeasible or has a negative optimum as xbar lies outside P, then
    projected orthogonally onto L, which preserves values on L."""
    if L.dim != P.dim:
        raise InputError(f"carrier flat in dimension {L.dim}, set in dimension {P.dim}")
    if not L.is_linear_subspace():
        raise InputError("the carrier flat must be a linear subspace")
    if is_empty(P):
        raise EmptySetError("strict separation requires a nonempty set")
    if not L.contains(xbar):
        raise InputError("the point must lie in the carrier subspace")
    V = h_to_v(P)
    if not all(in_span(L.directions, g) for g in V.points + V.rays):
        raise InputError("the set must be contained in the carrier subspace")
    if P.contains(xbar):
        raise InputError("strict separation requires a point outside the set")
    t, _, y, z = _joint_slack(P, HPolyhedron.singleton(xbar))
    if t is not None and t >= 0:
        raise TheoremViolation("a closed polyhedron and an outside point separate strictly")
    u = project_onto_span(L.directions, frac_vec(1, _functional(P, y, z)))
    if all(c == 0 for c in u):
        raise TheoremViolation("projected separator vanished on its carrier")
    return u


def separation_iff_ri_disjoint(P1: HPolyhedron, P2: HPolyhedron) -> RiDisjointnessReport:
    """Decide proper separation with one joint slack LP, then re-check
    its two sides independently; the two verdicts must agree."""
    outcome, y, z = _separate(P1, P2)
    cert = outcome.certificate if isinstance(outcome, Separated) else None
    common = outcome.common_point if cert is None else None
    if common is not None and not all(ri_membership(P, common).member for P in (P1, P2)):
        raise TheoremViolation("joint slack point failed relative-interior checks")
    return RiDisjointnessReport(cert is not None and verify_certificate(P1, P2, cert),
                                _proves_ri_disjoint(P1, P2, y, z), cert, common)
