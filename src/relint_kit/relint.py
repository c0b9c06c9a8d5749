"""Interior calculus for polyhedra: relative interior, intrinsic and
quasi-relative interior predicates, normal cones, and the equivalence
suite that checks all five characterizations against each other.

For a polyhedron the five predicates (strict-inequality membership,
prolongation of every chord, the conic hull being a subspace, its closure
being a subspace, and the normal cone being a subspace) coincide; the
suite computes each one independently so that agreement is evidence, not
assumption.  The conic hull of a polyhedron at one of its points is
already closed, so the closure predicate reuses the same subspace test;
that equality is structural rather than evidential.  Each question
evaluates its point against the rows once, as integers (q, p), x = p / q.

For a nonempty polyhedron, indeed for every nonempty convex set in finite
dimension, ri = iri = qri: the relative, intrinsic and quasi-relative
interiors coincide, and every such set is quasi-regular.  So the library
has no quasi-regularity report: the suite's cone and normal-cone subspace
predicates decide the intrinsic and quasi-relative interiors at its
point, and `verify-corpus` reads both its quasi-regularity and its
qri-separation lines from those verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import EmptySetError, InputError, PointNotInSetError
from .polyhedra import (
    HPolyhedron,
    PolyCone,
    _cone_contains,
    _nonempty_interior,
    cone_contains,  # re-exported: the package root imports it from here
    implicit_rows,
    is_empty,
)
from .rational import (ONE, Rat, Vec, common_scaled, frac_vec, primitive, scaled_ints, vadd,
                       vscale, vsub)


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


def _find_violation(P: HPolyhedron, ineq: list[int], eq: list[int]) -> RowWitness | None:
    """The first row that P.residuals(x) = (q, ineq, eq) shows violated."""
    for i, r in enumerate(ineq):
        if r < 0:
            return RowWitness("ineq-violated", i, P.A[i], P.b[i])
    for i, r in enumerate(eq):
        if r:
            return RowWitness("eq-violated", i, P.E[i], P.d[i])
    return None


def _ri_witness(P: HPolyhedron, ineq: list[int], eq: list[int]) -> RowWitness | None:
    """The row that keeps x out of ri P, nonempty, read from x's residuals:
    a violated row, else an active row that is not implicit; None when x
    is in ri P."""
    violated = _find_violation(P, ineq, eq)
    if violated is not None:
        return violated
    imp = implicit_rows(P)
    for i, r in enumerate(ineq):
        if r == 0 and i not in imp:
            return RowWitness("ineq-active", i, P.A[i], P.b[i])
    return None


def ri_membership(P: HPolyhedron, x: Vec) -> RiResult:
    """Membership of x in the relative interior of nonempty P: x in P with
    every non-implicit inequality strict."""
    _, _, ineq, eq = P._evaluate(x)
    if is_empty(P):
        raise EmptySetError("relative interior of the empty set is undefined")
    witness = _ri_witness(P, ineq, eq)
    return RiResult(witness is None, witness)


def in_ri(P: HPolyhedron, x: Vec) -> bool:
    """ri-membership with the empty set reading as no members."""
    if is_empty(P):
        return False
    return ri_membership(P, x).member


def ri_point(P: HPolyhedron) -> Vec:
    """A deterministic relative-interior point of nonempty P, from the
    slack-maximization LP over the non-implicit rows."""
    return _nonempty_interior(P)[1]


def _distinct_sorted(gens: list) -> tuple[list, list[int]]:
    """The distinct rows (L, L·g), L the lcm of the denominators of g, in the
    order of the sorted g, keyed on the g over one common denominator L';
    with them L'·(-Σg) over the distinct g, `_is_subspace`'s objective."""
    keys = dict(zip(map(tuple, common_scaled(gens)[1]), gens))
    order = sorted(keys)
    return [keys[k] for k in order], [-sum(c) for c in zip(*order)]


def _hull_rows(P: HPolyhedron, q: int, p: list[int]) -> tuple[list, list[int]]:
    """cone(P - x), x = p/q in P (any q > 0), as `_distinct_sorted` gives it:
    a generator point (X, t) gives g = (qX - tp) / (tq) and its row from
    primitive((qX - tp, tq)) = (L·g, L), unless g = 0; a direction D, (1, D)."""
    points, directions = P._int_generators
    gens = []
    for X in points:
        t = X[-1]
        G = [q * a - t * c for a, c in zip(X, p)]
        if any(G):
            *g, L = primitive([*G, t * q])
            gens.append((L, g))
    gens += [(1, D[:-1]) for D in directions]
    return _distinct_sorted(gens)


def _normal_rows(P: HPolyhedron, ineq: list[int]) -> tuple[list, list[int]]:
    """N(x; P), for x in P with inequality residuals ineq, as `_distinct_sorted`
    gives it: each nonzero active row (L, L·(a, -beta)), both signs if
    implicit or an equality, gives primitive((L·a, L)) = (L_a·a, L_a)."""
    imp = implicit_rows(P)
    int_ineq, int_eq = P._int_rows
    rows = [(*row, (1, -1) if i in imp else (1,))
            for i, (row, r) in enumerate(zip(int_ineq, ineq)) if r == 0]
    gens = []
    for L, h, signs in rows + [(L, h, (1, -1)) for L, h in int_eq]:
        if any(h[:-1]):
            *a, L = primitive([*h[:-1], L])
            gens += [(L, [s * k for k in a]) for s in signs]
    return _distinct_sorted(gens)


def _cone(rows: tuple[list, list[int]], n: int) -> PolyCone:
    return PolyCone(tuple([frac_vec(L, g) for L, g in rows[0]]), n)


def _is_subspace(cone: tuple[list, list[int]]) -> bool:
    """`is_subspace` of the cone whose generators g are the rows (L, L·g),
    given with its objective L'·(-Σg)."""
    rows, objective = cone
    return not rows or _cone_contains(rows, (1, objective))


def conic_hull_at(P: HPolyhedron, x: Vec) -> PolyCone:
    """cone(P - x) for x in P, generated by the shifted generator points
    and the recession rays of P."""
    q, p, ineq, eq = P._evaluate(x)
    if _find_violation(P, ineq, eq) is not None:
        raise PointNotInSetError("conic hull base point must belong to the set")
    return _cone(_hull_rows(P, q, p), P.dim)


def is_subspace(C: PolyCone) -> bool:
    """True iff -g lies in the cone for every generator g.

    Equivalent single query: a cone contains the negation of each of its
    generators exactly when it contains the negated sum of all of them, or
    any positive multiple of it, such as L·(-Σg) over the generators'
    common denominator L.
    """
    rows = [scaled_ints(g) for g in C.generators]
    return _is_subspace((rows, [-sum(c) for c in zip(*common_scaled(rows)[1])]))


def normal_cone(P: HPolyhedron, x: Vec) -> PolyCone:
    """N(x; P): generated by the active inequality normals, both signs of
    the implicit inequality normals, and both signs of the equality rows."""
    _, _, ineq, eq = P._evaluate(x)
    if _find_violation(P, ineq, eq) is not None:
        raise PointNotInSetError(
            "normal cone at an outside point is empty, not the zero cone")
    return _cone(_normal_rows(P, ineq), P.dim)


def in_iri(P: HPolyhedron, x: Vec) -> bool:
    """Intrinsic relative interior: cone(P - x) is a linear subspace."""
    if is_empty(P):
        return False
    q, p, ineq, eq = P._evaluate(x)
    return _find_violation(P, ineq, eq) is None and _is_subspace(_hull_rows(P, q, p))


def in_qri(P: HPolyhedron, x: Vec) -> bool:
    """Quasi-relative interior via the normal-cone subspace criterion."""
    if is_empty(P):
        return False
    _, _, ineq, eq = P._evaluate(x)
    return _find_violation(P, ineq, eq) is None and _is_subspace(_normal_rows(P, ineq))


def _interiors(P: HPolyhedron, q: int, p: list[int], ineq: list[int], eq: list[int]
               ) -> tuple[bool, bool, bool]:
    """(`in_ri`, `in_iri`, `in_qri`) of x = p/q, read from its one
    evaluation (ineq, eq) against P's rows, their LPs in that order."""
    if is_empty(P) or _find_violation(P, ineq, eq) is not None:
        return False, False, False
    return (_ri_witness(P, ineq, eq) is None, _is_subspace(_hull_rows(P, q, p)),
            _is_subspace(_normal_rows(P, ineq)))


def _prolongation_bound(q: int, ineq: list[int], q1: int, ineq1: list[int]) -> tuple[int, int]:
    """(num, den): the largest s <= +infinity with xbar + s(xbar - x) in P
    is num / den (den = 0 for +infinity), from the inequality residuals of
    xbar = p/q and of x = p1/q1, both in P.

    With residuals r = L q (b - a·xbar) at xbar and r' = L q' (b - a·x)
    at x, row a moves at speed a·(xbar - x) = (r' q - r q') / (L q q'),
    so its bound (b - a·xbar) / speed is exactly r q' / (r' q - r q')."""
    num, den = 1, 0
    for r, r1 in zip(ineq, ineq1):
        speed = r1 * q - r * q1
        if speed > 0 and r * q1 * den < num * speed:
            num, den = r * q1, speed
    return num, den


def prolongation_test(
    P: HPolyhedron, xbar: Vec, x: Vec
) -> tuple[Vec, Rat] | None:
    """A point u in P with xbar strictly between x and u, when one exists.

    Solves the one-dimensional program max s with xbar + s(xbar - x) in P
    in closed form by a ratio test over the inequality rows
    (`_prolongation_bound`); returns (u, t) with xbar = t x + (1 - t) u and
    t in (0, 1)."""
    q, _, ineq, eq = P._evaluate(xbar)
    if _find_violation(P, ineq, eq) is not None:
        raise InputError("prolongation requires both points in the set")
    q1, _, ineq1, eq1 = P._evaluate(x)
    if _find_violation(P, ineq1, eq1) is not None:
        raise InputError("prolongation requires both points in the set")
    if x == xbar:
        raise InputError("prolongation requires two distinct points")
    num, den = _prolongation_bound(q, ineq, q1, ineq1)
    if num == 0:
        return None
    s = ONE if den == 0 else min(Rat(num, den), ONE)
    return vadd(xbar, vscale(s, vsub(xbar, x))), s / (1 + s)


def characterization_suite(
    P: HPolyhedron, xbar: Vec, set_id: str | None = None
) -> MembershipReport:
    """Evaluate all five interior characterizations of xbar independently.

    xbar is evaluated against the rows once, and every predicate reads
    that one evaluation.  A point outside P yields an all-false report with
    the violated row as witness; disagreement among the predicates is
    surfaced by the report and must be treated as a failure by callers,
    never accepted."""
    q, p, ineq, eq = P._evaluate(xbar)
    if is_empty(P):
        raise EmptySetError("characterizations require a nonempty set")
    witness = _ri_witness(P, ineq, eq)
    if witness is not None and witness.kind != "ineq-active":
        return MembershipReport(xbar, set_id, False, False, False, False, False, witness)
    # Generator points alone are blind to unbounded directions: at the apex
    # of a halfline every other generator point may coincide with the base
    # point while ray-shifted points still lack a prolongation.  Each probe
    # is a point (q1, p1) of P other than xbar; a direction is (D, 0).
    points, directions = P._sorted_generators
    probes = chain([(t, X) for *X, t in points if [q * k for k in X] != [t * k for k in p]],
                   [(q, [a + q * k for a, k in zip(p, D)]) for D in directions])
    prolong = all(_prolongation_bound(q, ineq, q1, P._residuals(q1, p1)[0])[0]
                  for q1, p1 in probes)
    # The conic hull is closed, so one test decides both cone predicates.
    cone_sub = _is_subspace(_hull_rows(P, q, p))
    normal_sub = _is_subspace(_normal_rows(P, ineq))
    return MembershipReport(
        xbar, set_id, witness is None, prolong, cone_sub, cone_sub, normal_sub, witness)
