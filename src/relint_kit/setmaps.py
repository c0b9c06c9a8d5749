"""Set-valued mappings with polyhedral graphs and piecewise-linear convex
functions, plus the product-rule checkers for their interiors.

The graph formula states that a pair belongs to the relative interior of
the graph exactly when its first component is interior to the domain and
its second component is interior to the image slice.  The epigraph analog
replaces the slice by the strict-majorization condition.  Each checker
evaluates both sides independently and reports every asserted equality
and one-sided inclusion separately.

The quasi-regularity side conditions of those rules always hold here:
every nonempty convex set in finite dimension is quasi-regular, so the
conditional claims reduce to plain implications.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .errors import EmptySetError, InputError
from .polyhedra import (
    HPolyhedron,
    _difference_matrix,
    _max_slack,
    implicit_rows,
    is_empty,
    linear_image,
    product,
)
from .relint import (
    _interiors,
    _ri_witness,
    in_ri,
    ri_membership,
    ri_point,
)
from .rational import Mat, Rat, Vec, ZERO, check_exact, common_ints, dot, scaled_ints, unit


@dataclass(frozen=True)
class PolyhedralMap:
    """Set-valued mapping x -> {y : (x, y) in graph} with a polyhedral
    graph in R^(m+n)."""

    graph: HPolyhedron
    m: int
    n: int

    def __post_init__(self):
        if self.graph.dim != self.m + self.n:
            raise InputError(
                f"graph dimension {self.graph.dim} is not {self.m} + {self.n}")

    @cached_property
    def _domain(self) -> HPolyhedron:
        proj = tuple([unit(self.m + self.n, j) for j in range(self.m)])
        return linear_image(proj, self.graph)


@dataclass(frozen=True)
class PLConvexFunction:
    """max of affine pieces restricted to a polyhedral domain; proper as
    long as the domain is nonempty."""

    pieces: tuple[tuple[Vec, Rat], ...]
    domain: HPolyhedron

    def __post_init__(self):
        if not self.pieces:
            raise InputError("a piecewise-linear function needs at least one piece")
        for slope, intercept in self.pieces:
            if len(slope) != self.domain.dim:
                raise InputError("piece slope of wrong dimension")
            check_exact("piece", (*slope, intercept))

    @cached_property
    def _epigraph(self) -> HPolyhedron:
        if is_empty(self.domain):
            raise EmptySetError("a proper function needs a nonempty domain")
        A = [row + (ZERO,) for row in self.domain.A]
        b = list(self.domain.b)
        for slope, intercept in self.pieces:
            A.append(slope + (Rat(-1),))
            b.append(-intercept)
        E = tuple([row + (ZERO,) for row in self.domain.E])
        return HPolyhedron(tuple(A), tuple(b), E, self.domain.d, self.domain.dim + 1)

    @cached_property
    def _int_pieces(self) -> tuple[int, list[list[int]]]:
        """(L, [L·(slope, intercept)]): the pieces over one denominator L."""
        return common_ints([(*slope, intercept) for slope, intercept in self.pieces])

    def _max_piece(self, q: int, p: list[int]) -> Rat:
        """The largest piece at x = p/q, in integers over L q: one `Fraction`."""
        L, pieces = self._int_pieces
        h = [*p, q]
        return Rat(max([sum(map(mul, piece, h)) for piece in pieces]), L * q)

    def value(self, x: Vec) -> Rat:
        q, p, ineq, eq = self.domain._evaluate(x)
        if any(r < 0 for r in ineq) or any(eq):
            raise InputError("function evaluated outside its domain")
        return self._max_piece(q, p)


@dataclass(frozen=True)
class GraphRIReport:
    """Both sides of the graph product rule at one pair, with every
    implication separately.  The graph and the domain are nonempty convex
    sets in finite dimension, hence quasi-regular, so the rule needs no
    side condition."""

    x: Vec
    y: Vec
    lhs: bool
    rhs: bool

    @property
    def product_rule_holds(self) -> bool:
        return self.lhs == self.rhs

    @property
    def graph_regular_inclusion_ok(self) -> bool:
        return not self.lhs or self.rhs

    @property
    def domain_regular_inclusion_ok(self) -> bool:
        return not self.rhs or self.lhs

    @property
    def both_regular_equality_ok(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class EpiRelintReport:
    """Interior membership of (x, level) in the epigraph versus the
    domain-plus-strict-majorization description, for all three interior
    notions; single-piece instances are tagged because their equality is
    unconditional.  The epigraph is a nonempty polyhedron, hence
    quasi-regular."""

    x: Vec
    level: Rat
    lhs_ri: bool
    rhs_ri: bool
    lhs_iri: bool
    rhs_iri: bool
    lhs_qri: bool
    rhs_qri: bool
    single_affine_piece: bool

    @property
    def ri_formula_holds(self) -> bool:
        return self.lhs_ri == self.rhs_ri

    @property
    def iri_formula_holds(self) -> bool:
        return self.lhs_iri == self.rhs_iri

    @property
    def qri_equality_under_regularity_ok(self) -> bool:
        return self.lhs_qri == self.rhs_qri

    @property
    def all_asserted_hold(self) -> bool:
        return (
            self.ri_formula_holds
            and self.iri_formula_holds
            and self.qri_equality_under_regularity_ok
        )


@dataclass(frozen=True)
class CommutationReport:
    """Two-sided sampled check that a linear map commutes with taking
    relative interiors: forward pushes interior samples into the image's
    interior, backward lifts the image's interior point to an interior
    preimage."""

    forward_ok: bool
    backward_ok: bool
    forward_samples: int
    lifted_point: Vec | None

    @property
    def holds(self) -> bool:
        return self.forward_ok and self.backward_ok


def map_domain(F: PolyhedralMap) -> HPolyhedron:
    """Projection of the graph onto the first m coordinates, cached on F."""
    return F._domain


def image_at(F: PolyhedralMap, x: Vec) -> HPolyhedron:
    """The slice {y : (x, y) in graph}; empty when x is outside the domain."""
    if len(x) != F.m:
        raise InputError(f"slice point of length {len(x)}, expected {F.m}")
    g = F.graph
    check_exact("slice point", x)
    A = tuple([row[F.m:] for row in g.A])
    b = tuple([beta - dot(row[: F.m], x) for row, beta in zip(g.A, g.b)])
    E = tuple([row[F.m:] for row in g.E])
    d = tuple([delta - dot(row[: F.m], x) for row, delta in zip(g.E, g.d)])
    return HPolyhedron(A, b, E, d, F.n)


def graph_ri_check(F: PolyhedralMap, x: Vec, y: Vec) -> GraphRIReport:
    """Evaluate both sides of the graph product rule at (x, y)."""
    if len(x) != F.m or len(y) != F.n:
        raise InputError("pair dimensions do not match the mapping")
    if is_empty(F.graph):
        raise EmptySetError("the product rule requires a nonempty graph")
    pair = x + y
    lhs = in_ri(F.graph, pair)
    dom = map_domain(F)
    rhs = in_ri(dom, x) and in_ri(image_at(F, x), y)
    return GraphRIReport(x, y, lhs, rhs)


def epi_polyhedron(f: PLConvexFunction) -> HPolyhedron:
    """{(x, alpha) : x in dom, alpha >= every affine piece} in R^(m+1)."""
    return f._epigraph


def epi_relint_report(f: PLConvexFunction, x: Vec, level: Rat) -> EpiRelintReport:
    """Both sides of the epigraph interior description at (x, level), each
    point evaluated against its set's rows once for all three notions."""
    if len(x) != f.domain.dim:
        raise InputError("evaluation point of wrong dimension")
    epi = epi_polyhedron(f)
    lhs_ri, lhs_iri, lhs_qri = _interiors(epi, *epi._evaluate(x + (level,)))
    q, p, ineq, eq = f.domain._evaluate(x)
    strict = not any(r < 0 for r in ineq) and not any(eq) and level > f._max_piece(q, p)
    rhs_ri, rhs_iri, rhs_qri = (_interiors(f.domain, q, p, ineq, eq) if strict
                                else (False, False, False))
    return EpiRelintReport(
        x, level, lhs_ri, rhs_ri, lhs_iri, rhs_iri, lhs_qri, rhs_qri,
        len(f.pieces) == 1)


def _interior_samples(P: HPolyhedron) -> list[tuple[int, list[int]]]:
    """ri_point and its midpoints with the generator points as integers
    (s, s·x), each in the relative interior by the line-segment principle."""
    q, c = scaled_ints(ri_point(P))
    return [(q, c)] + [(2 * t * q, [t * a + q * k for a, k in zip(c, X)])
                       for *X, t in P._sorted_generators[0]]


def linear_image_ri_commutes(M: Mat, P: HPolyhedron) -> CommutationReport:
    """Sampled two-sided check that the image of the relative interior is
    the relative interior of the image."""
    if is_empty(P):
        raise EmptySetError("commutation check requires a nonempty set")
    Q = linear_image(M, P)
    # Each sample x = p / s maps to D·M·p / (D·s), D·M the integer matrix.
    samples = _interior_samples(P)
    D, rows = common_ints(M)
    forward_ok = all(_ri_witness(Q, *Q._residuals(D * s, [sum(map(mul, row, p)) for row in rows]))
                     is None for s, p in samples)
    q = ri_point(Q)
    lifted = _strict_preimage(M, P, q)
    backward_ok = lifted is not None and ri_membership(P, lifted).member
    return CommutationReport(forward_ok, backward_ok, len(samples), lifted)


def _strict_preimage(M: Mat, P: HPolyhedron, q: Vec) -> Vec | None:
    """x in P with Mx = q and positive slack on all non-implicit rows."""
    ineq, eq = P._int_rows
    eq = [*eq, *[scaled_ints([*row, -c]) for row, c in zip(M, q)]]
    t, x, _, _ = _max_slack(ineq, eq, P.dim, implicit_rows(P))
    return x if t is not None and t > 0 else None


def set_difference_ri_commutes(P1: HPolyhedron, P2: HPolyhedron) -> CommutationReport:
    """The difference-of-sets analog, run as the linear image of the
    product under (x, y) -> x - y."""
    if P1.dim != P2.dim:
        raise InputError("set difference requires matching dimensions")
    return linear_image_ri_commutes(_difference_matrix(P1.dim), product(P1, P2))
