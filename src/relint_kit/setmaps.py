"""Set-valued mappings with polyhedral graphs and piecewise-linear convex
functions, plus the product-rule checkers for their interiors.

The graph formula states that a pair belongs to the relative interior of
the graph exactly when its first component is interior to the domain and
its second component is interior to the image slice.  The epigraph analog
replaces the slice by the strict-majorization condition.  Each checker
evaluates both sides independently and reports every asserted equality
and one-sided inclusion separately.

The quasi-regularity side conditions of those rules always hold here:
every nonempty convex set in finite dimension is quasi-regular.  The
reports carry them as documented constants, so the conditional claims
reduce to plain implications.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

from .errors import EmptySetError, InputError
from .polyhedra import (
    HPolyhedron,
    _max_slack,
    h_to_v,
    implicit_rows,
    is_empty,
    linear_image,
    product,
)
from .relint import (
    in_iri,
    in_qri,
    in_ri,
    ri_membership,
    ri_point,
)
from .rational import Mat, ONE, Rat, Vec, ZERO, dot, matvec, unit, vadd, vscale


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
        if is_empty(self.graph):
            return HPolyhedron.empty(self.m)
        proj = tuple(unit(self.m + self.n, j) for j in range(self.m))
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
        for slope, _ in self.pieces:
            if len(slope) != self.domain.dim:
                raise InputError("piece slope of wrong dimension")

    @cached_property
    def _epigraph(self) -> HPolyhedron:
        if is_empty(self.domain):
            raise EmptySetError("a proper function needs a nonempty domain")
        A = [row + (ZERO,) for row in self.domain.A]
        b = list(self.domain.b)
        for slope, intercept in self.pieces:
            A.append(slope + (Rat(-1),))
            b.append(-intercept)
        E = tuple(row + (ZERO,) for row in self.domain.E)
        return HPolyhedron(tuple(A), tuple(b), E, self.domain.d, self.domain.dim + 1)

    def value(self, x: Vec) -> Rat:
        if not self.domain.contains(x):
            raise InputError("function evaluated outside its domain")
        return max(dot(slope, x) + intercept for slope, intercept in self.pieces)


@dataclass(frozen=True)
class GraphRIReport:
    """Both sides of the graph product rule at one pair, with every
    implication separately.  The graph and the domain are nonempty convex
    sets in finite dimension, hence quasi-regular: the side conditions
    are constants."""

    x: Vec
    y: Vec
    lhs: bool
    rhs: bool
    quasi_reg_graph: ClassVar[bool] = True
    quasi_reg_dom: ClassVar[bool] = True

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
class EpiDomainRegularityReport:
    """Epigraph and domain are nonempty polyhedra, so both are
    quasi-regular and the implication between them holds."""

    epi_quasi_regular: ClassVar[bool] = True
    dom_quasi_regular: ClassVar[bool] = True

    @property
    def implication_holds(self) -> bool:
        return not self.epi_quasi_regular or self.dom_quasi_regular


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
    A = tuple(row[F.m:] for row in g.A)
    b = tuple(beta - dot(row[: F.m], x) for row, beta in zip(g.A, g.b))
    E = tuple(row[F.m:] for row in g.E)
    d = tuple(delta - dot(row[: F.m], x) for row, delta in zip(g.E, g.d))
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
    """Both sides of the epigraph interior description at (x, level)."""
    if len(x) != f.domain.dim:
        raise InputError("evaluation point of wrong dimension")
    epi = epi_polyhedron(f)
    point = x + (level,)
    lhs_ri = in_ri(epi, point)
    lhs_iri = in_iri(epi, point)
    lhs_qri = in_qri(epi, point)
    in_dom = f.domain.contains(x)
    strict = in_dom and level > f.value(x)
    rhs_ri = strict and in_ri(f.domain, x)
    rhs_iri = strict and in_iri(f.domain, x)
    rhs_qri = strict and in_qri(f.domain, x)
    return EpiRelintReport(
        x, level, lhs_ri, rhs_ri, lhs_iri, rhs_iri, lhs_qri, rhs_qri,
        len(f.pieces) == 1)


def epi_quasireg_implies_dom(f: PLConvexFunction) -> EpiDomainRegularityReport:
    """Epigraph quasi-regularity forces domain quasi-regularity (one
    direction only; the converse is not asserted).  Both hold for every
    proper function here, so only properness is checked: an empty domain
    raises EmptySetError."""
    epi_polyhedron(f)
    return EpiDomainRegularityReport()


def _interior_samples(P: HPolyhedron) -> list[Vec]:
    """ri_point plus its midpoints with the generator points; each sample
    lies in the relative interior by the line-segment principle."""
    center = ri_point(P)
    samples = [center]
    for p in h_to_v(P).points:
        samples.append(vscale(Rat(1, 2), vadd(center, p)))
    return samples


def linear_image_ri_commutes(M: Mat, P: HPolyhedron) -> CommutationReport:
    """Sampled two-sided check that the image of the relative interior is
    the relative interior of the image."""
    if is_empty(P):
        raise EmptySetError("commutation check requires a nonempty set")
    Q = linear_image(M, P)
    samples = _interior_samples(P)
    forward_ok = all(in_ri(Q, matvec(M, p)) for p in samples)
    q = ri_point(Q)
    lifted = _strict_preimage(M, P, q)
    backward_ok = lifted is not None and ri_membership(P, lifted).member
    return CommutationReport(forward_ok, backward_ok, len(samples), lifted)


def _strict_preimage(M: Mat, P: HPolyhedron, q: Vec) -> Vec | None:
    """x in P with Mx = q and positive slack on all non-implicit rows."""
    t, x, _, _ = _max_slack(P.A, P.b, tuple(P.E) + tuple(M), tuple(P.d) + tuple(q),
                            P.dim, implicit_rows(P))
    return x if t is not None and t > 0 else None


def set_difference_ri_commutes(P1: HPolyhedron, P2: HPolyhedron) -> CommutationReport:
    """The difference-of-sets analog, run as the linear image of the
    product under (x, y) -> x - y."""
    if P1.dim != P2.dim:
        raise InputError("set difference requires matching dimensions")
    if is_empty(P1) or is_empty(P2):
        raise EmptySetError("commutation check requires nonempty sets")
    n = P1.dim
    M = tuple(
        tuple(ONE if k == j else ZERO for k in range(n))
        + tuple(-ONE if k == j else ZERO for k in range(n))
        for j in range(n)
    )
    return linear_image_ri_commutes(M, product(P1, P2))
