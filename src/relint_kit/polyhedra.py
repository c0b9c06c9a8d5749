"""Polyhedral convex sets: inequality, generator, conic, and affine forms.

Conventions fixed here and relied on everywhere else:
  * an HPolyhedron may carry redundant rows; nothing canonicalizes
    implicitly, and emptiness is decided by LP;
  * a VPolyhedron with no points is the empty set regardless of rays;
  * lines are encoded as opposite ray pairs, never as a separate field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .dd import dd_cone
from .errors import EmptySetError, InputError, TheoremViolation
from .linalg import (
    in_span,
    orthogonal_complement_basis,
    rank,
    solve_linear_system,
)
from .lp import Infeasible, LPProblem, Optimal, Unbounded, lp_solve, simplex_max
from .rational import (
    Mat,
    ONE,
    Rat,
    Vec,
    ZERO,
    check_dims,
    dot,
    mat,
    matvec,
    vec,
    vneg,
    vsub,
    zeros,
)


@dataclass(frozen=True)
class HPolyhedron:
    """{x : A x <= b, E x = d} in an ambient space of dimension dim."""

    A: Mat
    b: Vec
    E: Mat
    d: Vec
    dim: int

    def __post_init__(self):
        check_dims(self.A, self.b, self.dim, "inequalities")
        check_dims(self.E, self.d, self.dim, "equalities")

    @classmethod
    def make(cls, A=(), b=(), E=(), d=(), dim=None) -> "HPolyhedron":
        A, E = mat(A), mat(E)
        b, d = vec(b), vec(d)
        if dim is None:
            if A:
                dim = len(A[0])
            elif E:
                dim = len(E[0])
            else:
                raise InputError("ambient dimension required for a row-free polyhedron")
        return cls(A, b, E, d, dim)

    @classmethod
    def empty(cls, dim: int) -> "HPolyhedron":
        return cls((zeros(dim),), (Rat(-1),), (), (), dim)

    @classmethod
    def whole_space(cls, dim: int) -> "HPolyhedron":
        return cls((), (), (), (), dim)

    @classmethod
    def singleton(cls, point) -> "HPolyhedron":
        p = vec(point)
        n = len(p)
        eye = tuple(tuple(ONE if i == j else ZERO for i in range(n)) for j in range(n))
        return cls((), (), eye, p, n)

    def contains(self, x: Vec) -> bool:
        if len(x) != self.dim:
            raise InputError(f"point of length {len(x)} in dimension {self.dim}")
        return all(dot(row, x) <= beta for row, beta in zip(self.A, self.b)) and all(
            dot(row, x) == delta for row, delta in zip(self.E, self.d)
        )

    def recession_contains(self, v: Vec) -> bool:
        return all(dot(row, v) <= 0 for row in self.A) and all(
            dot(row, v) == 0 for row in self.E
        )


@dataclass(frozen=True)
class VPolyhedron:
    """conv(points) + cone(rays); empty exactly when points is empty."""

    points: tuple[Vec, ...]
    rays: tuple[Vec, ...]
    dim: int

    def __post_init__(self):
        for p in self.points + self.rays:
            if len(p) != self.dim:
                raise InputError("generator of wrong dimension")

    @classmethod
    def make(cls, points=(), rays=(), dim=None) -> "VPolyhedron":
        pts = tuple(vec(p) for p in points)
        rs = tuple(vec(r) for r in rays)
        if dim is None:
            if pts:
                dim = len(pts[0])
            elif rs:
                dim = len(rs[0])
            else:
                raise InputError("ambient dimension required for an empty V-polyhedron")
        return cls(pts, rs, dim)

    @property
    def is_empty_set(self) -> bool:
        return not self.points


@dataclass(frozen=True)
class AffineFlat:
    """basepoint + span(directions) inside R^dim."""

    basepoint: Vec
    directions: tuple[Vec, ...]
    dim: int

    def __post_init__(self):
        if len(self.basepoint) != self.dim:
            raise InputError("flat basepoint of wrong dimension")
        for v in self.directions:
            if len(v) != self.dim:
                raise InputError("flat direction of wrong dimension")
        if self.directions and rank(self.directions) != len(self.directions):
            raise InputError("flat directions must be linearly independent")

    @property
    def flat_dim(self) -> int:
        return len(self.directions)

    def contains(self, x: Vec) -> bool:
        return in_span(self.directions, vsub(x, self.basepoint))

    def is_linear_subspace(self) -> bool:
        return all(a == 0 for a in self.basepoint) or self.contains(zeros(self.dim))


@dataclass(frozen=True)
class PolyCone:
    """cone(generators) = {sum t_i g_i : t_i >= 0}; always contains 0."""

    generators: tuple[Vec, ...]
    dim: int

    def __post_init__(self):
        for g in self.generators:
            if len(g) != self.dim:
                raise InputError("cone generator of wrong dimension")


# -- emptiness ---------------------------------------------------------------


@lru_cache(maxsize=None)
def feasible_point(P: HPolyhedron) -> Vec | None:
    """A witness point of P, or None when P is empty."""
    out = lp_solve(LPProblem.maximize(zeros(P.dim), (P.A, P.b), (P.E, P.d)))
    if isinstance(out, Infeasible):
        return None
    return out.point


def is_empty(P: HPolyhedron) -> bool:
    return feasible_point(P) is None


def _require_nonempty(P: HPolyhedron) -> None:
    if is_empty(P):
        raise EmptySetError("operation requires a nonempty polyhedron")


# -- implicit equalities and the affine hull ---------------------------------


def _max_slack(A: Mat, b: Vec, E: Mat, d: Vec, n: int,
               tight: frozenset[int] = frozenset()) -> Optimal | None:
    """max t <= 1 over (x, t) with a_i·x + t <= b_i on the rows outside
    `tight`, a_i·x <= b_i on the rows in it, and E x = d.

    The one encoding of the slack LP: the cap row comes last and t is the
    last variable.  Returns the Optimal outcome, whose point is (x, t), or
    None when the system is infeasible."""
    rows = tuple(row + (ZERO if i in tight else ONE,) for i, row in enumerate(A))
    eqs = tuple(row + (ZERO,) for row in E)
    out = lp_solve(LPProblem.maximize(
        zeros(n) + (ONE,), (rows + (zeros(n) + (ONE,),), tuple(b) + (ONE,)),
        (eqs, tuple(d))))
    return out if isinstance(out, Optimal) else None


@lru_cache(maxsize=None)
def _interior(P: HPolyhedron) -> tuple[frozenset[int], Vec]:
    """The implicit rows of nonempty P and a relative-interior point.

    Farkas: at a zero slack optimum the duals y >= 0 give y·(b - A x) = 0
    on P, so every row with y_i > 0 is implicit; some lie outside `tight`."""
    _require_nonempty(P)
    tight: frozenset[int] = frozenset()
    while True:
        out = _max_slack(P.A, P.b, P.E, P.d, P.dim, tight)
        if out is None:
            raise TheoremViolation("slack LP of a nonempty polyhedron is infeasible")
        if out.value > 0:
            return tight, out.point[:P.dim]
        grown = tight | {i for i, y in enumerate(out.dual_ineq[:len(P.A)]) if y > 0}
        if grown == tight:
            raise TheoremViolation("zero slack optimum without a new implicit row")
        tight = grown


def implicit_rows(P: HPolyhedron) -> frozenset[int]:
    """Indices of inequality rows satisfied as equalities everywhere on P."""
    return _interior(P)[0]


@lru_cache(maxsize=None)
def affine_hull(P: HPolyhedron) -> AffineFlat:
    """The affine hull of nonempty P, from its implicit equality system."""
    _require_nonempty(P)
    imp = implicit_rows(P)
    eq_rows = list(P.E) + [P.A[i] for i in sorted(imp)]
    eq_rhs = list(P.d) + [P.b[i] for i in sorted(imp)]
    sol = solve_linear_system(tuple(eq_rows), tuple(eq_rhs), P.dim)
    if sol is None:
        raise TheoremViolation("nonempty polyhedron has an inconsistent equality system")
    return AffineFlat(sol.particular, sol.nullspace_basis, P.dim)


def dim(P: HPolyhedron) -> int:
    """Dimension of the affine hull of nonempty P."""
    return affine_hull(P).flat_dim


def flat_to_hpoly(flat: AffineFlat) -> HPolyhedron:
    """The flat as an equality-only H-polyhedron."""
    normals = orthogonal_complement_basis(flat.directions, flat.dim)
    d = tuple(dot(nrm, flat.basepoint) for nrm in normals)
    return HPolyhedron((), (), normals, d, flat.dim)


def flats_equal(f1: AffineFlat, f2: AffineFlat) -> bool:
    if f1.dim != f2.dim or f1.flat_dim != f2.flat_dim:
        return False
    return f1.contains(f2.basepoint) and f2.contains(f1.basepoint) and all(
        in_span(f1.directions, v) for v in f2.directions
    )


# -- representation conversion -----------------------------------------------


def _homogenized_rows(P: HPolyhedron) -> list[Vec]:
    rows = [row + (-beta,) for row, beta in zip(P.A, P.b)]
    for row, delta in zip(P.E, P.d):
        rows.append(row + (-delta,))
        rows.append(vneg(row) + (delta,))
    rows.append(zeros(P.dim) + (Rat(-1),))
    return rows


@lru_cache(maxsize=None)
def h_to_v(P: HPolyhedron) -> VPolyhedron:
    """Exact generator representation via double description of the
    homogenization cone {(x, t) : Ax <= bt, Ex = dt, t >= 0}."""
    lineality, rays = dd_cone(_homogenized_rows(P), P.dim + 1)
    points: list[Vec] = []
    directions: list[Vec] = []
    for r in rays:
        t = r[-1]
        if t > 0:
            points.append(tuple(Rat(num, t) for num in r[:-1]))
        elif t == 0:
            directions.append(tuple(Rat(num) for num in r[:-1]))
        else:
            raise TheoremViolation("homogenization ray with negative t")
    for l in lineality:
        if l[-1] != 0:
            raise TheoremViolation("lineality leaves the t = 0 slice")
        d = tuple(Rat(num) for num in l[:-1])
        directions.append(d)
        directions.append(vneg(d))
    if not points:
        return VPolyhedron((), (), P.dim)
    return VPolyhedron(
        tuple(sorted(set(points))), tuple(sorted(set(directions))), P.dim
    )


def v_to_h(V: VPolyhedron) -> HPolyhedron:
    """Inequality/equality description of conv(points) + cone(rays),
    found by dualizing the homogenization cone."""
    n = V.dim
    if not V.points:
        return HPolyhedron.empty(n)
    gens = [p + (ONE,) for p in V.points] + [r + (ZERO,) for r in V.rays]
    lineality, rays = dd_cone(gens, n + 1)
    A, b, E, d = [], [], [], []
    for r in sorted(rays):
        a, c = r[:-1], r[-1]
        if all(x == 0 for x in a):
            if c > 0:
                raise TheoremViolation("trivial facet row unsatisfiable at t = 1")
            continue
        A.append(tuple(Rat(x) for x in a))
        b.append(Rat(-c))
    for l in sorted(lineality):
        a, c = l[:-1], l[-1]
        if all(x == 0 for x in a):
            if c != 0:
                raise TheoremViolation("a nonempty set misses the t = 1 slice")
            continue
        E.append(tuple(Rat(x) for x in a))
        d.append(Rat(-c))
    return HPolyhedron(tuple(A), tuple(b), tuple(E), tuple(d), n)


# -- structural operations ---------------------------------------------------


def linear_image(M: Mat, P: HPolyhedron) -> HPolyhedron:
    """Exact H-representation of {Mx : x in P}."""
    if not M:
        raise InputError("image requires a matrix with at least one row")
    if any(len(row) != P.dim for row in M):
        raise InputError(f"matrix columns {len(M[0])} do not match dimension {P.dim}")
    target = len(M)
    V = h_to_v(P)
    if V.is_empty_set:
        return HPolyhedron.empty(target)
    points = [matvec(M, p) for p in V.points]
    rays = []
    for r in V.rays:
        w = matvec(M, r)
        if any(c != 0 for c in w):
            rays.append(w)
    return v_to_h(VPolyhedron(tuple(points), tuple(rays), target))


def minkowski_diff(P1: HPolyhedron, P2: HPolyhedron) -> HPolyhedron:
    """{w1 - w2 : w1 in P1, w2 in P2} via generator arithmetic."""
    if P1.dim != P2.dim:
        raise InputError("set difference requires matching dimensions")
    V1, V2 = h_to_v(P1), h_to_v(P2)
    if V1.is_empty_set or V2.is_empty_set:
        return HPolyhedron.empty(P1.dim)
    points = sorted({vsub(p1, p2) for p1 in V1.points for p2 in V2.points})
    rays = sorted(set(V1.rays) | {vneg(r) for r in V2.rays})
    return v_to_h(VPolyhedron(tuple(points), tuple(rays), P1.dim))


def product(P1: HPolyhedron, P2: HPolyhedron) -> HPolyhedron:
    """P1 x P2 by block-diagonal constraint stacking."""
    n1, n2 = P1.dim, P2.dim
    A = [row + zeros(n2) for row in P1.A] + [zeros(n1) + row for row in P2.A]
    E = [row + zeros(n2) for row in P1.E] + [zeros(n1) + row for row in P2.E]
    return HPolyhedron(tuple(A), P1.b + P2.b, tuple(E), P1.d + P2.d, n1 + n2)


# -- set comparison ----------------------------------------------------------


def _subset(P: HPolyhedron, Q: HPolyhedron) -> bool:
    """P contained in Q, decided by one bound LP per row of Q."""
    if is_empty(P):
        return True
    for row, beta in zip(Q.A, Q.b):
        out = lp_solve(LPProblem.maximize(row, (P.A, P.b), (P.E, P.d)))
        if isinstance(out, Unbounded) or out.value > beta:
            return False
    for row, delta in zip(Q.E, Q.d):
        for sense, bound in (("max", delta), ("min", delta)):
            out = lp_solve(LPProblem(row, sense, P.A, P.b, P.E, P.d))
            if isinstance(out, Unbounded) or out.value != bound:
                return False
    return True


def same_set(P: HPolyhedron, Q: HPolyhedron) -> bool:
    """Mutual containment of two H-polyhedra."""
    if P.dim != Q.dim:
        return False
    return _subset(P, Q) and _subset(Q, P)


def contains_v_member(P: HPolyhedron, V: VPolyhedron) -> bool:
    """Every generator of V consistent with P: points inside, rays receding."""
    return all(P.contains(p) for p in V.points) and all(
        P.recession_contains(r) for r in V.rays
    )


def cone_contains(C: PolyCone, v: Vec) -> bool:
    """v in cone(generators), by feasibility of a nonnegative combination."""
    if len(v) != C.dim:
        raise InputError("cone membership query of wrong dimension")
    if not C.generators:
        return all(c == 0 for c in v)
    k = len(C.generators)
    rows, rhs = [], []
    for j in range(C.dim):
        coeffs = tuple(g[j] for g in C.generators)
        rows.append(coeffs)
        rhs.append(v[j])
        rows.append(vneg(coeffs))
        rhs.append(-v[j])
    status, _, _ = simplex_max(zeros(k), tuple(rows), tuple(rhs), 0, k)
    return status != "infeasible"


def v_member(V: VPolyhedron, x: Vec) -> bool:
    """x in conv(points) + cone(rays), by cone membership of (x, 1) in the
    homogenized generators; independent of any H-representation."""
    if V.is_empty_set:
        return False
    gens = tuple(p + (ONE,) for p in V.points) + tuple(r + (ZERO,) for r in V.rays)
    return cone_contains(PolyCone(gens, V.dim + 1), tuple(x) + (ONE,))
