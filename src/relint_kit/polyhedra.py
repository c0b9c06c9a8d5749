"""Polyhedral convex sets: inequality, generator, conic, and affine forms.

Conventions fixed here and relied on everywhere else:
  * an HPolyhedron may carry redundant rows; nothing canonicalizes
    implicitly, and emptiness is decided by LP;
  * every entry of a set (HPolyhedron, VPolyhedron, PolyCone, AffineFlat)
    and of a point queried against it is an `int` or a `Fraction`; a point
    is evaluated against the rows once, in integers
    (`HPolyhedron.residuals`), and every membership and active-set
    predicate reads the signs of those residuals;
  * a VPolyhedron with no points is the empty set regardless of rays;
  * lines are encoded as opposite ray pairs, never as a separate field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul

from .dd import dd_cone
from .errors import EmptySetError, InputError, TheoremViolation
from .linalg import (
    in_span,
    rank,
    solve_linear_system,
)
from .lp import Infeasible, LPProblem, Optimal, lp_solve, simplex_max
from .rational import (
    Mat,
    ONE,
    Rat,
    Vec,
    ZERO,
    check_block,
    check_exact,
    mat,
    matvec,
    scaled_ints,
    vec,
    vneg,
    vsub,
    zeros,
)

# Constraint rows a·x <= beta (or = beta) as the integers L·(a, -beta).
_IntRows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class HPolyhedron:
    """{x : A x <= b, E x = d} in an ambient space of dimension dim."""

    A: Mat
    b: Vec
    E: Mat
    d: Vec
    dim: int

    def __post_init__(self):
        check_block(self.A, self.b, self.dim, "inequalities")
        check_block(self.E, self.d, self.dim, "equalities")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # The dataclass hash, computed once: every memo-table lookup keyed on
        # this set would otherwise re-hash every Fraction in it.
        return hash((self.A, self.b, self.E, self.d, self.dim))

    @cached_property
    def _int_rows(self) -> tuple[_IntRows, _IntRows]:
        """(ineq, eq): each row a·x <= beta or a·x = beta as the homogenized
        integers L·(a, -beta), with L > 0 the lcm of its denominators."""
        return (tuple([tuple(scaled_ints(row + (-beta,))[1])
                       for row, beta in zip(self.A, self.b)]),
                tuple([tuple(scaled_ints(row + (-delta,))[1])
                       for row, delta in zip(self.E, self.d)]))

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

    def residuals(self, x: Vec) -> tuple[int, list[int], list[int]]:
        """(q, ineq, eq) with ineq[i] = L_i q (b_i - a_i·x) and
        eq[j] = M_j q (d_j - e_j·x), all integers.

        q > 0 is the lcm of the denominators of x, and L_i, M_j > 0 scale
        row i of A and row j of E to integers, so each residual has the
        sign of its row's slack at x, and ratios of residuals at two points
        are exact."""
        if len(x) != self.dim:
            raise InputError(f"point of length {len(x)} in dimension {self.dim}")
        check_exact("point", x)
        q, p = scaled_ints(x)
        p.append(q)
        ineq, eq = self._int_rows
        return (q, [-sum(map(mul, row, p)) for row in ineq],
                [-sum(map(mul, row, p)) for row in eq])

    def contains(self, x: Vec) -> bool:
        _, ineq, eq = self.residuals(x)
        return all(r >= 0 for r in ineq) and not any(eq)


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
            check_exact("generators", p)

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
        check_exact("flat basepoint", self.basepoint)
        for v in self.directions:
            if len(v) != self.dim:
                raise InputError("flat direction of wrong dimension")
            check_exact("flat directions", v)
        if self.directions and rank(self.directions) != len(self.directions):
            raise InputError("flat directions must be linearly independent")

    @property
    def flat_dim(self) -> int:
        return len(self.directions)

    def contains(self, x: Vec) -> bool:
        if len(x) != self.dim:
            raise InputError(f"point of length {len(x)} in dimension {self.dim}")
        check_exact("point", x)
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
            check_exact("cone generators", g)


# -- emptiness, implicit equalities and the affine hull ----------------------


def _max_slack(A: Mat, b: Vec, E: Mat, d: Vec, n: int,
               tight: frozenset[int] = frozenset()) -> Optimal | Infeasible:
    """max t <= 1 over (x, t) with a_i·x + t <= b_i on the rows outside
    `tight`, a_i·x <= b_i on the rows in it, and E x = d.

    The one encoding of the slack LP: the cap row comes last and t is the
    last variable.  The cap bounds t, so the outcome is Optimal, whose
    point is (x, t), or Infeasible; its inequality multipliers end with
    the cap row's."""
    rows = tuple(row + (ZERO if i in tight else ONE,) for i, row in enumerate(A))
    eqs = tuple(row + (ZERO,) for row in E)
    return lp_solve(LPProblem.maximize(
        zeros(n) + (ONE,), (rows + (zeros(n) + (ONE,),), tuple(b) + (ONE,)),
        (eqs, tuple(d))))


@lru_cache(maxsize=None)
def _interior(P: HPolyhedron) -> tuple[frozenset[int], Vec] | None:
    """The implicit rows of P and a relative-interior point, or None when P
    is empty.

    The slack t is free, so the first slack LP is infeasible only when
    E x = d is, and otherwise P is empty exactly when its optimum is
    negative.  Farkas: at a zero slack optimum the duals y >= 0 give
    y·(b - A x) = 0 on P, so every row with y_i > 0 is implicit; some lie
    outside `tight`."""
    tight: frozenset[int] = frozenset()
    while True:
        out = _max_slack(P.A, P.b, P.E, P.d, P.dim, tight)
        if not isinstance(out, Optimal) or out.value < 0:
            if tight:
                raise TheoremViolation(
                    "slack LP of a nonempty polyhedron is infeasible or negative")
            return None
        if out.value > 0:
            return tight, out.point[:P.dim]
        grown = tight | {i for i, y in enumerate(out.dual_ineq[:len(P.A)]) if y > 0}
        if grown == tight:
            raise TheoremViolation("zero slack optimum without a new implicit row")
        tight = grown


def _nonempty_interior(P: HPolyhedron) -> tuple[frozenset[int], Vec]:
    found = _interior(P)
    if found is None:
        raise EmptySetError("operation requires a nonempty polyhedron")
    return found


def is_empty(P: HPolyhedron) -> bool:
    """P is empty exactly when its first slack optimum is negative (or
    its equalities are inconsistent)."""
    return _interior(P) is None


def feasible_point(P: HPolyhedron) -> Vec | None:
    """A relative-interior point of P, hence a witness, or None when P is
    empty."""
    found = _interior(P)
    return None if found is None else found[1]


def implicit_rows(P: HPolyhedron) -> frozenset[int]:
    """Indices of inequality rows satisfied as equalities everywhere on
    nonempty P."""
    return _nonempty_interior(P)[0]


def affine_hull(P: HPolyhedron) -> AffineFlat:
    """The affine hull of nonempty P, from its implicit equality system."""
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


# -- representation conversion -----------------------------------------------


def _homogenized_rows(P: HPolyhedron) -> list[tuple[int, ...]]:
    """Integer rows of the cone {(x, t) : Ax <= bt, Ex = dt, t >= 0}."""
    ineq, eq = P._int_rows
    return [*ineq, *eq, *[tuple([-k for k in row]) for row in eq],
            (0,) * P.dim + (-1,)]


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
    lineality, rays = dd_cone([scaled_ints(g)[1] for g in gens], n + 1)
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
    """Exact H-representation of {Mx : x in P}; a matrix with no rows
    maps onto R^0."""
    for i, row in enumerate(M):
        if len(row) != P.dim:
            raise InputError(f"matrix row {i} has length {len(row)}, "
                             f"but the set has dimension {P.dim}")
        check_exact("matrix", row)
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


# -- cone membership ---------------------------------------------------------


def cone_contains(C: PolyCone, v: Vec) -> bool:
    """v in cone(generators), by feasibility of a nonnegative combination."""
    if len(v) != C.dim:
        raise InputError("cone membership query of wrong dimension")
    check_exact("cone membership query", v)
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
    status, _, _ = simplex_max(zeros(k), tuple(rows), tuple(rhs))
    return status != "infeasible"
