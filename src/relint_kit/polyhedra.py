"""Polyhedral convex sets: inequality, generator, conic, and affine forms.

Conventions fixed here and relied on everywhere else:
  * an HPolyhedron may carry redundant rows; nothing canonicalizes
    implicitly, and emptiness is decided by LP;
  * every entry of a set (HPolyhedron, VPolyhedron, PolyCone, AffineFlat)
    and of a point queried against it is an `int` or a `Fraction`; a point
    is evaluated against the rows once, in integers
    (`HPolyhedron.residuals`), and every membership and active-set
    predicate reads the signs of those residuals;
  * facts derived from an HPolyhedron by LP or double description (its
    implicit rows and a relative-interior point, its generators) are
    `cached_property`s of the set itself: computed once, freed with it;
  * its generators are cached as the primitive integer rays (x, t) of its
    homogenization cone, and next to them, when first asked for, its
    incidence: for each row the generators tight at it, read off the zero
    sets double description hands back; `linear_image` runs none: it
    eliminates over the rows and the incidence; sorted on integer keys
    (`_sorted_generators`), the generators give the order of `h_to_v`,
    which builds its `Fraction` points only when asked, each distinct
    value once (`rational.frac_vecs`), as `_dual_cone_rows` builds its
    rows;
  * a `product` presets its generators and incidence from its factors',
    so no double description runs on it, and `minkowski_diff` is the
    linear image of the product under (x, y) -> x - y;
  * its rows are cached as integers with their scales (`_int_rows`); the
    slack LP (emptiness, implicit rows, separation, strict preimages) is
    encoded from them and read in `_max_slack` alone, as (t, x, y, z), and
    the cone LP in `_cone_contains`; no other module but the package root
    imports the LP layer;
  * a VPolyhedron with no points is the empty set regardless of rays;
  * lines are encoded as opposite ray pairs, never as a separate field.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .dd import dd_cone, dd_lineality
from .errors import EmptySetError, InputError, TheoremViolation
from .linalg import (
    in_span,
    rank,
    solve_linear_system,
)
from .lp import Optimal, _solve_ints
from .rational import (
    Mat,
    ONE,
    Rat,
    Vec,
    ZERO,
    check_block,
    check_exact,
    common_ints,
    common_points,
    frac_vecs,
    mat,
    primitive,
    scaled_ints,
    vec,
    vsub,
    zeros,
)

# Homogenized integer vectors: generators (x, t) standing for the point
# x / t (t > 0) or the direction x (t = 0).  Constraint rows a·x <= beta
# (or = beta) carry their scale: (L, L·(a, -beta)).
_IntRows = tuple[tuple[int, ...], ...]
_ScaledRows = tuple[tuple[int, list[int]], ...]


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

    @cached_property
    def _int_rows(self) -> tuple[_ScaledRows, _ScaledRows]:
        """(ineq, eq): each row a·x <= beta or a·x = beta as (L, L·(a, -beta)),
        the homogenized integers with L > 0 the lcm of its denominators."""
        return (tuple([scaled_ints(row + (-beta,)) for row, beta in zip(self.A, self.b)]),
                tuple([scaled_ints(row + (-delta,)) for row, delta in zip(self.E, self.d)]))

    @cached_property
    def _interior(self) -> tuple[frozenset[int], Vec] | None:
        """The implicit rows and a relative-interior point, or None when
        the set is empty.

        The slack t is free, so the first slack LP is infeasible only when
        E x = d is, and otherwise the set is empty exactly when its optimum
        is negative.  Farkas: at a zero slack optimum the duals y >= 0 give
        y·(b - A x) = 0 on the set, so every row with y_i > 0 is implicit;
        some lie outside `tight`."""
        tight: frozenset[int] = frozenset()
        while True:
            t, x, y, _ = _max_slack(*self._int_rows, self.dim, tight)
            if t is None or t < 0:
                if tight:
                    raise TheoremViolation(
                        "slack LP of a nonempty polyhedron is infeasible or negative")
                return None
            if t > 0:
                return tight, x
            grown = tight | {i for i, v in enumerate(y) if v > 0}
            if grown == tight:
                raise TheoremViolation("zero slack optimum without a new implicit row")
            tight = grown

    @cached_property
    def _dd(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], dict]:
        """Double description of the homogenization cone {(x, t) : Ax <= bt,
        Ex = dt, t >= 0}, the rows A, E, -E, -t in that order: (lineality,
        rays, incidence), as `dd_cone` hands them back."""
        ineq, eq = self._int_rows
        rows = [*[row for _, row in ineq], *[row for _, row in eq],
                *[tuple([-k for k in row]) for _, row in eq], (0,) * self.dim + (-1,)]
        incidence: dict = {}
        lineality, rays = dd_cone(rows, self.dim + 1, incidence)
        return lineality, rays, incidence

    @cached_property
    def _int_generators(self) -> tuple[_IntRows, _IntRows]:
        """(points, directions): the primitive integer rays (x, t) of the
        homogenization cone (`_dd`), split into points (t > 0, standing for
        x / t) and directions (t = 0), each lineality vector as a +/- pair."""
        lineality, rays, _ = self._dd
        points, directions = [], []
        for r in rays:
            if r[-1] > 0:
                points.append(r)
            elif r[-1] == 0:
                directions.append(r)
            else:
                raise TheoremViolation("homogenization ray with negative t")
        for l in lineality:
            if l[-1] != 0:
                raise TheoremViolation("lineality leaves the t = 0 slice")
            directions.append(l)
            directions.append(tuple([-k for k in l]))
        return tuple(points), tuple(directions)

    @cached_property
    def _incidence(self) -> tuple[int, ...]:
        """For each inequality row, the bitmask of the generators it is tight
        at: bit j for the j-th of `_int_generators`' points and then
        directions.  Read off double description's zero sets, with no dot
        product; the rows with one primitive form share one mask, and a
        lineality vector is tight at every row.  A row tight at every
        generator is implicit, and one whose mask lies strictly inside
        another's defines no facet."""
        lineality, rays, found = self._dd
        zero_sets = found["zero_sets"]
        order = [m for r, m in zip(rays, zero_sets) if r[-1]]
        order += [m for r, m in zip(rays, zero_sets) if not r[-1]]
        lines = ((1 << 2 * len(lineality)) - 1) << len(order)
        columns = [lines] * len(found["inserted"])
        for i, m in enumerate(order):
            bit = 1 << i
            while m:
                low = m & -m
                columns[low.bit_length() - 1] |= bit
                m ^= low
        column_of = dict(zip(found["inserted"], columns))
        # A zero row is tight everywhere.
        everywhere = (1 << len(order)) - 1 | lines
        masks = [column_of.get(row, everywhere) for row in found["rows"][:len(self._int_rows[0])]]
        return tuple(masks)

    @cached_property
    def _sorted_generators(self) -> tuple[_IntRows, _IntRows]:
        """`_int_generators` without repeats, sorted as `h_to_v` lists them:
        the points (x, t) by x / t, keyed as integers over the lcm of the
        t's, and the directions (x, 0) by x; none if the set is empty."""
        points, directions = self._int_generators
        if not points:
            return (), ()
        keys = dict(zip(map(tuple, common_points(points)[1]), points))
        return tuple([keys[k] for k in sorted(keys)]), tuple(sorted(set(directions)))

    @cached_property
    def _generators(self) -> VPolyhedron:
        """The generator representation: `_sorted_generators` as `Fraction`s,
        built by one `frac_vecs` call."""
        points, directions = self._sorted_generators
        vecs = frac_vecs([*[(g[-1], g[:-1]) for g in points], *[(1, g[:-1]) for g in directions]])
        return VPolyhedron(tuple(vecs[:len(points)]), tuple(vecs[len(points):]), self.dim)

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
        """{point}, as the equalities x = point.  It is nonempty and has no
        inequality rows, so its interior fact is known without the slack
        LP: no implicit rows, and the point itself."""
        p = vec(point)
        n = len(p)
        eye = tuple([tuple([ONE if i == j else ZERO for i in range(n)]) for j in range(n)])
        P = cls((), (), eye, p, n)
        P.__dict__["_interior"] = (frozenset(), p)
        return P

    def residuals(self, x: Vec) -> tuple[int, list[int], list[int]]:
        """(q, ineq, eq) with ineq[i] = L_i q (b_i - a_i·x) and
        eq[j] = M_j q (d_j - e_j·x), all integers.

        q > 0 is the lcm of the denominators of x, and L_i, M_j > 0 scale
        row i of A and row j of E to integers, so each residual has the
        sign of its row's slack at x, and ratios of residuals at two points
        are exact."""
        q, _, ineq, eq = self._evaluate(x)
        return q, ineq, eq

    def _evaluate(self, x: Vec) -> tuple[int, list[int], list[int], list[int]]:
        """x checked and evaluated once: (q, p, ineq, eq), x = p / q, as in `residuals`."""
        if len(x) != self.dim:
            raise InputError(f"point of length {len(x)} in dimension {self.dim}")
        check_exact("point", x)
        q, p = scaled_ints(x)
        return (q, p, *self._residuals(q, p))

    def _residuals(self, q: int, p: list[int]) -> tuple[list[int], list[int]]:
        """The residuals of `residuals` at the point p / q, for any q > 0."""
        h = [*p, q]
        return tuple([[-sum(map(mul, row, h)) for _, row in rows] for rows in self._int_rows])

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
        pts = tuple([vec(p) for p in points])
        rs = tuple([vec(r) for r in rays])
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


def _max_slack(ineq, eq, n: int, tight: frozenset[int]
               ) -> tuple[Rat | None, Vec | None, Vec, Vec]:
    """max t <= 1 over (x, t) with a_i·x + t <= b_i on the rows outside
    `tight`, a_i·x <= b_i on the rows in it, and E x = d, as (t, x, y, z);
    each row (L, L·(a, -beta)) as `HPolyhedron._int_rows` holds it.

    The one place the slack LP is encoded and read.  The cap bounds t, so
    the LP is optimal or infeasible: t is the optimum and x its first n
    coordinates, both None when infeasible; y and z are the multipliers on
    the rows of A and of E, duals at an optimum, Farkas multipliers
    otherwise."""
    rows = [(L, [*h[:-1], 0 if i in tight else L, -h[-1]]) for i, (L, h) in enumerate(ineq)]
    rows.append((1, [0] * n + [1, 1]))
    eqs = [(L, [*h[:-1], 0, -h[-1]]) for L, h in eq]
    out = _solve_ints((1, [0] * n + [1]), rows, eqs)
    if isinstance(out, Optimal):
        return out.value, out.point[:n], out.dual_ineq[:-1], out.dual_eq
    cert = out.certificate
    return None, None, cert.multipliers_ineq[:-1], cert.multipliers_eq


def _nonempty_interior(P: HPolyhedron) -> tuple[frozenset[int], Vec]:
    found = P._interior
    if found is None:
        raise EmptySetError("operation requires a nonempty polyhedron")
    return found


def is_empty(P: HPolyhedron) -> bool:
    """P is empty exactly when its first slack optimum is negative (or
    its equalities are inconsistent)."""
    return P._interior is None


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


def h_to_v(P: HPolyhedron) -> VPolyhedron:
    """Exact generator representation via double description of the
    homogenization cone {(x, t) : Ax <= bt, Ex = dt, t >= 0}."""
    return P._generators


def v_to_h(V: VPolyhedron) -> HPolyhedron:
    """Inequality/equality description of conv(points) + cone(rays):
    double description of the dual of the homogenization cone,
    {(a, c) : a·x + c t <= 0 at every generator (x, t)}, gives the rows
    a·x <= -c, and its lineality the equalities."""
    if not V.points:
        return HPolyhedron.empty(V.dim)
    gens = [p + (ONE,) for p in V.points] + [r + (ZERO,) for r in V.rays]
    return _dual_cone_rows(*dd_cone([scaled_ints(g)[1] for g in gens], V.dim + 1), V.dim)


def _dual_cone_rows(lineality, rays, n: int) -> HPolyhedron:
    """The set whose dual cone has this lineality basis and these extreme
    rays (a, c), as `dd_cone` gives them: the rows a·x <= -c in sorted
    order, and the sorted lineality as equalities."""
    rows = []
    for r in sorted(rays):
        if any(r[:-1]):
            rows.append(r)
        elif r[-1] > 0:
            raise TheoremViolation("trivial facet row unsatisfiable at t = 1")
    m = len(rows)
    for l in sorted(lineality):
        # (0, c) in the lineality forces c·t = 0 on every generator, and
        # some generator has t > 0, so c = 0: a lineality vector is never zero.
        if not any(l[:-1]):
            raise TheoremViolation("lineality vector of the dual cone with a zero normal")
        rows.append(l)
    *normals, rhs = frac_vecs([*[(1, r[:-1]) for r in rows], (1, [-r[-1] for r in rows])])
    return HPolyhedron(tuple(normals[:m]), rhs[:m], tuple(normals[m:]), rhs[m:], n)


# -- structural operations ---------------------------------------------------


def _combine(h: Sequence[int], q: Sequence[int], c: int) -> tuple[int, ...]:
    """|q_c|·h − sign(q_c)·h_c·q, made primitive: h plus a multiple of q,
    rescaled by a positive factor, with coordinate c zero.  The multiple
    of q is positive when h_c and q_c have opposite signs."""
    a, b = q[c], h[c]
    if a < 0:
        a, b = -a, -b
    return primitive([a * u - b * v for u, v in zip(h, q)])


def linear_image(M: Mat, P: HPolyhedron) -> HPolyhedron:
    """Exact H-representation of {Mx : x in P}; a matrix with no rows
    maps onto R^0.

    Fourier–Motzkin elimination over P's own rows (Motzkin 1936; Chernikov
    1965), with no second double description.  In homogenized coordinates
    (x, y, t), with the equalities y = Mx:
      * the rows tight at every generator (`HPolyhedron._incidence`) join
        P's equalities; of the others one row per mask is kept, unless its
        mask lies strictly inside another's, so each facet of the
        homogenization cone, t >= 0 among them, has one row;
      * Gauss–Jordan elimination of the equalities substitutes every x
        coordinate it can; the rank of those left over, in y and t alone,
        is the codimension of the image cone;
      * `_eliminate` removes each other x coordinate.  Its ridge test is
        the adjacency test of double description read on the rows' masks
        (Fukuda and Prodon 1996; Jones, Kerrigan and Maciejowski 2008,
        *J. Optim. Theory Appl.* 138(2)).
    One row per facet of the image cone is left.  `v_to_h` of the mapped
    generators gives the same facets, as the extreme rays of
    the dual cone modulo its lineality, with that lineality as the
    equalities.  For the same rows, `dd.dd_lineality` rebuilds that basis
    from the sorted mapped generators, and each row is reduced by it to
    vanish at the basis' own indices, where every ray of double description
    vanishes: made primitive, the row is that ray."""
    for i, row in enumerate(M):
        if len(row) != P.dim:
            raise InputError(f"matrix row {i} has length {len(row)}, "
                             f"but the set has dimension {P.dim}")
        check_exact("matrix", row)
    k, n = len(M), P.dim
    points, directions = P._int_generators
    if not points:
        return HPolyhedron.empty(k)
    D, rows_m = common_ints(M)
    full = (1 << (len(points) + len(directions))) - 1
    ineq, eq = P._int_rows
    pad = [0] * k
    eqs = [[*h[:-1], *pad, h[-1]] for _, h in eq]
    eqs += [[*row, *[-D if j == i else 0 for j in range(k)], 0] for i, row in enumerate(rows_m)]
    by_mask: dict[int, Sequence[int]] = {}
    for mask, (_, h) in zip(P._incidence, ineq):
        if mask == full:
            eqs.append([*h[:-1], *pad, h[-1]])
        else:
            by_mask.setdefault(mask, h)
    by_mask.setdefault(full ^ ((1 << len(points)) - 1), (0,) * n + (-1,))
    rows = [(m, [*h[:-1], *pad, h[-1]]) for m, h in by_mask.items()
            if sum([m & o == m for o in by_mask]) == 1]
    free = set(range(n))
    image_rank = 0
    for i, q in enumerate(eqs):
        c = next((c for c in range(n) if q[c]), None)
        if c is not None:
            free.discard(c)
            rows = [(m, _combine(h, q, c)) if h[c] else (m, h) for m, h in rows]
        elif any(q):
            # An equality of the image, in y and t alone: counted, and
            # reduced out of the equalities after it.
            c = next(c for c, a in enumerate(q) if a)
            image_rank += 1
        else:
            continue
        eqs[i + 1:] = [_combine(p, q, c) if p[c] else p for p in eqs[i + 1:]]
    d = k + 1 - image_rank + len(free)
    for e in sorted(free):
        rows = _eliminate(rows, e, d)
        d -= 1
    image = [primitive(h[n:]) for _, h in rows]
    lineality: list[tuple[int, ...]] = []
    if image_rank:
        gens = [[sum(map(mul, row, g)) for row in rows_m] + [D * g[-1]] for g in points]
        gens += [w + [0] for w in ([sum(map(mul, row, g)) for row in rows_m]
                                   for g in directions) if any(w)]
        lineality, own = dd_lineality(gens, k + 1)
        if len(lineality) != image_rank:
            raise TheoremViolation("image equalities disagree with the mapped generators")
        for l, j in zip(lineality, own):
            image = [_combine(h, l, j) if h[j] else h for h in image]
    return _dual_cone_rows(lineality, image, k)


def _eliminate(rows: list[tuple[int, Sequence[int]]], e: int, d: int
               ) -> list[tuple[int, Sequence[int]]]:
    """One Fourier–Motzkin step: coordinate e eliminated from the rows
    (mask, h), h·z <= 0, that define each facet of a cone of dimension d
    once, e in its span; the masks are the generators each row is tight
    at.  The rows free of e stay.  A row with h_e > 0 and one with
    h_e < 0 combine when their facets meet in a ridge: they share at least
    d − 2 tight generators and no third row is tight at all of those, or
    one of them is tight at exactly d − 1, a simplicial facet, whose faces
    are the subsets of its generators (the dual of `dd_cone`'s simple
    rays).  The new row is tight exactly where both are, so its mask is
    the AND of theirs.  The projected cone has each facet once."""
    pos = [(m, h) for m, h in rows if h[e] > 0]
    neg = [(m, h) for m, h in rows if h[e] < 0]
    kept = [(m, h) for m, h in rows if not h[e]]
    masks = [m for m, _ in rows]
    need, simple = d - 2, d - 1
    neg_simple = [m.bit_count() == simple for m, _ in neg]
    for mp, hp in pos:
        p_simple = mp.bit_count() == simple
        for (mn, hn), n_simple in zip(neg, neg_simple):
            shared = mp & mn
            if shared.bit_count() < need:
                continue
            if not (p_simple or n_simple):
                # The two rows are tight on `shared`; a third one makes
                # their facets meet below a ridge.
                holders = 0
                for mask in masks:
                    if mask & shared == shared:
                        holders += 1
                        if holders == 3:
                            break
                if holders == 3:
                    continue
            kept.append((shared, _combine(hp, hn, e)))
    return kept


def _difference_matrix(n: int) -> Mat:
    """[I | -I]: the map (x, y) -> x - y from R^n x R^n onto R^n."""
    return tuple([tuple([ONE if k == j else ZERO for k in range(n)])
                  + tuple([-ONE if k == j else ZERO for k in range(n)]) for j in range(n)])


def minkowski_diff(P1: HPolyhedron, P2: HPolyhedron) -> HPolyhedron:
    """{w1 - w2 : w1 in P1, w2 in P2}: the linear image of P1 x P2 under
    (x, y) -> x - y, with the product's generators and incidence preset
    (`product`), so that only the factors run double description."""
    if P1.dim != P2.dim:
        raise InputError("set difference requires matching dimensions")
    return linear_image(_difference_matrix(P1.dim), product(P1, P2))


def product(P1: HPolyhedron, P2: HPolyhedron) -> HPolyhedron:
    """P1 x P2 by block-diagonal constraint stacking, its generators and
    incidence preset from the factors', with no double description.

    The points are the pairs (t2·x1, t1·x2, t1·t2), pair (i, j) at
    i·|points2| + j, and the directions P1's and then P2's, padded with
    zeros.  A row of P1 is tight at every pair of each P1 point it is
    tight at, at its own directions and at all of P2's, which are zero in
    P1's coordinates; a row of P2 likewise at every pair of each P2 point
    it is tight at, at all of P1's directions and at its own."""
    n1, n2 = P1.dim, P2.dim
    A = [row + zeros(n2) for row in P1.A] + [zeros(n1) + row for row in P2.A]
    E = [row + zeros(n2) for row in P1.E] + [zeros(n1) + row for row in P2.E]
    P = HPolyhedron(tuple(A), P1.b + P2.b, tuple(E), P1.d + P2.d, n1 + n2)
    points1, directions1 = P1._int_generators
    points2, directions2 = P2._int_generators
    points = []
    for *x1, t1 in points1:
        for *x2, t2 in points2:
            points.append(primitive([*[t2 * a for a in x1], *[t1 * c for c in x2], t1 * t2]))
    pad1, pad2 = (0,) * n1, (0,) * n2
    directions = [g[:-1] + pad2 + (0,) for g in directions1] + [pad1 + g for g in directions2]
    k1, k2, pairs, d1 = len(points1), len(points2), len(points), len(directions1)
    # The pairs of the first P1 point, and the first pair of each block.
    block, spread = (1 << k2) - 1, sum([1 << i * k2 for i in range(k1)])
    every1 = ((1 << d1) - 1) << pairs
    every2 = ((1 << len(directions2)) - 1) << pairs + d1
    masks = [sum([block << i * k2 for i in range(k1) if m >> i & 1]) | (m >> k1) << pairs | every2
             for m in P1._incidence]
    masks += [(m & block) * spread | every1 | (m >> k2) << pairs + d1 for m in P2._incidence]
    P.__dict__["_int_generators"] = (tuple(points), tuple(directions))
    P.__dict__["_incidence"] = tuple(masks)
    return P


# -- cone membership ---------------------------------------------------------


def cone_contains(C: PolyCone, v: Vec) -> bool:
    """v in cone(generators), by the Farkas dual (Schrijver 1986, §7.8):
    max v·y subject to g·y <= 0 for every generator g is bounded exactly
    when v is a nonnegative combination of the generators.  With no
    generators that LP is bounded exactly when v = 0.

    An `Optimal` outcome's duals λ >= 0 satisfy Σλ_i g_i = v; an
    `Unbounded` outcome's ray y has g·y <= 0 for every g and v·y > 0."""
    if len(v) != C.dim:
        raise InputError("cone membership query of wrong dimension")
    check_exact("cone membership query", v)
    return _cone_contains([scaled_ints(g) for g in C.generators], scaled_ints(v))


def _cone_contains(gens, v: tuple[int, list[int]]) -> bool:
    """`cone_contains` over the integers: each generator g as (L, L·g) and
    v as (Lv, Lv·v), the one place the cone LP is encoded."""
    return isinstance(_solve_ints(v, [(L, [*g, 0]) for L, g in gens], []), Optimal)
