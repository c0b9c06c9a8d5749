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
    sets double description hands back; `minkowski_diff` maps the
    generators straight into the next double description, and
    `linear_image` runs none: it eliminates over the rows and the
    incidence; sorted on integer keys (`_sorted_generators`), the
    generators give the order of `h_to_v`, which builds its `Fraction`
    points only when asked, each distinct value once
    (`rational.frac_vecs`), as `_dual_cone_rows` builds its rows;
  * `minkowski_diff` hands double description only the pairs of generator
    points that can give a vertex, found by comparing bitmasks of tight
    rows, when the generators prove the difference line-free and
    full-dimensional, and every pair otherwise;
  * its rows are cached as integers with their scales (`_int_rows`); the
    slack LP (emptiness, implicit rows, separation, strict preimages) is
    encoded from them and read in `_max_slack` alone, as (t, x, y, z), and
    the cone LP in `_cone_contains`; no other module but the package root
    imports the LP layer;
  * a VPolyhedron with no points is the empty set regardless of rays;
  * lines are encoded as opposite ray pairs, never as a separate field.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
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
    """Inequality/equality description of conv(points) + cone(rays),
    found by dualizing the homogenization cone."""
    if not V.points:
        return HPolyhedron.empty(V.dim)
    gens = [p + (ONE,) for p in V.points] + [r + (ZERO,) for r in V.rays]
    return _dual_rows([scaled_ints(g)[1] for g in gens], V.dim)


def _dual_rows(gens: list[Sequence[int]], n: int) -> HPolyhedron:
    """The H-representation of the set whose homogenized integer
    generators (x, t) are `gens`, at least one of them with t > 0: double
    description of the dual cone {(a, c) : a·x + c t <= 0 on gens} gives
    the rows a·x <= -c, and its lineality the equalities."""
    return _dual_cone_rows(*dd_cone(gens, n + 1), n)


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
    generators (`_dual_rows`) gives the same facets, as the extreme rays of
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


def minkowski_diff(P1: HPolyhedron, P2: HPolyhedron) -> HPolyhedron:
    """{w1 - w2 : w1 in P1, w2 in P2} via generator arithmetic: points
    (t2 x1 - t1 x2, t1 t2) and directions r1 and -r2, each distinct
    generator once.

    A pair (v1, v2) of generator points is left out when some d != 0 lies
    in both tangent cones T(v1; P1) and T(v2; P2): then v1 - v2 +/- εd lie
    in P1 - P2, so v1 - v2 is no vertex.  The d tried at v1 are the edge
    directions u - v1 and the directions of P1, each with the bitmask of
    P2's rows it raises, so d lies in T(v2; P2) when that mask misses the
    rows tight at v2; and the same at v2 against P1 (`_tangent_masks`).
    No LP and no `Fraction`.  Dropping non-vertices keeps the set only if
    it is line-free, the hull of its vertices plus its recession cone,
    and keeps the rows only if it is full-dimensional, so that the dual
    cone is pointed and its extreme rays unique.  The generators must
    prove both (`_vertex_pairs`), or every pair is kept."""
    if P1.dim != P2.dim:
        raise InputError("set difference requires matching dimensions")
    points1, directions1 = P1._int_generators
    points2, directions2 = P2._int_generators
    if not points1 or not points2:
        return HPolyhedron.empty(P1.dim)
    directions = set(directions1) | {tuple([-k for k in g]) for g in directions2}
    points = set()
    for g1, g2 in _vertex_pairs(P1, P2, directions):
        t1, t2 = g1[-1], g2[-1]
        points.add(primitive([t2 * a - t1 * c for a, c in zip(g1[:-1], g2)] + [t1 * t2]))
    return _dual_rows([*points, *directions], P1.dim)


def _vertex_pairs(P1: HPolyhedron, P2: HPolyhedron, directions
                  ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The pairs of generator points of nonempty P1 and P2 that
    `minkowski_diff` keeps, P1 - P2 having these directions: those that
    pass the tangent-cone test when P1 - P2 is provably line-free (the sum
    s of the directions has s·r > 0 for each of them, so no nonnegative
    combination of them vanishes) and full-dimensional (one operand is),
    and every pair otherwise."""
    points1, points2 = P1._int_generators[0], P2._int_generators[0]
    s = [sum(column) for column in zip(*directions)]
    if all(sum(map(mul, s, r)) > 0 for r in directions):
        active1, active2 = _tight_rows(P1), _tight_rows(P2)
        if _full_dimensional(P1) or _full_dimensional(P2):
            candidates1 = _tangent_masks(P1, P2, active1)
            candidates2 = _tangent_masks(P2, P1, active2)
            return ((g1, g2)
                    for g1, a1, c1 in zip(points1, active1, candidates1)
                    for g2, a2, c2 in zip(points2, active2, candidates2)
                    if all(map(a2.__and__, c1)) and all(map(a1.__and__, c2)))
    return ((g1, g2) for g1 in points1 for g2 in points2)


def _tight_rows(P: HPolyhedron) -> list[int]:
    """For each generator point of nonempty P, the bitmask of the
    inequality rows tight there: `HPolyhedron._incidence` read by column."""
    incidence = P._incidence
    return [sum([1 << i for i, m in enumerate(incidence) if m >> j & 1])
            for j in range(len(P._int_generators[0]))]


def _full_dimensional(P: HPolyhedron) -> bool:
    """Whether nonempty P provably spans R^n: no equality row, and no
    inequality row is tight at every generator."""
    points, directions = P._int_generators
    return not P._int_rows[1] and (1 << len(points) + len(directions)) - 1 not in P._incidence


def _tangent_masks(X: HPolyhedron, Y: HPolyhedron, active: list[int]) -> list[set[int]]:
    """For each generator point v of X, with `active` the masks of X's
    inequality rows tight at them: the bitmasks of Y's inequality rows
    increased by each candidate direction d in T(v; X).  Then d lies in
    T(w; Y) exactly when its mask misses the rows of Y tight at w.

    The candidates are u - v for each other point u that shares at least
    n - 1 tight rows with v (equalities counted), and X's directions; d
    that leave Y's equalities are skipped.  Over a common denominator T
    each point is (T·u, T), and a row h = L·(a, -beta) of Y has
    h·(T·u, T) - h·(T·v, T) = L T a·(u - v): its values at the points
    give the signs for every d, and d itself is never formed."""
    ineq_y, eq_y = Y._int_rows
    points, directions = X._int_generators
    T, scaled = common_points(points)
    homogenized = [[*x, T] for x in scaled]
    values = [[sum(map(mul, h, g)) for _, h in ineq_y] for g in homogenized]
    levels = [[sum(map(mul, h, g)) for _, h in eq_y] for g in homogenized]
    along = {sum([1 << i for i, (_, h) in enumerate(ineq_y) if sum(map(mul, h, r)) > 0])
             for r in directions if not any([sum(map(mul, h, r)) for _, h in eq_y])}
    candidates = [set(along) for _ in points]
    need = X.dim - 1 - len(X._int_rows[1])
    for i, (av, hv, ev) in enumerate(zip(active, values, levels)):
        for j in range(i + 1, len(points)):
            if (av & active[j]).bit_count() < need or levels[j] != ev:
                continue
            up = down = 0
            for k, (a, b) in enumerate(zip(values[j], hv)):
                if a > b:
                    up |= 1 << k
                elif a < b:
                    down |= 1 << k
            # u - v raises the rows in `up` and v - u those in `down`.
            candidates[i].add(up)
            candidates[j].add(down)
    return candidates


def product(P1: HPolyhedron, P2: HPolyhedron) -> HPolyhedron:
    """P1 x P2 by block-diagonal constraint stacking."""
    n1, n2 = P1.dim, P2.dim
    A = [row + zeros(n2) for row in P1.A] + [zeros(n1) + row for row in P2.A]
    E = [row + zeros(n2) for row in P1.E] + [zeros(n1) + row for row in P2.E]
    return HPolyhedron(tuple(A), P1.b + P2.b, tuple(E), P1.d + P2.d, n1 + n2)


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
