"""Shared deterministic instance generators and oracles for the property
suites.

All generators keep coefficient numerators and denominators small (at most
20) and produce nonempty sets by construction: a known integer point is
chosen first and every constraint is built to hold there.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from relint_kit.lp import (
    FarkasCertificate,
    Infeasible,
    LPOutcome,
    LPProblem,
    Optimal,
    Unbounded,
)
from relint_kit.polyhedra import (
    HPolyhedron,
    PolyCone,
    VPolyhedron,
    h_to_v,
    v_to_h,
)
from relint_kit.rational import dot, primitive, scaled_ints, vsub
from relint_kit.setmaps import PLConvexFunction, PolyhedralMap


def matvec(m, x) -> tuple[Fraction, ...]:
    """m·x as `Fraction` sums, one per row."""
    return tuple([sum([a * b for a, b in zip(row, x)], Fraction(0)) for row in m])


def vneg(u) -> tuple:
    return tuple([-a for a in u])


def primitive_int(v) -> tuple[int, ...]:
    """A rational vector scaled by a positive rational into coprime
    integers."""
    return primitive(scaled_ints(v)[1])


def random_nonempty_hpoly(
    rng: random.Random,
    dim: int,
    max_rows: int,
    eq_prob: float = 0.25,
    tight_prob: float = 0.35,
) -> HPolyhedron:
    """A nonempty polyhedron with small integer-or-half-integer data.

    Rows are anchored at a lattice point of {-1, 0, 1}^dim, with zero
    slack on some rows so that boundary and lower-dimensional structure
    shows up often."""
    anchor = [rng.choice((-1, 0, 1)) for _ in range(dim)]
    n_rows = rng.randint(1, max_rows)
    A, b, E, d = [], [], [], []
    for _ in range(n_rows):
        row = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
        if all(v == 0 for v in row):
            row[rng.randrange(dim)] = Fraction(rng.choice((-1, 1)))
        value = sum(r * a for r, a in zip(row, anchor))
        slack = Fraction(0) if rng.random() < tight_prob else Fraction(rng.randint(1, 5))
        if rng.random() < 0.2:
            row = [r / 2 for r in row]
            value, slack = value / 2, slack / 2
        if rng.random() < eq_prob:
            E.append(tuple(row))
            d.append(value)
        else:
            A.append(tuple(row))
            b.append(value + slack)
    return HPolyhedron(tuple(A), tuple(b), tuple(E), tuple(d), dim)


def recession_contains(P: HPolyhedron, v) -> bool:
    """Oracle: v is a recession direction of P, by plain Fraction dot
    products (a·v <= 0 on every inequality row, e·v = 0 on every equality)."""
    def dot(row):
        return sum((a * c for a, c in zip(row, v)), Fraction(0))
    return all(dot(row) <= 0 for row in P.A) and all(dot(row) == 0 for row in P.E)


class FractionSimplex:
    """Oracle: a plain two-phase tableau simplex over `Fraction`s for max
    c·x subject to rows·x <= rhs, x >= 0, sharing no code with
    `relint_kit.lp`.

    Bland's rule throughout: the least entering index with a negative
    reduced cost, and the least ratio leaving, ties to the least basic
    index.  Phase one drives an auxiliary column (index n + m, after the
    slacks) into the row with the most negative right-hand side, and when
    the auxiliary stays basic at level zero it leaves for the least
    nonbasic index with a nonzero entry in its row.  Every pivot counts."""

    def __init__(self, c, rows, rhs):
        self.n, self.m = len(c), len(rows)
        self.c = [Fraction(a) for a in c] + [Fraction(0)] * self.m
        self.rhs = [Fraction(beta) for beta in rhs]
        self.tab = [[Fraction(a) for a in row]
                    + [Fraction(int(i == r)) for i in range(self.m)] + [self.rhs[r]]
                    for r, row in enumerate(rows)]
        self.basis = [self.n + i for i in range(self.m)]
        self.pivots = 0

    def _objective(self, cost):
        # Reduced costs z_j - c_j, then the objective value.
        obj = [-a for a in cost] + [Fraction(0)]
        for row, b in zip(self.tab, self.basis):
            if cost[b]:
                obj = [o + cost[b] * t for o, t in zip(obj, row)]
        self.obj = obj

    def _pivot(self, r, j):
        self.pivots += 1
        p = self.tab[r][j]
        self.tab[r] = pivot_row = [a / p for a in self.tab[r]]
        # Only the pivot row's nonzero entries change the other rows.
        support = [k for k, b in enumerate(pivot_row) if b]
        for i, row in enumerate([*self.tab, self.obj]):
            f = row[j]
            if i != r and f:
                for k in support:
                    row[k] -= f * pivot_row[k]
        self.basis[r] = j

    def _bland(self):
        """None at optimality, else the entering index of an improving ray."""
        while True:
            enter = next((j for j, v in enumerate(self.obj[:-1]) if v < 0), None)
            if enter is None:
                return None
            rows = [i for i, row in enumerate(self.tab) if row[enter] > 0]
            if not rows:
                return enter
            leave = min(rows, key=lambda i: (self.tab[i][-1] / self.tab[i][enter],
                                             self.basis[i]))
            self._pivot(leave, enter)

    def _values(self):
        vals = [Fraction(0)] * self.n
        for row, b in zip(self.tab, self.basis):
            if b < self.n:
                vals[b] = row[-1]
        return vals

    def solve(self):
        """(status, payload, pivots): an optimal payload is (point, duals),
        an unbounded one (ray, point), an infeasible one the multipliers."""
        n, m = self.n, self.m
        if any(beta < 0 for beta in self.rhs):
            aux = n + m
            for row in self.tab:
                row.insert(aux, Fraction(-1))
            self._objective([Fraction(0)] * aux + [Fraction(-1)])
            self._pivot(min(range(m), key=lambda i: (self.rhs[i], i)), aux)
            self._bland()
            if self.obj[-1] < 0:
                return "infeasible", tuple(self.obj[n:n + m]), self.pivots
            if aux in self.basis:
                r = self.basis.index(aux)
                j = next(j for j in range(aux)
                         if self.tab[r][j] != 0 and j not in self.basis)
                self._pivot(r, j)
            for row in self.tab:
                del row[aux]
        self._objective(self.c)
        enter = self._bland()
        if enter is not None:
            ray = [Fraction(0)] * n
            if enter < n:
                ray[enter] = Fraction(1)
            for row, b in zip(self.tab, self.basis):
                if b < n:
                    ray[b] = -row[enter]
            return "unbounded", (tuple(ray), tuple(self._values())), self.pivots
        return "optimal", (tuple(self._values()), tuple(self.obj[n:n + m])), self.pivots


def split_lp_solve(p: LPProblem) -> LPOutcome:
    """Oracle: `lp_solve` through the split encoding, in which every free
    variable is an explicit (+, -) pair of nonnegative columns and each
    equality two opposite inequalities, solved by `FractionSimplex`.
    Bland's rule makes the pivots a function of the column order alone,
    so the outcome, pivot count included, is the one `lp_solve` must
    return."""
    def split(v):
        return [x for a in v for x in (a, -a)]

    def join(vals):
        return tuple([vals[j] - vals[j + 1] for j in range(0, len(vals), 2)])

    c = [-a for a in p.objective] if p.sense == "min" else p.objective
    m1, m2 = len(p.ineq_lhs), len(p.eq_lhs)
    rows = list(p.ineq_lhs) + list(p.eq_lhs) + [[-a for a in r] for r in p.eq_lhs]
    rhs = list(p.ineq_rhs) + list(p.eq_rhs) + [-v for v in p.eq_rhs]
    status, data, pivots = FractionSimplex(split(c), [split(r) for r in rows], rhs).solve()
    if status == "infeasible":
        mult_eq = tuple([data[m1 + j] - data[m1 + m2 + j] for j in range(m2)])
        return Infeasible(FarkasCertificate(tuple(data[:m1]), mult_eq), pivots)
    if status == "unbounded":
        ray, point = data
        return Unbounded(join(ray), join(point), pivots)
    point, y = data
    point = join(point)
    dual_eq = tuple([y[m1 + j] - y[m1 + m2 + j] for j in range(m2)])
    return Optimal(point, dot(p.objective, point), tuple(y[:m1]), dual_eq, pivots)


def primal_cone_contains(C: PolyCone, v) -> bool:
    """Oracle: v in cone(generators) when some λ >= 0 has Gλ = v, each
    equation written as two opposite rows, solved by `FractionSimplex`."""
    rows, rhs = [], []
    for j in range(C.dim):
        coeffs = [g[j] for g in C.generators]
        rows += [coeffs, [-a for a in coeffs]]
        rhs += [v[j], -v[j]]
    status, _, _ = FractionSimplex([0] * len(C.generators), rows, rhs).solve()
    return status != "infeasible"


def _subset(P: HPolyhedron, Q: HPolyhedron) -> bool:
    """P contained in Q, decided by one bound LP per row of Q, all solved
    by `split_lp_solve`; P is empty when its feasibility LP is."""
    if isinstance(split_lp_solve(LPProblem.maximize([0] * P.dim, (P.A, P.b), (P.E, P.d))),
                  Infeasible):
        return True
    for row, beta in zip(Q.A, Q.b):
        out = split_lp_solve(LPProblem.maximize(row, (P.A, P.b), (P.E, P.d)))
        if isinstance(out, Unbounded) or out.value > beta:
            return False
    for row, delta in zip(Q.E, Q.d):
        for sense in ("max", "min"):
            out = split_lp_solve(LPProblem(row, sense, P.A, P.b, P.E, P.d))
            if isinstance(out, Unbounded) or out.value != delta:
                return False
    return True


def same_set(P: HPolyhedron, Q: HPolyhedron) -> bool:
    """Oracle: mutual containment of two H-polyhedra, by bound LPs on the
    rows on `FractionSimplex`, independent of double description and of
    `relint_kit.lp`'s solver."""
    if P.dim != Q.dim:
        return False
    return _subset(P, Q) and _subset(Q, P)


def v_member(V: VPolyhedron, x) -> bool:
    """Oracle: x in conv(points) + cone(rays), by cone membership of (x, 1)
    in the homogenized generators on `FractionSimplex`; independent of any
    H-representation and of `relint_kit.lp`'s solver."""
    if V.is_empty_set:
        return False
    one, zero = Fraction(1), Fraction(0)
    gens = tuple(p + (one,) for p in V.points) + tuple(r + (zero,) for r in V.rays)
    return primal_cone_contains(PolyCone(gens, V.dim + 1), tuple(x) + (one,))


def _unique_solution(rows, rhs, n: int):
    """The one solution x of rows·x = rhs by `Fraction` Gauss–Jordan, or
    None when the system has none or more than one."""
    m = [[Fraction(a) for a in row] + [Fraction(c)] for row, c in zip(rows, rhs)]
    for col in range(n):
        p = next((i for i in range(col, len(m)) if m[i][col]), None)
        if p is None:
            return None
        m[col], m[p] = m[p], m[col]
        head = m[col][col]
        pivot = m[col] = [a / head for a in m[col]]
        for i, row in enumerate(m):
            f = row[col]
            if i != col and f:
                m[i] = [a - f * b for a, b in zip(row, pivot)]
    if any(row[n] for row in m[n:]):
        return None
    return tuple([m[i][n] for i in range(n)])


def brute_force_vertices(P) -> set:
    """Oracle: the vertices of P = {Ax <= b, Ex = d}, as the feasible
    unique solutions of Ex = d together with a subset of the rows of A held
    at equality.  Subsets of every size up to n are tried: with E
    rank-deficient or rows dependent, a vertex may need more rows of A than
    n − len(E).  Plain `Fraction` elimination, sharing no code with the
    library's double description, LP or linear algebra."""
    n = P.dim
    vertices = set()
    for size in range(n + 1):
        for subset in combinations(range(len(P.A)), size):
            x = _unique_solution([*P.E, *[P.A[i] for i in subset]],
                                 [*P.d, *[P.b[i] for i in subset]], n)
            if x is not None and all(sum([a * c for a, c in zip(row, x)]) <= beta
                                     for row, beta in zip(P.A, P.b)):
                vertices.add(x)
    return vertices


def fraction_linear_image(M, P: HPolyhedron) -> HPolyhedron:
    """Oracle: {Mx : x in P} by `Fraction` arithmetic on the sorted points
    and rays of `h_to_v`, then `v_to_h`; rays with a zero image are
    dropped."""
    V = h_to_v(P)
    if V.is_empty_set:
        return HPolyhedron.empty(len(M))
    points = [matvec(M, p) for p in V.points]
    rays = [w for w in (matvec(M, r) for r in V.rays) if any(w)]
    return v_to_h(VPolyhedron(tuple(points), tuple(rays), len(M)))


def fraction_minkowski_diff(P1: HPolyhedron, P2: HPolyhedron) -> HPolyhedron:
    """Oracle: P1 - P2 from the distinct `Fraction` differences of the
    `h_to_v` points and the rays of P1 and -P2, then `v_to_h`."""
    V1, V2 = h_to_v(P1), h_to_v(P2)
    if V1.is_empty_set or V2.is_empty_set:
        return HPolyhedron.empty(P1.dim)
    points = sorted({vsub(p1, p2) for p1 in V1.points for p2 in V2.points})
    rays = sorted(set(V1.rays) | {vneg(r) for r in V2.rays})
    return v_to_h(VPolyhedron(tuple(points), tuple(rays), P1.dim))


def random_pair(rng: random.Random, dim: int, max_rows: int):
    return (
        random_nonempty_hpoly(rng, dim, max_rows),
        random_nonempty_hpoly(rng, dim, max_rows),
    )


def random_map(rng: random.Random, max_m: int = 3, max_n: int = 3) -> PolyhedralMap:
    m = rng.randint(1, max_m)
    n = rng.randint(1, max_n)
    graph = random_nonempty_hpoly(rng, m + n, m + n + 3)
    return PolyhedralMap(graph, m, n)


def random_plfunction(rng: random.Random, max_m: int = 3, max_pieces: int = 4) -> PLConvexFunction:
    m = rng.randint(1, max_m)
    domain = random_nonempty_hpoly(rng, m, m + 3, eq_prob=0.2)
    pieces = tuple(
        (
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(m)),
            Fraction(rng.randint(-3, 3)),
        )
        for _ in range(rng.randint(1, max_pieces))
    )
    return PLConvexFunction(pieces, domain)


def random_matrix(rng: random.Random, rows: int, cols: int):
    return tuple(
        tuple(Fraction(rng.randint(-2, 2)) for _ in range(cols)) for _ in range(rows)
    )


def random_cone_rows(rng: random.Random, dim: int) -> list[tuple[Fraction, ...]]:
    """Rows m of a cone {y : m·y <= 0} in R^dim.

    Each draw leans towards one kind of row: generic rationals, lineality-
    heavy (unit rows and opposite pairs) or degenerate (duplicates,
    positive multiples and zero rows), the cases where double description
    updates its lineality or meets repeated constraints.  Most draws flip
    rows to hold at a random nonzero point, so that the cone is not {0}
    and has rays to pair."""
    def generic():
        return tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
                     for _ in range(dim))

    def unit_row():
        j = rng.randrange(dim)
        s = Fraction(rng.choice((-1, 1)))
        return tuple(s if i == j else Fraction(0) for i in range(dim))

    mode = rng.choice(("generic", "lineality", "degenerate"))
    rows: list[tuple[Fraction, ...]] = []
    for _ in range(rng.randint(0, dim + 4)):
        u = rng.random()
        if mode == "lineality" and u < 0.7:
            row = unit_row() if rng.random() < 0.5 else generic()
            rows.append(row)
            if rng.random() < 0.5:
                rows.append(tuple(-a for a in row))
        elif mode == "degenerate" and rows and u < 0.6:
            if rng.random() < 0.3:
                rows.append((Fraction(0),) * dim)
            else:
                t = Fraction(rng.randint(1, 4), rng.randint(1, 3))
                rows.append(tuple(t * a for a in rng.choice(rows)))
        else:
            rows.append(generic())
    if rng.random() < 0.7:
        anchor = [rng.randint(-2, 2) for _ in range(dim)]
        anchor[rng.randrange(dim)] = rng.choice((-1, 1))
        rows = [tuple(-a for a in row)
                if sum(a * x for a, x in zip(row, anchor)) > 0 else row
                for row in rows]
    rng.shuffle(rows)
    return rows
