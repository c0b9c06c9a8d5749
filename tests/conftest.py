"""Shared deterministic instance generators and oracles for the property
suites.

All generators keep coefficient numerators and denominators small (at most
20) and produce nonempty sets by construction: a known integer point is
chosen first and every constraint is built to hold there.
"""

from __future__ import annotations

import random
from fractions import Fraction

from relint_kit.lp import LPProblem, Unbounded, lp_solve
from relint_kit.polyhedra import HPolyhedron, PolyCone, VPolyhedron, cone_contains, is_empty
from relint_kit.setmaps import PLConvexFunction, PolyhedralMap


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


def _subset(P: HPolyhedron, Q: HPolyhedron) -> bool:
    """P contained in Q, decided by one bound LP per row of Q."""
    if is_empty(P):
        return True
    for row, beta in zip(Q.A, Q.b):
        out = lp_solve(LPProblem.maximize(row, (P.A, P.b), (P.E, P.d)))
        if isinstance(out, Unbounded) or out.value > beta:
            return False
    for row, delta in zip(Q.E, Q.d):
        for sense in ("max", "min"):
            out = lp_solve(LPProblem(row, sense, P.A, P.b, P.E, P.d))
            if isinstance(out, Unbounded) or out.value != delta:
                return False
    return True


def same_set(P: HPolyhedron, Q: HPolyhedron) -> bool:
    """Oracle: mutual containment of two H-polyhedra, by bound LPs on the
    rows, independent of double description."""
    if P.dim != Q.dim:
        return False
    return _subset(P, Q) and _subset(Q, P)


def v_member(V: VPolyhedron, x) -> bool:
    """Oracle: x in conv(points) + cone(rays), by cone membership of (x, 1)
    in the homogenized generators; independent of any H-representation."""
    if V.is_empty_set:
        return False
    one, zero = Fraction(1), Fraction(0)
    gens = tuple(p + (one,) for p in V.points) + tuple(r + (zero,) for r in V.rays)
    return cone_contains(PolyCone(gens, V.dim + 1), tuple(x) + (one,))


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
