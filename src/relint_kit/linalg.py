"""Exact Gaussian elimination: linear systems, rank, spans, projections."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .rational import Mat, Rat, Vec, ZERO, dot, zeros


@dataclass(frozen=True)
class LinearSolution:
    """Parametrization of {x : Ex = d} as particular + span(nullspace_basis)."""

    particular: Vec
    nullspace_basis: tuple[Vec, ...]


def _echelon(rows: list[list[Rat]]) -> tuple[list[list[Rat]], list[int]]:
    """Reduce in place to row echelon form; returns (matrix, pivot columns).

    First-nonzero pivoting keeps the result deterministic; exact arithmetic
    makes magnitude-based pivot choice unnecessary.
    """
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [a / pv for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(m: Mat) -> int:
    work = [list(row) for row in m]
    _, pivots = _echelon(work)
    return len(pivots)


def solve_linear_system(eq_lhs: Mat, eq_rhs: Vec, n: int) -> LinearSolution | None:
    """Solve Ex = d over the rationals; None when inconsistent.

    The nullspace basis vectors are linearly independent; with no
    constraints the whole space is returned.
    """
    if len(eq_lhs) != len(eq_rhs):
        raise InputError("equality system: row/rhs count mismatch")
    for row in eq_lhs:
        if len(row) != n:
            raise InputError(f"equality system: row of length {len(row)}, expected {n}")
    work = [list(row) + [rhs] for row, rhs in zip(eq_lhs, eq_rhs)]
    work, pivots = _echelon(work)
    # A pivot in the rhs column marks the inconsistent row 0 = 1.
    if n in pivots:
        return None
    particular = list(zeros(n))
    for r, c in enumerate(pivots):
        particular[c] = work[r][n]
    free_cols = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free_cols:
        v = [ZERO] * n
        v[fc] = Rat(1)
        for r, c in enumerate(pivots):
            v[c] = -work[r][fc]
        basis.append(tuple(v))
    return LinearSolution(tuple(particular), tuple(basis))


def in_span(vectors: tuple[Vec, ...], v: Vec) -> bool:
    """Whether v is a linear combination of the given vectors."""
    if all(a == 0 for a in v):
        return True
    return rank(vectors) == rank(vectors + (v,))


def project_onto_span(directions: tuple[Vec, ...], v: Vec) -> Vec:
    """Orthogonal projection of v onto span(directions), exactly.

    Solves the normal equations (B Bᵀ) z = B v for the row matrix B of
    directions; requires the directions to be linearly independent.
    """
    k = len(directions)
    gram = tuple([
        tuple([dot(directions[i], directions[j]) for j in range(k)]) for i in range(k)
    ])
    rhs = tuple([dot(d, v) for d in directions])
    sol = solve_linear_system(gram, rhs, k)
    if sol is None or sol.nullspace_basis:
        raise InputError("projection requires linearly independent directions")
    out = zeros(len(v))
    for coeff, d in zip(sol.particular, directions):
        out = tuple([a + coeff * b for a, b in zip(out, d)])
    return out

