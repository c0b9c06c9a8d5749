"""Exact rational linear programming with self-validating certificates.

A dense two-phase tableau simplex for the standard form max c·x subject
to rows·x <= rhs, x >= 0 (`simplex_max`), using Bland's pivoting rule
throughout, which guarantees termination and makes every outcome
deterministic for a fixed input.  The tableau holds integers over one
common denominator and pivots fraction-free; outcomes are exact
`Fraction`s.  `lp_solve` alone reduces an `LPProblem` to that form: each
free variable becomes a (+, -) column pair and each equality two opposite
inequalities.  Outcomes carry checkable evidence: optimal points satisfy
the constraints exactly, infeasibility comes with Farkas multipliers, and
unboundedness comes with a feasible point plus an improving recession
direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import InputError, TheoremViolation
from .rational import (
    Mat,
    ONE,
    Rat,
    Vec,
    ZERO,
    check_block,
    check_exact,
    dot,
    scaled_ints,
    zeros,
)


@dataclass(frozen=True)
class LPProblem:
    """max/min objective·x subject to ineq_lhs·x <= ineq_rhs, eq_lhs·x = eq_rhs.

    All variables are free; empty constraint blocks are legal and mean the
    whole space.  Every entry is an `int` or a `Fraction`.
    """

    objective: Vec
    sense: str
    ineq_lhs: Mat = ()
    ineq_rhs: Vec = ()
    eq_lhs: Mat = ()
    eq_rhs: Vec = ()

    def __post_init__(self):
        if self.sense not in ("max", "min"):
            raise InputError(f"unknown sense {self.sense!r}")
        n = len(self.objective)
        check_exact("objective", self.objective)
        check_block(self.ineq_lhs, self.ineq_rhs, n, "inequalities")
        check_block(self.eq_lhs, self.eq_rhs, n, "equalities")

    @property
    def dim(self) -> int:
        return len(self.objective)

    @classmethod
    def maximize(cls, objective, ineq=((), ()), eq=((), ())) -> "LPProblem":
        return cls(tuple(objective), "max", tuple(ineq[0]), tuple(ineq[1]),
                   tuple(eq[0]), tuple(eq[1]))

    @classmethod
    def minimize(cls, objective, ineq=((), ()), eq=((), ())) -> "LPProblem":
        return cls(tuple(objective), "min", tuple(ineq[0]), tuple(ineq[1]),
                   tuple(eq[0]), tuple(eq[1]))


@dataclass(frozen=True)
class FarkasCertificate:
    """Multipliers proving Ax <= b, Ex = d infeasible.

    Nonnegative multipliers on the inequalities plus free multipliers on
    the equalities combine to 0·x <= c with c < 0.
    """

    multipliers_ineq: Vec
    multipliers_eq: Vec


@dataclass(frozen=True)
class Optimal:
    point: Vec
    value: Rat
    # Dual multipliers in maximize normalization: dual_ineq >= 0 and
    # dual_ineq·A + dual_eq·E equals the maximized objective vector.
    dual_ineq: Vec
    dual_eq: Vec
    pivots: int = 0


@dataclass(frozen=True)
class Infeasible:
    certificate: FarkasCertificate
    pivots: int = 0


@dataclass(frozen=True)
class Unbounded:
    ray: Vec
    feasible_point: Vec
    pivots: int = 0


LPOutcome = Optimal | Infeasible | Unbounded


class _Simplex:
    """Tableau simplex in standard form: maximize c·x, rows·x <= rhs, x >= 0.

    The tableau is fraction-free (Bareiss 1968, Edmonds 1967).  Row i and
    its right-hand side are scaled by L_i, the lcm of their denominators,
    and the cost by Lc, so every entry is an integer over one common
    denominator D: the last pivot, kept positive.  Scaling row i rescales
    only slack i (to L_i times its value), which changes neither the sign
    of a reduced cost nor which ratio is least, so the pivots are those of
    the same tableau over `Fraction`.  Points, rays and multipliers are
    converted back to exact `Fraction`s for the unscaled problem.
    """

    def __init__(self, c: Vec, rows, rhs):
        self.n = len(c)
        self.m = len(rows)
        self.total = self.n + self.m
        self.pivots = 0
        # Bland's rule visits each basis at most once.
        self.pivot_limit = comb(self.total + 1, self.m) if self.m else 1
        self.rhs = rhs
        self.cost_scale, self.cost = scaled_ints(c)
        self.cost += [0] * self.m
        self.scales: list[int] = []
        self.tab: list[list[int]] = []
        for i, (row, beta) in enumerate(zip(rows, rhs)):
            scale, t = scaled_ints([*row, beta])
            t[self.n:self.n] = [0] * self.m
            t[self.n + i] = 1
            self.scales.append(scale)
            self.tab.append(t)
        self.denom = 1
        self.basis = [self.n + i for i in range(self.m)]

    def _pivot(self, r: int, col: int) -> None:
        self.pivots += 1
        if self.pivots > self.pivot_limit:
            raise TheoremViolation("simplex exceeded its combinatorial pivot bound")
        row = self.tab[r]
        p = row[col]
        if p < 0:
            # Negating the pivot row keeps the new common denominator positive.
            p = -p
            self.tab[r] = row = [-a for a in row]
        d = self.denom
        for i, other in enumerate(self.tab):
            if i != r:
                self.tab[i] = _eliminate(other, row, col, p, d)
        self.obj = _eliminate(self.obj, row, col, p, d)
        self.denom = p
        self.basis[r] = col

    def _rebuild_objective(self, cost) -> None:
        # obj[j] = D·(reduced cost z_j - c_j); last entry carries D·value.
        obj = [-cj * self.denom for cj in cost] + [0]
        for i, b in enumerate(self.basis):
            cb = cost[b]
            if cb:
                row = self.tab[i]
                obj = [a + cb * t for a, t in zip(obj, row)]
        self.obj = obj

    def _bland(self, width: int):
        """Run simplex iterations; returns None at optimality or the
        entering column on unboundedness."""
        while True:
            enter = None
            for j in range(width):
                if self.obj[j] < 0:
                    enter = j
                    break
            if enter is None:
                return None
            leave = None
            for i, row in enumerate(self.tab):
                a = row[enter]
                if a > 0:
                    if leave is None:
                        leave, num, den = i, row[width], a
                        continue
                    # row[width] / a against num / den, both denominators > 0.
                    lhs, rhs = row[width] * den, num * a
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[leave]):
                        leave, num, den = i, row[width], a
            if leave is None:
                return enter
            self._pivot(leave, enter)

    def solve(self):
        """Returns (status, data); status in {"optimal", "infeasible", "unbounded"}."""
        width = self.total
        if any(self.tab[i][width] < 0 for i in range(self.m)):
            status = self._phase_one()
            if status is not None:
                return status
        self._rebuild_objective(self.cost)
        enter = self._bland(width)
        if enter is not None:
            return "unbounded", (self._extract_ray(enter), self._extract_point())
        return "optimal", (self._extract_point(), self._duals(self.cost_scale))

    def _phase_one(self):
        width = self.total + 1
        for row, scale in zip(self.tab, self.scales):
            row.insert(self.total, -scale * self.denom)
        aux_cost = [0] * width
        aux_cost[self.total] = -1
        # Drive the auxiliary variable in at the most negative row of the
        # unscaled problem.
        r0 = min(range(self.m), key=lambda i: (self.rhs[i], i))
        self._rebuild_objective(aux_cost)
        self._pivot(r0, self.total)
        if self._bland(width) is not None:
            raise TheoremViolation("auxiliary objective is bounded by construction")
        if self.obj[width] < 0:
            return "infeasible", self._duals(1)
        if self.total in self.basis:
            r = self.basis.index(self.total)
            for j in range(self.total):
                if self.tab[r][j] != 0 and j not in self.basis:
                    self._pivot(r, j)
                    break
            else:
                raise TheoremViolation("auxiliary variable stuck in the basis")
        for row in self.tab:
            del row[self.total]
        return None

    def _extract_point(self) -> Vec:
        vals = [ZERO] * self.n
        for i, b in enumerate(self.basis):
            if b < self.n:
                vals[b] = Rat(self.tab[i][-1], self.denom)
        return tuple(vals)

    def _extract_ray(self, enter: int) -> Vec:
        vals = [ZERO] * self.n
        if enter < self.n:
            vals[enter] = ONE
            scale = 1
        else:
            # A unit step of slack j is L_j steps of its scaled column.
            scale = self.scales[enter - self.n]
        for i, b in enumerate(self.basis):
            if b < self.n:
                vals[b] = Rat(-self.tab[i][enter] * scale, self.denom)
        return tuple(vals)

    def _duals(self, cost_scale: int) -> Vec:
        """Multipliers of the unscaled rows: obj·L_i / (D·Lc)."""
        den = self.denom * cost_scale
        return tuple([Rat(self.obj[self.n + i] * scale, den)
                      for i, scale in enumerate(self.scales)])


def _eliminate(row: list[int], pivot_row: list[int], col: int, p: int, d: int) -> list[int]:
    """`row` over the new common denominator p after pivoting on column col
    of `pivot_row`; d is the old one.  Every division is exact."""
    f = row[col]
    if f:
        return [(a * p - f * b) // d for a, b in zip(row, pivot_row)]
    if p == d:
        return row
    return [a * p // d for a in row]


def simplex_max(c: Vec, rows, rhs):
    """Low-level entry: maximize c·x with rows·x <= rhs and x >= 0.
    Returns (status, payload, pivots)."""
    sx = _Simplex(c, rows, rhs)
    status, data = sx.solve()
    return status, data, sx.pivots


# Short-lived sequences in this module are lists, and tuples (star-args
# included) are built from lists, never from generators.  A tuple built from
# a generator is over-allocated and then shrunk; when it dies, CPython keeps
# its block on a per-length free list that only a full collection empties,
# and the integer tableau allocates too few objects to trigger one often,
# so those free lists would add to the peak resident memory of long runs.


def _split(v: Vec) -> list[Rat]:
    """Coefficients of a free variable vector on its (+, -) column pairs."""
    return [x for a in v for x in (a, -a)]


def _join(vals: Vec) -> Vec:
    """Free variable values from their (+, -) column pairs."""
    return tuple([vals[j] - vals[j + 1] for j in range(0, len(vals), 2)])


def lp_solve(p: LPProblem) -> LPOutcome:
    """Solve an LP exactly; deterministic for a fixed input.

    Free variables become (+, -) column pairs and each equality two
    opposite inequalities, which puts the problem in `simplex_max`'s
    standard form."""
    c = [-a for a in p.objective] if p.sense == "min" else p.objective
    m1 = len(p.ineq_lhs)
    m2 = len(p.eq_lhs)
    rows = list(p.ineq_lhs) + list(p.eq_lhs) + [[-a for a in r] for r in p.eq_lhs]
    rhs = list(p.ineq_rhs) + list(p.eq_rhs) + [-v for v in p.eq_rhs]
    status, data, pivots = simplex_max(_split(c), [_split(r) for r in rows], rhs)
    if status == "infeasible":
        y = data
        mult_eq = tuple([y[m1 + j] - y[m1 + m2 + j] for j in range(m2)])
        cert = FarkasCertificate(tuple(y[:m1]), mult_eq)
        return Infeasible(cert, pivots)
    if status == "unbounded":
        ray, point = data
        return Unbounded(_join(ray), _join(point), pivots)
    point, y = data
    point = _join(point)
    value = dot(p.objective, point)
    dual_eq = tuple([y[m1 + j] - y[m1 + m2 + j] for j in range(m2)])
    return Optimal(point, value, tuple(y[:m1]), dual_eq, pivots)


def verify_farkas(p: LPProblem, cert: FarkasCertificate) -> bool:
    """Check that the multipliers really combine the constraints into
    0·x <= negative; False for malformed certificates, never an error."""
    lam, mu = cert.multipliers_ineq, cert.multipliers_eq
    if len(lam) != len(p.ineq_lhs) or len(mu) != len(p.eq_lhs):
        return False
    if any(v < 0 for v in lam):
        return False
    combo = list(zeros(p.dim))
    for coeff, row in zip(lam, p.ineq_lhs):
        if coeff:
            combo = [a + coeff * r for a, r in zip(combo, row)]
    for coeff, row in zip(mu, p.eq_lhs):
        if coeff:
            combo = [a + coeff * r for a, r in zip(combo, row)]
    if any(a != 0 for a in combo):
        return False
    const = dot(lam, p.ineq_rhs) + dot(mu, p.eq_rhs)
    return const < 0
