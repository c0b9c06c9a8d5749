"""Exact rational linear programming with self-validating certificates.

A two-phase tableau simplex for max c·x subject to a_i·x <= beta_i over
free x (`simplex_max`), using Bland's pivoting rule throughout, which
guarantees termination and makes every outcome deterministic for a fixed
input.  It takes the cost and rows as integers and pivots fraction-free;
outcomes are exact `Fraction`s, built only when read out, the optimal
value off the tableau.
The tableau is condensed: one integer per row for each nonbasic variable
and for the right-hand side, n + 1 in all, and a free variable's slot
stands for either half of its (+, -) pair, so it pivots as the split
tableau with its 2n + m columns would.  It is stored by column, so a
pivot builds one list per slot rather than one per row (see `_Simplex`).
`_solve_ints` is the one front end: it
takes integer rows and turns each equality into two opposite
inequalities.  `lp_solve` scales an `LPProblem`'s rows for it once; the
library's own LPs reach it as integers (`polyhedra._max_slack` and
`_cone_contains`).  Outcomes carry checkable evidence: optimal points
satisfy the constraints exactly, infeasibility comes with Farkas
multipliers, and unboundedness a feasible point and an improving ray.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import comb
from operator import mul

from .errors import InputError, TheoremViolation
from .rational import (
    Mat,
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
    """Condensed tableau simplex: maximize c·x over free x, a_i·x <= beta_i.

    The tableau is fraction-free (Bareiss 1968, Edmonds 1967), built from
    the cost as (Lc, Lc·c) and row i as (L_i, L_i·(a_i, beta_i)), each L
    the lcm of the denominators, so every entry is an integer over one
    common denominator D: the last pivot's magnitude.  Scaling row i
    rescales only slack i (to L_i times its value), which changes neither
    the sign of a reduced cost nor which ratio is least, so the pivots are
    those of the same tableau over `Fraction`.  Points, rays, multipliers
    and the optimal value c·x (the objective's right-hand side over D·Lc)
    are exact `Fraction`s of the unscaled problem.

    Variable k is x+ - x- over a (+, -) pair of nonnegative variables at
    indices 2k and 2k + 1; the slacks and the phase-one auxiliary follow
    from index 2n.  As in the integer dictionary of lrs (Avis 2000), the
    tableau keeps the right-hand side and one slot per nonbasic variable,
    slot s holding index `nonbasic[s]`; a pivot is a Jordan exchange that
    puts the leaving variable in the entering one's slot.  While one half
    of a free variable is basic, the other has a unit column and reduced
    cost 0, which no rule picks, so it needs no slot; while neither is,
    one slot reads either half, the other as its negation
    (B^-1(-a) = -B^-1 a).  Every index (the basis, Bland's order, the
    pivot bound) is one of the split tableau, which makes the pivots,
    their count and every outcome those of the split tableau.

    The tableau is stored by column: `cols[s]` holds slot s's entry in
    each of the m rows and then its objective entry, D times the reduced
    cost; the last column is the right-hand side, ending in D times the
    objective value.  A pivot updates every entry either way, but Python's
    overhead is per list built, not per entry, and by column a pivot
    builds one list per slot (about 9 on the benchmark's lp-batch) instead
    of one per row (about 18), each reading its pivot-row entry once.
    """

    def __init__(self, cost: tuple[int, list[int]], rows: list[tuple[int, list[int]]]):
        self.cost_scale, c = cost
        self.n = n = len(c)
        self.m = len(rows)
        self.slack0 = 2 * n
        self.total = self.slack0 + self.m
        self.pivots = 0
        # Bland's rule visits each basis at most once.
        self.pivot_limit = comb(self.total + 1, self.m) if self.m else 1
        # The cost of each index: c_k for 2k, -c_k for 2k + 1, 0 for slacks.
        self.cost = [x for a in c for x in (a, -a)] + [0] * self.m
        self.scales = [scale for scale, _ in rows]
        # One transpose; each column's objective entry is set before use.
        self.cols = ([[*col, 0] for col in zip(*[t for _, t in rows])] if rows
                     else [[0] for _ in range(n + 1)])
        self.denom = 1
        self.basis = [self.slack0 + i for i in range(self.m)]
        self.nonbasic = list(range(0, self.slack0, 2))

    def _pivot(self, r: int, s: int) -> None:
        """Exchange basis[r] with the variable in slot s."""
        self.pivots += 1
        if self.pivots > self.pivot_limit:
            raise TheoremViolation("simplex exceeded its combinatorial pivot bound")
        d, cols = self.denom, self.cols
        piv = cols[s]
        sign = 1 if piv[r] > 0 else -1
        if sign < 0:
            # Negating the pivot row keeps the new common denominator positive.
            for col in cols:
                col[r] = -col[r]
        p = piv[r]
        # Every other column, objective entry included, over the new
        # denominator p: each division by the old one, d, is exact, and
        # skipped while d = 1.  The pivot row keeps its entry b.
        for j, col in enumerate(cols):
            b = col[r]
            if j == s or not b and p == d:
                continue
            if not b:
                new = [a * p for a in col] if d == 1 else [a * p // d for a in col]
            elif d == 1:
                new = [a * p - f * b for a, f in zip(col, piv)]
            else:
                new = [(a * p - f * b) // d for a, f in zip(col, piv)]
            new[r] = b
            cols[j] = new
        new = [-sign * f for f in piv]
        new[r] = sign * d
        cols[s] = new
        self.denom = p
        self.basis[r], self.nonbasic[s] = self.nonbasic[s], self.basis[r]

    def _rebuild_objective(self, cost: list[int]) -> None:
        # Slot s's objective entry is D·(reduced cost z_j - c_j) of the
        # index j it holds; the right-hand side's is D·value.
        cb = [cost[b] for b in self.basis]
        mixed = any(cb)
        for col, c in zip(self.cols, [*[-cost[j] * self.denom for j in self.nonbasic], 0]):
            col[-1] = c + sum(map(mul, cb, col)) if mixed else c

    def _entering(self) -> tuple[int, int] | None:
        """Bland's entering index and its slot: the least index with a
        negative reduced cost, or None at optimality."""
        best = None
        for s, (j, col) in enumerate(zip(self.nonbasic, self.cols)):
            v = col[-1]
            if v > 0 and j < self.slack0:
                j ^= 1  # the other half of a free variable has reduced cost -v
            elif v >= 0:
                continue
            if best is None or j < best[0]:
                best = j, s
        return best

    def _bland(self):
        """Run simplex iterations; returns None at optimality or, on
        unboundedness, the entering slot."""
        while True:
            choice = self._entering()
            if choice is None:
                return None
            enter, s = choice
            if enter != self.nonbasic[s]:
                # The other half of a free variable: negate its column.
                self.cols[s] = [-a for a in self.cols[s]]
                self.nonbasic[s] = enter
            leave = None
            # zip stops at the m rows, before the objective entries.
            for i, (a, beta, j) in enumerate(zip(self.cols[s], self.cols[-1], self.basis)):
                if a > 0:
                    if leave is None:
                        leave, num, den = i, beta, a
                        continue
                    # beta / a against num / den, both denominators > 0.
                    lhs, rhs = beta * den, num * a
                    if lhs < rhs or (lhs == rhs and j < self.basis[leave]):
                        leave, num, den = i, beta, a
            if leave is None:
                return s
            self._pivot(leave, s)

    def solve(self):
        """Returns (status, data); status in {"optimal", "infeasible", "unbounded"}."""
        # The right-hand side's objective entry is still 0 here.
        if min(self.cols[-1]) < 0:
            status = self._phase_one()
            if status is not None:
                return status
        self._rebuild_objective(self.cost)
        s = self._bland()
        if s is not None:
            return "unbounded", (self._extract_ray(s), self._extract_point())
        value = Rat(self.cols[-1][-1], self.denom * self.cost_scale)
        return "optimal", (self._extract_point(), self._duals(self.cost_scale), value)

    def _phase_one(self):
        # The auxiliary (index total) takes one more slot, -L_i in row i;
        # no pivot has been made yet, so D = 1.
        aux = self.total
        self.cols.insert(self.n, [*[-scale for scale in self.scales], 0])
        self.nonbasic.append(aux)
        # Drive it in at the most negative row of the unscaled problem, the
        # least beta_i / L_i, ties to the lower index.
        rhs, scales = self.cols[-1], self.scales
        r0 = 0
        for i in range(1, self.m):
            if rhs[i] * scales[r0] < rhs[r0] * scales[i]:
                r0 = i
        self._rebuild_objective([0] * aux + [-1])
        self._pivot(r0, self.n)
        if self._bland() is not None:
            raise TheoremViolation("auxiliary objective is bounded by construction")
        if self.cols[-1][-1] < 0:
            return "infeasible", self._duals(1)
        if aux in self.basis:
            r = self.basis.index(aux)
            # With the auxiliary basic in row r, each slot's objective entry
            # is minus its entry in row r.  A free variable's slot offers
            # reduced costs v and -v, both >= 0 at the phase-one optimum, so
            # its entry is 0: only a slack can take the auxiliary's place.
            exits = [(j, s) for s, (j, col) in enumerate(zip(self.nonbasic, self.cols))
                     if j >= self.slack0 and col[r] != 0]
            if not exits:
                raise TheoremViolation("auxiliary variable stuck in the basis")
            self._pivot(r, min(exits)[1])
        s = self.nonbasic.index(aux)
        del self.nonbasic[s]
        del self.cols[s]
        return None

    def _extract_point(self) -> Vec:
        vals = [ZERO] * self.n
        for b, beta in zip(self.basis, self.cols[-1]):
            if b < self.slack0:
                vals[b >> 1] = Rat(-beta if b & 1 else beta, self.denom)
        return tuple(vals)

    def _extract_ray(self, s: int) -> Vec:
        vals = [ZERO] * self.n
        j, scale = self.nonbasic[s], 1
        if j < self.slack0:
            vals[j >> 1] = Rat(-1 if j & 1 else 1)
        else:
            # A unit step of slack j is L_j steps of its scaled column.
            scale = self.scales[j - self.slack0]
        for b, a in zip(self.basis, self.cols[s]):
            if b < self.slack0:
                vals[b >> 1] = Rat(a * scale if b & 1 else -a * scale, self.denom)
        return tuple(vals)

    def _duals(self, cost_scale: int) -> Vec:
        """Multipliers of the unscaled rows: the objective entry times
        L_i / (D·Lc) for a nonbasic slack i, 0 for a basic one."""
        y = [ZERO] * self.m
        for j, col in zip(self.nonbasic, self.cols):
            i = j - self.slack0
            if 0 <= i < self.m:
                y[i] = Rat(col[-1] * self.scales[i], self.denom * cost_scale)
        return tuple(y)


def simplex_max(cost: tuple[int, list[int]], rows: list[tuple[int, list[int]]]):
    """Low-level entry: maximize c·x over free x with a_i·x <= beta_i, given
    as (Lc, Lc·c) and (L_i, L_i·(a_i, beta_i)) from `scaled_ints`.  Returns
    (status, payload, pivots); an optimal payload is (point, duals, value)."""
    sx = _Simplex(cost, rows)
    status, data = sx.solve()
    return status, data, sx.pivots


# Short-lived sequences in this module are lists, and tuples (star-args
# included) are built from lists, never from generators.  A tuple built from
# a generator is over-allocated and then shrunk; when it dies, CPython keeps
# its block on a per-length free list that only a full collection empties,
# and the integer tableau allocates too few objects to trigger one often,
# so those free lists would add to the peak resident memory of long runs.


def lp_solve(p: LPProblem) -> LPOutcome:
    """Solve an LP exactly; deterministic for a fixed input.

    Each row is scaled to integers once, which puts the problem in
    `_solve_ints`'s form."""
    c = [-a for a in p.objective] if p.sense == "min" else p.objective
    rows = [scaled_ints([*row, beta]) for row, beta in zip(p.ineq_lhs, p.ineq_rhs)]
    eqs = [scaled_ints([*row, delta]) for row, delta in zip(p.eq_lhs, p.eq_rhs)]
    return _solve_ints(scaled_ints(c), rows, eqs, p.sense)


def _solve_ints(cost: tuple[int, list[int]], rows: list, eqs: list, sense: str = "max"
                ) -> LPOutcome:
    """max c·x (min, with cost holding -c) over free x subject to
    a_i·x <= beta_i and e_j·x = delta_j, each row as `simplex_max` takes
    it, (L_i, L_i·(a_i, beta_i)): the outcome of that `LPProblem`."""
    m1, m2 = len(rows), len(eqs)
    status, data, pivots = simplex_max(
        cost, [*rows, *eqs, *[(scale, [-k for k in t]) for scale, t in eqs]])
    if status == "infeasible":
        y = data
        mult_eq = tuple([y[m1 + j] - y[m1 + m2 + j] for j in range(m2)])
        cert = FarkasCertificate(tuple(y[:m1]), mult_eq)
        return Infeasible(cert, pivots)
    if status == "unbounded":
        ray, point = data
        return Unbounded(ray, point, pivots)
    point, y, value = data
    dual_eq = tuple([y[m1 + j] - y[m1 + m2 + j] for j in range(m2)])
    return Optimal(point, -value if sense == "min" else value, tuple(y[:m1]), dual_eq, pivots)


def verify_farkas(p: LPProblem, cert: FarkasCertificate) -> bool:
    """Check that the multipliers really combine the constraints into
    0·x <= negative; False for malformed certificates, never an error."""
    lam, mu = cert.multipliers_ineq, cert.multipliers_eq
    if not isinstance(lam, Sequence) or not isinstance(mu, Sequence):
        return False
    if len(lam) != len(p.ineq_lhs) or len(mu) != len(p.eq_lhs):
        return False
    # Exactly an int or a Fraction, as in `check_exact`: a float would
    # make the test inexact, and None or a string cannot be compared.
    if any(type(v) is not Rat and type(v) is not int for v in [*lam, *mu]):
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
