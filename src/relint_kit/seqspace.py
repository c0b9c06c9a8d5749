"""Exact classifiers for the unit ball of the summation norm inside the
square-summable sequence space.

Points are hybrid sequences: a finite rational prefix optionally followed
by a geometric tail c·q^(k-k0), the one infinite-support family whose
summation and square-summation norms are rational closed forms.  On this
family the intrinsic relative interior of the ball is the open ball,
while the quasi-relative interior also keeps the unit-norm points of
infinite support; the finitely supported unit-norm points are the only
boundary points excluded.  That gap is decided exactly from the closed
forms, with no tolerance parameter anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .rational import Rat, Vec, ZERO, vec


@dataclass(frozen=True)
class GeomTail:
    """Entries c·q^(k - start) for k >= start, with 0 < q < 1."""

    c: Rat
    q: Rat
    start: int


@dataclass(frozen=True)
class HybridSeq:
    """A square-summable sequence with exactly representable norms."""

    prefix: tuple[Rat, ...]
    tail: GeomTail | None = None

    def __post_init__(self):
        if self.tail is not None:
            if not (0 < self.tail.q < 1):
                raise InputError("geometric ratio must lie strictly between 0 and 1")
            if type(self.tail.start) is not int or self.tail.start != len(self.prefix) + 1:
                raise InputError(
                    f"tail starts at index {self.tail.start!r}, expected "
                    f"{len(self.prefix) + 1}")

    @classmethod
    def make(cls, prefix=(), tail=None) -> "HybridSeq":
        t = None
        if tail is not None:
            if not isinstance(tail, (tuple, list)) or len(tail) != 3:
                raise InputError(f"tail must be a (c, q, start) triple, got {tail!r}")
            c, q, start = tail
            t = GeomTail(*vec((c, q)), start)
        return cls(vec(prefix), t)

    @property
    def finitely_supported(self) -> bool:
        return self.tail is None or self.tail.c == 0

    def entry(self, k: int) -> Rat:
        """The k-th coordinate, 1-indexed."""
        if k < 1:
            raise InputError("sequence indices start at 1")
        if k <= len(self.prefix):
            return self.prefix[k - 1]
        if self.tail is None:
            return ZERO
        return self.tail.c * self.tail.q ** (k - self.tail.start)

    def truncate(self, n: int) -> Vec:
        return tuple([self.entry(k) for k in range(1, n + 1)])

    def scale(self, t: Rat) -> "HybridSeq":
        tail = None
        if self.tail is not None:
            tail = GeomTail(t * self.tail.c, self.tail.q, self.tail.start)
        return HybridSeq(tuple([t * p for p in self.prefix]), tail)


@dataclass(frozen=True)
class L1BallClassification:
    in_set: bool
    in_iri: bool
    in_qri: bool
    finite_support: bool

    @property
    def chain_ok(self) -> bool:
        return (not self.in_iri or self.in_qri) and (not self.in_qri or self.in_set)


def l1_norm(x: HybridSeq) -> Rat:
    """Sum of absolute coordinates; the geometric tail contributes
    |c|/(1 - q)."""
    total = sum((abs(p) for p in x.prefix), ZERO)
    if x.tail is not None:
        total += abs(x.tail.c) / (1 - x.tail.q)
    return total


def l2_norm_squared(x: HybridSeq) -> Rat:
    """Sum of squared coordinates; the tail contributes c^2/(1 - q^2)."""
    total = sum((p * p for p in x.prefix), ZERO)
    if x.tail is not None:
        total += x.tail.c ** 2 / (1 - x.tail.q ** 2)
    return total


def classify_l1ball(x: HybridSeq) -> L1BallClassification:
    """Exact membership of x in the unit ball, its intrinsic relative
    interior, and its quasi-relative interior."""
    norm = l1_norm(x)
    in_set = norm <= 1
    in_iri = norm < 1
    finite = x.finitely_supported
    in_qri = in_set and not (norm == 1 and finite)
    return L1BallClassification(in_set, in_iri, in_qri, finite)


def quasi_regularity_gap_witness() -> tuple[HybridSeq, L1BallClassification]:
    """A unit-norm point of infinite support: inside the quasi-relative
    interior but outside the intrinsic one, so the ball is not
    quasi-regular."""
    witness = HybridSeq((), GeomTail(Rat(1, 2), Rat(1, 2), 1))
    return witness, classify_l1ball(witness)
