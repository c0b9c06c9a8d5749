"""Exact rational scalars and dense vector/matrix helpers.

Scalars are `fractions.Fraction` values (arbitrary-precision, canonical
form with positive denominator), re-exported as `Rat`.  Vectors are plain
tuples of `Rat`, matrices are tuples of row vectors.  Everything here is
immutable, so a geometric object built from these types can cache facts
derived from it on itself (see `polyhedra`).

This is the one place a rational vector is put over the integers: a point
as (q, p), q > 0 its common denominator and p = q·x, a row as (L, L·v).
The library computes in those and builds `Fraction`s only for what it
returns, as `dot` builds one per result; a whole generator or row
answer goes through `frac_vecs`, which builds one per distinct value.
"""

from __future__ import annotations

import re
from fractions import Fraction as Rat
from math import gcd, lcm
from operator import mul

from .errors import InputError

Vec = tuple[Rat, ...]
Mat = tuple[Vec, ...]

ZERO = Rat(0)
ONE = Rat(1)

# An optional sign and ASCII digits; `int` alone would also take
# underscores, inner whitespace and non-ASCII digits.
_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_rational(text: str) -> Rat:
    """Parse "p" or "p/q", where p and q are integers written as an
    optional sign and ASCII digits, and q > 0."""
    num, slash, den = text.strip().partition("/")
    if not _INTEGER.fullmatch(num) or (slash and not _INTEGER.fullmatch(den)):
        raise InputError(f"malformed rational {text!r}")
    if slash:
        p, q = int(num), int(den)
        if q == 0:
            raise InputError(f"zero denominator in rational {text!r}")
        if q < 0:
            raise InputError(f"negative denominator in rational {text!r}")
        return Rat(p, q)
    return Rat(int(num))


def format_rational(x: Rat) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def vec(entries) -> Vec:
    """`int`, `Fraction` and "p" or "p/q" string entries as exact
    `Fraction`s; a float, a bool or a Decimal raises InputError."""
    entries = tuple(entries)
    check_exact("vector", [e for e in entries if type(e) is not str])
    return tuple([parse_rational(e) if type(e) is str else Rat(e) for e in entries])


def mat(rows) -> Mat:
    return tuple([vec(r) for r in rows])


def zeros(n: int) -> Vec:
    return (ZERO,) * n


def unit(n: int, j: int) -> Vec:
    return tuple([ONE if i == j else ZERO for i in range(n)])


def dot(u: Vec, v: Vec) -> Rat:
    """u·v, each vector over its common denominator: one `Fraction`."""
    Lu, iu = scaled_ints(u)
    Lv, iv = scaled_ints(v)
    return Rat(sum(map(mul, iu, iv)), Lu * Lv)


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple([a + b for a, b in zip(u, v)])


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple([a - b for a, b in zip(u, v)])


def vscale(t: Rat, u: Vec) -> Vec:
    return tuple([t * a for a in u])


def scaled_ints(v) -> tuple[int, list[int]]:
    """(L, [L·a for a in v]) with L > 0 the lcm of the denominators: the one
    place a rational vector is put over the integers.  Every entry is an
    `int` or a `Fraction` (see `check_exact`); the empty vector gives L = 1."""
    L = lcm(*[a.denominator for a in v])
    return L, [a.numerator * (L // a.denominator) for a in v]


def common_ints(vectors) -> tuple[int, list[list[int]]]:
    """(L, [[L·a for a in v] for v in vectors]) with L > 0 the lcm of every
    denominator, so the vectors over one common denominator; L = 1 if none."""
    L = lcm(*[a.denominator for v in vectors for a in v])
    return L, [[a.numerator * (L // a.denominator) for a in v] for v in vectors]


def common_scaled(rows) -> tuple[int, list[list[int]]]:
    """Rows (L_i, L_i·v_i) as `scaled_ints` gives them, over one common
    denominator: (L, [L·v_i]) with L > 0 the lcm of the L_i; L = 1 if none."""
    L = lcm(*[s for s, _ in rows])
    return L, [[k * (L // s) for k in v] for s, v in rows]


def combination(coeffs, rows, width: int) -> list[int]:
    """Σ c_i·v_i times a positive integer, over rational c_i and rows
    (L_i, L_i·v_i) of length `width`, each side over one denominator."""
    _, c = scaled_ints(coeffs)
    _, vs = common_scaled(rows)
    return [sum(map(mul, c, col)) for col in zip(*vs)] if vs else [0] * width


def frac_vec(q: int, p) -> Vec:
    """The point p / q, q > 0, as `Fraction`s."""
    return tuple([Rat(k, q) for k in p])


def frac_vecs(vectors) -> list[Vec]:
    """`frac_vec(q, p)` for each pair (q, p), q > 0, in order.  A table that
    lives for this one call builds the `Fraction` k / q once per distinct
    (k, q) and shares it among those entries, which is safe because a
    `Fraction` is immutable; the answers of a conversion repeat a few
    small values."""
    tables: dict[int, dict[int, Rat]] = {}
    out = []
    for q, p in vectors:
        table = tables.get(q)
        if table is None:
            table = tables[q] = {}
        row = []
        for k in p:
            f = table.get(k)
            if f is None:
                f = table[k] = Rat(k, q)
            row.append(f)
        out.append(tuple(row))
    return out


def common_points(gens) -> tuple[int, list[list[int]]]:
    """Points x / t given as integers (x, t), t > 0, over one common
    denominator: (T, [T·x / t]), T the lcm of the t's."""
    return common_scaled([(g[-1], g[:-1]) for g in gens])


def primitive(ints) -> tuple[int, ...]:
    """Integers divided by their gcd, so coprime; the zero vector is left
    as it is.  Positive scaling only, so directions are preserved."""
    g = gcd(*ints)
    if g > 1:
        return tuple([k // g for k in ints])
    return tuple(ints)


def check_exact(what: str, entries) -> None:
    """Every entry is exactly an `int` or a `Fraction`: a float, a Decimal or
    a bool would make comparisons inexact or fail deep inside a computation."""
    for a in entries:
        if type(a) is not Rat and type(a) is not int:
            raise InputError(f"{what}: entry {a!r} is not an int or Fraction")


def check_block(rows: Mat, rhs: Vec, n: int, what: str) -> None:
    """Shape and exactness of one constraint block rows·x (<= or =) rhs."""
    if len(rows) != len(rhs):
        raise InputError(f"{what}: {len(rows)} rows but {len(rhs)} right-hand sides")
    for row in rows:
        if len(row) != n:
            raise InputError(f"{what}: row of length {len(row)}, expected {n}")
    check_exact(what, rhs)
    for row in rows:
        check_exact(what, row)
