"""Double description method for polyhedral cones over exact integers.

Computes generators (lineality basis plus extreme rays) of a cone given
as {y : m·y <= 0 for integer rows m}, as `HPolyhedron` caches them or
`rational.scaled_ints` makes them.  Rows are normalized to coprime
integer vectors and inserted in lexicographic order.  Every ray carries
its zero set over the rows inserted so far as a bitmask, and since the
current rays are exactly the extreme rays modulo the lineality,
adjacency is decided combinatorially on those masks (Motzkin, Raiffa,
Thompson and Thrall 1953; Fukuda and Prodon 1996).  Working over
integers keeps the inner products cheap; directions are rescaled by
positive factors only, so ray orientations are never flipped.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import mul

from .rational import primitive

IVec = tuple[int, ...]


def _idot(u: IVec, v: IVec) -> int:
    return sum(map(mul, u, v))


def _sign_canonical(v: IVec) -> IVec:
    """Flip so the first nonzero entry is positive (lineality only)."""
    for k in v:
        if k > 0:
            return v
        if k < 0:
            return tuple([-a for a in v])
    return v


class _Ray:
    __slots__ = ("vec", "mask")

    def __init__(self, vec: IVec, mask: int):
        self.vec = vec
        self.mask = mask


def dd_cone(rows: list[Sequence[int]], dim: int) -> tuple[list[IVec], list[IVec]]:
    """Generators of {y in R^dim : m·y <= 0 for every row m}.

    Returns (lineality basis, extreme rays) as primitive integer vectors;
    the represented cone is span(lineality) + cone(rays).
    """
    unit_rows = sorted({primitive(r) for r in rows} - {(0,) * dim})
    lineality: list[IVec] = [
        tuple([1 if i == j else 0 for i in range(dim)]) for j in range(dim)
    ]
    rays: list[_Ray] = []
    for k, m in enumerate(unit_rows):
        lin_dots = [_idot(m, l) for l in lineality]
        hit = next((j for j, s in enumerate(lin_dots) if s != 0), None)
        if hit is not None:
            l0, s0 = lineality[hit], lin_dots[hit]
            new_lin = []
            for j, l in enumerate(lineality):
                if j == hit:
                    continue
                s = lin_dots[j]
                if s == 0:
                    new_lin.append(l)
                else:
                    new_lin.append(_sign_canonical(primitive(
                        [a * s0 - b * s for a, b in zip(l, l0)])))
            lineality = new_lin
            new_rays = []
            for ray in rays:
                s = _idot(m, ray.vec)
                if s == 0:
                    ray.mask |= 1 << k
                    new_rays.append(ray)
                else:
                    # r - (s/s0) l0, rescaled positively to integers; l0
                    # is orthogonal to every processed row, so the zero
                    # set of r carries over.
                    shifted = [a * s0 - b * s for a, b in zip(ray.vec, l0)]
                    if s0 < 0:
                        shifted = [-a for a in shifted]
                    new_rays.append(_Ray(primitive(shifted), ray.mask | 1 << k))
            r0_vec = l0 if s0 < 0 else tuple([-a for a in l0])
            new_rays.append(_Ray(r0_vec, (1 << k) - 1))
            rays = new_rays
        else:
            pos, zero, neg = [], [], []
            for ray in rays:
                s = _idot(m, ray.vec)
                if s > 0:
                    pos.append((ray, s))
                elif s < 0:
                    neg.append((ray, s))
                else:
                    ray.mask |= 1 << k
                    zero.append(ray)
            kept = zero + [ray for ray, _ in neg]
            target = dim - len(lineality) - 2
            if pos and neg and target >= 0:
                # The pair is adjacent when its shared zero set has at least
                # `target` rows and no other current ray's zero set
                # contains it.  The new ray is zero exactly where both are:
                # both are <= 0 on every processed row and both
                # coefficients are positive.
                seen = {ray.vec for ray in kept}
                for rp, sp in pos:
                    for rn, sn in neg:
                        shared = rp.mask & rn.mask
                        if shared.bit_count() < target or any(
                                ray.mask & shared == shared
                                and ray is not rp and ray is not rn
                                for ray in rays):
                            continue
                        vec = primitive([
                            sp * bn - sn * bp
                            for bp, bn in zip(rp.vec, rn.vec)])
                        if vec not in seen:
                            seen.add(vec)
                            kept.append(_Ray(vec, shared | 1 << k))
            rays = kept
    return lineality, [ray.vec for ray in rays]
