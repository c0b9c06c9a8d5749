"""Double description method for polyhedral cones over exact integers.

Computes generators (lineality basis plus extreme rays) of a cone given
as {y : m·y <= 0 for integer rows m}, as `HPolyhedron` caches them or
`rational.scaled_ints` makes them.  Rows are normalized to coprime
integer vectors and inserted in lexicographic order.  Every ray carries
its zero set over the inserted rows as a bitmask, and since the current
rays are exactly the extreme rays modulo the lineality, adjacency is
decided on those masks (Motzkin, Raiffa, Thompson and Thrall 1953;
Fukuda and Prodon 1996): a pair is adjacent when its shared zero set
has at least target = dim − len(lineality) − 2 rows and no third ray is
zero on all of them.

A simple ray, zero on exactly target + 1 rows, needs no such scan.  An
extreme ray's zero rows have rank target + 1, so these are independent.
A ray of the other sign shares a proper subset of them (else it would
lie on the simple ray's face and have its sign), so at least `target`
shared rows means exactly `target` independent ones, which cut out a
pointed 2-face modulo the lineality.  That face has just two
extreme rays, so the pair is adjacent.

Each new ray lies in the relative interior of its pair's 2-face, so no
two pairs give the same ray and none equals a kept one: no duplicate
check is needed.  Directions are rescaled by positive factors only, so
ray orientations are never flipped.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import mul

from .rational import primitive

IVec = tuple[int, ...]


def _sign_canonical(v: IVec) -> IVec:
    """v or −v, whichever has a positive first nonzero entry (tuples
    compare lexicographically).  Only lineality basis vectors come here,
    and those are never zero."""
    return max(v, tuple([-a for a in v]))


def dd_cone(rows: list[Sequence[int]], dim: int) -> tuple[list[IVec], list[IVec]]:
    """Generators of {y in R^dim : m·y <= 0 for every row m}.

    Returns (lineality basis, extreme rays) as primitive integer vectors;
    the represented cone is span(lineality) + cone(rays).
    """
    unit_rows = sorted({primitive(r) for r in rows} - {(0,) * dim})
    lineality: list[IVec] = [
        tuple([1 if i == j else 0 for i in range(dim)]) for j in range(dim)
    ]
    # The current extreme rays, and for each the bitmask of the inserted
    # rows it is zero on.
    vecs: list[IVec] = []
    masks: list[int] = []
    for k, m in enumerate(unit_rows):
        bit = 1 << k
        lin_dots = [sum(map(mul, m, l)) for l in lineality]
        if any(lin_dots):
            # Orient l0 so that m·l0 = s0 > 0; it leaves the lineality
            # and −l0 becomes a ray.
            hit = next(j for j, s in enumerate(lin_dots) if s)
            l0, s0 = lineality.pop(hit), lin_dots.pop(hit)
            if s0 < 0:
                l0, s0 = tuple([-a for a in l0]), -s0
            for j, s in enumerate(lin_dots):
                if s:
                    lineality[j] = _sign_canonical(primitive([
                        a * s0 - b * s for a, b in zip(lineality[j], l0)]))
            # r − (s/s0)·l0, rescaled by s0 > 0; l0 is orthogonal to
            # every processed row, so the zero set of r carries over.
            for i, v in enumerate(vecs):
                s = sum(map(mul, m, v))
                if s:
                    vecs[i] = primitive([a * s0 - b * s for a, b in zip(v, l0)])
                masks[i] |= bit
            vecs.append(tuple([-a for a in l0]))
            masks.append(bit - 1)
            continue
        dots = [sum(map(mul, m, v)) for v in vecs]
        # Plain loops: most calls hold a handful of rays, where setting up
        # a comprehension costs more than the loop it replaces.
        pos, neg, kept_vecs, kept_masks = [], [], [], []
        for i, s in enumerate(dots):
            if s > 0:
                pos.append(i)
            elif s < 0:
                neg.append(i)
            else:
                kept_vecs.append(vecs[i])
                kept_masks.append(masks[i] | bit)
        for j in neg:
            kept_vecs.append(vecs[j])
            kept_masks.append(masks[j])
        target = dim - len(lineality) - 2
        if pos and neg and target >= 0:
            simple = target + 1
            neg_simple = [masks[j].bit_count() == simple for j in neg]
            for i in pos:
                mp, vp, sp = masks[i], vecs[i], dots[i]
                p_simple = mp.bit_count() == simple
                for j, n_simple in zip(neg, neg_simple):
                    shared = mp & masks[j]
                    if shared.bit_count() < target:
                        continue
                    if not (p_simple or n_simple):
                        # Both rays are zero on `shared`; a third one
                        # makes the pair non-adjacent.
                        holders = 0
                        for mask in masks:
                            if mask & shared == shared:
                                holders += 1
                                if holders == 3:
                                    break
                        if holders == 3:
                            continue
                    # Zero exactly where both are: both are <= 0 on every
                    # processed row and both coefficients are positive.
                    sn = dots[j]
                    kept_vecs.append(primitive([
                        sp * bn - sn * bp for bp, bn in zip(vp, vecs[j])]))
                    kept_masks.append(shared | bit)
        vecs, masks = kept_vecs, kept_masks
    return lineality, vecs
