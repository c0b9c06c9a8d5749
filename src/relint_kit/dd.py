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

A caller that asks gets the rays' zero sets back, the incidence
`polyhedra` eliminates over.  The lineality update never reads a ray, so
`dd_lineality` runs it alone: `polyhedra.linear_image` rebuilds with it
the equalities double description would give an image, and the indices
at which every ray vanishes.
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


def _unit_rows(primitive_rows: list[IVec], dim: int) -> list[IVec]:
    """The primitive rows as double description inserts them: without
    repeats or the zero row, in lexicographic order."""
    return sorted(set(primitive_rows) - {(0,) * dim})


def _unit_basis(dim: int) -> list[IVec]:
    """The unit vectors of R^dim: the lineality basis before any row."""
    return [tuple([1 if i == j else 0 for i in range(dim)]) for j in range(dim)]


def _lineality_step(lineality: list[IVec], m: IVec) -> tuple[int, IVec, int] | None:
    """Insert the row m·y <= 0 into the lineality basis, in place.  None
    when m is orthogonal to every basis vector.  Otherwise the first
    basis vector with m·l0 != 0 leaves, oriented so that m·l0 = s0 > 0,
    every other one is made orthogonal to m, and (its position, l0, s0)
    is returned.  It never reads a ray, so the lineality depends on the
    inserted rows alone."""
    lin_dots = [sum(map(mul, m, l)) for l in lineality]
    if not any(lin_dots):
        return None
    hit = next(j for j, s in enumerate(lin_dots) if s)
    l0, s0 = lineality.pop(hit), lin_dots.pop(hit)
    if s0 < 0:
        l0, s0 = tuple([-a for a in l0]), -s0
    for j, s in enumerate(lin_dots):
        if s:
            lineality[j] = _sign_canonical(primitive([
                a * s0 - b * s for a, b in zip(lineality[j], l0)]))
    return hit, l0, s0


def dd_lineality(rows: list[Sequence[int]], dim: int) -> tuple[list[IVec], list[int]]:
    """The lineality basis `dd_cone` returns for these rows, by the same
    recurrence without rays, and for each basis vector the index of the
    unit vector it started as.  Each basis vector is nonzero at its own
    index and zero at the others' (a vector that leaves is zero at every
    index still held, and the update adds it to the others), and every
    ray of `dd_cone` is zero at all of them (each starts as a leaving
    vector, and the update and the pairing combine such vectors)."""
    lineality = _unit_basis(dim)
    own = list(range(dim))
    for m in _unit_rows([primitive(r) for r in rows], dim):
        step = _lineality_step(lineality, m)
        if step is not None:
            del own[step[0]]
    return lineality, own


def dd_cone(rows: list[Sequence[int]], dim: int, incidence: dict | None = None
            ) -> tuple[list[IVec], list[IVec]]:
    """Generators of {y in R^dim : m·y <= 0 for every row m}.

    Returns (lineality basis, extreme rays) as primitive integer vectors;
    the represented cone is span(lineality) + cone(rays).  A dict passed as
    `incidence` receives what the method read and kept: "rows", each of
    `rows` made primitive; "inserted", the distinct nonzero ones in the
    order of insertion; and "zero_sets", for each ray in order the bitmask
    of the inserted rows it is zero on, bit k for the k-th.
    """
    primitive_rows = [primitive(r) for r in rows]
    unit_rows = _unit_rows(primitive_rows, dim)
    lineality = _unit_basis(dim)
    # The current extreme rays, and for each the bitmask of the inserted
    # rows it is zero on.
    vecs: list[IVec] = []
    masks: list[int] = []
    for k, m in enumerate(unit_rows):
        bit = 1 << k
        left = _lineality_step(lineality, m) if lineality else None
        if left is not None:
            # l0 leaves the lineality and −l0 becomes a ray.
            _, l0, s0 = left
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
    if incidence is not None:
        incidence.update(rows=primitive_rows, inserted=unit_rows, zero_sets=masks)
    return lineality, vecs
