"""Deterministic point sampling for the "for all points" quantifiers.

Samples are generator points, pairwise midpoints, the canonical
relative-interior point, ray-shifted points for unbounded sets, and a
fixed number of seeded random rational convex combinations.  For one seed
the sample list is reproducible byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .polyhedra import HPolyhedron, h_to_v
from .rational import Rat, Vec, vadd, vscale
from .relint import ri_point

# How many rays shift the center and the first generator point.
_RAY_SHIFTS = 2


def sample_points(
    P: HPolyhedron,
    seed: int = 0,
    midpoint_cap: int = 12,
    random_combos: int = 10,
) -> list[Vec]:
    """Deterministic sample of points of nonempty P covering faces of all
    dimensions at desk scale."""
    V = h_to_v(P)
    pts = list(V.points)
    samples: list[Vec] = list(pts)
    mids = 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if mids >= midpoint_cap:
                break
            samples.append(vscale(Rat(1, 2), vadd(pts[i], pts[j])))
            mids += 1
    center = ri_point(P)
    samples.append(center)
    for r in V.rays[:_RAY_SHIFTS]:
        samples.append(vadd(center, r))
        if pts:
            samples.append(vadd(pts[0], r))
    rng = random.Random(seed)
    for _ in range(random_combos):
        if not pts:
            break
        weights = [rng.randint(0, 4) for _ in pts]
        total = sum(weights)
        if total == 0:
            continue
        combo = tuple(
            sum((Fraction(w, total) * p[j] for w, p in zip(weights, pts)),
                Fraction(0))
            for j in range(P.dim)
        )
        samples.append(combo)
    seen = set()
    out = []
    for s in samples:
        if s not in seen:
            seen.add(s)
            out.append(s)
    return out
