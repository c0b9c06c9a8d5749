"""Deterministic point sampling for the "for all points" quantifiers.

Samples are generator points, pairwise midpoints, the canonical
relative-interior point, ray-shifted points for unbounded sets, and a
fixed number of seeded random rational convex combinations.  For one seed
the sample list is reproducible byte for byte.
"""

from __future__ import annotations

import random
from operator import mul

from .polyhedra import HPolyhedron, h_to_v
from .rational import Rat, Vec, common_ints, vadd
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
    # Midpoints and combinations over the points' common denominator L.
    L, ints = common_ints(pts)
    samples: list[Vec] = list(pts)
    mids = 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if mids >= midpoint_cap:
                break
            samples.append(tuple([Rat(a + b, 2 * L) for a, b in zip(ints[i], ints[j])]))
            mids += 1
    center = ri_point(P)
    samples.append(center)
    for r in V.rays[:_RAY_SHIFTS]:
        samples.append(vadd(center, r))
        if pts:
            samples.append(vadd(pts[0], r))
    rng = random.Random(seed)
    columns = list(zip(*ints))
    for _ in range(random_combos):
        if not pts:
            break
        weights = [rng.randint(0, 4) for _ in pts]
        total = sum(weights)
        if total == 0:
            continue
        samples.append(tuple([Rat(sum(map(mul, weights, col)), L * total) for col in columns]))
    seen = set()
    out = []
    for s in samples:
        if s not in seen:
            seen.add(s)
            out.append(s)
    return out
