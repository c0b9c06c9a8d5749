"""Deterministic point sampling for the "for all points" quantifiers.

Samples are generator points, pairwise midpoints, the canonical
relative-interior point, ray-shifted points for unbounded sets, and a
fixed number of seeded random rational convex combinations.  For one seed
the sample list is reproducible byte for byte.  Every sample is built and
deduplicated as integers (p, q), keyed on primitive((p, q)), and only the
distinct ones become `Fraction` points.
"""

from __future__ import annotations

import random
from operator import mul

from .polyhedra import HPolyhedron
from .rational import Vec, common_points, frac_vec, primitive, scaled_ints
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
    # Each sample as its integers (p, q): the generator points (x, t) in the
    # order of `h_to_v`, then points built over their common denominator T.
    gens, directions = P._sorted_generators
    T, points = common_points(gens)
    samples = list(gens)
    mids = 0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if mids >= midpoint_cap:
                break
            samples.append((*[a + b for a, b in zip(points[i], points[j])], 2 * T))
            mids += 1
    q, c = scaled_ints(ri_point(P))
    samples.append((*c, q))
    for D in directions[:_RAY_SHIFTS]:
        samples.append((*[a + q * k for a, k in zip(c, D)], q))
        samples.append((*[a + T * k for a, k in zip(points[0], D)], T))
    rng = random.Random(seed)
    columns = list(zip(*points))
    for _ in range(random_combos):
        weights = [rng.randint(0, 4) for _ in points]
        total = sum(weights)
        if total == 0:
            continue
        samples.append((*[sum(map(mul, weights, col)) for col in columns], T * total))
    return [frac_vec(h[-1], h[:-1]) for h in dict.fromkeys(map(primitive, samples))]
