"""Proper and strict separation with re-validating certificates."""

import random
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import random_nonempty_hpoly, random_pair
from relint_kit.errors import EmptySetError, InputError
from relint_kit.linalg import in_span
from relint_kit.polyhedra import AffineFlat, HPolyhedron, h_to_v
from relint_kit.rational import dot, vec
from relint_kit.relint import in_qri, ri_membership, ri_point
from relint_kit.sampling import sample_points
from relint_kit.separation import (
    NotSeparable,
    SeparationCertificate,
    Separated,
    _proves_ri_disjoint,
    _separate,
    properly_separable,
    properly_separate,
    qri_nonmembership_via_separation,
    separation_iff_ri_disjoint,
    strict_separate_in_flat,
    verify_certificate,
)

UNIT_SQUARE = HPolyhedron.make(A=[[1, 0], [-1, 0], [0, 1], [0, -1]], b=[1, 0, 1, 0])
SEGMENT = HPolyhedron.make(A=[[1, 0], [-1, 0]], b=[1, 0], E=[[0, 1]], d=[0])


def test_segment_inside_square_separates_properly():
    out = properly_separate(SEGMENT, UNIT_SQUARE)
    assert isinstance(out, Separated)
    cert = out.certificate
    assert cert.sup1 == cert.inf2 == 0
    assert dot(cert.functional, cert.strict_witness_1) < dot(
        cert.functional, cert.strict_witness_2
    )
    assert verify_certificate(SEGMENT, UNIT_SQUARE, cert)


def test_identical_squares_not_separable():
    out = properly_separate(UNIT_SQUARE, UNIT_SQUARE)
    assert isinstance(out, NotSeparable)
    assert out.common_point == vec(["1/2", "1/2"])
    assert ri_membership(UNIT_SQUARE, out.common_point).member


def test_disjoint_halflines():
    P1 = HPolyhedron.make(A=[[1]], b=[0])
    P2 = HPolyhedron.make(A=[[-1]], b=[-1])
    out = properly_separate(P1, P2)
    assert isinstance(out, Separated)
    assert out.certificate.sup1 == 0
    assert out.certificate.inf2 == 1
    assert verify_certificate(P1, P2, out.certificate)


def test_ray_only_strictness():
    # A point against a halfline leaving it: the strict pair needs a
    # synthesized point on the ray.
    P1 = HPolyhedron.singleton(vec([0, 0]))
    P2 = HPolyhedron.make(A=[[1, 0], [-1, 0], [0, 1]], b=[0, 0, 0])
    out = properly_separate(P1, P2)
    assert isinstance(out, Separated)
    assert verify_certificate(P1, P2, out.certificate)


def test_equal_singletons_share_their_point():
    S = HPolyhedron.singleton(vec([1, 1]))
    out = properly_separate(S, S)
    assert isinstance(out, NotSeparable)
    assert out.common_point == vec([1, 1])


def test_distinct_singletons_separate():
    out = properly_separate(
        HPolyhedron.singleton(vec([0])), HPolyhedron.singleton(vec([1]))
    )
    assert isinstance(out, Separated)


def test_empty_input_rejected():
    empty = HPolyhedron.make(A=[[1, 0], [-1, 0]], b=[0, -1], dim=2)
    with pytest.raises(EmptySetError):
        properly_separate(empty, UNIT_SQUARE)


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError):
        properly_separate(UNIT_SQUARE, HPolyhedron.make(A=[[1]], b=[1]))


def test_equivalence_on_spec_pairs():
    # Two unit squares sharing only an edge: separable, disjoint interiors.
    right = HPolyhedron.make(A=[[1, 0], [-1, 0], [0, 1], [0, -1]], b=[2, -1, 1, 0])
    rep = separation_iff_ri_disjoint(UNIT_SQUARE, right)
    assert rep.separated and rep.ri_disjoint and rep.agree
    # Overlapping squares: a common relative-interior point exists.
    big = HPolyhedron.make(A=[[1, 0], [-1, 0], [0, 1], [0, -1]], b=[2, 0, 2, 0])
    shifted = HPolyhedron.make(A=[[1, 0], [-1, 0], [0, 1], [0, -1]], b=[3, -1, 3, -1])
    rep = separation_iff_ri_disjoint(big, shifted)
    assert not rep.separated and not rep.ri_disjoint and rep.agree
    assert rep.common_point == vec(["3/2", "3/2"])
    # Nested segment and square from the proper-separation example.
    rep = separation_iff_ri_disjoint(SEGMENT, UNIT_SQUARE)
    assert rep.separated and rep.ri_disjoint and rep.agree


def test_equivalence_on_random_pairs():
    rng = random.Random(51)
    for _ in range(60):
        P1, P2 = random_pair(rng, rng.randint(1, 4), 6)
        rep = separation_iff_ri_disjoint(P1, P2)
        assert rep.agree
        if rep.separated:
            assert verify_certificate(P1, P2, rep.certificate)
        else:
            assert ri_membership(P1, rep.common_point).member
            assert ri_membership(P2, rep.common_point).member


def test_separation_symmetry():
    rng = random.Random(53)
    for _ in range(30):
        P1, P2 = random_pair(rng, rng.randint(1, 3), 5)
        a = isinstance(properly_separate(P1, P2), Separated)
        b = isinstance(properly_separate(P2, P1), Separated)
        assert a == b


def test_qri_separation_square_corner():
    rep = qri_nonmembership_via_separation(UNIT_SQUARE, vec([0, 0]))
    assert rep.nonmember
    assert rep.lemma_agrees
    assert rep.certificate is not None
    assert verify_certificate(
        HPolyhedron.singleton(vec([0, 0])), UNIT_SQUARE, rep.certificate
    )


def test_qri_separation_center_and_segment():
    rep = qri_nonmembership_via_separation(UNIT_SQUARE, vec(["1/2", "1/2"]))
    assert not rep.nonmember and rep.lemma_agrees
    rep = qri_nonmembership_via_separation(SEGMENT, vec(["1/2", 0]))
    assert not rep.nonmember and rep.lemma_agrees


def test_qri_separation_outside_point():
    rep = qri_nonmembership_via_separation(UNIT_SQUARE, vec([5, 5]))
    assert rep.nonmember and rep.lemma_agrees is None


def test_qri_separation_matches_normal_cone_predicate_on_random():
    rng = random.Random(57)
    for _ in range(40):
        P = random_nonempty_hpoly(rng, rng.randint(1, 4), 6)
        for x in sample_points(P, seed=2)[:4]:
            rep = qri_nonmembership_via_separation(P, x)
            assert rep.lemma_agrees
            assert rep.nonmember == (not in_qri(P, x))


def test_strict_separation_in_x_axis():
    L = AffineFlat(vec([0, 0]), (vec([1, 0]),), 2)
    P = HPolyhedron.make(A=[[1, 0], [-1, 0]], b=["1/2", 0], E=[[0, 1]], d=[0])
    u = strict_separate_in_flat(L, P, vec([1, 0]))
    assert in_span(L.directions, u)
    assert any(c != 0 for c in u)
    sup = max(dot(u, p) for p in h_to_v(P).points)
    assert sup < dot(u, vec([1, 0]))
    assert sup == Fraction(1, 2) * u[0]


def test_strict_separation_full_space():
    L = AffineFlat(vec([0, 0]), (vec([1, 0]), vec([0, 1])), 2)
    u = strict_separate_in_flat(L, UNIT_SQUARE, vec([2, 2]))
    sup = max(dot(u, p) for p in h_to_v(UNIT_SQUARE).points)
    assert sup < dot(u, vec([2, 2]))


def test_strict_separation_point_case():
    L = AffineFlat(vec([0, 0]), (vec([1, 0]),), 2)
    P = HPolyhedron.singleton(vec([0, 0]))
    u = strict_separate_in_flat(L, P, vec([1, 0]))
    assert dot(u, vec([0, 0])) < dot(u, vec([1, 0]))


def test_strict_separation_preconditions():
    L = AffineFlat(vec([0, 0]), (vec([1, 0]),), 2)
    with pytest.raises(InputError):
        strict_separate_in_flat(L, UNIT_SQUARE, vec([2, 0]))  # square not in L
    with pytest.raises(InputError):
        strict_separate_in_flat(
            L, HPolyhedron.singleton(vec([0, 0])), vec([0, 0])
        )  # point inside the set
    with pytest.raises(InputError):
        strict_separate_in_flat(
            AffineFlat(vec([1, 1]), (vec([1, 0]),), 2),
            HPolyhedron.singleton(vec([0, 0])),
            vec([1, 0]),
        )  # carrier is not a linear subspace
    plane = AffineFlat(vec([0, 0, 0]), (vec([1, 0, 0]), vec([0, 1, 0])), 3)
    with pytest.raises(InputError, match="dimension"):
        strict_separate_in_flat(plane, UNIT_SQUARE, vec([2, 0, 0]))  # set in R^2
    with pytest.raises(InputError, match="dimension"):
        strict_separate_in_flat(plane, UNIT_SQUARE, vec([2, 0]))


def test_strict_separation_random_subspace_instances():
    rng = random.Random(61)
    L = AffineFlat(vec([0, 0, 0]), (vec([1, 0, 0]), vec([0, 1, 0])), 3)
    for _ in range(20):
        # Random polytope inside the z = 0 plane, plus an outside point.
        P2 = random_nonempty_hpoly(rng, 2, 5)
        A = tuple(row + (Fraction(0),) for row in P2.A)
        E = tuple(row + (Fraction(0),) for row in P2.E) + ((vec([0, 0, 1])),)
        P = HPolyhedron(A, P2.b, E, P2.d + (Fraction(0),), 3)
        xbar = vec([rng.randint(-8, 8), rng.randint(-8, 8), 0])
        if P.contains(xbar):
            continue
        u = strict_separate_in_flat(L, P, xbar)
        assert in_span(L.directions, u)
        V = h_to_v(P)
        sup = max(dot(u, p) for p in V.points)
        assert all(dot(u, r) <= 0 for r in V.rays)
        assert sup < dot(u, xbar)


def test_verify_certificate_rejects_an_empty_set():
    from relint_kit.separation import SeparationCertificate

    interval = HPolyhedron.make(A=[[1], [-1]], b=[1, 0])
    cert = SeparationCertificate(vec([1]), vec([0])[0], vec([0])[0], vec([-1]), vec([1]))
    assert not verify_certificate(HPolyhedron.empty(1), interval, cert)
    assert not verify_certificate(interval, HPolyhedron.empty(1), cert)



def _floats(v):
    return tuple(float(a) for a in v)


# Each turns the valid certificate of SEGMENT against UNIT_SQUARE into a
# malformed one: inexact entries that compare equal to the exact ones, or
# fields of the wrong type or length.
MALFORMED = {
    "float functional": lambda c: replace(c, functional=_floats(c.functional)),
    "float sup1": lambda c: replace(c, sup1=float(c.sup1)),
    "float inf2": lambda c: replace(c, inf2=float(c.inf2)),
    "bool functional": lambda c: replace(c, functional=tuple(bool(a) for a in c.functional)),
    "None functional": lambda c: replace(c, functional=None),
    "float witness": lambda c: replace(c, strict_witness_1=_floats(c.strict_witness_1)),
    "string witness": lambda c: replace(c, strict_witness_2="01"),
    "Decimal bound": lambda c: replace(c, sup1=Decimal(0)),
    "short functional": lambda c: replace(c, functional=c.functional[:1]),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_verify_certificate_rejects_malformed_certificates(kind):
    cert = properly_separate(SEGMENT, UNIT_SQUARE).certificate
    assert verify_certificate(SEGMENT, UNIT_SQUARE, cert)
    assert verify_certificate(SEGMENT, UNIT_SQUARE, MALFORMED[kind](cert)) is False


def _line(*rows) -> HPolyhedron:
    """A set on the line from rows (a, b) of a·x <= b."""
    return HPolyhedron.make(A=[[a] for a, _ in rows], b=[b for _, b in rows], dim=1)


LOW, HIGH = _line((1, 1), (-1, 0)), _line((1, 3), (-1, -2))
OVERLAP1, OVERLAP2 = _line((1, 2), (-1, 0)), _line((1, 3), (-1, -1))
RIGHT_OF_0, LEFT_OF_2, FROM_1_TO_2 = _line((-1, 0)), _line((1, 2)), _line((1, 2), (-1, -1))


def _cert(functional, sup1, inf2, w1, w2):
    return SeparationCertificate(vec(functional), Fraction(sup1), Fraction(inf2),
                                 vec(w1), vec(w2))


# Each certificate breaks exactly one condition of the check, with every
# other condition holding: [0, 1] against [2, 3] has sup1 = 1 and inf2 = 2.
TAMPERED = {
    "sup1 off by one": (LOW, HIGH, _cert([1], 0, 2, [0], [3])),
    "inf2 off by one": (LOW, HIGH, _cert([1], 1, 3, [0], [3])),
    # [0, 2] against [1, 3]: the bounds are exact but cross.
    "crossing bounds": (OVERLAP1, OVERLAP2, _cert([1], 2, 1, [0], [3])),
    "witness outside its set": (LOW, HIGH, _cert([1], 1, 2, [-5], [3])),
    "pair not strict": (SEGMENT, UNIT_SQUARE, _cert([0, 1], 0, 0, [0, 0], [1, 0])),
    # [0, inf) against [1, 2]: the points give sup1 = 0, the ray 1 does not.
    "grows along a ray of P1": (RIGHT_OF_0, FROM_1_TO_2, _cert([1], 0, 1, [0], [1])),
    # [0, 1] against (-inf, 2]: the point gives inf2 = 2, the ray -1 does not.
    "falls along a ray of P2": (LOW, LEFT_OF_2, _cert([1], 1, 2, [0], [2])),
}


def test_untampered_certificates_verify():
    assert verify_certificate(LOW, HIGH, _cert([1], 1, 2, [0], [3]))
    assert verify_certificate(SEGMENT, UNIT_SQUARE, _cert([0, 1], 0, 0, [0, 0], [1, 1]))
    # Rays that lower x* on P1 and raise it on P2 leave the bounds finite.
    assert verify_certificate(_line((1, 0)), FROM_1_TO_2, _cert([1], 0, 1, [0], [1]))
    assert verify_certificate(LOW, _line((-1, -2)), _cert([1], 1, 2, [0], [2]))


@pytest.mark.parametrize("kind", sorted(TAMPERED))
def test_verify_certificate_rejects_tampered_evidence(kind):
    P1, P2, cert = TAMPERED[kind]
    assert verify_certificate(P1, P2, cert) is False


def test_not_separable_report_reuses_the_common_point():
    rng = random.Random(83)
    for _ in range(15):
        P1, P2 = random_pair(rng, 2, 4)
        out = properly_separate(P1, P2)
        rep = separation_iff_ri_disjoint(P1, P2)
        if isinstance(out, NotSeparable):
            assert rep.common_point == out.common_point
            assert not rep.separated and not rep.ri_disjoint


def test_ri_disjointness_check_accepts_valid_multipliers():
    below, above = HPolyhedron.make(A=[[1]], b=[0]), HPolyhedron.make(A=[[-1]], b=[0])
    far = HPolyhedron.make(A=[[-1]], b=[-1])
    # x <= 0 plus x >= 1 combine into 0 <= -1.
    assert _proves_ri_disjoint(below, far, vec([1, 1]), ())
    # x <= 0 plus x >= 0 combine into 0 <= 0, on rows strict in the interiors.
    assert _proves_ri_disjoint(below, above, vec([1, 1]), ())


def test_ri_disjointness_check_rejects_tampered_multipliers():
    # Each pair shares relative-interior points, and each set of
    # multipliers breaks exactly one condition of the check.
    upto1 = HPolyhedron.make(A=[[1]], b=[1])
    from0 = HPolyhedron.make(A=[[-1]], b=[0])
    from_half = HPolyhedron.make(A=[[-1]], b=["-1/2"])
    origin = HPolyhedron.make(A=[[1], [-1]], b=[0, 0])
    for P1, P2 in ((upto1, from0), (upto1, from_half), (origin, origin)):
        assert isinstance(properly_separate(P1, P2), NotSeparable)
    # A negative multiplier; otherwise 0 <= -1.
    assert not _proves_ri_disjoint(upto1, from0, vec([-1, -1]), ())
    # A nonzero combination -x <= -1/2; otherwise a negative constant.
    assert not _proves_ri_disjoint(upto1, from_half, vec([0, 1]), ())
    # A positive constant 0 <= 1.
    assert not _proves_ri_disjoint(upto1, from0, vec([1, 1]), ())
    # A zero constant whose positive multipliers sit on implicit rows.
    assert not _proves_ri_disjoint(origin, origin, vec([1, 1, 0, 0]), ())
    # Malformed: one multiplier per row is required.
    assert not _proves_ri_disjoint(upto1, from0, vec([1]), ())


def test_ri_disjointness_check_matches_the_separation_verdict():
    rng = random.Random(5151)
    n_separated = 0
    for _ in range(1000):
        P1, P2 = random_pair(rng, rng.randint(1, 3), 5)
        outcome, y, z = _separate(P1, P2)
        separated = isinstance(outcome, Separated)
        n_separated += separated
        assert _proves_ri_disjoint(P1, P2, y, z) == separated
    assert n_separated >= 300


def _with_free_coordinate(P: HPolyhedron) -> HPolyhedron:
    """P x R: a line along the new last coordinate."""
    def widen(rows):
        return tuple([row + (Fraction(0),) for row in rows])
    return HPolyhedron(widen(P.A), P.b, widen(P.E), P.d, P.dim + 1)


def test_separable_verdict_is_the_verdict_of_properly_separate():
    """The verdict `verify-corpus` reads for the qri lemma, {x} against P,
    is the one `properly_separate` returns, at vertices, points of lower
    faces and `ri_point`, on sets with lines, flats and equality rows in
    dimensions 0 to 4."""
    rng = random.Random(3402)
    seen = set()
    for trial in range(160):
        n = trial % 5
        if n == 0:
            P = HPolyhedron((), (), (), (), 0)
        elif n >= 2 and rng.random() < 0.3:
            P = _with_free_coordinate(random_nonempty_hpoly(rng, n - 1, n + 2, eq_prob=0.4))
        else:
            P = random_nonempty_hpoly(rng, n, n + 3, eq_prob=0.4)
        points = h_to_v(P).points + tuple(sample_points(P, seed=trial, midpoint_cap=4,
                                                        random_combos=1)) + (ri_point(P),)
        for x in points:
            singleton = HPolyhedron.singleton(x)
            verdict = properly_separable(singleton, P)
            assert verdict == isinstance(properly_separate(singleton, P), Separated)
            seen.add((P.dim, verdict))
    assert {(n, v) for n in range(1, 5) for v in (True, False)} <= seen
    assert (0, False) in seen


def test_readme_library_example_prints_its_functional(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## Library example", 1)[1].split("```python\n", 1)[1]
    example = example.split("```", 1)[0]
    assert "# (Fraction(0, 1), Fraction(1, 1))" in example
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out == "(Fraction(0, 1), Fraction(1, 1))\n"
