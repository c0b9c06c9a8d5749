"""Golden report hashes: refactors of the solver or the interior calculus
must leave these CLI reports byte-identical.

A change that alters these bytes on purpose (for example a new pivot rule
that moves ri-point outputs) updates the hashes here and states why in
CHANGES.md.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import random_cone_rows, random_nonempty_hpoly, random_pair
from relint_kit import lp
from relint_kit.cli import main
from relint_kit.dd import dd_cone
from relint_kit.errors import RelintKitError
from relint_kit.lp import Infeasible, LPProblem, Optimal, Unbounded, lp_solve
from relint_kit.polyhedra import (
    AffineFlat,
    HPolyhedron,
    PolyCone,
    cone_contains,
    h_to_v,
    linear_image,
    minkowski_diff,
)
from relint_kit.rational import (
    ZERO,
    dot,
    matvec,
    primitive_int,
    unit,
    vadd,
    vneg,
    vscale,
    vsub,
    zeros,
)
from relint_kit.relint import (
    characterization_suite,
    conic_hull_at,
    in_iri,
    in_qri,
    in_ri,
    normal_cone,
    prolongation_test,
    ri_membership,
    ri_point,
)
from relint_kit.sampling import sample_points
from relint_kit.separation import (
    NotSeparable,
    Separated,
    properly_separate,
    separation_iff_ri_disjoint,
    strict_separate_in_flat,
)
from relint_kit.setmaps import linear_image_ri_commutes, set_difference_ri_commutes

CORPUS = Path(__file__).resolve().parents[1] / "src" / "relint_kit" / "corpus"

VERIFY_CORPUS = {
    0: "a8f099e8d57eb885028a75043c5f13c4817b757d72c3d732ad8680b68e8ddf7e",
    7: "5cbc0b04a6f1fdd8adab015b4b8b45dd41ef4f09cd34a2d2564e59489f5d23a0",
}

RI_POINT = {
    "cross-poly-2d": "d1d1c145c649ea7a80185dc1bc62ec4459baf2377c88ad38aef90a1543cb9b1e",
    "cross-poly-3d": "6696738d1a310410301d46e2e5b0c10784da3adcbfae2bffb63bc6749a003f1a",
    "cube-unit": "e345bf13e481edeea18dd5ac1fc95a893429ad9dfa9d9202c492b69ea0083688",
    "halfline-neg": "7d6ade4ee2ee9adb801ae72d72696c3fb9ed73204ba2860e52a36a5e5c0e2500",
    "interval-01": "c1bc882c1ca4b209c20da359c062309720a14cfa31261e09b7a3c047bced6184",
    "line-x-axis": "19c137b96d98ca27eb3c2d776159747fb61dda6e2764c6849c2feffd39e4e1b4",
    "quadrant": "859c9a9284cdf8332a75b5969d6215b3c9cd792c647e4630ee264dca46fb4415",
    "segment-diag": "60c31d93bcad14e6436d874363b2f8c6e5fc789630efd0c35203b686d4156a4f",
    "segment-x01": "23ff03db768764ce69ced3bd1b371649388e2fb0e0ae1c3d8e0ef70543ca8ef2",
    "singleton-12": "9135b6709f8ecbf0211799223e2c5c91d4f61df2e14d4f5af793f55add605728",
    "square-0-2": "345baaeba2919d35942568770360c480c0a58d4e5b712b0a0a987f97f017d30f",
    "square-1-3": "f708195283645819b9beb8c91e21857e6bf5af00511347144c712588581a3dcc",
    "square-unit": "0664771bf791ceb8cd6255457d184c1ff39dc2f0c7c4ac919217c1d7bccfc6fe",
    "triangle": "f179c4891eb48e8e76b6d98528347f0b0799af20a9dfaa42577dc0ca7cb19587",
    "wedge": "cd333e51636f6d974319dca8a5b9fa020b3dc8bdb7c72a47be96f22b9007a29a",
}


def _report_hash(tmp_path, capsys, *argv) -> str:
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", sorted(VERIFY_CORPUS))
def test_verify_corpus_report_is_pinned(tmp_path, capsys, seed):
    got = _report_hash(tmp_path, capsys, "verify-corpus", "--seed", str(seed))
    assert got == VERIFY_CORPUS[seed]


def test_ri_point_reports_are_pinned(tmp_path, capsys):
    hpolys = sorted(
        p.stem for p in CORPUS.glob("*.json")
        if json.loads(p.read_text())["kind"] == "hpoly"
    )
    assert set(RI_POINT) | {"empty-interval"} == set(hpolys)
    for ident in sorted(RI_POINT):
        got = _report_hash(tmp_path, capsys, "ri-point", str(CORPUS / f"{ident}.json"))
        assert got == RI_POINT[ident], ident


def test_ri_point_of_empty_corpus_set_is_an_input_error(capsys):
    assert main(["ri-point", str(CORPUS / "empty-interval.json")]) == 2
    assert capsys.readouterr().err == "error: operation requires a nonempty polyhedron\n"


# Every single-run command on corpus documents.  A bare word names a corpus
# document and `cert` the certificate that the first `separate` case writes;
# values go as `--point=...`, the spelling the pins were recorded with
# (`main` reads `--point -1,0` as `--point=-1,0`).
CLI_CASES = (
    "ri-check square-unit --point=1/2,1/2",
    "ri-check square-unit --point=1,1/2",
    "ri-check square-unit --point=2,0",
    "ri-check segment-x01 --point=1/2,1",
    "ri-check quadrant --point=-1,0 --seed=5",
    "suite segment-x01 --point=1/2,0",
    "suite triangle --point=0,0",
    "suite wedge --point=1,1/2",
    "suite line-x-axis --point=3,0",
    "suite cube-unit --point=1/2,1/2,1",
    "normal-cone square-unit --point=1,1",
    "normal-cone quadrant --point=0,0",
    "normal-cone triangle --point=1/3,1/3",
    "normal-cone segment-diag --point=1,1",
    "separate square-unit square-1-3 --out=cert",
    "separate square-unit square-1-3",
    "separate square-unit square-0-2",
    "separate interval-01 halfline-neg",
    "separate segment-x01 line-x-axis",
    "separate triangle wedge",
    "qri-sep square-unit --point=1,1/2",
    "qri-sep square-unit --point=2,2",
    "qri-sep segment-x01 --point=1/2,0",
    "qri-sep quadrant --point=0,0",
    "graph-ri map-halfline --point=1,1",
    "graph-ri map-halfline --point=0,0",
    "graph-ri map-point --point=0,0",
    "graph-ri map-slice-degenerate --point=1/2,1/4",
    "graph-ri map-slice-degenerate --point=0,0",
    "epi-ri fn-abs --point=0 --level=0",
    "epi-ri fn-abs --point=0 --level=1",
    "epi-ri fn-hinge --point=1 --level=0",
    "epi-ri fn-affine --point=1/2 --level=2",
    "epi-ri fn-flat-segment --point=1/2,0 --level=0",
    "image-ri square-unit --matrix=1,0",
    "image-ri triangle --matrix=1,1",
    "image-ri cube-unit --matrix=1,0,0;0,1,0",
    "image-ri segment-x01 --matrix=0,1",
    "diff-ri square-unit square-0-2",
    "diff-ri interval-01 halfline-neg",
    "diff-ri segment-x01 segment-diag",
    "seq-classify seq-boundary-e1",
    "seq-classify seq-gap-witness",
    "seq-classify seq-interior",
    "seq-classify seq-neg-tail",
    "seq-classify seq-scaled-witness",
    "seq-classify seq-zero --seed=3",
    "verify cert square-unit square-1-3",
    "verify cert square-1-3 square-unit",
    "verify cert square-unit square-0-2",
    # input errors, exit 2
    "ri-check fn-abs --point=0",
    "suite square-unit",
    "epi-ri fn-abs --point=0",
    "graph-ri map-halfline --point=1",
    "image-ri square-unit",
    "separate square-unit",
    "verify cert square-unit",
)
CLI_REPORTS = "cac3c6636c59bbb32e921508181cf3f55874fca79031d9c43a61b7389acb8a04"


def test_cli_reports_are_pinned(tmp_path, capsys):
    """Exit code, stdout and stderr of each case run to stdout, then the
    same with `--out`, and the bytes written there."""
    cert = tmp_path / "cert.json"
    h = hashlib.sha256()
    for case in CLI_CASES:
        argv = []
        for word in case.split():
            if word == "--out=cert":
                argv += ["--out", str(cert)]
            elif word == "cert":
                argv.append(str(cert))
            elif not word.startswith("-"):
                argv.append(word if not argv else str(CORPUS / f"{word}.json"))
            else:
                argv.append(word)
        out = tmp_path / "report.json"
        runs = [argv] if "--out" in argv else [argv, [*argv, "--out", str(out)]]
        for run in runs:
            out.unlink(missing_ok=True)
            code = main(run)
            captured = capsys.readouterr()
            h.update(f"{case}\n{code}\n{captured.out}\n{captured.err}\n".encode())
            if out.exists():
                h.update(out.read_bytes())
    assert h.hexdigest() == CLI_REPORTS


# -- pivot paths -------------------------------------------------------------
#
# The pins below hash `repr` of solver outcomes, pivot counts included, so a
# change to the tableau encoding that alters even one Bland's-rule pivot
# shows here, not only a change in the final answers.


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def _rat(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 1, 2, 3)))


def _random_lp(rng: random.Random) -> LPProblem:
    """Small LP with max or min sense and optional equality rows; the mix
    covers optimal, infeasible and unbounded outcomes."""
    n = rng.randint(1, 4)
    m1 = rng.randint(0, 5)
    m2 = rng.choice((0, 0, 1, 2))
    A = tuple(tuple(_rat(rng) for _ in range(n)) for _ in range(m1))
    b = tuple(_rat(rng) + rng.randint(-1, 3) for _ in range(m1))
    E = tuple(tuple(_rat(rng) for _ in range(n)) for _ in range(m2))
    d = tuple(_rat(rng) for _ in range(m2))
    c = tuple(_rat(rng) for _ in range(n))
    return LPProblem(c, rng.choice(("max", "min")), A, b, E, d)


LP_OUTCOMES = "bf7e6a002294e39df60bd95f756e47b7da007357b4ffa0292e58f3221f05058d"
SEPARATION = "9d7fcc506d138927492e66c0e32de9cfc56a081918ea10050c436feb7fc1225d"
WITNESS_PAIRS = "fe7cf473281e5081de3096ab6468766f2e0d437682e36c1bda4c91b2eaef1560"
STRICT_IN_FLAT = "0d73cba9abb681c95cfe6f711c05fc8b27880b3bef6b70ecd4134bf1c9c275a6"
CONE_VERDICTS = "2e0af92bd6db93faa2cd3a29f551c2c146ad2519828d81072d14ed1ca612fe33"
WIDE_LP_OUTCOMES = "cde4a8cd774afb07f93e57c86f57467140beb20b1b48775f79c5627c2e656e6b"
DD_CONES = "2aee486e777e10c8dd2c5d150fdbd304aa37ea0c93f6af72e9911f88af4d6462"
POINT_PREDICATES = "39ee2333da2f01d906c0c6889a2edaa0929c5bb671cedfced143f7bfb0b21d23"
LINEAR_IMAGES = "a434a64bd4d20d0387996602c70978f34e72c6f14dc9bc0b7ff4f5869f69dd75"
MINKOWSKI_DIFFS = "8fd489531d47a3de6ab10e5c148b34d3670213f55689b28eb6d808541e5e680d"
SAMPLE_POINTS = "52c217ee2823c32bc8aef3a45ee736cfda1718c37284b95e3db22684dd88bad5"


def test_lp_outcomes_and_pivot_counts_are_pinned():
    rng = random.Random(4001)
    outcomes = [lp_solve(_random_lp(rng)) for _ in range(300)]
    kinds = {type(o) for o in outcomes}
    assert kinds == {Optimal, Infeasible, Unbounded}
    assert _digest(outcomes) == LP_OUTCOMES


# Coprime denominators up to 97 and six-digit numerators: the lcm of one
# row's denominators reaches millions, far past the {1, 2, 3} above, so a
# tableau that scales rows to integers is exercised on wide scales.
WIDE_DENOMINATORS = (1, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                     59, 61, 67, 71, 73, 79, 83, 89, 97, 30, 77, 91)


def _wide_rat(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-10**6, 10**6), rng.choice(WIDE_DENOMINATORS))


def _wide_lp(rng: random.Random) -> LPProblem:
    """LP with wide denominators, equality rows (whose negated copies start
    phase one) and, in some draws, a box of one-variable rows so that
    optimal outcomes occur beside infeasible and unbounded ones."""
    n = rng.randint(1, 4)
    m1 = rng.randint(0, 5)
    m2 = rng.choice((0, 1, 1, 2))
    A = [tuple(_wide_rat(rng) for _ in range(n)) for _ in range(m1)]
    b = [_wide_rat(rng) for _ in range(m1)]
    if rng.random() < 0.4:
        for j in range(n):
            for sign in (1, -1):
                a = Fraction(sign * rng.randint(1, 97), rng.choice(WIDE_DENOMINATORS))
                A.append(tuple(a if k == j else ZERO for k in range(n)))
                b.append(Fraction(rng.randint(1, 10**6), rng.choice(WIDE_DENOMINATORS)))
    E = tuple(tuple(_wide_rat(rng) for _ in range(n)) for _ in range(m2))
    d = tuple(_wide_rat(rng) for _ in range(m2))
    c = tuple(_wide_rat(rng) for _ in range(n))
    return LPProblem(c, rng.choice(("max", "min")), tuple(A), tuple(b), E, d)


def test_wide_denominator_lp_outcomes_are_pinned():
    # Of these 200 LPs (79 optimal, 70 infeasible, 51 unbounded), 13 of the
    # unbounded ones end with Bland's rule entering a slack column, so their
    # rays depend on how slack columns are scaled.
    rng = random.Random(4005)
    outcomes = [lp_solve(_wide_lp(rng)) for _ in range(200)]
    assert {type(o) for o in outcomes} == {Optimal, Infeasible, Unbounded}
    assert _digest(outcomes) == WIDE_LP_OUTCOMES


def test_separation_outcomes_are_pinned():
    rng = random.Random(4002)
    outcomes = []
    for _ in range(40):
        P1, P2 = random_pair(rng, rng.randint(1, 3), 5)
        outcomes.append(properly_separate(P1, P2))
    assert {type(o) for o in outcomes} == {Separated, NotSeparable}
    assert _digest(outcomes) == SEPARATION


def _witness_group(P1: HPolyhedron, P2: HPolyhedron, cert) -> int | None:
    """Which candidate group the strict witness pair comes from, read off
    the generators: 1 the extreme points (top1, bot2), 2 a point of P1
    with bot2, 3 top1 with a point of P2, 4 top1 moved along a ray of P1
    with bot2, 5 top1 with bot2 moved along a ray of P2."""
    V1, V2 = h_to_v(P1), h_to_v(P2)
    vals1 = [dot(cert.functional, p) for p in V1.points]
    vals2 = [dot(cert.functional, p) for p in V2.points]
    top1 = V1.points[vals1.index(max(vals1))]
    bot2 = V2.points[vals2.index(min(vals2))]
    w1, w2 = cert.strict_witness_1, cert.strict_witness_2
    if (w1, w2) == (top1, bot2):
        return 1
    if w2 == bot2 and w1 in V1.points:
        return 2
    if w1 == top1 and w2 in V2.points:
        return 3
    if w2 == bot2 and vsub(w1, top1) in V1.rays:
        return 4
    if w1 == top1 and vsub(w2, bot2) in V2.rays:
        return 5
    return None


def _interval(lo, hi) -> HPolyhedron:
    """[lo, hi] on the line; None leaves that end open to infinity."""
    A, b = [], []
    if hi is not None:
        A.append([1])
        b.append(hi)
    if lo is not None:
        A.append([-1])
        b.append(-lo)
    return HPolyhedron.make(A=A, b=b, dim=1)


SQUARE = HPolyhedron.make(A=[[1, 0], [-1, 0], [0, 1], [0, -1]], b=[1, 0, 1, 0])
Y_AXIS = HPolyhedron.make(E=[[1, 0]], d=[0])


# One crafted pair per candidate group; pairs where groups i and i + 1 both
# hold a strict pair and the earlier must win, so that any reordering of
# the groups shows; pairs where two candidates of one group are strict and
# the first must win; then seeded pairs.
WITNESS_CASES = (
    (_interval(0, 1), _interval(2, 3)),
    (_interval(-1, 0), _interval(0, 0)),
    (_interval(0, 0), _interval(0, 1)),
    (_interval(None, 0), _interval(0, 0)),
    (_interval(0, 0), _interval(0, None)),
    (_interval(-1, 0), _interval(0, 1)),
    (_interval(None, 0), _interval(0, 1)),
    (_interval(None, 0), _interval(0, None)),
    # The unit square against its right edge, and its left edge against it.
    (SQUARE, HPolyhedron.make(A=[[0, 1], [0, -1]], b=[1, 0], E=[[1, 0]], d=[1])),
    (HPolyhedron.make(A=[[0, 1], [0, -1]], b=[1, 0], E=[[1, 0]], d=[0]), SQUARE),
    # The cones spanned by (-1, 0) and (-1, 1), and by (1, 0) and (1, 1).
    (HPolyhedron.make(A=[[0, -1], [1, 1]], b=[0, 0]), Y_AXIS),
    (Y_AXIS, HPolyhedron.make(A=[[0, -1], [-1, 1]], b=[0, 0])),
)


def test_witness_pair_choice_is_pinned():
    rng = random.Random(4006)
    pairs = list(WITNESS_CASES)
    pairs += [random_pair(rng, rng.randint(1, 3), 5) for _ in range(60)]
    certificates, groups = [], []
    for P1, P2 in pairs:
        outcome = properly_separate(P1, P2)
        if isinstance(outcome, Separated):
            certificates.append(outcome.certificate)
            groups.append(_witness_group(P1, P2, outcome.certificate))
    assert groups[:12] == [1, 2, 3, 4, 5, 2, 3, 4, 2, 3, 4, 5]
    assert set(groups[12:]) == {1, 2, 4, 5}
    assert _digest(certificates) == WITNESS_PAIRS


def test_strict_separation_in_flat_is_pinned():
    rng = random.Random(4003)
    plane = AffineFlat(zeros(3), (unit(3, 0), unit(3, 1)), 3)
    space = AffineFlat(zeros(2), (unit(2, 0), unit(2, 1)), 2)
    functionals = []
    while len(functionals) < 30:
        Q = random_nonempty_hpoly(rng, 2, 5)
        if rng.random() < 0.5:
            L, P = space, Q
            xbar = (Fraction(rng.randint(-6, 6)), Fraction(rng.randint(-6, 6)))
        else:
            A = tuple(row + (ZERO,) for row in Q.A)
            E = tuple(row + (ZERO,) for row in Q.E) + (unit(3, 2),)
            L, P = plane, HPolyhedron(A, Q.b, E, Q.d + (ZERO,), 3)
            xbar = (Fraction(rng.randint(-6, 6)), Fraction(rng.randint(-6, 6)), ZERO)
        if not P.contains(xbar):
            functionals.append(strict_separate_in_flat(L, P, xbar))
    assert _digest(functionals) == STRICT_IN_FLAT


def test_cone_membership_verdicts_are_pinned():
    rng = random.Random(4004)
    verdicts = []
    for _ in range(200):
        n = rng.randint(1, 4)
        gens = tuple(tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
                     for _ in range(rng.randint(0, 6)))
        if gens and rng.random() < 0.5:
            v = zeros(n)
            for g in gens:
                v = vadd(v, vscale(Fraction(rng.randint(0, 3)), g))
        else:
            v = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
        verdicts.append(cone_contains(PolyCone(gens, n), v))
    assert set(verdicts) == {True, False}
    assert _digest(verdicts) == CONE_VERDICTS


def test_dd_cone_outputs_are_pinned():
    # The order of the lineality basis and of the rays is part of the pin:
    # h_to_v and v_to_h list generators and rows in this order.
    rng = random.Random(4006)
    outputs, flat = [], 0
    for _ in range(1500):
        dim = rng.randint(1, 6)
        lineality, rays = dd_cone([primitive_int(r) for r in random_cone_rows(rng, dim)], dim)
        outputs.append((lineality, rays))
        # Lineality only shrinks, so the final basis bounds the adjacency
        # target dim - len(lineality) - 2 of every step from above.
        flat += dim - len(lineality) - 2 <= 0
    assert flat >= 100
    assert sum(1 for lin, rays in outputs if lin and rays) >= 100
    assert _digest(outputs) == DD_CONES


# -- point predicates ----------------------------------------------------------
#
# Every interior predicate reads the signs of b_i - a_i·x and d_j - e_j·x at
# one point.  These sets mix wide coprime denominators with equality rows,
# zero rows (some of them infeasible) and redundant positive multiples, and
# each is probed in its relative interior, on its boundary, outside an
# inequality and off an equality.


def _wide_small(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice(WIDE_DENOMINATORS))


def _pinned_set(rng: random.Random) -> tuple[HPolyhedron, tuple]:
    """A set and a point that satisfies every row except an infeasible zero
    row, when one is drawn."""
    n = rng.randint(1, 3)
    anchor = tuple(_wide_small(rng) for _ in range(n))
    A, b, E, d = [], [], [], []
    for _ in range(rng.randint(1, n + 3)):
        row = tuple(_wide_small(rng) for _ in range(n))
        value = sum((a * x for a, x in zip(row, anchor)), Fraction(0))
        u = rng.random()
        if u < 0.2:
            E.append(row)
            d.append(value)
        elif u < 0.3:
            A.append(zeros(n))
            b.append(rng.choice((ZERO, Fraction(rng.randint(1, 9), rng.choice(WIDE_DENOMINATORS)))))
        else:
            slack = ZERO if rng.random() < 0.35 else Fraction(
                rng.randint(1, 9), rng.choice(WIDE_DENOMINATORS))
            A.append(row)
            b.append(value + slack)
    if A and rng.random() < 0.3:
        i = rng.randrange(len(A))
        t = Fraction(rng.randint(1, 9), rng.choice(WIDE_DENOMINATORS))
        A.append(tuple(t * a for a in A[i]))
        b.append(t * b[i] + rng.choice((ZERO, Fraction(1, rng.choice(WIDE_DENOMINATORS)))))
    if rng.random() < 0.05:
        E.append(zeros(n))
        d.append(ZERO)
    if rng.random() < 0.03:
        A.append(zeros(n))
        b.append(Fraction(-1, rng.choice(WIDE_DENOMINATORS)))
    return HPolyhedron(tuple(A), tuple(b), tuple(E), tuple(d), n), anchor


def _pinned_points(rng: random.Random, P: HPolyhedron, anchor, center):
    """The anchor, the ri point, a generator point and its midpoint with
    the ri point, a point past an inequality, one off an equality and a
    random point."""
    points = [anchor]
    if center is not None:
        points.append(center)
        gens = h_to_v(P).points
        if gens:
            g = rng.choice(gens)
            points += [g, tuple((c + x) / 2 for c, x in zip(center, g))]
        rows = [i for i, row in enumerate(P.A) if any(row)]
        if rows:
            i = rng.choice(rows)
            a = P.A[i]
            gap = P.b[i] - sum((r * c for r, c in zip(a, center)), Fraction(0))
            t = gap / sum((r * r for r in a), Fraction(0)) + Fraction(1, rng.choice(WIDE_DENOMINATORS))
            points.append(tuple(c + t * r for c, r in zip(center, a)))
        rows = [j for j, row in enumerate(P.E) if any(row)]
        if rows:
            e = P.E[rng.choice(rows)]
            t = Fraction(rng.choice((-1, 1)), rng.choice(WIDE_DENOMINATORS))
            points.append(tuple(c + t * r for c, r in zip(center, e)))
    points.append(tuple(_wide_small(rng) for _ in range(P.dim)))
    return points


def _outcome(f, *args):
    try:
        return f(*args)
    except RelintKitError as exc:
        return type(exc).__name__, str(exc)


def test_point_predicates_are_pinned():
    rng = random.Random(4007)
    results, kinds = [], set()
    for _ in range(300):
        P, anchor = _pinned_set(rng)
        center = _outcome(ri_point, P)
        center = None if isinstance(center[0], str) else center
        points = _pinned_points(rng, P, anchor, center)
        for x in points:
            member = _outcome(ri_membership, P, x)
            kinds.add((P.contains(x), getattr(member, "member", None),
                       getattr(getattr(member, "witness", None), "kind", None)))
            results += [
                P.contains(x),
                member,
                _outcome(normal_cone, P, x),
                _outcome(conic_hull_at, P, x),
                in_iri(P, x),
                in_qri(P, x),
                _outcome(characterization_suite, P, x),
                _outcome(prolongation_test, P, x, anchor),
            ]
            if center is not None:
                results.append(_outcome(prolongation_test, P, x, center))
    assert {(True, True, None), (True, False, "ineq-active"),
            (False, False, "ineq-violated"), (False, False, "eq-violated"),
            (False, None, None)} <= kinds
    assert _digest(results) == POINT_PREDICATES


# Every LP the decision procedures pose reaches `simplex_max` as integer
# rows.  This pin hashes each call's arguments with its status and pivot
# count, in call order, so a change to how any caller encodes its LP (row
# order, scales, the cost) shows here even when every verdict stays put.
LP_INPUTS = "137c1274f167c78116800e60dacd81524c2ebd2f512cbab04675650ce57df831"


def test_lp_inputs_are_pinned(monkeypatch):
    calls = []
    real = lp.simplex_max

    def spy(cost, rows):
        status, data, pivots = real(cost, rows)
        calls.append((cost, rows, status, pivots))
        return status, data, pivots

    monkeypatch.setattr(lp, "simplex_max", spy)
    rng = random.Random(4011)
    for _ in range(60):
        P, anchor = _pinned_set(rng)
        if P.dim < 3 and rng.random() < 0.3:
            P = _free_coordinate(P, rng.randrange(P.dim + 1))
            anchor = None
        center = _outcome(ri_point, P)
        center = None if isinstance(center[0], str) else center
        if anchor is None:
            anchor = center or zeros(P.dim)
        for x in _pinned_points(rng, P, anchor, center):
            _outcome(in_ri, P, x)
            _outcome(in_iri, P, x)
            _outcome(in_qri, P, x)
            _outcome(characterization_suite, P, x)
    for _ in range(30):
        n = rng.randint(1, 3)
        P1, P2 = random_pair(rng, n, 5)
        properly_separate(P1, P2)
        separation_iff_ri_disjoint(P1, P2)
        linear_image_ri_commutes(_image_matrix(rng, n) or ((ZERO,) * n,), P1)
        set_difference_ri_commutes(P1, P2)
    assert {status for *_, status, _ in calls} == {"optimal", "infeasible", "unbounded"}
    assert _digest(calls) == LP_INPUTS


# -- structural operations -----------------------------------------------------
#
# linear_image and minkowski_diff build their result from the generators of
# their operands, so these pins hash the rows they return.  The operands mix
# empty sets, sets with lines (a free coordinate, hence a lineality pair among
# the directions) and plain anchored sets; the matrices mix wide coprime
# denominators, zero columns that send directions to zero, and no rows at all.


def _free_coordinate(P: HPolyhedron, j: int) -> HPolyhedron:
    """P with a new unconstrained coordinate at position j: P x R, up to
    the order of the coordinates."""
    def widen(rows):
        return tuple(row[:j] + (ZERO,) + row[j:] for row in rows)
    return HPolyhedron(widen(P.A), P.b, widen(P.E), P.d, P.dim + 1)


def _structural_operand(rng: random.Random, n: int) -> HPolyhedron:
    u = rng.random()
    if u < 0.08:
        return HPolyhedron.empty(n)
    if u < 0.4 and n > 1:
        return _free_coordinate(random_nonempty_hpoly(rng, n - 1, n + 2), rng.randrange(n))
    return random_nonempty_hpoly(rng, n, n + 3)


def _image_matrix(rng: random.Random, n: int):
    rows = rng.choice((0, 1, 1, 2, 2, 3))
    M = [[_wide_small(rng) for _ in range(n)] for _ in range(rows)]
    if rows and rng.random() < 0.4:
        j = rng.randrange(n)
        for row in M:
            row[j] = ZERO
    return tuple(tuple(row) for row in M)


def test_linear_images_are_pinned():
    rng = random.Random(4008)
    outputs, kinds = [], set()
    for _ in range(160):
        n = rng.randint(1, 4)
        P = _structural_operand(rng, n)
        M = _image_matrix(rng, n)
        V = h_to_v(P)
        kinds.add(("empty", V.is_empty_set))
        kinds.add(("no rows", not M))
        kinds.add(("line", any(vneg(r) in V.rays for r in V.rays)))
        kinds.add(("zero image", any(not any(matvec(M, r)) for r in V.rays)))
        kinds.add(("wide", any(a.denominator > 3 for row in M for a in row)))
        outputs.append(linear_image(M, P))
    assert {(kind, True) for kind in ("empty", "no rows", "line", "zero image", "wide")} <= kinds
    assert _digest(outputs) == LINEAR_IMAGES


def test_minkowski_diffs_are_pinned():
    rng = random.Random(4009)
    outputs, kinds = [], set()
    for _ in range(120):
        n = rng.randint(1, 3)
        P1, P2 = _structural_operand(rng, n), _structural_operand(rng, n)
        if rng.random() < 0.2:
            # P1 - P1 meets 0 once for every generator point of P1.
            P2 = P1
        V1, V2 = h_to_v(P1), h_to_v(P2)
        differences = [vsub(p1, p2) for p1 in V1.points for p2 in V2.points]
        kinds.add(("empty", V1.is_empty_set or V2.is_empty_set))
        kinds.add(("line", any(vneg(r) in V.rays for V in (V1, V2) for r in V.rays)))
        kinds.add(("repeated point", len(set(differences)) < len(differences)))
        outputs.append(minkowski_diff(P1, P2))
    assert {(kind, True) for kind in ("empty", "line", "repeated point")} <= kinds
    assert _digest(outputs) == MINKOWSKI_DIFFS


# -- sampling ------------------------------------------------------------------
#
# The sample list (generator points, midpoints, the ri point, ray shifts and
# seeded convex combinations, deduplicated in order) feeds every sampled
# check, so its order and its exact entries are pinned.  The sets are
# anchored at points with wide coprime denominators; some are boxed, some
# carry a free coordinate (a line), some are singletons.


def _sampled_set(rng: random.Random, n: int) -> HPolyhedron:
    if n > 1 and rng.random() < 0.25:
        return _free_coordinate(_sampled_set(rng, n - 1), rng.randrange(n))
    anchor = tuple(_wide_small(rng) for _ in range(n))
    u = rng.random()
    if u < 0.1:
        return HPolyhedron.singleton(anchor)
    A, b, E, d = [], [], [], []
    if u < 0.7:
        for j in range(n):
            for sign in (1, -1):
                A.append(tuple(Fraction(sign) if k == j else ZERO for k in range(n)))
                b.append(sign * anchor[j] + Fraction(rng.randint(0, 9), rng.choice(WIDE_DENOMINATORS)))
    for _ in range(rng.randint(0, n + 1)):
        row = tuple(_wide_small(rng) for _ in range(n))
        value = sum((a * x for a, x in zip(row, anchor)), Fraction(0))
        if rng.random() < 0.15:
            E.append(row)
            d.append(value)
        else:
            slack = ZERO if rng.random() < 0.3 else Fraction(
                rng.randint(1, 9), rng.choice(WIDE_DENOMINATORS))
            A.append(row)
            b.append(value + slack)
    return HPolyhedron(tuple(A), tuple(b), tuple(E), tuple(d), n)


def test_sample_points_are_pinned():
    rng = random.Random(4010)
    samples, kinds = [], set()
    for _ in range(150):
        n = rng.randint(1, 5)
        P = _sampled_set(rng, n)
        V = h_to_v(P)
        seed = rng.choice((0, 1, 7, 402, 4010))
        cap, combos = rng.choice(((12, 10), (6, 4), (4, 3), (0, 10)))
        points = sample_points(P, seed=seed, midpoint_cap=cap, random_combos=combos)
        kinds.add(("dim", n))
        kinds.add(("singleton", len(V.points) == 1 and not V.rays))
        kinds.add(("rays", bool(V.rays)))
        kinds.add(("line", any(vneg(r) in V.rays for r in V.rays)))
        kinds.add(("wide", any(c.denominator > 30 for x in points for c in x)))
        samples.append((seed, cap, combos, points))
    assert {("dim", n) for n in range(1, 6)} <= kinds
    assert {(kind, True) for kind in ("singleton", "rays", "line", "wide")} <= kinds
    assert _digest(samples) == SAMPLE_POINTS
