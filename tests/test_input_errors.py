"""Every input check that no other test reaches, one case each.

A library case calls the function on the one bad input and expects the
exception class and message of that check; a CLI case runs `main` and
expects exit 2, empty stdout and the one stderr line.
`python3 tests/line_coverage.py` lists the checks that no test runs.
"""

import json
from pathlib import Path

import pytest

from relint_kit.cli import main
from relint_kit.errors import EmptySetError, InputError
from relint_kit.linalg import solve_linear_system
from relint_kit.lp import LPProblem
from relint_kit.polyhedra import (
    AffineFlat,
    HPolyhedron,
    PolyCone,
    VPolyhedron,
    cone_contains,
    minkowski_diff,
)
from relint_kit.rational import vec
from relint_kit.relint import prolongation_test
from relint_kit.separation import strict_separate_in_flat
from relint_kit.seqspace import HybridSeq
from relint_kit.setmaps import (
    PLConvexFunction,
    PolyhedralMap,
    epi_polyhedron,
    graph_ri_check,
    image_at,
    linear_image_ri_commutes,
    set_difference_ri_commutes,
)

CORPUS = Path(__file__).resolve().parents[1] / "src" / "relint_kit" / "corpus"
INTERVAL = HPolyhedron.make(A=[[1], [-1]], b=[1, 0])
EMPTY = HPolyhedron.make(A=[[1], [-1]], b=[0, -1])
SQUARE = HPolyhedron.make(A=[[1, 0], [-1, 0], [0, 1], [0, -1]], b=[1, 0, 1, 0])
X_AXIS = AffineFlat(vec([0, 0]), (vec([1, 0]),), 2)
SEGMENT_MAP = PolyhedralMap(SQUARE, 1, 1)


def _not_a_directory(tmp_path):
    (tmp_path / "x.json").touch()
    return main(["verify-corpus", str(tmp_path / "x.json")])


def _duplicate_ids(tmp_path):
    for name in ("a", "b"):
        node = {"id": "same", "kind": "hpoly",
                "payload": {"A": [["1"]], "b": ["1"], "E": [], "d": [], "dim": 1}}
        (tmp_path / f"{name}.json").write_text(json.dumps(node))
    return main(["verify-corpus", str(tmp_path)])


# (call on tmp_path, exception class or None for exit 2, message)
CASES = {
    "cli-not-a-directory": (_not_a_directory, None, "{tmp}/x.json is not a directory"),
    "cli-duplicate-id": (_duplicate_ids, None, "duplicate instance id same"),
    "cli-extra-instance-file": (
        lambda tmp: main(["ri-check", str(CORPUS / "square-unit.json"),
                          str(CORPUS / "segment-x01.json"), "--point", "1/2,1/2"]),
        None, "ri-check needs 1 instance file(s)"),
    "cli-verify-corpus-extra-argument": (
        lambda tmp: main(["verify-corpus", str(tmp), "/nonexistent"]), None,
        "verify-corpus takes at most one directory, got 2"),
    "linalg-row-rhs-count": (
        lambda tmp: solve_linear_system(((1,),), (), 1), InputError,
        "equality system: row/rhs count mismatch"),
    "lp-unknown-sense": (
        lambda tmp: LPProblem((1,), "mid"), InputError, "unknown sense 'mid'"),
    "rational-row-rhs-count": (
        lambda tmp: LPProblem((1,), "max", ((1,),), ()), InputError,
        "inequalities: 1 rows but 0 right-hand sides"),
    "hpoly-no-rows-no-dim": (
        lambda tmp: HPolyhedron.make(), InputError,
        "ambient dimension required for a row-free polyhedron"),
    "vpoly-generator-length": (
        lambda tmp: VPolyhedron((vec([1, 2]),), (), 1), InputError,
        "generator of wrong dimension"),
    "vpoly-no-generators-no-dim": (
        lambda tmp: VPolyhedron.make(), InputError,
        "ambient dimension required for an empty V-polyhedron"),
    "flat-basepoint-length": (
        lambda tmp: AffineFlat(vec([0]), (), 2), InputError,
        "flat basepoint of wrong dimension"),
    "flat-direction-length": (
        lambda tmp: AffineFlat(vec([0, 0]), (vec([1]),), 2), InputError,
        "flat direction of wrong dimension"),
    "flat-dependent-directions": (
        lambda tmp: AffineFlat(vec([0, 0]), (vec([1, 0]), vec([2, 0])), 2), InputError,
        "flat directions must be linearly independent"),
    "cone-generator-length": (
        lambda tmp: PolyCone((vec([1]),), 2), InputError, "cone generator of wrong dimension"),
    "cone-query-length": (
        lambda tmp: cone_contains(PolyCone((), 2), vec([1])), InputError,
        "cone membership query of wrong dimension"),
    "minkowski-diff-dimensions": (
        lambda tmp: minkowski_diff(INTERVAL, SQUARE), InputError,
        "set difference requires matching dimensions"),
    "prolongation-x-outside": (
        lambda tmp: prolongation_test(INTERVAL, vec([0]), vec([2])), InputError,
        "prolongation requires both points in the set"),
    "strict-separation-empty-set": (
        lambda tmp: strict_separate_in_flat(AffineFlat(vec([0]), (vec([1]),), 1), EMPTY,
                                            vec([2])),
        EmptySetError, "strict separation requires a nonempty set"),
    "strict-separation-point-off-carrier": (
        lambda tmp: strict_separate_in_flat(X_AXIS, HPolyhedron.singleton(vec([0, 0])),
                                            vec([1, 1])),
        InputError, "the point must lie in the carrier subspace"),
    "sequence-index-zero": (
        lambda tmp: HybridSeq.make(vec([1])).entry(0), InputError,
        "sequence indices start at 1"),
    "plfunction-no-pieces": (
        lambda tmp: PLConvexFunction((), INTERVAL), InputError,
        "a piecewise-linear function needs at least one piece"),
    "plfunction-slope-length": (
        lambda tmp: PLConvexFunction(((vec([1, 2]), 0),), INTERVAL), InputError,
        "piece slope of wrong dimension"),
    "plfunction-empty-domain": (
        lambda tmp: epi_polyhedron(PLConvexFunction(((vec([1]), 0),), EMPTY)), EmptySetError,
        "a proper function needs a nonempty domain"),
    "slice-point-length": (
        lambda tmp: image_at(SEGMENT_MAP, vec([0, 0])), InputError,
        "slice point of length 2, expected 1"),
    "graph-pair-length": (
        lambda tmp: graph_ri_check(SEGMENT_MAP, vec([0]), vec([0, 0])), InputError,
        "pair dimensions do not match the mapping"),
    "image-of-empty-set": (
        lambda tmp: linear_image_ri_commutes(((1,),), EMPTY), EmptySetError,
        "commutation check requires a nonempty set"),
    "difference-dimensions": (
        lambda tmp: set_difference_ri_commutes(INTERVAL, SQUARE), InputError,
        "set difference requires matching dimensions"),
}


@pytest.mark.parametrize("name", CASES)
def test_each_input_check_rejects_its_input(name, tmp_path, capsys):
    call, error, message = CASES[name]
    message = message.format(tmp=tmp_path)
    if error is None:
        assert call(tmp_path) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
    else:
        with pytest.raises(error) as info:
            call(tmp_path)
        assert str(info.value) == message
