"""Golden report hashes: refactors of the solver or the interior calculus
must leave these CLI reports byte-identical.

A change that alters these bytes on purpose (for example a new pivot rule
that moves ri-point outputs) updates the hashes here and states why in
CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from relint_kit.cli import main

CORPUS = Path(__file__).resolve().parents[1] / "src" / "relint_kit" / "corpus"

VERIFY_CORPUS = {
    0: "c42bc00c70d2bed3eb2eb962fdf88d3be53175d0f14c2145d491bc6cc2f52117",
    7: "124f7ac1295dee88e7e19ef5396b65380950173efae1f00089ae09d2a62ae2b7",
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
