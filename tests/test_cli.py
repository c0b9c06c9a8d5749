"""Document parsing, CLI commands, exit codes, and report determinism."""

import json
from pathlib import Path

import pytest

from relint_kit import docio
from relint_kit.cli import main
from relint_kit.errors import InputError
from relint_kit.polyhedra import HPolyhedron, same_set
from relint_kit.rational import vec

CORPUS = Path(__file__).resolve().parents[1] / "src" / "relint_kit" / "corpus"


def test_parse_hpoly_segment():
    doc = docio.parse_instance(
        '{"kind":"hpoly","id":"seg","payload":'
        '{"A":[["1"],["-1"]],"b":["1","0"],"E":[],"d":[],"dim":1}}'
    )
    assert doc.kind == "hpoly" and doc.id == "seg"
    assert same_set(doc.payload, HPolyhedron.make(A=[[1], [-1]], b=[1, 0]))


def test_parse_zero_denominator_is_located():
    text = ('{"kind":"hpoly","id":"bad","payload":'
            '{"A":[["1"]],"b":["1/0"],"E":[],"d":[],"dim":1}}')
    with pytest.raises(InputError, match="zero denominator"):
        docio.parse_instance(text)
    with pytest.raises(InputError, match=r"payload\.b\[0\]"):
        docio.parse_instance(text)


def test_parse_sequence():
    doc = docio.parse_instance(
        '{"kind":"sequence","id":"s","payload":{"prefix":["1/2"],"tail":null}}'
    )
    assert doc.payload.prefix == vec(["1/2"])
    assert doc.payload.tail is None


def test_parse_rejects_floats_and_bad_kind():
    with pytest.raises(InputError, match="rationals must be strings"):
        docio.parse_instance(
            '{"kind":"hpoly","id":"x","payload":'
            '{"A":[[0.5]],"b":["1"],"E":[],"d":[],"dim":1}}'
        )
    with pytest.raises(InputError, match="kind"):
        docio.parse_instance('{"kind":"circle","id":"x","payload":{}}')


def test_parse_malformed_json_reports_location():
    with pytest.raises(InputError, match="line 1"):
        docio.parse_instance("{not json")


def test_parse_dimension_mismatch():
    with pytest.raises(InputError):
        docio.parse_instance(
            '{"kind":"hpoly","id":"x","payload":'
            '{"A":[["1","2"]],"b":["1"],"E":[],"d":[],"dim":1}}'
        )


def test_certificate_round_trip():
    from relint_kit.separation import SeparationCertificate

    cert = SeparationCertificate(
        vec([0, 1]), vec(["0"])[0], vec(["1/2"])[0], vec([0, 0]), vec([0, 1])
    )
    doc = docio.certificate_doc(cert)
    back = docio.parse_certificate(doc)
    assert back == cert


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_suite_on_corpus_segment(capsys):
    code, out = run_cli(
        capsys, "suite", str(CORPUS / "segment-x01.json"), "--point", "1/2,0"
    )
    assert code == 0
    assert "ok segment-x01 characterization-equivalence" in out
    report = json.loads(out[out.index("{"):])
    suite = report["suite"]
    assert all(
        suite[k]
        for k in (
            "ri_def", "prolongation", "cone_subspace",
            "closed_cone_subspace", "normal_cone_subspace",
        )
    )


def test_cli_separate_embeds_valid_certificate(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out = run_cli(
        capsys, "separate", str(CORPUS / "segment-x01.json"),
        str(CORPUS / "square-unit.json"), "--out", str(out_file),
    )
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["separated"] and report["certificate_valid"]
    # The emitted report re-validates through the standalone verify path.
    code, _ = run_cli(
        capsys, "verify", str(out_file), str(CORPUS / "segment-x01.json"),
        str(CORPUS / "square-unit.json"),
    )
    assert code == 0


def test_cli_rejects_bad_instance(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"kind":"hpoly","id":"bad","payload":'
        '{"A":[["1"]],"b":["1/0"],"E":[],"d":[],"dim":1}}'
    )
    code = main(["ri-point", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "zero denominator" in err


def test_cli_missing_files_is_input_error(capsys):
    assert main(["separate", str(CORPUS / "square-unit.json")]) == 2


def test_cli_graph_and_epi(capsys):
    code, out = run_cli(
        capsys, "graph-ri", str(CORPUS / "map-slice-degenerate.json"),
        "--point", "0,0",
    )
    assert code == 0
    report = json.loads(out[out.index("{"):])
    assert report["lhs"] is False and report["rhs"] is False
    code, out = run_cli(
        capsys, "epi-ri", str(CORPUS / "fn-affine.json"),
        "--point", "1/2", "--level", "3",
    )
    assert code == 0
    report = json.loads(out[out.index("{"):])
    assert report["single_affine_piece"] and report["all_asserted_hold"]


def test_cli_seq_classify(capsys):
    code, out = run_cli(capsys, "seq-classify", str(CORPUS / "seq-gap-witness.json"))
    assert code == 0
    report = json.loads(out[out.index("{"):])
    cls = report["classification"]
    assert cls["in_qri"] and not cls["in_iri"] and report["l1_norm"] == "1"


def test_cli_verify_corpus_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = main(["verify-corpus", str(CORPUS), "--out", str(out1)])
    lines1 = capsys.readouterr().out
    code2 = main(["verify-corpus", str(CORPUS), "--out", str(out2)])
    lines2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert lines1 == lines2
    report = json.loads(out1.read_text())
    assert report["exit_code"] == 0
    assert all(check["ok"] for check in report["checks"])
    assert len(report["instances"]) >= 20
    # Every certificate embedded in the corpus report re-validates through
    # the standalone verify path.
    from relint_kit.separation import verify_certificate

    assert report["certificates"]
    for entry in report["certificates"]:
        id1, id2 = entry["instances"]
        P1 = docio.parse_instance((CORPUS / f"{id1}.json").read_text()).payload
        P2 = docio.parse_instance((CORPUS / f"{id2}.json").read_text()).payload
        cert = docio.parse_certificate(entry["certificate"])
        assert verify_certificate(P1, P2, cert)


def test_cli_verify_corpus_bundled_default(capsys):
    code = main(["verify-corpus"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ok map-slice-degenerate graph-product-rule" in out


def test_cli_seed_recorded(capsys):
    code, out = run_cli(
        capsys, "ri-point", str(CORPUS / "interval-01.json"), "--seed", "7"
    )
    assert code == 0
    report = json.loads(out[out.index("{"):])
    assert report["seed"] == 7 and report["point"] == ["1/2"]


ONE_DIM_CERT = ('{"functional": ["1"], "sup1": "0", "inf2": "0", '
                '"strict_witness_1": ["-1"], "strict_witness_2": ["1"]}')


def test_cli_verify_with_an_empty_set_fails_with_a_report(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    cert.write_text(ONE_DIM_CERT)
    # The certificate is valid for a nonempty first set ...
    code, _ = run_cli(
        capsys, "verify", str(cert), str(CORPUS / "halfline-neg.json"),
        str(CORPUS / "interval-01.json"),
    )
    assert code == 0
    # ... and an empty one fails the check with a report, not a traceback.
    code, out = run_cli(
        capsys, "verify", str(cert), str(CORPUS / "empty-interval.json"),
        str(CORPUS / "interval-01.json"),
    )
    assert code == 1
    assert "FAIL empty-interval|interval-01 certificate-revalidation" in out
    report = json.loads(out[out.index("{"):])
    assert report["certificate_valid"] is False and report["exit_code"] == 1


@pytest.mark.parametrize("text", ['[1, 2]', '"cert"', '{"certificate": [1]}'])
def test_cli_verify_non_object_certificate_is_input_error(tmp_path, capsys, text):
    cert = tmp_path / "cert.json"
    cert.write_text(text)
    code = main(["verify", str(cert), str(CORPUS / "segment-x01.json"),
                 str(CORPUS / "square-unit.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: certificate")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("kind,command", [
    ("vpoly", "ri-point"), ("map", "graph-ri"),
    ("plfunction", "epi-ri"), ("sequence", "seq-classify"),
])
@pytest.mark.parametrize("payload", ["[1]", '"x"', "3"])
def test_cli_non_object_payload_is_located_input_error(tmp_path, capsys, kind, command, payload):
    doc = tmp_path / "bad.json"
    doc.write_text(f'{{"kind": "{kind}", "id": "bad", "payload": {payload}}}')
    code = main([command, str(doc)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: bad.json: payload: expected an object\n"


@pytest.mark.parametrize("kind,command,payload,path", [
    ("hpoly", "ri-point", '{"dim": -1}', "payload.dim"),
    ("vpoly", "ri-point", '{"points": [], "dim": -1}', "payload.dim"),
    ("map", "graph-ri",
     '{"graph": {"A": [], "b": [], "E": [], "d": [], "dim": 2}, "m": 3, "n": -1}',
     "payload.n"),
    ("plfunction", "epi-ri", '{"pieces": [["1", "0"]], "domain": {"dim": -1}}',
     "payload.domain.dim"),
    ("sequence", "seq-classify",
     '{"prefix": [], "tail": {"c": "1", "q": "1/2", "start": -2}}', "payload.tail.start"),
])
def test_cli_negative_integer_field_is_located_input_error(
        tmp_path, capsys, kind, command, payload, path):
    doc = tmp_path / "neg.json"
    doc.write_text(f'{{"kind": "{kind}", "id": "neg", "payload": {payload}}}')
    code = main([command, str(doc), "--point", "0,0", "--level", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: neg.json: {path}: expected a nonnegative integer\n"


def test_cli_unwritable_out_is_input_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code = main(["ri-point", str(CORPUS / "square-unit.json"), "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1
    assert not target.exists()


@pytest.mark.parametrize("level", ["1/0", "x", "0.5"])
def test_cli_malformed_level_is_located(capsys, level):
    code = main(["epi-ri", str(CORPUS / "fn-abs.json"), "--point", "0",
                 "--level", level])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: --level: ")
    assert captured.err.count("\n") == 1


def test_cli_verify_wrong_length_strict_witness_fails_with_a_report(tmp_path, capsys):
    sets = (str(CORPUS / "segment-x01.json"), str(CORPUS / "square-unit.json"))
    out_file = tmp_path / "report.json"
    assert main(["separate", *sets, "--out", str(out_file)]) == 0
    report = json.loads(out_file.read_text())
    for key in ("strict_witness_1", "strict_witness_2"):
        cert = tmp_path / f"{key}.json"
        cert.write_text(json.dumps({"certificate": {**report["certificate"], key: ["0"]}}))
        capsys.readouterr()
        code, out = run_cli(capsys, "verify", str(cert), *sets)
        assert code == 1
        assert json.loads(out[out.index("{"):])["certificate_valid"] is False
