"""Document parsing, CLI commands, exit codes, and report determinism."""

import io
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, fields, is_dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import same_set
from test_golden import CLI_CASES, RI_POINT
from relint_kit import cli, docio, separation
from relint_kit.cli import main
from relint_kit.errors import InputError, TheoremViolation
from relint_kit.polyhedra import HPolyhedron
from relint_kit.rational import vec

SRC = Path(__file__).resolve().parents[1] / "src"
CORPUS = SRC / "relint_kit" / "corpus"


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


def _plfunction_text(pieces, dim):
    return json.dumps({"kind": "plfunction", "id": "f", "payload": {
        "pieces": pieces, "domain": {"A": [], "b": [], "E": [], "d": [], "dim": dim}}})


def test_parse_plfunction_pieces_against_the_domain_dimension():
    f = docio.parse_instance(_plfunction_text([["2"], ["1/2"]], 0)).payload
    assert f.pieces == (((), Fraction(2)), ((), Fraction(1, 2)))
    with pytest.raises(InputError, match=r"pieces\[0\]: a piece is a slope of length 1 "):
        docio.parse_instance(_plfunction_text([["2"]], 1))
    with pytest.raises(InputError, match=r"pieces\[1\]: a piece is a slope of length 0 "):
        docio.parse_instance(_plfunction_text([["2"], ["1", "2"]], 0))


def test_certificate_round_trip():
    from relint_kit.separation import SeparationCertificate

    cert = SeparationCertificate(
        vec([0, 1]), vec(["0"])[0], vec(["1/2"])[0], vec([0, 0]), vec([0, 1])
    )
    doc = json.loads(docio.dump_report(cert))
    back = docio.parse_certificate(doc)
    assert back == cert


def _dumped(value):
    return json.loads(docio.dump_report(value))


def test_dump_report_encodes_report_values():
    @dataclass(frozen=True)
    class Row:
        index: int
        normal: tuple

    assert _dumped(Fraction(3)) == "3"
    assert _dumped(Fraction(-1, 2)) == "-1/2"
    for value in (0, 7, True, False, None, "id"):
        got = _dumped(value)
        assert got == value and type(got) is type(value)
    assert _dumped(((Fraction(1), Fraction(2, 3)), [Fraction(0)], ())) == [
        ["1", "2/3"], ["0"], []]
    assert _dumped(Row(2, (Fraction(1, 4),))) == {"index": 2, "normal": ["1/4"]}
    assert _dumped({"rows": [Row(0, ())], "ok": True}) == {
        "rows": [{"index": 0, "normal": []}], "ok": True}
    with pytest.raises(TypeError):
        docio.dump_report(0.5)


def _plain(value):
    """The JSON form of a report value for `json.dumps`, built without
    docio: `str` of a Fraction is its "p" or "p/q" string."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    return value


def _assert_written_as_json_dumps(value):
    assert docio.dump_report(value) == json.dumps(_plain(value), indent=2, sort_keys=True) + "\n"


def _golden_argv(case: str, cert: Path) -> list[str]:
    """A `test_golden.CLI_CASES` case as an argument list, read as that
    module's pinning test reads it."""
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
    return argv


def test_dump_report_writes_every_pinned_report_as_json_dumps(tmp_path, capsys, monkeypatch):
    """Every report the golden pins hash, and `verify-corpus` at four
    seeds, in the bytes `json.dumps(..., indent=2, sort_keys=True)` prints
    for the report's JSON form."""
    reports = []
    dump = docio.dump_report

    def spy(report):
        reports.append(report)
        return dump(report)

    monkeypatch.setattr(docio, "dump_report", spy)
    runs = [_golden_argv(case, tmp_path / "cert.json") for case in CLI_CASES]
    runs += [["ri-point", str(CORPUS / f"{ident}.json")] for ident in sorted(RI_POINT)]
    runs += [["verify-corpus", "--seed", str(seed)] for seed in (0, 3, 7, 11)]
    codes = []
    for argv in runs:
        codes.append(main(argv))
        capsys.readouterr()
    monkeypatch.undo()
    assert len(reports) == sum(code != 2 for code in codes) > 60
    for report in reports:
        _assert_written_as_json_dumps(report)


@dataclass(frozen=True)
class _Row:
    index: int
    normal: tuple
    note: object


_STRINGS = ("", "id", 'say "hi"', "back\\slash\\", "tab\tnew\nline\x00\x1f\x7f", "café",
            "∂P ⊂ ℝ²", "\U0001d53b", "</script>", "\u2028")


def _seeded_value(rng: random.Random, depth: int = 0):
    pick = rng.randrange(9 if depth < 4 else 6)
    if pick == 0:
        return rng.choice((0, 1, -1, 7, 2**70, -(3**50), 10**30 + 1))
    if pick == 1:
        return Fraction(rng.randint(-10**12, 10**12), rng.choice((1, 2, 3, 10**6 + 3)))
    if pick == 2:
        return rng.choice((True, False))
    if pick == 3:
        return None
    if pick == 4:
        return rng.choice(_STRINGS)
    if pick == 5:
        return rng.choice(((), [], {}, _Row(0, (), ())))
    if pick == 6:
        items = [_seeded_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
        return tuple(items) if rng.random() < 0.5 else items
    if pick == 7:
        return {rng.choice(_STRINGS) + str(rng.randint(0, 3)): _seeded_value(rng, depth + 1)
                for _ in range(rng.randint(0, 4))}
    return _Row(rng.randint(-5, 5), tuple([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                           for _ in range(rng.randint(0, 3))]),
                _seeded_value(rng, depth + 1))


def test_dump_report_writes_seeded_values_as_json_dumps():
    rng = random.Random(3401)
    for _ in range(600):
        _assert_written_as_json_dumps(_seeded_value(rng))
    _assert_written_as_json_dumps({s: s for s in _STRINGS})


@pytest.mark.parametrize("value", [
    0.5, float("nan"), [Fraction(1), 0.25], {"x": (1, {2, 3})}, Decimal("1"), b"x",
    object(), 1j, {1: "a"}, _Row(0, (0.5,), None)],
    ids=lambda v: "object()" if type(v) is object else repr(v))
def test_dump_report_rejects_every_other_type(value):
    with pytest.raises(TypeError):
        docio.dump_report(value)


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


def test_cli_verify_corpus_separation_check_fails_without_evidence(tmp_path, capsys, monkeypatch):
    # A report with neither a valid certificate nor a common point is a
    # failed check: a FAIL line and exit 1, not an internal error.
    for name in ("interval-01", "halfline-neg"):
        (tmp_path / f"{name}.json").write_bytes((CORPUS / f"{name}.json").read_bytes())
    monkeypatch.setattr(separation, "verify_certificate", lambda *args: False)
    monkeypatch.setattr(separation, "_proves_ri_disjoint", lambda *args: False)
    code = main(["verify-corpus", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL halfline-neg|interval-01 separation-iff-ri-disjoint" in captured.out
    assert captured.err == ""


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


@pytest.mark.parametrize("field,text", [
    ("sup1", ONE_DIM_CERT.replace('"sup1": "0"', '"sup1": null')),
    ("inf2", ONE_DIM_CERT.replace('"inf2": "0", ', "")),
], ids=["null-sup1", "missing-inf2"])
def test_cli_verify_without_a_bound_is_input_error(tmp_path, capsys, field, text):
    cert = tmp_path / "cert.json"
    cert.write_text(text)
    code = main(["verify", str(cert), str(CORPUS / "halfline-neg.json"),
                 str(CORPUS / "interval-01.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: certificate.{field}: rationals must be strings, got None\n"


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


@pytest.mark.parametrize("command,text,located", [
    ("ri-point", '{"kind": "hpoly", "id": "bad", "payload": {"A": [], "b": "1", "dim": 1}}',
     "payload.b: expected a list"),
    ("ri-point", '{"kind": "hpoly", "id": "bad", "payload": {"A": "1", "b": [], "dim": 1}}',
     "payload.A: expected a list of rows"),
    ("epi-ri", '{"kind": "plfunction", "id": "bad", "payload": {"pieces": [], "domain": {"dim": 1}}}',
     "payload.pieces: expected a nonempty list"),
    ("seq-classify", '{"kind": "sequence", "id": "bad", "payload": {"prefix": [], "tail": 3}}',
     "payload.tail: expected an object or null"),
    ("ri-point", '[{"kind": "hpoly", "id": "bad", "payload": {"dim": 0}}]',
     "expected a top-level object"),
    ("ri-point", '{"kind": "hpoly", "id": 7, "payload": {"dim": 0}}', "id must be a string"),
    ("ri-point", '{"kind": "hpoly", "id": "bad"}', "missing payload"),
])
def test_cli_malformed_document_is_one_located_line(tmp_path, capsys, command, text, located):
    doc = tmp_path / "bad.json"
    doc.write_text(text)
    code = main([command, str(doc), "--point", "0", "--level", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: bad.json: {located}\n"


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


@pytest.mark.parametrize("command, ident, before, option, value", [
    ("ri-check", "cross-poly-2d", (), "--point", "-1,0"),
    ("epi-ri", "fn-abs", ("--point=0",), "--level", "-1/2"),
    ("image-ri", "square-unit", (), "--matrix", "-1,0;0,1"),
], ids=["point", "level", "matrix"])
def test_cli_negative_value_as_a_separate_word(capsys, command, ident, before, option, value):
    # A value with a leading minus may be a separate word; both spellings
    # must give the same report and exit code.
    argv = [command, str(CORPUS / f"{ident}.json"), *before]
    joined = main([*argv, f"{option}={value}"]), capsys.readouterr()
    split = main([*argv, option, value]), capsys.readouterr()
    assert split == joined
    assert joined[0] in (0, 1) and joined[1].err == ""
    assert json.loads(joined[1].out[joined[1].out.index("{"):])["command"] == command


@pytest.mark.parametrize("value", ["1,0", "-1,0"])
def test_cli_option_prefix_is_unrecognized(capsys, value):
    # Options are spelled in full: a prefix such as `--poi` is rejected
    # whatever its value, not taken for `--point` when the value is positive.
    with pytest.raises(SystemExit) as exc:
        main(["ri-check", str(CORPUS / "cross-poly-2d.json"), "--poi", value])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"relint-kit: error: unrecognized arguments: --poi {value}")


_PARSED = {"command": "epi-ri", "files": ["f.json", "g.json"], "seed": -3, "out": "-r.json",
           "point": "", "level": "-1/2", "matrix": "1,0;0,-1"}


@pytest.mark.parametrize("argv", [
    ["epi-ri", "f.json", "g.json", "--seed", "-3", "--out", "-r.json", "--point", "",
     "--level", "-1/2", "--matrix", "1,0;0,-1"],
    ["--seed=-3", "--out=-r.json", "--point=", "--level=-1/2", "--matrix=1,0;0,-1",
     "epi-ri", "f.json", "g.json"],
    ["epi-ri", "--point", "1", "f.json", "--seed", "7", "--level=-1/2", "g.json",
     "--matrix", "1,0;0,-1", "--out", "-r.json", "--point=", "--seed=-3"],
], ids=["separate-words-after-files", "joined-before-command", "interleaved-last-repeat-wins"])
def test_cli_reader_accepts_each_spelling(argv):
    assert vars(cli._parse_args(argv)) == _PARSED


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["bogus", "a.json"], "argument command: invalid choice: 'bogus' (choose from "
     "'ri-check', 'ri-point', 'suite', 'normal-cone', 'separate', 'qri-sep', 'graph-ri', "
     "'epi-ri', 'image-ri', 'diff-ri', 'seq-classify', 'verify', 'verify-corpus')"),
    (["suite", "a.json", "--poin=1", "--seed", "2"], "unrecognized arguments: --poin=1 --seed 2"),
    (["suite", "a.json", "--point"], "argument --point: expected one argument"),
    (["suite", "a.json", "--seed", "1.5"], "argument --seed: invalid int value: '1.5'"),
], ids=["no-command", "unknown-command", "prefix-option", "value-missing", "seed-not-int"])
def test_cli_reader_rejects_with_usage_and_one_error_line(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: relint-kit <command> [files...]")
    assert error == f"relint-kit: error: {message}"


@pytest.mark.parametrize("argv", [["--help"], ["suite", "a.json", "-h", "--nope"]])
def test_cli_help_prints_every_command_and_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 0 and captured.err == ""
    assert captured.out.startswith("usage: relint-kit ")
    for word in [*cli._HANDLERS, "--seed N", "--out F", "--point P", "--level L",
                 "--matrix M", "-h, --help"]:
        assert word in captured.out


@pytest.mark.parametrize("command, files, options", [
    ("suite", [str(CORPUS / "segment-x01.json")], ["--point", "1/2,0"]),
    ("verify-corpus", [str(CORPUS)], ["--seed", "0"]),
], ids=["suite", "verify-corpus"])
def test_cli_options_before_or_after_the_files(capsys, command, files, options):
    # The usage line puts options before the files; both orders give the
    # same exit code and the same report bytes.
    before = main([command, *options, *files]), capsys.readouterr()
    after = main([command, *files, *options]), capsys.readouterr()
    assert before == after
    assert before[0] == 0 and before[1].err == ""
    assert json.loads(before[1].out[before[1].out.index("{"):])["command"] == command


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


def test_cli_graph_ri_of_a_map_with_zero_domain_dimension(tmp_path, capsys):
    """With m = 0 the domain is the image of the graph in R^0."""
    doc = tmp_path / "m0.json"
    doc.write_text(json.dumps({"kind": "map", "id": "m0", "payload": {
        "graph": {"A": [["1"], ["-1"]], "b": ["1", "0"], "E": [], "d": [],
                  "dim": 1},
        "m": 0, "n": 1}}))
    code, out = run_cli(capsys, "graph-ri", str(doc), "--point", "1/2")
    assert code == 0
    assert json.loads(out[out.index("{"):])["product_rule_holds"] is True


def test_cli_diff_ri_of_zero_dimensional_sets(tmp_path, capsys):
    paths = []
    for ident in ("p0", "q0"):
        doc = tmp_path / f"{ident}.json"
        doc.write_text(json.dumps({"kind": "hpoly", "id": ident, "payload": {
            "A": [], "b": [], "E": [], "d": [], "dim": 0}}))
        paths.append(str(doc))
    code, out = run_cli(capsys, "diff-ri", *paths)
    assert code == 0
    assert json.loads(out[out.index("{"):])["holds"] is True


@pytest.mark.parametrize("command", ["ri-check", "suite"])
def test_cli_empty_point_is_the_point_of_r0(tmp_path, capsys, command):
    doc = tmp_path / "p0.json"
    doc.write_text(json.dumps({"kind": "hpoly", "id": "p0", "payload": {
        "A": [], "b": [], "E": [], "d": [], "dim": 0}}))
    code, out = run_cli(capsys, command, str(doc), "--point=")
    assert code == 0
    assert json.loads(out[out.index("{"):])["exit_code"] == 0


def test_cli_verify_corpus_unreadable_entry_is_input_error(tmp_path, capsys):
    (tmp_path / "segment-x01.json").write_bytes((CORPUS / "segment-x01.json").read_bytes())
    (tmp_path / "x.json").write_bytes(b"\xff\xfe{")
    code = main(["verify-corpus", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {tmp_path / 'x.json'}: ")
    assert captured.err.count("\n") == 1


def test_cli_verify_corpus_skips_entries_that_are_not_files(tmp_path, capsys):
    # A subdirectory named like a document is no corpus entry: the run
    # reports on the documents alone, as in a directory without it.
    (tmp_path / "square-unit.json").write_bytes((CORPUS / "square-unit.json").read_bytes())
    assert main(["verify-corpus", str(tmp_path)]) == 0
    alone = capsys.readouterr()
    (tmp_path / "old.json").mkdir()
    assert main(["verify-corpus", str(tmp_path)]) == 0
    assert capsys.readouterr() == alone


def test_cli_non_utf8_document_is_input_error(tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_bytes(b"\xff\xfe{")
    code = main(["ri-point", str(doc)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {doc}: ")
    assert captured.err.count("\n") == 1


def test_cli_verify_non_utf8_certificate_is_input_error(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    cert.write_bytes(b"\xff\xfe{")
    code = main(["verify", str(cert), str(CORPUS / "segment-x01.json"),
                 str(CORPUS / "square-unit.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read certificate: ")
    assert captured.err.count("\n") == 1


def test_cli_internal_error_is_one_line_with_exit_2(monkeypatch, capsys):
    def boom(args, docs):
        raise ZeroDivisionError("division by zero\nsecond line")

    monkeypatch.setitem(cli._HANDLERS, "ri-point", (boom, 1))
    code = main(["ri-point", str(CORPUS / "square-unit.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "internal error: ZeroDivisionError: division by zero second line\n"


def test_cli_encoder_defect_is_one_line_with_exit_2(monkeypatch, capsys, tmp_path):
    """A report value without a JSON form is a defect of the program: it
    exits 2 with one line, prints no report and writes no `--out` file."""
    def floaty(args, docs):
        return {"instance": docs[0].id, "point": (0.5, 0.5)}, 0, ["ok square ri-membership"]

    monkeypatch.setitem(cli._HANDLERS, "ri-check", (floaty, 1))
    out = tmp_path / "report.json"
    argv = ["ri-check", str(CORPUS / "square-unit.json"), "--point=1/2,1/2"]
    for run in (argv, [*argv, "--out", str(out)]):
        code = main(run)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "internal error: TypeError: no JSON form for float\n"
        assert not out.exists()


def test_cli_theorem_violation_is_one_line_with_exit_1(monkeypatch, capsys):
    def broken(args, docs):
        raise TheoremViolation("the five characterizations disagree")

    monkeypatch.setitem(cli._HANDLERS, "ri-point", (broken, 1))
    code = main(["ri-point", str(CORPUS / "square-unit.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "theorem violation: the five characterizations disagree\n"


def test_cli_verify_corpus_stdout_is_independent_of_the_hash_seed():
    outputs = []
    for hash_seed in ("0", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-m", "relint_kit.cli", "verify-corpus", "--seed", "3"],
            env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


# -- seeded fuzz of the document grammar and the argument lists ---------------
#
# A draw builds the documents and options its command expects, in one
# dimension of at most 3, then damages them: up to three fields of a
# document are dropped, replaced by a malformed value or given an extra
# entry; a document may be cut short, replaced by bytes that are not
# JSON, or be of the wrong kind; options may be missing or malformed.

_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False),
    st.sampled_from(["", "x", "1/0", "1/-2", "0.5", " 2", "+1", "1e3", "--1"]),
    st.builds(list), st.builds(dict), st.builds(lambda: [[]]))
_RATIONAL = st.builds(lambda p, q: f"{p}/{q}" if q > 1 else str(p),
                      st.integers(-3, 3), st.integers(1, 3))

# command -> (kinds of the documents it reads, options it reads)
_EXPECTS = {
    "ri-check": (["hpoly"], ["--point"]),
    "ri-point": (["hpoly"], []),
    "suite": (["hpoly"], ["--point"]),
    "normal-cone": (["hpoly"], ["--point"]),
    "separate": (["hpoly", "hpoly"], []),
    "qri-sep": (["hpoly"], ["--point"]),
    "graph-ri": (["map"], ["--point"]),
    "epi-ri": (["plfunction"], ["--point", "--level"]),
    "image-ri": (["hpoly"], ["--matrix"]),
    "diff-ri": (["hpoly", "hpoly"], []),
    "seq-classify": (["sequence"], []),
    "verify": (["certificate", "hpoly", "hpoly"], []),
    "verify-corpus": (["hpoly", "vpoly", "map"], []),
}


def _vec(draw, dim):
    return draw(st.lists(_RATIONAL, min_size=dim, max_size=dim))


def _rows(draw, dim, most):
    return [_vec(draw, dim) for _ in range(draw(st.integers(0, most)))]


def _hpoly_node(draw, dim):
    """A set that holds the origin, so that it is nonempty until damaged."""
    A, E = _rows(draw, dim, 4), _rows(draw, dim, 2)
    b = [x.lstrip("-") for x in _vec(draw, len(A))]
    return {"A": A, "b": b, "E": E, "d": ["0"] * len(E), "dim": dim}


def _payload(draw, kind, dim):
    if kind == "hpoly":
        return _hpoly_node(draw, dim)
    if kind == "vpoly":
        return {"points": _rows(draw, dim, 3), "rays": _rows(draw, dim, 2), "dim": dim}
    if kind == "map":
        m = draw(st.integers(0, dim))
        return {"graph": _hpoly_node(draw, dim), "m": m, "n": dim - m}
    if kind == "plfunction":
        return {"pieces": [_vec(draw, dim + 1) for _ in range(draw(st.integers(1, 3)))],
                "domain": _hpoly_node(draw, dim)}
    if kind == "sequence":
        tail = draw(st.none() | st.fixed_dictionaries(
            {"c": _RATIONAL, "q": _RATIONAL, "start": st.integers(0, 3)}))
        return {"prefix": _vec(draw, draw(st.integers(0, 3))), "tail": tail}
    return {"functional": _vec(draw, dim), "sup1": draw(_RATIONAL),
            "inf2": draw(_RATIONAL), "strict_witness_1": _vec(draw, dim),
            "strict_witness_2": _vec(draw, dim)}


def _containers(node):
    """Every (container, key) pair of a JSON tree, outermost first."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in list(keys):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _containers(node[key])


def _document(draw, kind, dim) -> bytes:
    if draw(st.integers(0, 9)) == 0:
        kind = draw(st.sampled_from(docio.KINDS))
    if kind == "certificate":
        node = {"certificate": _payload(draw, kind, dim)}
    else:
        node = {"kind": kind, "id": f"{kind}-{draw(st.integers(0, 9))}",
                "payload": _payload(draw, kind, dim)}
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2, 3]))):
        spots = list(_containers(node))
        if not spots:
            break
        container, key = draw(st.sampled_from(spots))
        action = draw(st.sampled_from(["drop", "junk", "grow"]))
        if action == "grow" and isinstance(container[key], list):
            container[key].append(draw(_RATIONAL))
        elif action == "drop":
            del container[key]
        else:
            container[key] = draw(_JUNK)
    text = json.dumps(node).encode()
    form = draw(st.sampled_from(["whole"] * 8 + ["cut", "binary"]))
    if form == "cut":
        return text[:draw(st.integers(0, len(text)))]
    return draw(st.binary(max_size=8)) if form == "binary" else text


def _option(draw, name, dim):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(alphabet="01-/,;x. ", max_size=8))
    if name == "--level":
        return draw(_RATIONAL)
    n = max(0, dim + draw(st.sampled_from([0, 0, 0, 0, 1, -1])))
    if name == "--point":
        return ",".join(_vec(draw, n))
    return ";".join(",".join(_vec(draw, n)) for _ in range(draw(st.integers(1, 3))))


@st.composite
def _invocation(draw):
    """A command, its documents as bytes, and the rest of its arguments."""
    command = draw(st.sampled_from(sorted(_EXPECTS)))
    kinds, options = _EXPECTS[command]
    dim = draw(st.integers(0, 3))
    documents = [_document(draw, kind, dim) for kind in kinds
                 if draw(st.integers(0, 9)) > 0]
    args = []
    for name in options + ["--seed"]:
        if draw(st.integers(0, 9)) > 0:
            value = str(draw(st.integers(0, 9))) if name == "--seed" else _option(draw, name, dim)
            args += [name, value]
    args += draw(st.sampled_from([[]] * 10 + [["--help"], ["--nope"], ["missing.json"]]))
    return command, documents, args


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_invocation())
def test_cli_fuzz_ends_in_a_report_or_one_line_error(invocation):
    command, documents, args = invocation
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for i, data in enumerate(documents):
            path = Path(tmp) / f"doc{i}.json"
            path.write_bytes(data)
            files.append(str(path))
        if command == "verify-corpus":  # the documents form the corpus
            files = [tmp]
        argv = [command, *files, *args]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # the argument list is rejected
                code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    for text in (out.getvalue(), err.getvalue()):
        assert "Traceback" not in text and "internal error:" not in text, (argv, text)
    if code == 1:  # only a failed check exits 1
        assert "FAIL " in out.getvalue() or "theorem violation:" in err.getvalue(), argv


def test_cli_verify_corpus_reports_empty_maps_and_functions(tmp_path, capsys):
    """A map with an empty graph and a function with an empty domain get
    the same `emptiness-detected` line as an empty hpoly, instead of
    stopping the whole run."""
    empty = {"A": [["1"], ["-1"]], "b": ["0", "-1"], "E": [], "d": [], "dim": 1}
    docs = {
        "map-empty": {"kind": "map", "payload": {
            "graph": {**empty, "A": [["1", "0"], ["-1", "0"]], "dim": 2}, "m": 1, "n": 1}},
        "fn-empty": {"kind": "plfunction", "payload": {
            "domain": empty, "pieces": [["1", "0"]]}},
        "interval": {"kind": "hpoly", "payload": {**empty, "b": ["1", "0"]}},
    }
    for ident, doc in docs.items():
        (tmp_path / f"{ident}.json").write_text(json.dumps({"id": ident, **doc}))
    code = main(["verify-corpus", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    lines = captured.out[:captured.out.index("{")].splitlines()
    assert {line.split()[1] for line in lines} == set(docs)
    for ident in ("fn-empty", "map-empty"):
        assert [line for line in lines if line.split()[1] == ident] == [
            f"ok {ident} emptiness-detected"]


def test_cli_verify_corpus_reads_the_qri_verdict_from_the_suite(monkeypatch, capsys):
    """The qri-separation line compares the separation LP with the suite's
    normal-cone verdict and never asks `in_qri` again."""
    assert main(["verify-corpus", "--seed", "0"]) == 0
    expected = capsys.readouterr().out

    def refuse(*args):
        raise AssertionError("in_qri asked again")

    monkeypatch.setattr(separation, "in_qri", refuse)
    assert main(["verify-corpus", "--seed", "0"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected, "")
