"""Command-line front end.

    relint-kit <command> [files...] [--seed N] [--out F] [--point P] [--level L] [--matrix M]

Options stand anywhere, as `--opt value` or `--opt=value`, spelled in
full; a value may start with `-` or be empty, and the last repeat wins.
A bad argument list prints the usage line and `relint-kit: error:
<message>` to stderr and raises SystemExit(2).

Commands operate on instance documents (see docio) and emit a JSON run
report plus one human-readable line per check.  Exit codes: 0 when every
asserted equality or implication held, 1 on a violation, 2 on input
errors.  Reports contain no floats and no filesystem paths, so identical
inputs produce byte-identical reports.
"""

from __future__ import annotations

import json
import os
import sys
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

from . import docio
from .errors import InputError, RelintKitError, TheoremViolation
from .polyhedra import HPolyhedron, h_to_v, is_empty
from .rational import parse_rational, unit
from .relint import (
    characterization_suite,
    conic_hull_at,
    normal_cone,
    ri_membership,
    ri_point,
)
from .sampling import sample_points
from .separation import (
    Separated,
    properly_separate,
    qri_nonmembership_via_separation,
    separation_iff_ri_disjoint,
    verify_certificate,
)
from .seqspace import classify_l1ball, l1_norm
from .setmaps import (
    PLConvexFunction,
    PolyhedralMap,
    epi_relint_report,
    graph_ri_check,
    linear_image_ri_commutes,
    set_difference_ri_commutes,
)


def _parse_rat(text: str, what: str):
    try:
        return parse_rational(text)
    except InputError as exc:
        raise InputError(f"{what}: {exc}") from None


def _parse_point(text: str | None, what: str = "--point"):
    if text is None:
        raise InputError(f"this command requires {what}")
    if not text:
        return ()  # the point of R^0
    return tuple([_parse_rat(part, what) for part in text.split(",")])


def _parse_matrix(text: str | None):
    if text is None:
        raise InputError("this command requires --matrix (rows split by ';')")
    return tuple([_parse_point(row, "--matrix") for row in text.split(";")])


def _load(path: str) -> docio.InstanceDocument:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return docio.parse_instance(text, source=os.path.basename(path))


def _want(doc: docio.InstanceDocument, kind: str):
    if doc.kind != kind:
        raise InputError(f"instance {doc.id} has kind {doc.kind}, expected {kind}")
    return doc.payload


def _hpoly_docs(docs):
    return [(d.id, _want(d, "hpoly")) for d in docs]


# -- single-instance commands --------------------------------------------------
#
# Each returns (report body, exit code, printed lines); values go into the
# body as they are, and docio encodes the whole report once.
#
# Report format 1 also prints the rules' side conditions as constants:
# `closure_structural` (polyhedral conic hulls are closed), and
# `quasi_reg_graph`, `quasi_reg_dom` and `epi-dom-regularity` (nonempty
# convex sets in finite dimension are quasi-regular).  Format 2 drops them.


def _verdict(ok: bool, ident: str, check: str) -> tuple[int, list[str]]:
    """Exit code and printed line of a command's one check."""
    return (0 if ok else 1), [f"{'ok' if ok else 'FAIL'} {ident} {check}"]


def _cmd_ri_check(args, docs):
    ident, P = _hpoly_docs(docs)[0]
    x = _parse_point(args.point)
    res = ri_membership(P, x)
    report = {"instance": ident, "point": x, "in_relative_interior": res.member,
              "witness": res.witness}
    return report, 0, [f"{'ok' if res.member else 'no'} {ident} ri-membership"]


def _cmd_ri_point(args, docs):
    ident, P = _hpoly_docs(docs)[0]
    p = ri_point(P)
    ok = ri_membership(P, p).member
    return {"instance": ident, "point": p, "self_check": ok}, *_verdict(ok, ident, "ri-point")


def _cmd_suite(args, docs):
    ident, P = _hpoly_docs(docs)[0]
    rep = characterization_suite(P, _parse_point(args.point), set_id=ident)
    suite = docio.report_fields(
        rep, "point", "set_id", "ri_def", "prolongation", "cone_subspace",
        "closed_cone_subspace", "normal_cone_subspace", "agree", "witness")
    suite["closure_structural"] = True
    return ({"instance": ident, "suite": suite},
            *_verdict(rep.agree, ident, "characterization-equivalence"))


def _cmd_normal_cone(args, docs):
    ident, P = _hpoly_docs(docs)[0]
    x = _parse_point(args.point)
    N = normal_cone(P, x)
    hull = conic_hull_at(P, x)
    polar_ok = all(
        sum(a * b for a, b in zip(nrm, g)) <= 0
        for nrm in N.generators
        for g in hull.generators
    )
    report = {"instance": ident, "point": x, "generators": N.generators, "polarity_ok": polar_ok}
    return report, *_verdict(polar_ok, ident, "normal-cone-polarity")


def _cmd_separate(args, docs):
    (id1, P1), (id2, P2) = _hpoly_docs(docs)[:2]
    outcome = properly_separate(P1, P2)
    if isinstance(outcome, Separated):
        valid = verify_certificate(P1, P2, outcome.certificate)
        report = {"instances": [id1, id2], "separated": True,
                  "certificate": outcome.certificate, "certificate_valid": valid}
        return report, *_verdict(valid, f"{id1}|{id2}", "proper-separation")
    valid = (ri_membership(P1, outcome.common_point).member
             and ri_membership(P2, outcome.common_point).member)
    report = {"instances": [id1, id2], "separated": False,
              "common_point": outcome.common_point, "witness_valid": valid}
    return report, *_verdict(valid, f"{id1}|{id2}", "not-separable-witness")


def _cmd_qri_sep(args, docs):
    ident, P = _hpoly_docs(docs)[0]
    rep = qri_nonmembership_via_separation(P, _parse_point(args.point))
    report = {"instance": ident, "separable": rep.nonmember,
              **docio.report_fields(rep, "point", "certificate", "lemma_agrees")}
    return report, *_verdict(rep.lemma_agrees is not False, ident, "qri-separation-consistency")


def _cmd_graph_ri(args, docs):
    doc = docs[0]
    F = _want(doc, "map")
    pair = _parse_point(args.point)
    if len(pair) != F.m + F.n:
        raise InputError(f"--point needs {F.m + F.n} coordinates for this map")
    rep = graph_ri_check(F, pair[: F.m], pair[F.m:])
    report = {"instance": doc.id, "quasi_reg_graph": True, "quasi_reg_dom": True,
              **docio.report_fields(rep, "x", "y", "lhs", "rhs", "product_rule_holds")}
    return report, *_verdict(rep.product_rule_holds, doc.id, "graph-product-rule")


def _cmd_epi_ri(args, docs):
    doc = docs[0]
    f = _want(doc, "plfunction")
    x = _parse_point(args.point)
    if args.level is None:
        raise InputError("epi-ri requires --level")
    rep = epi_relint_report(f, x, _parse_rat(args.level, "--level"))
    report = {"instance": doc.id, **docio.report_fields(
        rep, "x", "level", "lhs_ri", "rhs_ri", "lhs_iri", "rhs_iri", "lhs_qri", "rhs_qri",
        "single_affine_piece", "all_asserted_hold")}
    return report, *_verdict(rep.all_asserted_hold, doc.id, "epigraph-formula")


def _cmd_image_ri(args, docs):
    ident, P = _hpoly_docs(docs)[0]
    M = _parse_matrix(args.matrix)
    rep = linear_image_ri_commutes(M, P)
    report = {"instance": ident, "matrix": M,
              **docio.report_fields(rep, "forward_ok", "backward_ok", "holds")}
    return report, *_verdict(rep.holds, ident, "image-commutation")


def _cmd_diff_ri(args, docs):
    (id1, P1), (id2, P2) = _hpoly_docs(docs)[:2]
    rep = set_difference_ri_commutes(P1, P2)
    report = {"instances": [id1, id2],
              **docio.report_fields(rep, "forward_ok", "backward_ok", "holds")}
    return report, *_verdict(rep.holds, f"{id1}|{id2}", "difference-commutation")


def _cmd_seq_classify(args, docs):
    doc = docs[0]
    x = _want(doc, "sequence")
    cls = classify_l1ball(x)
    report = {"instance": doc.id, "l1_norm": l1_norm(x), "classification": docio.report_fields(
        cls, "in_set", "in_iri", "in_qri", "finite_support", "chain_ok")}
    return report, *_verdict(cls.chain_ok, doc.id, "sequence-chain")


def _cmd_verify(args, docs_unused):
    if len(args.files) != 3:
        raise InputError("verify needs: certificate.json set1.json set2.json")
    try:
        with open(args.files[0], encoding="utf-8") as f:
            node = json.loads(f.read())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read certificate: {exc}") from None
    if not isinstance(node, dict):
        raise InputError("certificate: expected a top-level object")
    cert = docio.parse_certificate(node.get("certificate", node))
    d1, d2 = _load(args.files[1]), _load(args.files[2])
    P1, P2 = _want(d1, "hpoly"), _want(d2, "hpoly")
    ok = verify_certificate(P1, P2, cert)
    report = {"instances": [d1.id, d2.id], "certificate_valid": ok}
    return report, *_verdict(ok, f"{d1.id}|{d2.id}", "certificate-revalidation")


# -- corpus verification -------------------------------------------------------


def _corpus_paths(args) -> list[Path]:
    if len(args.files) > 1:
        raise InputError(f"verify-corpus takes at most one directory, got {len(args.files)}")
    if args.files:
        root = Path(args.files[0])
        if not root.is_dir():
            raise InputError(f"{root} is not a directory")
        paths = sorted([p for p in root.glob("*.json") if p.is_file()])
    else:
        base = resources.files("relint_kit").joinpath("corpus")
        paths = sorted(
            (Path(str(p)) for p in base.iterdir() if p.name.endswith(".json") and p.is_file()),
            key=lambda p: p.name,
        )
    if not paths:
        raise InputError("no instance documents found")
    return paths


def _check_hpoly(ident: str, P: HPolyhedron, seed: int, checks):
    if is_empty(P):
        checks.append((ident, "emptiness-detected", True))
        return
    points = sample_points(P, seed=seed, midpoint_cap=6, random_combos=4)[:10]
    reports = [characterization_suite(P, x, set_id=ident) for x in points]
    checks.append((ident, "characterization-equivalence", all(r.agree for r in reports)))
    # ri = iri = qri in finite dimension: the intrinsic (cone) and the
    # quasi-relative (normal cone) predicates, read from the same reports.
    checks.append((ident, "quasi-regularity",
                   all(r.cone_subspace == r.normal_cone_subspace for r in reports)))
    # {x} and P, x in P, separate properly iff x is not in qri P (Borwein-Lewis 1992).
    lemma_ok = all(
        isinstance(properly_separate(HPolyhedron.singleton(x), P), Separated)
        == (not r.normal_cone_subspace)
        for x, r in zip(points[:4], reports)
    )
    checks.append((ident, "qri-separation-consistency", lemma_ok))
    if P.dim >= 2:
        proj = tuple([unit(P.dim, j) for j in range(P.dim - 1)])
        checks.append((ident, "image-commutation",
                       linear_image_ri_commutes(proj, P).holds))


def _check_pair(id1, P1, id2, P2, checks, certs):
    pair_id = f"{id1}|{id2}"
    rep = separation_iff_ri_disjoint(P1, P2)
    # The report re-checks both sides itself: `separated` is the verified
    # certificate, and a common point has passed ri_membership in both sets.
    ok = rep.agree and (rep.separated or rep.common_point is not None)
    if rep.separated:
        certs.append({"instances": [id1, id2], "certificate": rep.certificate})
    checks.append((pair_id, "separation-iff-ri-disjoint", ok))


def _check_map(ident: str, F: PolyhedralMap, seed: int, checks):
    if is_empty(F.graph):
        checks.append((ident, "emptiness-detected", True))
        return
    points = sample_points(F.graph, seed=seed, midpoint_cap=4, random_combos=3)[:8]
    ok = True
    for pair in points:
        rep = graph_ri_check(F, pair[: F.m], pair[F.m:])
        ok = ok and rep.product_rule_holds
    checks.append((ident, "graph-product-rule", ok))


def _check_plfunction(ident: str, f: PLConvexFunction, seed: int, checks):
    if is_empty(f.domain):
        checks.append((ident, "emptiness-detected", True))
        return
    xs = list(h_to_v(f.domain).points)[:4] + [ri_point(f.domain)]
    ok = True
    for x in xs:
        fx = f.value(x)
        for level in (fx, fx + 1):
            ok = ok and epi_relint_report(f, x, level).all_asserted_hold
    checks.append((ident, "epigraph-formula", ok))
    checks.append((ident, "epi-dom-regularity", True))


def _cmd_verify_corpus(args, docs_unused):
    paths = _corpus_paths(args)
    docs = [_load(str(p)) for p in paths]
    docs.sort(key=lambda d: d.id)
    seen = set()
    for d in docs:
        if d.id in seen:
            raise InputError(f"duplicate instance id {d.id}")
        seen.add(d.id)
    checks: list[tuple[str, str, bool]] = []
    certs: list[dict] = []
    hpolys = []
    for d in docs:
        if d.kind == "hpoly":
            _check_hpoly(d.id, d.payload, args.seed, checks)
            if not is_empty(d.payload):
                hpolys.append((d.id, d.payload))
        elif d.kind == "vpoly":
            checks.append((d.id, "parsed", True))
        elif d.kind == "map":
            _check_map(d.id, d.payload, args.seed, checks)
        elif d.kind == "plfunction":
            _check_plfunction(d.id, d.payload, args.seed, checks)
        elif d.kind == "sequence":
            checks.append((d.id, "sequence-chain",
                           classify_l1ball(d.payload).chain_ok))
    by_dim: dict[int, list] = {}
    for ident, P in hpolys:
        by_dim.setdefault(P.dim, []).append((ident, P))
    for dimension in sorted(by_dim):
        group = by_dim[dimension]
        for (id1, P1), (id2, P2) in zip(group, group[1:]):
            _check_pair(id1, P1, id2, P2, checks, certs)
        if len(group) >= 2:
            (id1, P1), (id2, P2) = group[0], group[1]
            rep = set_difference_ri_commutes(P1, P2)
            checks.append((f"{id1}|{id2}", "difference-commutation", rep.holds))
    checks.sort(key=lambda c: (c[0], c[1]))
    lines = [f"{'ok' if ok else 'FAIL'} {ident} {name}" for ident, name, ok in checks]
    all_ok = all(ok for _, _, ok in checks)
    report = {
        "instances": sorted(d.id for d in docs),
        "checks": [{"instance": i, "check": n, "ok": ok} for i, n, ok in checks],
        "certificates": certs,
    }
    return report, 0 if all_ok else 1, lines


# command: (handler, instance files it takes, or 0 if it reads its own arguments)
_HANDLERS = {
    "ri-check": (_cmd_ri_check, 1),
    "ri-point": (_cmd_ri_point, 1),
    "suite": (_cmd_suite, 1),
    "normal-cone": (_cmd_normal_cone, 1),
    "separate": (_cmd_separate, 2),
    "qri-sep": (_cmd_qri_sep, 1),
    "graph-ri": (_cmd_graph_ri, 1),
    "epi-ri": (_cmd_epi_ri, 1),
    "image-ri": (_cmd_image_ri, 1),
    "diff-ri": (_cmd_diff_ri, 2),
    "seq-classify": (_cmd_seq_classify, 1),
    "verify": (_cmd_verify, 0),
    "verify-corpus": (_cmd_verify_corpus, 0),
}

_USAGE = ("usage: relint-kit <command> [files...] [--seed N] [--out F] [--point P]"
          " [--level L] [--matrix M]\n")
_HELP = f"""{_USAGE}
exact relative-interior and separation certificates for polyhedral convex sets

commands: {", ".join(_HANDLERS)}
options, anywhere, as `--opt value` or `--opt=value`:
  --seed N    seed for the deterministic sampling policy (default 0)
  --out F     write the JSON report to this file
  --point P   comma-separated rational coordinates
  --level L   epigraph level as a rational
  --matrix M  matrix rows 'a,b;c,d' of rationals
  -h, --help  print this text and exit
"""


def _usage_error(message: str):
    sys.stderr.write(f"{_USAGE}relint-kit: error: {message}\n")
    raise SystemExit(2)


def _parse_args(words) -> SimpleNamespace:
    """The command, files and options of an argument list, read by the
    grammar of the module docstring."""
    values = dict.fromkeys(("--seed", "--out", "--point", "--level", "--matrix"))
    positional = []
    rest = iter(words)
    for word in rest:
        if word[:1] != "-":
            positional.append(word)
        elif word in ("-h", "--help"):
            sys.stdout.write(_HELP)
            raise SystemExit(0)
        else:
            name, eq, value = word.partition("=")
            if name not in values:
                _usage_error(" ".join(["unrecognized arguments:", word, *rest]))
            values[name] = value if eq else next(rest, None)
            if values[name] is None:
                _usage_error(f"argument {name}: expected one argument")
    if not positional:
        _usage_error("the following arguments are required: command")
    if positional[0] not in _HANDLERS:
        _usage_error(f"argument command: invalid choice: {positional[0]!r} "
                     f"(choose from {', '.join(map(repr, _HANDLERS))})")
    seed = values["--seed"]
    try:
        values["--seed"] = 0 if seed is None else int(seed)
    except ValueError:
        _usage_error(f"argument --seed: invalid int value: {seed!r}")
    return SimpleNamespace(command=positional[0], files=positional[1:],
                           **{name[2:]: value for name, value in values.items()})


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    handler, needs = _HANDLERS[args.command]
    try:
        if needs and len(args.files) != needs:
            raise InputError(f"{args.command} needs {needs} instance file(s)")
        docs = [_load(p) for p in args.files[:needs]]
        body, code, lines = handler(args, docs)
    except TheoremViolation as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return 1
    except RelintKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Last resort: exit 1 means a failed check, so a defect of the
        # program exits 2 with one line instead of a traceback.
        msg = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return 2
    report = {"command": args.command, "seed": args.seed}
    report.update(body)
    report["exit_code"] = code
    text = docio.dump_report(report)
    if args.out:
        try:
            with open(args.out, "w") as f:
                f.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    for line in lines:
        print(line)
    if not args.out:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
