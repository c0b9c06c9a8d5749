"""JSON document grammar shared by the CLI, instance corpus, and reports.

Rationals travel as strings "p" or "p/q"; no floating-point literal is
ever accepted or emitted, so serialized reports are bit-identical across
platforms.  Parse errors carry the offending field path.  Every report
value reaches JSON through one encoder, `to_json`; a command names the
fields of a result object that it prints with `report_fields`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache

from .errors import InputError, TheoremViolation
from .polyhedra import HPolyhedron, VPolyhedron
from .rational import Mat, Rat, Vec, format_rational, parse_rational
from .separation import SeparationCertificate
from .seqspace import HybridSeq
from .setmaps import PLConvexFunction, PolyhedralMap

KINDS = ("hpoly", "vpoly", "map", "plfunction", "sequence")

Payload = HPolyhedron | VPolyhedron | PolyhedralMap | PLConvexFunction | HybridSeq


@dataclass(frozen=True)
class InstanceDocument:
    kind: str
    id: str
    payload: Payload


def _rat(node, path: str) -> Rat:
    if not isinstance(node, str):
        raise InputError(f"{path}: rationals must be strings, got {node!r}")
    try:
        return parse_rational(node)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _vec(node, path: str) -> Vec:
    if not isinstance(node, list):
        raise InputError(f"{path}: expected a list")
    return tuple([_rat(v, f"{path}[{i}]") for i, v in enumerate(node)])


def _matrix(node, path: str) -> Mat:
    if not isinstance(node, list):
        raise InputError(f"{path}: expected a list of rows")
    return tuple([_vec(row, f"{path}[{i}]") for i, row in enumerate(node)])


def _int(node, path: str) -> int:
    if not isinstance(node, int) or isinstance(node, bool) or node < 0:
        raise InputError(f"{path}: expected a nonnegative integer")
    return node


def _object(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise InputError(f"{path}: expected an object")
    return node


def _hpoly(node, path: str) -> HPolyhedron:
    node = _object(node, path)
    return HPolyhedron(
        _matrix(node.get("A", []), f"{path}.A"),
        _vec(node.get("b", []), f"{path}.b"),
        _matrix(node.get("E", []), f"{path}.E"),
        _vec(node.get("d", []), f"{path}.d"),
        _int(node.get("dim"), f"{path}.dim"),
    )


def _payload(kind: str, node, path: str) -> Payload:
    node = _object(node, path)
    if kind == "hpoly":
        return _hpoly(node, path)
    if kind == "vpoly":
        return VPolyhedron(
            _matrix(node.get("points", []), f"{path}.points"),
            _matrix(node.get("rays", []), f"{path}.rays"),
            _int(node.get("dim"), f"{path}.dim"),
        )
    if kind == "map":
        return PolyhedralMap(
            _hpoly(node.get("graph"), f"{path}.graph"),
            _int(node.get("m"), f"{path}.m"),
            _int(node.get("n"), f"{path}.n"),
        )
    if kind == "plfunction":
        rows = node.get("pieces")
        if not isinstance(rows, list) or not rows:
            raise InputError(f"{path}.pieces: expected a nonempty list")
        domain = _hpoly(node.get("domain"), f"{path}.domain")
        pieces = []
        for i, row in enumerate(rows):
            entries = _vec(row, f"{path}.pieces[{i}]")
            if len(entries) != domain.dim + 1:
                raise InputError(
                    f"{path}.pieces[{i}]: a piece is a slope of length {domain.dim} and "
                    f"an intercept, got a list of length {len(entries)}")
            pieces.append((entries[:-1], entries[-1]))
        return PLConvexFunction(tuple(pieces), domain)
    if kind == "sequence":
        prefix = _vec(node.get("prefix", []), f"{path}.prefix")
        tail_node = node.get("tail")
        tail = None
        if tail_node is not None:
            if not isinstance(tail_node, dict):
                raise InputError(f"{path}.tail: expected an object or null")
            tail = (
                _rat(tail_node.get("c"), f"{path}.tail.c"),
                _rat(tail_node.get("q"), f"{path}.tail.q"),
                _int(tail_node.get("start"), f"{path}.tail.start"),
            )
        return HybridSeq.make(prefix, tail)
    # `parse_instance`, the only caller, rejects every kind outside KINDS.
    raise TheoremViolation(f"unknown instance kind {kind!r}")


@lru_cache
def parse_instance(text: str, source: str = "<input>") -> InstanceDocument:
    """Parse one instance document; errors carry location information.

    The last 128 distinct (text, source) pairs are kept: equal text returns
    the same immutable document, and with it the facts its sets cache."""
    try:
        node = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{source}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    if not isinstance(node, dict):
        raise InputError(f"{source}: expected a top-level object")
    kind = node.get("kind")
    if kind not in KINDS:
        raise InputError(f"{source}: kind must be one of {KINDS}, got {kind!r}")
    ident = node.get("id", source)
    if not isinstance(ident, str):
        raise InputError(f"{source}: id must be a string")
    payload = node.get("payload")
    if payload is None:
        raise InputError(f"{source}: missing payload")
    try:
        return InstanceDocument(kind, ident, _payload(kind, payload, "payload"))
    except InputError as exc:
        raise InputError(f"{source}: {exc}") from None


# -- serialization -------------------------------------------------------------


def parse_certificate(node, path: str = "certificate") -> SeparationCertificate:
    node = _object(node, path)
    return SeparationCertificate(
        _vec(node.get("functional"), f"{path}.functional"),
        _rat(node.get("sup1"), f"{path}.sup1"),
        _rat(node.get("inf2"), f"{path}.inf2"),
        _vec(node.get("strict_witness_1"), f"{path}.strict_witness_1"),
        _vec(node.get("strict_witness_2"), f"{path}.strict_witness_2"),
    )


def report_fields(obj, *names: str) -> dict:
    """The named fields and properties of a report object, by name."""
    return {name: getattr(obj, name) for name in names}


def to_json(value):
    """The JSON form of a report value: a Fraction becomes its "p" or "p/q"
    string, a tuple or list a list, a dict or dataclass an object of its
    entries or fields; an int, bool, str or None stays as it is."""
    return _encode(value)


def _encode(value):
    # Exact type first, most frequent first: rationals and vectors fill a
    # report, so `is_dataclass` runs only for the few remaining values.  The
    # recursion stays private, so a tracer of public calls sees one per report.
    kind = type(value)
    if kind is Rat:
        return format_rational(value)
    if kind is tuple or kind is list:
        return [_encode(v) for v in value]
    if kind is bool or value is None or kind is str or kind is int:
        return value
    if kind is dict:
        return {k: _encode(v) for k, v in value.items()}
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    raise TypeError(f"no JSON form for {kind.__name__}")


def dump_report(report: dict) -> str:
    return json.dumps(to_json(report), indent=2, sort_keys=True) + "\n"
