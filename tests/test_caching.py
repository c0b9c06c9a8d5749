"""Where derived facts are cached: on the object they describe, and in the
one bounded parse cache."""

import gc
import json
import weakref

from relint_kit.docio import parse_instance
from relint_kit.polyhedra import HPolyhedron, h_to_v, is_empty
from relint_kit.rational import Rat, vec
from relint_kit.setmaps import PLConvexFunction, PolyhedralMap, epi_polyhedron, map_domain


def test_cached_facts_are_freed_with_their_objects():
    P = HPolyhedron.make(A=[[1, 0], [-1, 0], [0, 1], [0, -1]], b=[7, 0, 7, 0])
    F = PolyhedralMap(HPolyhedron.make(A=[[-1, 0], [1, -1], [0, 1]], b=[0, 0, 7]), 1, 1)
    f = PLConvexFunction(((vec([1]), Rat(7)),), HPolyhedron.make(A=[[1], [-1]], b=[7, 0]))
    assert not is_empty(P)
    assert len(h_to_v(P).points) == 4
    assert map_domain(F).dim == 1
    assert epi_polyhedron(f).dim == 2
    refs = [weakref.ref(obj) for obj in (P, F, F.graph, f, f.domain)]
    del P, F, f
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_parse_instance_returns_one_document_per_text():
    text = json.dumps({"kind": "hpoly", "id": "box",
                       "payload": {"A": [["1"], ["-1"]], "b": ["5", "0"], "dim": 1}})
    doc = parse_instance(text, "box.json")
    assert parse_instance(text, "box.json") is doc
    other = parse_instance(text.replace('"5"', '"6"'), "box.json")
    assert other is not doc and other.payload.b == (6, 0)
    assert parse_instance.cache_info().maxsize == 128
