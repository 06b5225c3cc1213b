"""Instance file formats: json, edge lists, sniffing, round trips."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbetti.errors import ParseError, UnknownVertex, ValidationError
from hyperbetti.formats import (
    detect_format,
    instance_payload,
    parse,
    parse_edgelist,
    parse_json,
    serialize,
    serialize_edgelist,
    serialize_json,
)
from hyperbetti.hypergraph import build


def test_edgelist_slash_and_newline_separators():
    h = parse_edgelist("x y / y z")
    assert h.labels == ("x", "y", "z")
    assert [h.edge_vertices(s) for s in range(2)] == [(0, 1), (1, 2)]
    same = parse_edgelist("x y\ny z\n")
    assert same.labels == h.labels and same.edges == h.edges


def test_edgelist_first_use_numbering():
    h = parse_edgelist("c a / a b")
    assert h.labels == ("c", "a", "b")


def test_edgelist_reports_line():
    with pytest.raises(ParseError) as exc:
        parse_edgelist("a b\nonlyone\nc d")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        parse_edgelist("a b / / c d")
    assert exc.value.line == 1


def test_json_happy_path():
    text = json.dumps({"vertices": ["u", "v", "w"], "edges": [[0, 1], [1, 2]]})
    h = parse_json(text)
    assert h.labels == ("u", "v", "w") and h.m == 2


@pytest.mark.parametrize(
    "payload",
    [
        '{"vertices": ["a", "b"], "edges": [[0, 1]], "extra": 1}',
        '{"vertices": "ab", "edges": [[0, 1]]}',
        '{"vertices": ["a", "b"], "edges": [[0, true]]}',
        '{"vertices": ["a", "b"]}',
        '[1, 2]',
    ],
)
def test_json_strictness(payload):
    with pytest.raises(ParseError):
        parse_json(payload)


def test_build_rejects_bool_vertex_ids():
    # bool is a subclass of int, so True would otherwise read as vertex 1,
    # an edge that parse_json already refuses
    for edge in [(True, 2), (0, False)]:
        with pytest.raises(UnknownVertex):
            build(["a", "b", "c"], [edge])


def test_json_syntax_error_carries_line():
    with pytest.raises(ParseError) as exc:
        parse_json('{"vertices": ["a", "b"],\n  "edges": [[0 1]]}')
    assert exc.value.line == 2


def test_validation_errors_surface():
    # comparable edges violate the antichain requirement
    with pytest.raises(ValidationError):
        parse_json('{"vertices": ["a", "b", "c"], "edges": [[0, 1], [0, 1, 2]]}')


def test_detect_format():
    assert detect_format('  {"vertices": [], "edges": []}') == "json"
    assert detect_format("a b / b c") == "edgelist"


def test_parse_sniffs_and_serialize_round_trips():
    for text in ('{"vertices": ["a", "b"], "edges": [[0, 1]]}', "a b / b c"):
        h = parse(text)
        for fmt in ("json", "edgelist"):
            out = serialize(h, fmt)
            again = parse(out)
            assert again.labels == h.labels and again.edges == h.edges
            # serialization is a normal form: a second pass is identical
            assert serialize(again, fmt) == out


def test_edgelist_rejects_unprintable_labels():
    # each would be written as text that parses back, without error, as
    # another hypergraph
    for label in ("a b", "a/b", "a\tb", "a\nb", ""):
        h = build([label, "c", "d"], [(0, 1), (1, 2)])
        with pytest.raises(ParseError):
            serialize_edgelist(h)


def test_serialize_json_shape():
    h = build(["a", "b", "c"], [(0, 2)])
    doc = json.loads(serialize_json(h))
    assert doc == {"vertices": ["a", "b", "c"], "edges": [[0, 2]]}


def test_instance_payload_is_replayable():
    h = build(["a", "b", "c"], [(0, 1), (1, 2)])
    payload = instance_payload(h)
    again = parse_json(json.dumps(payload))
    assert again.labels == h.labels and again.edges == h.edges


@st.composite
def hypergraphs(draw, max_n=6, max_m=5):
    n = draw(st.integers(min_value=2, max_value=max_n))
    wanted = draw(
        st.lists(
            st.sets(st.integers(0, n - 1), min_size=2, max_size=n),
            max_size=max_m,
        )
    )
    edges: list[frozenset[int]] = []
    for cand in map(frozenset, wanted):
        if any(cand <= e or e <= cand for e in edges):
            continue
        edges.append(cand)
    return build([f"v{i}" for i in range(n)], [tuple(sorted(e)) for e in edges])


@settings(max_examples=80, deadline=None)
@given(hypergraphs())
def test_round_trip_property(h):
    again = parse(serialize(h, "json"), "json")
    assert again.labels == h.labels and again.edges == h.edges
    again = parse(serialize(h, "edgelist"), "edgelist")
    # vertices are renumbered by first use and those in no edge dropped;
    # edges keep order and labels, and no edges parse back as no vertices
    used = dict.fromkeys(lab for s in range(h.m) for lab in h.edge_labels(s))
    assert again.labels == tuple(used)
    assert [set(again.edge_labels(s)) for s in range(again.m)] == [
        set(h.edge_labels(s)) for s in range(h.m)
    ]
