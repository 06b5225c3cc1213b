"""Reading and writing instances.

Two formats:

* ``json``: ``{"vertices": ["x", ...], "edges": [[0, 1], ...]}`` with
  edges as lists of vertex indices. This is the canonical form; vertex
  order is exactly the listed order, and it round-trips losslessly.
* ``edgelist``: one edge per line, vertex labels separated by
  whitespace; ``/`` separates several edges on one line. It keeps every
  edge, in order, with its labels, but numbers vertices in order of
  first use and drops any vertex in no edge, so it round-trips only up
  to that renumbering.

Structural problems (bad shape, empty edge) raise :class:`ParseError`
with a line number where one makes sense; semantic problems (duplicate
edges, containment) surface as the usual validation errors.
"""

from __future__ import annotations

import json

from .errors import ParseError
from .hypergraph import Hypergraph, build, from_edge_labels

FORMATS = ("json", "edgelist")


def parse_json(text: str) -> Hypergraph:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid json: {exc.msg}", line=exc.lineno) from None
    if not isinstance(payload, dict):
        raise ParseError("top level must be an object with 'vertices' and 'edges'")
    extra = set(payload) - {"vertices", "edges"}
    if extra:
        raise ParseError(f"unknown keys {sorted(extra)}")
    vertices = payload.get("vertices")
    edges = payload.get("edges")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ParseError("'vertices' must be a list of strings")
    if not isinstance(edges, list) or not all(isinstance(e, list) for e in edges):
        raise ParseError("'edges' must be a list of lists of vertex indices")
    for pos, edge in enumerate(edges):
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in edge):
            raise ParseError(f"edge {pos} must contain integer vertex indices")
    return build(vertices, [tuple(e) for e in edges])


def serialize_json(h: Hypergraph) -> str:
    return json.dumps(instance_payload(h), indent=2) + "\n"


def parse_edgelist(text: str) -> Hypergraph:
    edges: list[list[str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        for chunk in line.split("/"):
            names = chunk.split()
            if not names:
                raise ParseError("empty edge", line=lineno)
            if len(set(names)) < 2:
                raise ParseError(
                    f"edge needs at least two distinct vertices, got {chunk.strip()!r}",
                    line=lineno)
            edges.append(names)
    return from_edge_labels(edges)


def serialize_edgelist(h: Hypergraph) -> str:
    # a label reads back as itself only when it is one whitespace-split word
    if any(lab.split() != [lab] or "/" in lab for lab in h.labels):
        raise ParseError(
            "labels that are empty or hold whitespace or '/' cannot be written as an edge list")
    return "".join(" ".join(h.edge_labels(s)) + "\n" for s in range(h.m))


def detect_format(text: str) -> str:
    return "json" if text.lstrip().startswith("{") else "edgelist"


def parse(text: str, fmt: str | None = None) -> Hypergraph:
    """Parse either format; sniffs json by a leading brace when unspecified."""
    fmt = fmt or detect_format(text)
    if fmt == "json":
        return parse_json(text)
    if fmt == "edgelist":
        return parse_edgelist(text)
    raise ParseError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def serialize(h: Hypergraph, fmt: str = "json") -> str:
    if fmt == "json":
        return serialize_json(h)
    if fmt == "edgelist":
        return serialize_edgelist(h)
    raise ParseError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def instance_payload(h: Hypergraph) -> dict:
    """Embeddable json object for reports and counterexamples."""
    return {
        "vertices": list(h.labels),
        "edges": [list(h.edge_vertices(s)) for s in range(h.m)],
    }
