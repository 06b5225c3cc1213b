"""The counted simpliciality and triangulation tests against their
definitions, decided here by brute force over vertex sets."""

from __future__ import annotations

import itertools

import pytest

from hyperbetti.generators import complete_uniform, cycle_graph, make_batch, path_graph
from hyperbetti.hypergraph import (
    _least_simplicial,
    _simplicial_in,
    build,
    induced_subhypergraph,
    is_triangulated,
    require_uniform,
)


def k43_minus_one():
    return build(list("wxyz"), list(itertools.combinations(range(4), 3))[1:])


def complete_3_uniform_on_5():
    return build(list("abcde"), list(itertools.combinations(range(5), 3)))


CORPUS = {
    "C4": lambda: cycle_graph(4),
    "C5": lambda: cycle_graph(5),
    "K4^3": lambda: complete_uniform(3),
    "K4^3 minus a triple": k43_minus_one,
    "K5^3": complete_3_uniform_on_5,
    "special:2": lambda: make_batch("special:2", 7, 7, 6, 11),
    "special:3": lambda: make_batch("special:3", 7, 7, 6, 12),
    "special:4": lambda: make_batch("special:4", 7, 7, 6, 13),
    "chordal": lambda: make_batch("chordal", 7, 8, 6, 14),
    "uniform:2": lambda: make_batch("uniform:2", 7, 9, 6, 15),
    "uniform:3": lambda: make_batch("uniform:3", 7, 8, 6, 16),
}


def _instances(name):
    made = CORPUS[name]()
    return made if isinstance(made, list) else [made]


def _edge_sets(h):
    return [frozenset(v for v in range(h.n) if mask >> v & 1) for mask in h.edges]


def _oracle_simplicial(edges, x, w):
    """Every d-subset of the closed neighborhood of x, taken among the
    edges inside w, is an edge."""
    inside = [e for e in edges if e <= w]
    closed = {x}.union(*(e for e in inside if x in e))
    d = len(edges[0])
    return all(frozenset(c) in inside for c in itertools.combinations(sorted(closed), d))


def _oracle_triangulated(edges, w):
    """Every nonempty subset of w has a vertex simplicial in it."""
    return all(any(_oracle_simplicial(edges, x, set(sub)) for x in sub)
               for r in range(1, len(w) + 1)
               for sub in itertools.combinations(sorted(w), r))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_counted_tests_match_the_definition_on_every_induced_subhypergraph(name):
    for h in _instances(name):
        assert h.n <= 7 and h.m
        edges = _edge_sets(h)
        for r in range(1, h.n + 1):
            for w in itertools.combinations(range(h.n), r):
                g, _ = induced_subhypergraph(h, w)
                assert is_triangulated(g) == _oracle_triangulated(edges, set(w)), (h, w)
                if not g.m:
                    continue
                d = require_uniform(g)
                simplicial = [_oracle_simplicial(edges, x, set(w)) for x in w]
                assert [_simplicial_in(g.edges, y, d) for y in range(g.n)] == simplicial, (h, w)
                covered = set().union(*(e for e in edges if e <= set(w)))
                least = next((y for y, x in enumerate(w) if x in covered and simplicial[y]), None)
                assert _least_simplicial(g.edges, d) == least, (h, w)


def test_the_corpus_holds_both_answers():
    answers = {is_triangulated(h) for name in CORPUS for h in _instances(name)}
    assert answers == {True, False}
    assert not is_triangulated(cycle_graph(5))
    assert not is_triangulated(k43_minus_one())
    assert is_triangulated(complete_3_uniform_on_5())


def test_triangulation_test_has_no_vertex_cap():
    assert is_triangulated(path_graph(20))
