"""Named instance builders and the seeded random classes."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbetti.errors import ValidationError
from hyperbetti.families import classify
from hyperbetti.generators import (
    complete_graph,
    complete_uniform,
    cycle_graph,
    derive_seed,
    fan_graph,
    make_batch,
    make_instance,
    parse_class,
    path_graph,
    random_chordal,
    random_free_vertex,
    random_general,
    random_special_triangulated,
    random_uniform,
    star_hypergraph,
)
from hyperbetti.homology import betti_table
from hyperbetti.hypergraph import is_triangulated, uniformity_profile
from hyperbetti.taylor import Certificate, betti_via_taylor, certify_nonvanishing


def test_path_cycle_complete_shapes():
    p = path_graph(4)
    assert p.n == 4 and p.m == 3
    c = cycle_graph(5)
    assert c.n == 5 and c.m == 5
    k = complete_graph(4)
    assert k.m == 6
    with pytest.raises(ValidationError):
        path_graph(1)
    with pytest.raises(ValidationError):
        cycle_graph(2)


def test_fan_graph_layout():
    h = fan_graph(4)
    assert h.labels == ("z", "x1", "x2", "x3", "x4")
    # spokes first, then the path along the rim
    assert [h.edge_vertices(s) for s in range(4)] == [(0, 1), (0, 2), (0, 3), (0, 4)]
    assert h.m == 4 + 3


@pytest.mark.parametrize("n", [3, 4, 5])
def test_fan_spokes_self_ordered_in_every_order(n):
    import itertools

    h = fan_graph(n)
    spokes = tuple(range(n))
    for perm in itertools.permutations(spokes):
        assert classify(h, perm).self_ordered


def test_fan_spoke_certificate_verifies():
    h = fan_graph(4)
    cert = Certificate(kind="self_ordered", family=(0, 1, 2, 3), i=4, j=5)
    verdict = certify_nonvanishing(h, cert)
    assert verdict.ok and verdict.beta >= 1
    assert betti_table(h).get(4, 5) == verdict.beta


@pytest.mark.parametrize("d", [2, 3, 4])
def test_complete_uniform_pd_reg(d):
    h = complete_uniform(d)
    assert h.n == d + 1 and h.m == d + 1
    t = betti_via_taylor(h)
    assert t.projective_dimension() == 2
    assert t.regularity() == d - 1


@pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (3, 4)])
def test_star_hypergraph_pd_reg(d, n):
    h = star_hypergraph(d, n)
    assert h.n == (d - 1) + n and h.m == n
    assert uniformity_profile(h).d == d
    t = betti_via_taylor(h)
    assert t.projective_dimension() == n
    assert t.regularity() == d - 1


def test_derive_seed_spreads():
    seen = {derive_seed(s, k) for s in range(3) for k in range(40)}
    assert len(seen) == 120


@pytest.mark.parametrize("seed", range(6))
def test_random_general_respects_bounds(seed):
    h = random_general(7, 6, seed)
    assert h.n <= 7 and h.m <= 6
    again = random_general(7, 6, seed)
    assert again.labels == h.labels and again.edges == h.edges


@pytest.mark.parametrize("seed", range(4))
def test_random_uniform_is_uniform(seed):
    h = random_uniform(3, 7, 5, seed)
    prof = uniformity_profile(h)
    assert prof.is_uniform and prof.d == 3


@pytest.mark.parametrize("seed", range(8))
def test_random_special_triangulated_in_class(seed):
    h = random_special_triangulated(3, 9, 6, seed)
    prof = uniformity_profile(h)
    assert prof.is_special_class and prof.d == 3
    assert is_triangulated(h)


@pytest.mark.parametrize("seed", range(8))
def test_random_chordal_is_triangulated(seed):
    h = random_chordal(8, 10, seed)
    prof = uniformity_profile(h)
    assert prof.d == 2 or h.m == 0
    assert is_triangulated(h)


@pytest.mark.parametrize("seed", range(5))
def test_random_free_vertex_pd_equals_m(seed):
    h = random_free_vertex(5, seed)
    assert h.m == 5
    assert betti_via_taylor(h).projective_dimension() == 5


def test_parse_class():
    assert parse_class("general") == ("general", None)
    assert parse_class("uniform:4") == ("uniform", 4)
    assert parse_class("special:2") == ("special", 2)
    assert parse_class("chordal") == ("chordal", None)
    for bad in ("bogus", "uniform", "uniform:1", "special:x", "special:0"):
        with pytest.raises(ValidationError):
            parse_class(bad)


def test_make_instance_rejects_impossible():
    with pytest.raises(ValidationError):
        make_instance("special", 9, 5, 3, 0)


@pytest.mark.parametrize("tag", ["uniform", "special"])
def test_make_instance_needs_an_edge_size(tag):
    with pytest.raises(ValidationError, match="needs an edge size"):
        make_instance(tag, None, 6, 5, 0)


def test_make_batch_deterministic():
    a = make_batch("general", 6, 5, 4, seed=11)
    b = make_batch("general", 6, 5, 4, seed=11)
    assert len(a) == 4
    assert [(x.labels, x.edges) for x in a] == [(x.labels, x.edges) for x in b]
    c = make_batch("general", 6, 5, 4, seed=12)
    assert [(x.labels, x.edges) for x in a] != [(x.labels, x.edges) for x in c]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**40), st.integers(2, 4), st.integers(4, 48))
def test_special_generator_never_leaves_class(seed, d, n):
    h = random_special_triangulated(d, max(n, d + 1), 4, seed)
    prof = uniformity_profile(h)
    assert prof.is_special_class
    assert is_triangulated(h)
