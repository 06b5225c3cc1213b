"""Betti tables from restriction homology, gated by the brute oracle.

The frozen tables below were computed first with tests/oracle.py, which
shares no code with the engine under test. Everything else must agree
with them exactly.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperbetti.homology as homology
from hyperbetti import limits
from hyperbetti.bitsets import bits_of, is_subset, mask_of, tuple_of
from hyperbetti.checks import run_checks
from hyperbetti.errors import SizeCapExceeded
from hyperbetti.generators import make_batch
from hyperbetti.homology import (
    betti_table,
    independent_faces,
    reduced_homology_dims,
    table_from_homology,
    homology_of_restrictions,
)
from hyperbetti.hypergraph import build
from hyperbetti.linalg import GF2, QQ, Field
from hyperbetti.taylor import betti_via_lyubeznik, betti_via_taylor

from conftest import cycle_graph, path_graph
from oracle import oracle_betti
from test_families import sized_hypergraphs

FROZEN = {
    "P3": {(0, 0): 1, (1, 2): 2, (2, 3): 1},
    "C3": {(0, 0): 1, (1, 2): 3, (2, 3): 2},
    "C4": {(0, 0): 1, (1, 2): 4, (2, 3): 4, (3, 4): 1},
    "P6": {(0, 0): 1, (1, 2): 5, (2, 3): 4, (2, 4): 3, (3, 5): 4, (4, 6): 1},
}


def _instances():
    return {
        "P3": path_graph(3),
        "C3": cycle_graph(3),
        "C4": cycle_graph(4),
        "P6": path_graph(6),
    }


def test_oracle_matches_frozen_tables():
    # guards the oracle itself against drift
    for name, h in _instances().items():
        assert oracle_betti(h.n, [h.edge_vertices(s) for s in range(h.m)]) == FROZEN[name]


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_engine_matches_oracle(name):
    h = _instances()[name]
    assert betti_table(h, QQ).entries == FROZEN[name]


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_gf2_agrees_here(name):
    h = _instances()[name]
    assert betti_table(h, GF2).entries == FROZEN[name]


def test_edgeless_table():
    h = build(["a", "b", "c"], [])
    t = betti_table(h)
    assert t.entries == {(0, 0): 1}
    assert t.projective_dimension() == 0
    assert t.regularity() == 0


def test_single_edge_table():
    h = build(["a", "b", "c"], [(0, 2)])
    assert betti_table(h).entries == {(0, 0): 1, (1, 2): 1}


def test_pd_reg_values(p6=None):
    t = betti_table(_instances()["P6"])
    assert t.projective_dimension() == 4
    assert t.regularity() == 2
    t = betti_table(_instances()["C4"])
    assert t.projective_dimension() == 3
    assert t.regularity() == 1


def test_faces_of_four_cycle():
    h = cycle_graph(4)
    by_dim = independent_faces(h, h.vertex_mask)
    assert [len(level) for level in by_dim] == [4, 2]
    # two disjoint segments: one reduced homology class in degree 0
    assert reduced_homology_dims(by_dim, QQ) == [0, 1]


def test_empty_restriction_contributes_identity():
    h = cycle_graph(3)
    assert reduced_homology_dims(independent_faces(h, 0), QQ) == [1]


def test_restriction_table_counts_inside_subset():
    h = path_graph(4)
    hom = homology_of_restrictions(h, QQ)
    # restriction to the first three vertices is a path with two edges
    sub = table_from_homology(hom, QQ, h.n, within=0b0111)
    assert sub.entries == FROZEN["P3"]


def test_vertex_cap_enforced():
    h = build([f"v{i}" for i in range(15)], [(0, 1)])
    with pytest.raises(SizeCapExceeded):
        betti_table(h)


def test_cap_is_read_at_call_time(monkeypatch):
    monkeypatch.delenv("BETTI_CAP_N", raising=False)
    monkeypatch.setattr(limits, "BETTI_CAP_N", 3)
    h = build(["a", "b", "c", "d"], [(0, 1), (2, 3)])
    with pytest.raises(SizeCapExceeded, match="Betti cap 3"):
        betti_table(h)
    monkeypatch.setattr(limits, "BETTI_CAP_N", 4)
    assert betti_table(h).get(2, 4) == 1


def test_cap_env_override(monkeypatch):
    h = build(["a", "b", "c", "d", "e"], [(0, 1)])
    monkeypatch.setenv("BETTI_CAP_N", "4")
    with pytest.raises(SizeCapExceeded):
        betti_table(h)
    monkeypatch.setenv("BETTI_CAP_N", "5")
    assert betti_table(h).get(1, 2) == 1


# The triples that are not faces of the 6-vertex triangulation of the
# real projective plane. Every pair of vertices lies in a face, so the
# independence complex is RP^2 itself, whose homology has 2-torsion.
RP2_NON_FACES = [(0, 1, 3), (0, 1, 4), (0, 2, 4), (0, 2, 5), (0, 3, 5),
                 (1, 2, 3), (1, 2, 5), (1, 4, 5), (2, 3, 4), (3, 4, 5)]


GF3 = Field(3)


def _count_rows_read(monkeypatch) -> list[int]:
    """Patch the homology module's ``rank_of`` to record, per call, how
    many boundary rows it reads."""
    rank_of = homology.rank_of
    rows_read: list[int] = []

    def counting_rank_of(rows, field, limit=None):
        drawn = []

        def rows_drawn():
            for row in rows:
                drawn.append(row)
                yield row

        rank = rank_of(rows_drawn(), field, limit=limit)
        rows_read.append(len(drawn))
        return rank

    monkeypatch.setattr(homology, "rank_of", counting_rank_of)
    return rows_read


def test_elimination_stops_at_the_kernel_dimension(monkeypatch):
    # One 6-vertex edge on 6 vertices: the independence complex is the
    # boundary of the 5-simplex, a 4-sphere with no apex. Each boundary
    # rank below the top meets its kernel bound, so the rows past it are
    # never read.
    rows_read = _count_rows_read(monkeypatch)
    sphere = build([f"v{i}" for i in range(6)], [tuple(range(6))])
    for field in (QQ, GF2, GF3):
        rows_read.clear()
        by_dim = independent_faces(sphere, 0b111111)
        assert [len(level) for level in by_dim] == [6, 15, 20, 15, 6]
        assert reduced_homology_dims(by_dim, field) == [0, 0, 0, 0, 0, 1]
        assert rows_read == [5, 10, 10, 5]
    # With no edges the restriction is the full 5-simplex, a cone, so
    # no boundary row is read at all.
    rows_read.clear()
    simplex = build([f"v{i}" for i in range(6)], [])
    for field in (QQ, GF2, GF3):
        assert reduced_homology_dims(independent_faces(simplex, 0b111111), field) == [0]
    assert rows_read == []


def test_faces_come_in_lexicographic_order():
    # two disjoint edges: numeric order would put 6 before 9
    h = build(["a", "b", "c", "d"], [(0, 1), (2, 3)])
    assert independent_faces(h, 0b1111) == [[1, 2, 4, 8], [5, 9, 6, 10]]


@settings(max_examples=50, deadline=None)
@given(sized_hypergraphs(), st.randoms(use_true_random=False))
def test_faces_are_the_edge_free_subsets(h, rng):
    for wmask in [0, h.vertex_mask] + [rng.randrange(1 << h.n) for _ in range(6)]:
        expected = []
        for size in range(1, wmask.bit_count() + 1):
            level = [mask_of(c) for c in itertools.combinations(tuple_of(wmask), size)]
            level = [f for f in level if not any(is_subset(e, f) for e in h.edges)]
            if not level:
                break
            expected.append(level)
        assert independent_faces(h, wmask) == expected


def test_cones_are_exactly_the_restrictions_outside_the_lcm_lattice(monkeypatch):
    # Elimination calls rank_of once per level above the vertices; the
    # cone shortcut is the only way to call it less.
    rows_read = _count_rows_read(monkeypatch)
    rp2 = build([f"p{i}" for i in range(6)], RP2_NON_FACES)
    instances = (make_batch("general", 8, 8, 2, 12) + make_batch("uniform:2", 9, 14, 2, 12)
                 + [rp2])
    skipped = 0
    for h in instances:
        for wmask in range(1 << h.n):
            union = 0
            for mask in h.edges:
                if is_subset(mask, wmask):
                    union |= mask
            by_dim = independent_faces(h, wmask)
            rows_read.clear()
            dims = reduced_homology_dims(by_dim, QQ)
            if union != wmask:
                assert (rows_read, dims) == ([], [0])
                skipped += len(by_dim) > 1
            else:
                assert len(rows_read) == max(len(by_dim) - 1, 0)
    assert skipped > 100


def _link_is_a_cone(faces: list[int], wmask: int, v: int) -> bool:
    """Whether some u in W - v extends every face that contains v: the
    faces containing v are the link's faces with v added, and u is an
    apex of the link exactly when it lies in half of them."""
    star = [face for face in faces if face >> v & 1]
    return any(len(star) == 2 * sum(1 for face in star if face >> u & 1)
               for u in bits_of(wmask) if u != v)


@settings(max_examples=60, deadline=None)
@given(sized_hypergraphs(), st.randoms(use_true_random=False))
def test_fold_vertex_is_the_first_vertex_whose_link_is_a_cone(h, rng):
    for wmask in [h.vertex_mask] + [rng.randrange(1 << h.n) for _ in range(8)]:
        faces = [face for level in independent_faces(h, wmask) for face in level]
        expected = next((v for v in bits_of(wmask) if _link_is_a_cone(faces, wmask, v)), None)
        assert homology._fold_vertex(h, wmask) == expected


def test_fold_vertex_on_graphs_is_the_neighbourhood_fold():
    # Engstrom's graph fold: v folds when some u not adjacent to it has
    # N(u) inside N(v), both taken inside W
    graphs = make_batch("uniform:2", 9, 14, 3, 15) + make_batch("uniform:2", 8, 20, 2, 15)
    for h in graphs:
        nbrs = [0] * h.n
        for mask in h.edges:
            a, b = tuple_of(mask)
            nbrs[a] |= 1 << b
            nbrs[b] |= 1 << a
        for wmask in range(1 << h.n):
            def folds(v):
                return any(not nbrs[v] >> u & 1 and nbrs[u] & wmask & ~nbrs[v] == 0
                           for u in bits_of(wmask) if u != v)
            expected = next((v for v in bits_of(wmask) if folds(v)), None)
            assert homology._fold_vertex(h, wmask) == expected, (h, wmask)


def _fold_corpus():
    return ([build([f"p{i}" for i in range(6)], RP2_NON_FACES)]
            + [h for spec, n, m in (("general", 8, 8), ("general", 9, 10), ("uniform:2", 9, 14),
                                    ("uniform:3", 9, 10), ("chordal", 9, 9), ("special:3", 9, 8))
               for h in make_batch(spec, n, m, 2, 21)])


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=str)
def test_folds_leave_the_restriction_map_unchanged(field):
    for h in _fold_corpus():
        unfolded = {wmask: reduced_homology_dims(independent_faces(h, wmask), field)
                    for wmask in range(1 << h.n)}
        assert homology_of_restrictions(h, field) == unfolded, h


def test_elimination_runs_only_where_no_vertex_folds(monkeypatch):
    rows_read = _count_rows_read(monkeypatch)
    faces = homology.independent_faces
    starts: list[tuple[int, int]] = []  # (W, rank_of calls before W)

    def recording_faces(h, wmask):
        starts.append((wmask, len(rows_read)))
        return faces(h, wmask)

    monkeypatch.setattr(homology, "independent_faces", recording_faces)
    saved = 0
    for h in _fold_corpus():
        starts.clear()
        rows_read.clear()
        homology_of_restrictions(h, QQ)
        ends = [calls for _, calls in starts[1:]] + [len(rows_read)]
        for (wmask, before), after in zip(starts, ends):
            by_dim = faces(h, wmask)
            # without the fold test, elimination runs on every W whose
            # complex has edges and no apex
            eliminates = len(by_dim) > 1 and not homology._is_cone(by_dim)
            folded = homology._fold_vertex(h, wmask) is not None
            assert (after > before) == (eliminates and not folded), (h, wmask)
            saved += eliminates and folded
    # measured: 947 of the 1,212 W that eliminate without folds
    assert saved > 900


def test_rp2_table_depends_on_the_field():
    h = build([f"p{i}" for i in range(6)], RP2_NON_FACES)
    tables = {field: betti_table(h, field) for field in (QQ, GF2, GF3)}
    for field, table in tables.items():
        assert table.entries == oracle_betti(6, RP2_NON_FACES, field.p)
        assert betti_via_taylor(h, field).entries == table.entries
        assert betti_via_lyubeznik(h, field).entries == table.entries
        assert run_checks(h, field).ok
    qq, gf2 = tables[QQ], tables[GF2]
    assert (qq.projective_dimension(), qq.regularity()) == (3, 2)
    assert (gf2.projective_dimension(), gf2.regularity()) == (4, 3)
    assert tables[GF3].entries == qq.entries


@pytest.mark.parametrize("field", [GF2, GF3], ids=str)
def test_prime_field_tables_match_the_oracle(field):
    for h in make_batch("general", 6, 6, 12, 606):
        edges = [h.edge_vertices(s) for s in range(h.m)]
        expected = oracle_betti(h.n, edges, field.p)
        assert betti_table(h, field).entries == expected
        assert betti_via_taylor(h, field).entries == expected
        assert betti_via_lyubeznik(h, field).entries == expected
