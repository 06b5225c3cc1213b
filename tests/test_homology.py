"""Betti tables from restriction homology, gated by the brute oracle.

The frozen tables below were computed first with tests/oracle.py, which
shares no code with the engine under test. Everything else must agree
with them exactly.
"""

from __future__ import annotations

import pytest

import hyperbetti.homology as homology
from hyperbetti import limits
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


def test_elimination_stops_at_the_kernel_dimension(monkeypatch):
    # With no edges every restriction is a full simplex, which is
    # acyclic, so each boundary rank meets its kernel bound and at least
    # one row of the top two levels is never read.
    rank_of = homology.rank_of
    faces_read = []

    def counting_rank_of(rows, field, limit=None):
        drawn = []

        def rows_read():
            for row in rows:
                drawn.append(row)
                yield row

        rank = rank_of(rows_read(), field, limit=limit)
        faces_read.append(len(drawn))
        return rank

    monkeypatch.setattr(homology, "rank_of", counting_rank_of)
    for field in (QQ, GF2, GF3):
        faces_read.clear()
        by_dim = independent_faces(build([f"v{i}" for i in range(6)], []), 0b111111)
        assert reduced_homology_dims(by_dim, field) == [0]
        assert len(faces_read) == len(by_dim) - 1
        # d_5 has rank 1 and d_4 rank 5: the sixth 4-face is never read
        assert faces_read[-2:] == [5, 1]
        assert sum(faces_read) < sum(len(level) for level in by_dim[1:])


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
