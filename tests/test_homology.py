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
    BettiTable,
    betti_table,
    independent_faces,
    reduced_homology_dims,
    table_from_homology,
    homology_of_restrictions,
)
from hyperbetti.hypergraph import Hypergraph, build
from hyperbetti.linalg import GF2, QQ, Field, rank_of
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


def test_printed_columns_fit_the_widest_entry():
    # entries of at most 6 digits keep the 7-character columns
    narrow = BettiTable({(0, 0): 1, (1, 2): 123456, (2, 3): 2})
    assert str(narrow) == ("      j=0    j=1    j=2    j=3\n"
                           "i=0   1      .      .      .\n"
                           "i=1   .      .      123456 .\n"
                           "i=2   .      .      .      2\n"
                           "pd=2  reg=1  field=QQ")
    # an 8-digit entry widens every column, the header's too, to 9
    wide = BettiTable({(0, 0): 1, (1, 2): 12345678, (2, 3): 1234567})
    assert str(wide) == ("      j=0      j=1      j=2      j=3\n"
                         "i=0   1        .        .        .\n"
                         "i=1   .        .        12345678 .\n"
                         "i=2   .        .        .        1234567\n"
                         "pd=2  reg=1  field=QQ")


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
    by_dim = independent_faces(h, (1 << h.n) - 1)
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
    sub = table_from_homology(hom, QQ, within=0b0111)
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


def _relative_cells(by_dim: list[list[int]]) -> list[list[int]]:
    """The cells of the complex relative to the star of its lowest
    vertex v, level by level, from the face set alone: the faces F
    without v for which F + v is not a face."""
    if not by_dim:
        return []
    v = by_dim[0][0]
    faces = {face for level in by_dim for face in level}
    return [[face for face in level if not face & v and face | v not in faces]
            for level in by_dim]


def test_elimination_stops_at_the_kernel_dimension(monkeypatch):
    # One 6-vertex edge on 6 vertices: the independence complex is the
    # boundary of the 5-simplex, a 4-sphere. Relative to the star of
    # vertex 0 it has a single cell, {1, ..., 5}, so no boundary row is
    # read at all.
    rows_read = _count_rows_read(monkeypatch)
    sphere = build([f"v{i}" for i in range(6)], [tuple(range(6))])
    for field in (QQ, GF2, GF3):
        rows_read.clear()
        by_dim = independent_faces(sphere, 0b111111)
        assert [len(level) for level in by_dim] == [6, 15, 20, 15, 6]
        assert _relative_cells(by_dim) == [[], [], [], [], [0b111110]]
        assert reduced_homology_dims(by_dim, field) == [0, 0, 0, 0, 0, 1]
        assert rows_read == []
    # Three disjoint edges: the octahedral 2-sphere. Relative to the
    # star of vertex 0 its cells are {1}, the four {1, u} with u in
    # 2..5, and the four triangles {1, a, b}, a in {2, 3}, b in {4, 5}.
    # d_1 meets its bound |C_0| = 1 at its first row, and d_2 its bound
    # |C_1| - 1 = 3 at its third, so each reads fewer rows than it has.
    octahedron = build([f"v{i}" for i in range(6)], [(0, 1), (2, 3), (4, 5)])
    for field in (QQ, GF2, GF3):
        rows_read.clear()
        by_dim = independent_faces(octahedron, 0b111111)
        assert [len(level) for level in by_dim] == [6, 12, 8]
        assert [len(level) for level in _relative_cells(by_dim)] == [1, 4, 4]
        assert reduced_homology_dims(by_dim, field) == [0, 0, 0, 1]
        assert rows_read == [1, 3]
    # With no edges every restriction is a simplex, a cone: the map
    # folds each W with two or more vertices, so no boundary row is
    # read at all.
    rows_read.clear()
    simplex = build([f"v{i}" for i in range(6)], [])
    for field in (QQ, GF2, GF3):
        hom = homology_of_restrictions(simplex, field)
        assert hom == {wmask: [0] if wmask else [1] for wmask in range(1 << 6)}
    assert rows_read == []


def _full_complex_dims(by_dim: list[list[int]], field: Field) -> list[int]:
    """Reduced homology by elimination on the whole complex, the empty
    face included at level -1: the dims list of
    :func:`reduced_homology_dims`, computed without the relative
    complex."""
    levels = [[0]] + by_dim
    ranks = [0]  # the map out of the empty face is zero
    for k in range(1, len(levels)):
        index = {face: idx for idx, face in enumerate(levels[k - 1])}
        rows = [{index[face ^ (1 << u)]: (-1) ** pos for pos, u in enumerate(bits_of(face))}
                for face in levels[k]]
        ranks.append(rank_of(rows, field))
    ranks.append(0)
    dims = [len(levels[k]) - ranks[k] - ranks[k + 1] for k in range(len(levels))]
    while len(dims) > 1 and dims[-1] == 0:
        dims.pop()
    return dims


def test_faces_come_in_lexicographic_order():
    # two disjoint edges: numeric order would put 6 before 9
    h = build(["a", "b", "c", "d"], [(0, 1), (2, 3)])
    assert independent_faces(h, 0b1111) == [[1, 2, 4, 8], [5, 9, 6, 10]]


@settings(max_examples=50, deadline=None)
@given(sized_hypergraphs(), st.randoms(use_true_random=False))
def test_faces_are_the_edge_free_subsets(h, rng):
    for wmask in [0, (1 << h.n) - 1] + [rng.randrange(1 << h.n) for _ in range(6)]:
        expected = _edge_free_subsets(h, wmask)
        assert independent_faces(h, wmask) == expected
        assert _grown_from_below(h, wmask) == expected


def _grown_from_below(h, wmask: int) -> list[list[int]]:
    """The faces of W grown from those of W less its lowest vertex."""
    return independent_faces(h, wmask, independent_faces(h, wmask & (wmask - 1)))


def _edge_free_subsets(h, wmask: int) -> list[list[int]]:
    """The faces by brute force: every subset of W with no edge, level
    by level, each level in lexicographic order of its sorted tuples."""
    expected = []
    for size in range(1, wmask.bit_count() + 1):
        level = [mask_of(c) for c in itertools.combinations(tuple_of(wmask), size)]
        level = [f for f in level if not any(is_subset(e, f) for e in h.edges)]
        if not level:
            break
        expected.append(level)
    return expected


def _clutters(n: int) -> list[tuple[int, ...]]:
    """Every labelled clutter on n vertices: every antichain of vertex
    sets with two or more vertices, as edge-mask tuples."""
    sets = [mask for mask in range(1 << n) if mask.bit_count() >= 2]
    out = []

    def extend(start: int, chosen: tuple[int, ...]) -> None:
        out.append(chosen)
        for idx in range(start, len(sets)):
            mask = sets[idx]
            if all(not is_subset(mask, e) and not is_subset(e, mask) for e in chosen):
                extend(idx + 1, chosen + (mask,))

    extend(0, ())
    return out


def test_faces_of_every_small_clutter_are_its_edge_free_subsets():
    # every W on up to 4 vertices, and W = V for all of 5 (each W of
    # every 5-vertex clutter takes several seconds, too long here)
    clutters = {n: _clutters(n) for n in range(6)}
    assert {n: len(c) for n, c in clutters.items()} == {0: 1, 1: 1, 2: 2, 3: 9, 4: 114, 5: 6894}
    for n, family in clutters.items():
        for edges in family:
            h = Hypergraph(tuple(map(str, range(n))), edges)
            for wmask in range(1 << n) if n < 5 else [(1 << h.n) - 1]:
                expected = _edge_free_subsets(h, wmask)
                assert independent_faces(h, wmask) == expected, (h, wmask)
                assert _grown_from_below(h, wmask) == expected, (h, wmask)


def _extension_rows(h) -> list[tuple[int, tuple[int, ...]]]:
    """The extension table by its definition: per vertex v, the mask of
    the other vertices of the 2-edges whose lowest vertex is v, and e - v
    for each larger such edge e, in edge order."""
    rows = []
    for v in range(h.n):
        lowest = [tuple_of(mask) for mask in h.edges if min(tuple_of(mask)) == v]
        rows.append((mask_of(e[1] for e in lowest if len(e) == 2),
                     tuple(mask_of(e[1:]) for e in lowest if len(e) > 2)))
    return rows


def test_the_extension_table_follows_the_hypergraph():
    # The table is cached per hypergraph, so each call below must read
    # the table of its own vertices and edges, not the last call's:
    # first equal edges on 3 and 6 vertices (3-5 lie above every edge),
    # then 6 vertices with other edges, and 6 with none.
    names = [f"v{i}" for i in range(6)]
    small = build(names[:3], [(0, 1, 2)])
    above = build(names, [(0, 1, 2)])
    other = build(names, [(0, 1), (1, 2)])
    edgeless = build(names, [])
    for h in (small, above, small, above, other, above, other, edgeless, other):
        assert homology._extension_table(h.n, h.edges) == _extension_rows(h), h
        assert independent_faces(h, 0) == []
        for wmask in range(1 << h.n):
            expected = _edge_free_subsets(h, wmask)
            assert independent_faces(h, wmask) == expected, (h, wmask)
            assert _grown_from_below(h, wmask) == expected, (h, wmask)
    assert [len(level) for level in independent_faces(edgeless, (1 << edgeless.n) - 1)] == [
        6, 15, 20, 15, 6, 1]


def test_cones_are_exactly_the_restrictions_outside_the_lcm_lattice(monkeypatch):
    # A cone has an apex, a vertex in half of all faces, the empty face
    # counted. Outside the lattice the map folds every W with two or
    # more vertices, so elimination, which calls rank_of once per pair
    # of adjacent nonempty levels of the relative complex, never runs
    # there.
    rows_read = _count_rows_read(monkeypatch)
    rp2 = build([f"p{i}" for i in range(6)], RP2_NON_FACES)
    instances = (make_batch("general", 8, 8, 2, 12) + make_batch("uniform:2", 9, 14, 2, 12)
                 + [rp2])
    folded = 0
    for h in instances:
        for wmask in range(1 << h.n):
            union = 0
            for mask in h.edges:
                if is_subset(mask, wmask):
                    union |= mask
            by_dim = independent_faces(h, wmask)
            faces = [face for level in by_dim for face in level]
            cone = any(1 + len(faces) == 2 * sum(1 for face in faces if face >> v & 1)
                       for v in bits_of(wmask))
            assert cone == (union != wmask)
            rows_read.clear()
            dims = reduced_homology_dims(by_dim, QQ)
            cells = _relative_cells(by_dim)
            assert len(rows_read) == sum(1 for k in range(1, len(cells))
                                         if cells[k] and cells[k - 1])
            if cone:
                assert dims == [0]
                if wmask.bit_count() >= 2:
                    assert homology._fold_vertex(h, wmask) is not None, (h, wmask)
                    folded += len(by_dim) > 1
    # measured: 922 cones with edges
    assert folded > 900


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
    for wmask in [(1 << h.n) - 1] + [rng.randrange(1 << h.n) for _ in range(8)]:
        faces = [face for level in independent_faces(h, wmask) for face in level]
        expected = next((v for v in bits_of(wmask) if _link_is_a_cone(faces, wmask, v)), None)
        assert homology._fold_vertex(h, wmask) == expected


def test_fold_vertex_and_elimination_on_every_small_clutter():
    # every W of every clutter on up to 4 vertices, and W = V for all of
    # 5; elimination on the relative complex against the whole complex
    for n, family in ((n, _clutters(n)) for n in range(6)):
        for edges in family:
            h = Hypergraph(tuple(map(str, range(n))), edges)
            for wmask in range(1 << n) if n < 5 else [(1 << h.n) - 1]:
                by_dim = independent_faces(h, wmask)
                faces = [face for level in by_dim for face in level]
                expected = next((v for v in bits_of(wmask) if _link_is_a_cone(faces, wmask, v)),
                                None)
                assert homology._fold_vertex(h, wmask) == expected, (h, wmask)
                for field in (QQ, GF2):
                    assert reduced_homology_dims(by_dim, field) == _full_complex_dims(
                        by_dim, field), (h, wmask, field)


def _link_rows(h) -> list[tuple[tuple[int, int], ...]]:
    """The link table by its definition: per vertex v, in edge order,
    (e, e - v) for each edge through v, and (e, e) for each edge missing
    v that holds no e' - v with v in e'."""
    rows = []
    for v in range(h.n):
        bit = 1 << v
        rests = [mask ^ bit for mask in h.edges if mask & bit]
        rows.append(tuple((mask, mask & ~bit) for mask in h.edges
                          if mask & bit or not any(is_subset(rest, mask) for rest in rests)))
    return rows


def test_the_link_table_follows_the_hypergraph():
    # The table is cached per hypergraph, so each call below must read
    # the table of its own vertices and edges, not the last call's:
    # equal edges on 3 and 6 vertices, then 6 vertices with other edges
    # (on which {0, 1, 2} folds at another vertex), and 6 with none.
    names = [f"v{i}" for i in range(6)]
    small = build(names[:3], [(0, 1), (1, 2)])
    above = build(names, [(0, 1), (1, 2)])
    other = build(names, [(0, 2), (1, 2), (3, 4, 5)])
    edgeless = build(names, [])
    for h in (small, above, small, above, other, above, other, edgeless, other):
        assert homology._link_table(h.n, h.edges) == _link_rows(h), h
        for wmask in range(1 << h.n):
            faces = [face for level in independent_faces(h, wmask) for face in level]
            expected = next((v for v in bits_of(wmask) if _link_is_a_cone(faces, wmask, v)), None)
            assert homology._fold_vertex(h, wmask) == expected, (h, wmask)


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

    def recording_faces(h, wmask, *below):
        starts.append((wmask, len(rows_read)))
        return faces(h, wmask, *below)

    monkeypatch.setattr(homology, "independent_faces", recording_faces)
    saved = 0
    for h in _fold_corpus():
        starts.clear()
        rows_read.clear()
        homology_of_restrictions(h, QQ)
        ends = [calls for _, calls in starts[1:]] + [len(rows_read)]
        for (wmask, before), after in zip(starts, ends):
            cells = _relative_cells(faces(h, wmask))
            # without the fold test, elimination runs on every W whose
            # relative complex has two adjacent nonempty levels
            eliminates = any(cells[k] and cells[k - 1] for k in range(1, len(cells)))
            folded = homology._fold_vertex(h, wmask) is not None
            assert (after > before) == (eliminates and not folded), (h, wmask)
            saved += eliminates and folded
    # measured: 2,173 of the 2,363 W whose relative complex has two
    # adjacent nonempty levels
    assert saved == 2173


def test_each_restriction_grows_from_the_faces_of_w_less_its_lowest_vertex(monkeypatch):
    # one call per W in increasing order, each but W = 0 handed the very
    # levels returned for W & (W - 1), and the map as without the reuse;
    # the recorder holds every result, so no two are the same object
    faces = homology.independent_faces
    calls: list[tuple[int, list | None, list]] = []  # (W, below, result)

    def recording_faces(h, wmask, *below):
        result = faces(h, wmask, *below)
        calls.append((wmask, below[0] if below else None, result))
        return result

    for h in _fold_corpus():
        expected = {wmask: reduced_homology_dims(faces(h, wmask), QQ)
                    for wmask in range(1 << h.n)}
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(homology, "independent_faces", recording_faces)
            got = homology_of_restrictions(h, QQ)
        assert got == expected, h
        assert [wmask for wmask, _, _ in calls] == list(range(1 << h.n)), h
        assert calls[0][1] is None
        for wmask, below, _ in calls[1:]:
            assert below is calls[wmask & (wmask - 1)][2], (h, wmask)


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


@pytest.mark.parametrize("extra, n", [((6, 7), 8), ((0, 6), 7)], ids=["disjoint-edge", "pendant"])
def test_rp2_with_an_edge_depends_on_the_field(extra, n):
    # RP^2 beside a disjoint edge, and RP^2 with a pendant edge at
    # vertex 0: the 2-torsion now sits in restrictions on 7 and 8
    # vertices, where the relative complex has several levels
    edges = RP2_NON_FACES + [extra]
    h = build([f"p{i}" for i in range(n)], edges)
    tables = {}
    for field in (QQ, GF2, GF3):
        tables[field] = betti_table(h, field).entries
        assert tables[field] == oracle_betti(n, edges, field.p)
        assert betti_via_lyubeznik(h, field).entries == tables[field]
    assert tables[QQ] != tables[GF2]
    assert tables[GF3] == tables[QQ]


@pytest.mark.parametrize("field", [GF2, GF3], ids=str)
def test_prime_field_tables_match_the_oracle(field):
    for h in make_batch("general", 6, 6, 12, 606):
        edges = [h.edge_vertices(s) for s in range(h.m)]
        expected = oracle_betti(h.n, edges, field.p)
        assert betti_table(h, field).entries == expected
        assert betti_via_taylor(h, field).entries == expected
        assert betti_via_lyubeznik(h, field).entries == expected
