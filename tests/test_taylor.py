"""Reduced edge-subset complex: boundaries, bounds, admissibility,
certificates."""

from __future__ import annotations

import itertools
import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbetti import limits
from hyperbetti.bitsets import bits_of, mask_of, tuple_of
from hyperbetti.errors import BudgetExceeded, PremiseFails, ValidationError
from hyperbetti.families import _Kernel, classify
from hyperbetti.generators import make_batch
from hyperbetti.hypergraph import build
from hyperbetti.homology import betti_table, homology_of_restrictions
from hyperbetti.linalg import GF2, QQ, Field, RowSpace
from hyperbetti.taylor import (
    Certificate,
    _faces,
    _slice,
    admissible_symbols,
    analyze_taylor,
    betti_via_lyubeznik,
    betti_via_taylor,
    certify_nonvanishing,
    chain_union,
    is_l_admissible,
    is_maximal_l_admissible,
    lyubeznik_restrictions,
)

from conftest import path_graph
from test_families import sized_hypergraphs
from test_homology import RP2_NON_FACES


def reduced_boundary(h, symbol, an=None):
    """Signed faces of a symbol's boundary, as both engines build it: the
    row ``_faces`` reads off the slice below in ``analyze_taylor(h)`` (or
    ``an``), mapped back to face bitmasks; the symbol is one too."""
    below = (an or analyze_taylor(h)).slices.get(
        (symbol.bit_count() - 1, chain_union(h, bits_of(symbol))), {})
    faces = list(below)
    return [(sign, faces[pos]) for pos, sign in _faces(symbol, below).items()]


def test_boundary_signs_on_triangle(c3):
    # all three members are absorbed, signs alternate starting negative
    faces = reduced_boundary(c3, 0b111)
    assert faces == [(-1, 0b110), (1, 0b101), (-1, 0b011)]
    # edge 0 has the private vertex x, so only positions 2 to 4 are
    # dropped, and each keeps the sign of its position in the symbol
    pendant = build(["a", "b", "c", "x"], [(0, 3), (0, 1), (1, 2), (0, 2)])
    faces = reduced_boundary(pendant, 0b1111)
    assert faces == [(1, 0b1101), (-1, 0b1011), (1, 0b0111)]


def test_boundary_drops_only_absorbed(p3):
    assert reduced_boundary(p3, 0b11) == []
    assert classify(p3, (0, 1)).reduced
    assert not classify(c3_full := build(["x", "y", "z"], [(0, 1), (0, 2), (1, 2)]), (0, 1, 2)).reduced
    assert reduced_boundary(c3_full, 0b11) == []


def test_rows_drop_the_members_with_no_private_part(p3, p4, p6, c3, c4, triple_overlap):
    # the slice below holds a face exactly when its member is absorbed,
    # for every symbol of both complexes
    pendant = build(["a", "b", "c", "x"], [(0, 3), (0, 1), (1, 2), (0, 2)])
    rp2 = build([f"p{i}" for i in range(6)], RP2_NON_FACES)
    for h in (p3, p4, p6, c3, c4, triple_overlap, pendant, rp2):
        kernel = _Kernel(h.edges)
        for slices in (analyze_taylor(h).slices, _slice(admissible_symbols(h))):
            for (i, w), symbols in slices.items():
                below = slices.get((i - 1, w), {})
                for c in symbols:
                    members = zip(bits_of(c), kernel.private_parts(c))
                    expected = {below[c ^ 1 << s]: -1 if k % 2 == 0 else 1
                                for k, (s, part) in enumerate(members) if not part}
                    assert _faces(c, below) == expected, (h, c)


def test_taylor_matches_hochster_on_fixtures(p3, p4, p6, c3, c4, triple_overlap):
    for h in (p3, p4, p6, c3, c4, triple_overlap):
        assert betti_via_taylor(h).entries == betti_table(h).entries
        assert betti_via_taylor(h, GF2).entries == betti_table(h, GF2).entries


@settings(max_examples=50, deadline=None)
@given(sized_hypergraphs())
def test_taylor_matches_hochster_random(h):
    for field in (QQ, GF2, Field(3)):
        assert betti_via_taylor(h, field).entries == betti_table(h, field).entries


def test_budget_enforced(monkeypatch):
    # the analysis walks the survey's 2^m edge families, under its budget
    h = build([f"v{i}" for i in range(18)], [(0, i) for i in range(1, 18)])
    with pytest.raises(BudgetExceeded, match=f"17 edges exceeds family enumeration budget "
                                             f"{limits.FAMILY_BUDGET}"):
        analyze_taylor(h)
    # a raised budget is read at call time, and a star resolves like a simplex
    monkeypatch.setattr(limits, "FAMILY_BUDGET", 17)
    assert betti_via_taylor(h).get(17, 18) == 1


# ---------------------------------------------------------------------------
# Lyubeznik engine


def matching(m):
    return build([f"v{i}" for i in range(2 * m)], [(2 * s, 2 * s + 1) for s in range(m)])


@settings(max_examples=60, deadline=None)
@given(sized_hypergraphs())
def test_admissible_symbols_are_the_admissible_chains(h):
    identity = tuple(range(h.m))
    expected = {
        chain
        for size in range(h.m + 1)
        for chain in itertools.combinations(range(h.m), size)
        if is_l_admissible(h, identity, chain)
    }
    found = admissible_symbols(h)
    assert len(found) == len(expected)
    assert {tuple_of(bits) for bits, _ in found} == expected
    for bits, union in found:
        assert union == chain_union(h, tuple_of(bits))


def _lyubeznik_corpus():
    return ([("rp2", build([f"p{i}" for i in range(6)], RP2_NON_FACES))]
            + [(spec, h)
               for spec, n, m in (("general", 8, 8), ("general", 9, 10),
                                  ("uniform:2", 8, 10), ("uniform:3", 9, 10),
                                  ("special:3", 9, 8), ("chordal", 8, 9))
               for h in make_batch(spec, n, m, 4, 77)])


@pytest.mark.parametrize("field", [QQ, GF2, Field(3)], ids=str)
def test_lyubeznik_map_is_the_nonzero_restriction_homology(field):
    for name, h in _lyubeznik_corpus():
        hochster = {w: dims for w, dims in homology_of_restrictions(h, field).items()
                    if any(dims)}
        assert lyubeznik_restrictions(h, field) == hochster, (name, h)
        assert analyze_taylor(h, field).restrictions() == hochster, (name, h)


@pytest.mark.parametrize("field", [QQ, GF2, Field(3)], ids=str)
def test_clearing_wastes_at_most_one_row_per_betti_number(monkeypatch, field):
    # slice (i, W) reads |S_i| - r_{i+1} rows at most and gains r_i, so
    # beta_{i,W} bounds the rows it reads for nothing
    gained = []
    add = RowSpace.add

    def counting(self, vec):
        gained.append(add(self, vec))
        return gained[-1]

    monkeypatch.setattr(RowSpace, "add", counting)
    for name, h in _lyubeznik_corpus():
        gained.clear()
        an = analyze_taylor(h, field)
        assert gained.count(False) <= sum(an.table().entries.values()), (name, h)
        gained.clear()
        restrictions = lyubeznik_restrictions(h, field)
        assert gained.count(False) <= sum(map(sum, restrictions.values())), (name, h)


@pytest.mark.parametrize("field", [QQ, GF2, Field(3)], ids=str)
def test_b_set_is_the_reduced_symbols_outside_the_full_image(field):
    # every boundary row from (i + 1, W), none cleared, in a fresh space
    for name, h in _lyubeznik_corpus():
        slices: dict[tuple[int, int], list[int]] = {}
        for size in range(h.m + 1):
            for chain in itertools.combinations(range(h.m), size):
                slices.setdefault((size, chain_union(h, chain)), []).append(mask_of(chain))
        an = analyze_taylor(h, field)
        expected: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        for (i, w), basis in slices.items():
            index = {c: pos for pos, c in enumerate(basis)}
            image = RowSpace(field)
            for c in slices.get((i + 1, w), ()):
                image.add({index[face]: sign for sign, face in reduced_boundary(h, c, an)})
            expected.setdefault((i, w.bit_count()), []).extend(
                tuple_of(c) for c in basis
                if not reduced_boundary(h, c, an) and not image.contains({index[c]: 1}))
        assert an.types() == sorted(expected), (name, h)
        for key, members in expected.items():
            assert an.b_set(*key) == sorted(members), (name, h, key)


def test_b_set_is_computed_once_per_type(monkeypatch):
    # basis-sandwich and conditional-slice-bounds read the same types
    an = analyze_taylor(make_batch("uniform:3", 9, 10, 1, 7)[0])
    first = {key: an.b_set(*key) for key in an.types()}
    tested = []
    real = RowSpace.contains

    def contains(space, row):
        tested.append(row)
        return real(space, row)

    monkeypatch.setattr(RowSpace, "contains", contains)
    for members in first.values():
        members.append(("changed",))
    for key, members in first.items():
        assert an.b_set(*key) == members[:-1], key
    assert tested == []


@pytest.mark.parametrize("m", range(1, 9))
def test_perfect_matching_is_a_koszul_complex(m):
    # beta_{i,2i} = C(m, i) and nothing else
    expected = {(i, 2 * i): comb(m, i) for i in range(m + 1)}
    for field in (QQ, GF2):
        assert betti_via_lyubeznik(matching(m), field).entries == expected


def test_symbol_budget_fails_fast(monkeypatch):
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=str(limits.LYUBEZNIK_BUDGET)):
        betti_via_lyubeznik(matching(20))
    assert time.perf_counter() - start < 5.0
    # the 16 symbols of a 4-edge matching fit a budget of 16, not of 15
    monkeypatch.setattr(limits, "LYUBEZNIK_BUDGET", 16)
    assert len(admissible_symbols(matching(4))) == 16
    monkeypatch.setattr(limits, "LYUBEZNIK_BUDGET", 15)
    with pytest.raises(BudgetExceeded):
        admissible_symbols(matching(4))


# ---------------------------------------------------------------------------
# kernel basis and the two hypotheses


def test_triangle_slice_two_three(c3):
    an = analyze_taylor(c3)
    assert an.table().get(2, 3) == 2
    # all three pairs are reduced kernel symbols outside the image,
    # so the basis overshoots the Betti number here
    assert an.b_set(2, 3) == [(0, 1), (0, 2), (1, 2)]
    # only the upper-bound hypothesis holds, and |B| bounds beta from above
    assert an.families_all_reduced(2, 3)
    assert not an.absorbing_families_stay_reduced(2, 3)
    assert an.table().get(2, 3) <= len(an.b_set(2, 3))


def test_taylor_hypothesis_flags(c3, p4):
    an = analyze_taylor(c3)
    assert not an.families_all_reduced(3, 3)
    assert not an.absorbing_families_stay_reduced(2, 3)
    assert an.families_all_reduced(2, 3)
    an4 = analyze_taylor(p4)
    assert an4.families_all_reduced(2, 4)
    assert an4.absorbing_families_stay_reduced(2, 4)


def test_exact_bound_on_path(p3):
    an = analyze_taylor(p3)
    assert len(an.b_set(1, 2)) == 2 == an.table().get(1, 2)
    assert an.families_all_reduced(1, 2)
    assert an.absorbing_families_stay_reduced(1, 2)


def test_uniform_degree_slice_counts_induced_matchings():
    # at j = t*i the slice collects exactly the induced matchings
    p5 = path_graph(5)
    an = analyze_taylor(p5)
    assert an.families_all_reduced(2, 4)
    assert an.absorbing_families_stay_reduced(2, 4)
    assert len(an.b_set(2, 4)) == 1
    assert betti_table(p5).get(2, 4) == 1


@settings(max_examples=50, deadline=None)
@given(sized_hypergraphs())
def test_basis_sandwich(h):
    an = analyze_taylor(h)
    table = an.table()
    ssi: dict[tuple[int, int], set] = {}
    contained: dict[tuple[int, int], set] = {}
    types = set()
    for r in range(h.m + 1):
        for fam in itertools.combinations(range(h.m), r):
            cls = classify(h, fam)
            types.add((cls.i, cls.j))
            if cls.self_semi_induced:
                ssi.setdefault((cls.i, cls.j), set()).add(fam)
            if cls.self_contained:
                contained.setdefault((cls.i, cls.j), set()).add(fam)
    assert an.types() == sorted(types)
    for key in an.types():
        members = set(an.b_set(*key))
        assert ssi.get(key, set()) <= members <= contained.get(key, set())
        if an.families_all_reduced(*key):
            assert table.get(*key) <= len(members)
        if an.absorbing_families_stay_reduced(*key):
            assert table.get(*key) >= len(members)


# ---------------------------------------------------------------------------
# admissible symbols


def test_triangle_admissibility(c3, c4):
    order = (0, 1, 2)  # xy, xz, yz
    assert is_l_admissible(c3, order, (0, 1))
    assert not is_l_admissible(c3, order, (1, 2))  # xy precedes and is inside
    assert not is_l_admissible(c3, order, (0, 1, 2))
    assert is_maximal_l_admissible(c3, order, (0, 1))
    assert is_l_admissible(c3, order, (0, 2))
    assert not is_maximal_l_admissible(c3, order, (0,))
    # only symbol members enter the union: with c4 ordered zw, xy, yz, wx,
    # the skipped yz would absorb zw, but it is not in the symbol (1, 3)
    assert is_l_admissible(c4, (3, 1, 2, 0), (1, 3))


def test_admissibility_validates_input(c3):
    with pytest.raises(ValidationError):
        is_l_admissible(c3, (0, 1), (0,))
    with pytest.raises(ValidationError):
        is_l_admissible(c3, (0, 1, 2), (1, 0))


def _maximal_by_every_superset(h, ordering, chain):
    if not is_l_admissible(h, ordering, chain):
        return False
    rest = [p for p in range(h.m) if p not in chain]
    return not any(is_l_admissible(h, ordering, tuple(sorted(chain + extra)))
                   for size in range(1, len(rest) + 1)
                   for extra in itertools.combinations(rest, size))


@settings(max_examples=50, deadline=None)
@given(sized_hypergraphs(), st.randoms(use_true_random=False))
def test_maximality_needs_only_one_position_extensions(h, rnd):
    ordering = list(range(h.m))
    rnd.shuffle(ordering)
    for r in range(h.m + 1):
        for chain in itertools.combinations(range(h.m), r):
            assert is_maximal_l_admissible(h, ordering, chain) == _maximal_by_every_superset(
                h, ordering, chain), (ordering, chain, h.edges)


def test_every_ordering_admits_semi_induced_symbols(p6):
    # a self semi-induced family is admissible wherever its members sit
    fam = (0, 1, 4)
    assert classify(p6, fam).self_semi_induced
    for perm in itertools.permutations(range(p6.m)):
        chain = tuple(sorted(perm.index(s) for s in fam))
        assert is_l_admissible(p6, perm, chain)


# ---------------------------------------------------------------------------
# certificates


def test_certificate_induced_matching():
    p5 = path_graph(5)
    v = certify_nonvanishing(p5, Certificate("induced_matching", (0, 3), 2, 4))
    assert v.ok and v.beta == 1


def test_certificate_semi_induced(triple_overlap):
    v = certify_nonvanishing(
        triple_overlap, Certificate("semi_induced", (0, 1, 2), 3, 6))
    assert v.ok and v.beta == 1


def test_certificate_self_ordered(p4):
    v = certify_nonvanishing(p4, Certificate("self_ordered", (1, 0), 2, 3))
    assert v.ok and v.beta == 2


def test_certificate_self_semi_disjoint(triple_overlap):
    v = certify_nonvanishing(
        triple_overlap, Certificate("self_semi_disjoint", (0, 1, 2), 3, 6))
    assert v.ok and v.beta == 1
    assert "maximal admissible" in v.detail


def test_certificate_ssd_survives_far_away_edges():
    # the admissibility reconstruction happens inside the covered
    # vertices, so padding the hypergraph with a distant edge must not
    # break the certificate
    h = build(
        [f"x{i}" for i in range(1, 9)],
        [(0, 1, 2), (1, 2, 3), (1, 4, 5), (6, 7)],
    )
    v = certify_nonvanishing(h, Certificate("self_semi_disjoint", (0, 1, 2), 3, 6))
    assert v.ok and v.beta >= 1


def test_certificate_premise_failures(p4, c3):
    with pytest.raises(PremiseFails):
        certify_nonvanishing(p4, Certificate("induced_matching", (0, 1), 2, 3))
    with pytest.raises(PremiseFails):  # type mismatch
        certify_nonvanishing(p4, Certificate("induced_matching", (0, 2), 2, 3))
    with pytest.raises(PremiseFails):
        certify_nonvanishing(p4, Certificate("self_ordered", (0, 1), 2, 3))
    with pytest.raises(PremiseFails):
        certify_nonvanishing(c3, Certificate("self_semi_disjoint", (0, 1, 2), 3, 3))
    with pytest.raises(ValidationError):
        certify_nonvanishing(p4, Certificate("open_book", (0,), 1, 2))
