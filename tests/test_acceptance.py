"""Release gate.

One test per promised behavior, exact equality throughout, ordered so
the brute-force oracle fixes the reference tables before anything else
is allowed to count. All corpora are seeded, so every run checks the
same instances.
"""

from __future__ import annotations

import json
import time

import pytest

from hyperbetti.checks import run_checks, run_fuzz
from hyperbetti.families import classify, compute_invariants, survey
from hyperbetti.generators import (
    complete_uniform,
    cycle_graph,
    derive_seed,
    fan_graph,
    make_batch,
    path_graph,
    random_free_vertex,
    star_hypergraph,
)
from hyperbetti.homology import betti_table
from hyperbetti.hypergraph import build, from_edge_labels, uniformity_profile
from hyperbetti.linalg import GF2, QQ
from hyperbetti.splitting import betti_recursive, verify_disjointness_characterization
from hyperbetti.taylor import (
    Certificate,
    betti_via_lyubeznik,
    betti_via_taylor,
    certify_nonvanishing,
)

from oracle import oracle_betti

SEED = 1408

# Reference tables, frozen from tests/oracle.py runs before the engines
# existed. The gate recomputes them with the oracle on every run.
FROZEN = {
    "P3": {(0, 0): 1, (1, 2): 2, (2, 3): 1},
    "C3": {(0, 0): 1, (1, 2): 3, (2, 3): 2},
    "C4": {(0, 0): 1, (1, 2): 4, (2, 3): 4, (3, 4): 1},
    "P6": {(0, 0): 1, (1, 2): 5, (2, 3): 4, (2, 4): 3, (3, 5): 4, (4, 6): 1},
}
DERIVED = {
    "triples": {(0, 0): 1, (1, 3): 3, (2, 4): 1, (2, 5): 2, (3, 6): 1},
    "tetra": {(0, 0): 1, (1, 3): 4, (2, 4): 3},
}


def _named_instances():
    return {
        "P3": path_graph(3),
        "C3": cycle_graph(3),
        "C4": cycle_graph(4),
        "P6": path_graph(6),
        "triples": build(
            ["x1", "x2", "x3", "x4", "x5", "x6"],
            [(0, 1, 2), (1, 2, 3), (1, 4, 5)],
        ),
        "tetra": complete_uniform(3),
    }


@pytest.fixture(scope="module")
def corpus_general():
    return make_batch("general", 8, 8, 200, SEED)


@pytest.fixture(scope="module")
def qq_tables(corpus_general):
    return [betti_table(h, QQ) for h in corpus_general]


@pytest.fixture(scope="module")
def general_reports(corpus_general):
    return [
        run_checks(h, QQ, seed=derive_seed(SEED, k))
        for k, h in enumerate(corpus_general)
    ]


@pytest.fixture(scope="module")
def corpus_free_vertex():
    return [
        random_free_vertex(1 + k % 8, derive_seed(SEED, 900 + k))
        for k in range(50)
    ]


@pytest.fixture(scope="module")
def free_vertex_reports(corpus_free_vertex):
    return [
        run_checks(h, QQ, seed=derive_seed(SEED, 900 + k))
        for k, h in enumerate(corpus_free_vertex)
    ]


@pytest.fixture(scope="module")
def corpus_chordal():
    return make_batch("chordal", 8, 10, 100, SEED + 5)


@pytest.fixture(scope="module")
def chordal_invariants(corpus_chordal):
    return [compute_invariants(h) for h in corpus_chordal]


@pytest.fixture(scope="module")
def corpus_special_mixed():
    return (make_batch("special:2", 9, 6, 25, SEED + 6)
            + make_batch("special:3", 9, 6, 25, SEED + 7))


@pytest.fixture(scope="module")
def corpus_special3():
    return make_batch("special:3", 9, 6, 50, SEED + 8)


def test_00_oracle_gate_fixes_reference_tables():
    instances = _named_instances()
    for name, frozen in FROZEN.items():
        h = instances[name]
        edges = [h.edge_vertices(s) for s in range(h.m)]
        assert oracle_betti(h.n, edges) == frozen, name
        assert betti_table(h, QQ).entries == frozen, name
        assert betti_via_lyubeznik(h, QQ).entries == frozen, name
    for name, expected in DERIVED.items():
        h = instances[name]
        edges = [h.edge_vertices(s) for s in range(h.m)]
        assert oracle_betti(h.n, edges) == expected, name
        assert betti_table(h, QQ).entries == expected, name
        assert betti_via_lyubeznik(h, QQ).entries == expected, name


def test_01_worked_invariant_examples():
    instances = _named_instances()
    inv = {name: compute_invariants(h).as_dict() for name, h in instances.items()}
    assert inv["C3"]["b"] == 1 and inv["C3"]["e"] == 2
    assert inv["P3"]["a"] == 1 and inv["P3"]["b"] == 2
    p4 = compute_invariants(from_edge_labels(
        [["w", "x"], ["x", "y"], ["y", "z"]])).as_dict()
    assert p4["a"] == 1 and p4["m"] == 2
    assert inv["P6"]["b"] == 3 and inv["P6"]["d_g"] == 4
    assert inv["C4"]["e"] == 2 and inv["C4"]["c"] == 1
    triples = inv["triples"]
    assert triples["d1"] < triples["d2"]
    assert triples["d2"] == 3
    assert classify(instances["triples"], (0, 1, 2)).self_semi_disjoint


def test_02_simplex_skeletons_and_stars_fast():
    for d in (2, 3, 4):
        start = time.perf_counter()
        table = betti_table(complete_uniform(d))
        assert table.projective_dimension() == 2, d
        assert table.regularity() == d - 1, d
        assert time.perf_counter() - start < 1.0, d
    for d in (2, 3):
        for n in (2, 3, 4, 5):
            start = time.perf_counter()
            table = betti_table(star_hypergraph(d, n))
            assert table.projective_dimension() == n, (d, n)
            assert table.regularity() == d - 1, (d, n)
            assert time.perf_counter() - start < 1.0, (d, n)


def test_03_fan_spoke_certificates():
    for n in (3, 4, 5, 6):
        h = fan_graph(n)
        cert = Certificate(kind="self_ordered", family=tuple(range(n)),
                           i=n, j=n + 1)
        verdict = certify_nonvanishing(h, cert)
        assert verdict.ok, (n, verdict.detail)
        table = betti_table(h)
        assert table.get(n, n + 1) == verdict.beta >= 1, n
        assert table.projective_dimension() >= n, n


def test_04_free_vertex_projective_dimension(corpus_free_vertex):
    for h in corpus_free_vertex:
        assert betti_via_taylor(h).projective_dimension() == h.m


def test_05_engines_agree_across_fields(corpus_general, qq_tables,
                                        corpus_special_mixed):
    for h, table in zip(corpus_general, qq_tables):
        assert betti_via_taylor(h, QQ).entries == table.entries
        assert betti_via_lyubeznik(h, QQ).entries == table.entries
        gf2 = betti_table(h, GF2).entries
        assert gf2 == betti_via_taylor(h, GF2).entries
        assert gf2 == betti_via_lyubeznik(h, GF2).entries
    for h in corpus_special_mixed:
        table = betti_table(h, QQ).entries
        assert table == betti_recursive(h, QQ).entries
        assert table == betti_via_lyubeznik(h, QQ).entries


def test_06_top_degree_slices_count_induced_matchings(corpus_general,
                                                      qq_tables):
    exercised = 0
    for h, table in zip(corpus_general, qq_tables):
        if h.m == 0:
            continue
        t = max(h.edges[s].bit_count() for s in range(h.m))
        counts = survey(h).counts_induced_uniform
        for i in range(1, h.m + 1):
            assert table.get(i, t * i) == counts.get((t, i), 0), (h, i)
        exercised += 1
    assert exercised >= 190


def test_07_unconditional_bound_suite(general_reports):
    required = (
        "invariant-inequalities",
        "restriction-monotonicity",
        "degree-window",
        "pd-reg-lower-bounds",
    )
    for report in general_reports:
        statuses = {r.name: r.status for r in report.checks}
        for name in required:
            assert statuses[name] == "pass", (name, statuses)


def test_08_conditional_bound_suite(general_reports, free_vertex_reports):
    slice_applicable = cap_applicable = 0
    for report in general_reports + free_vertex_reports:
        by_name = {r.name: r for r in report.checks}
        for name in ("conditional-slice-bounds", "conditional-pd-cap"):
            assert by_name[name].status != "fail", by_name[name].detail
            applicable = by_name[name].checked > 0
            if name == "conditional-slice-bounds":
                slice_applicable += applicable
            else:
                cap_applicable += applicable
    assert slice_applicable >= 30
    assert cap_applicable >= 30


def test_09_disjointness_characterization_suite(corpus_chordal,
                                                chordal_invariants,
                                                corpus_special3):
    for h, inv in zip(corpus_chordal, chordal_invariants):
        rep = verify_disjointness_characterization(h)
        assert rep["pd"] == rep["d1"] == rep["d2"]
        assert rep["reg"] == rep["d1_prime"] == rep["d2_prime"]
        values = inv.as_dict()
        assert rep["pd"] == values["d_g"]
        assert rep["reg"] == values["d_g_prime"]
        assert values["d_g_prime"] == values["a"]
    for h in corpus_special3:
        rep = verify_disjointness_characterization(h)
        assert rep["pd"] == rep["d1"] == rep["d2"]
        assert rep["reg"] == rep["d1_prime"] == rep["d2_prime"]


def test_10_uniform_spread_identity(corpus_general, corpus_special_mixed,
                                    corpus_special3, corpus_chordal,
                                    chordal_invariants):
    pool = []
    for h in corpus_general + corpus_special_mixed + corpus_special3:
        prof = uniformity_profile(h)
        if prof.is_uniform and h.m > 0:
            pool.append((h, prof.d, compute_invariants(h).as_dict()))
    for h, inv in zip(corpus_chordal, chordal_invariants):
        if h.m > 0:
            pool.append((h, 2, inv.as_dict()))
    assert len(pool) >= 150
    for h, d, values in pool:
        assert values["d1_prime"] == (d - 1) * values["a"], h


def test_11_deterministic_reports(corpus_general):
    kwargs = dict(class_spec="general", n=7, m=6, count=10, seed=SEED)
    runs = [run_fuzz(**kwargs).as_dict() for _ in range(2)]
    parallel = run_fuzz(**kwargs, jobs=2).as_dict()
    for report in (*runs, parallel):
        report.pop("meta")
    assert json.dumps(runs[0], sort_keys=True) == json.dumps(runs[1], sort_keys=True)
    assert json.dumps(runs[0], sort_keys=True) == json.dumps(parallel, sort_keys=True)
    h = corpus_general[0]
    one = run_checks(h, QQ, seed=SEED).as_dict()
    two = run_checks(h, QQ, seed=SEED).as_dict()
    one.pop("meta"), two.pop("meta")
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)
