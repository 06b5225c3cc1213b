"""Tests of the benchmark itself: each output check rejects a corrupted
table, report or invariant, and the tracer attaches everywhere and
reports every per-layer metric of BENCHMARK.json.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import hyperbetti as hb  # noqa: E402
import verify  # noqa: E402

P4 = hb.build("abcd", [(0, 1), (1, 2), (2, 3)])


def edges(h):
    return list(h.edges)


def table(h, field=hb.QQ):
    return dict(hb.betti_table(h, field).entries)


def bumped(entries, key, by=1):
    out = dict(entries)
    out[key] = out.get(key, 0) + by
    return out


def test_table_checks_accept_engine_tables():
    h = hb.make_batch("general", 7, 7, 1, 3)[0]
    for field in (hb.QQ, hb.GF2):
        assert verify.check_table(h.n, edges(h), table(h, field)) == []


@pytest.mark.parametrize("corrupt", [
    lambda t: bumped(t, (2, 4)),            # breaks the Euler sum at j = 4
    lambda t: bumped(t, (0, 0)),            # beta_00 = 2
    lambda t: bumped(t, (1, 3)),            # an edge of size 3 that is not there
    lambda t: {**t, (2, 3): 0},             # a stored zero
    lambda t: bumped(t, (5, 9)),            # beyond n
])
def test_table_check_rejects_corruption(corrupt):
    good = table(P4)
    assert verify.check_table(P4.n, edges(P4), corrupt(good))


def test_agreement_catches_what_the_euler_sum_cannot():
    good = table(P4)
    # +1 at (2,3) and +1 at (3,3) cancel in the alternating sum of j = 3
    twisted = bumped(bumped(good, (2, 3)), (3, 3))
    assert verify.check_table(P4.n, edges(P4), twisted) == []
    assert verify.check_agreement({"hochster": good, "taylor": twisted})
    assert verify.check_agreement({"hochster": good, "taylor": dict(good)}) == []


def test_rp2_depends_on_the_field():
    h = hb.build([f"p{i}" for i in range(6)],
                 [[v for v in range(6) if e >> v & 1] for e in verify.rp2_edges()])
    for field in (hb.QQ, hb.GF2, hb.Field(3)):
        assert verify.check_rp2(field.p, table(h, field)) == []
    assert verify.check_rp2(2, table(h, hb.QQ))
    assert verify.check_rp2(0, table(h, hb.GF2))
    assert verify.check_rp2(3, bumped(table(h, hb.Field(3)), (4, 6)))


def test_chordal_regularity():
    h = hb.make_batch("chordal", 9, 9, 1, 5)[0]
    good = dict(hb.betti_recursive(h).entries)
    assert verify.check_chordal_regularity(edges(h), good) == []
    reg = verify.regularity(good)
    assert verify.check_chordal_regularity(edges(h), bumped(good, (1, reg + 2)))


def test_brute_force_matching_numbers():
    assert verify.matching_number(edges(P4)) == 2
    assert verify.induced_matching_number(edges(P4)) == 1


@pytest.mark.parametrize("key,delta", [("m", 1), ("a", -1), ("d2", -10), ("e", -10)])
def test_invariant_check_rejects_corruption(key, delta):
    h = hb.make_batch("general", 8, 9, 1, 2)[0]
    values = hb.compute_invariants(h).as_dict()
    assert verify.check_invariants(edges(h), values) == []
    assert verify.check_invariants(edges(h), {**values, key: values[key] + delta})


def test_classification_check_rejects_corruption():
    h = hb.make_batch("general", 8, 9, 1, 2)[0]
    cls = hb.classify(h, (0, 1))
    flags = {k: getattr(cls, k) for k in
             ("i", "j", "matching", "semi_induced", "induced", "reduced", "self_semi_induced")}
    assert verify.check_classification(edges(h), (0, 1), flags) == []
    for key in flags:
        wrong = {**flags, key: (not flags[key]) if isinstance(flags[key], bool) else flags[key] + 1}
        assert verify.check_classification(edges(h), (0, 1), wrong)


def test_campaign_check_rejects_corruption():
    reports = [hb.run_fuzz("chordal", 6, 6, 1, seed).as_dict() for seed in (11, 12)]
    assert verify.check_campaign("chordal", reports) == []
    assert verify.check_campaign("chordal", [])
    assert verify.check_campaign("chordal", [reports[0], {**reports[1], "ok": False}])
    assert verify.check_campaign("chordal", [{**reports[0], "failures": [{"check": "x"}]},
                                             reports[1]])
    skipped = json.loads(json.dumps(reports))
    for report in skipped:
        for check in report["checks"]:
            if check["name"] == "splitting-recursion":
                check["status"] = "skip"
    assert verify.check_campaign("chordal", skipped)


def test_tracer_attaches_everywhere_and_restores():
    import tracing

    original = hb.homology.rank_of
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.unattached == []
        assert hb.homology.rank_of is not original
        assert hb.linalg.rank_of is hb.homology.rank_of
        tracer.enter("hochster_qq", 0)
        hb.betti_table(P4, hb.QQ)
    finally:
        tracer.uninstall()
    assert hb.homology.rank_of is original
    totals = tracer.totals()
    assert totals[("hochster_qq", "homology.independent_faces")]["calls"] == 1 << P4.n
    for slot in totals.values():
        assert slot["self_s"] <= slot["s"] + 1e-9
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        per_layer = json.load(fh)["per_layer"]
    metrics = tracing.layer_metrics(tracer, per_layer, 1, 1.0)
    assert list(metrics) == [m["name"] for m in per_layer]
    assert metrics["hochster_qq.homology.restrictions"]["value"] == 1 << P4.n


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engines", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_cross_check_rejects_a_gf3_table_that_cancels_in_the_euler_sum():
    import workloads

    h = hb.make_batch("general", 7, 7, 1, 3)[0]
    field = hb.Field(3)
    good = dict(hb.betti_table(h, field).entries)
    i, j = max(good)
    twisted = bumped(bumped(good, (i, j)), (i + 1, j))
    assert verify.check_table(h.n, edges(h), twisted) == []
    group = workloads.Group("hochster_gf3", None, [workloads.Item("table", h, field)])
    group.outputs = [good]
    assert workloads.cross_check([group]) == []
    group.outputs = [twisted]
    assert workloads.cross_check([group])


def test_families_are_drawn_from_every_size():
    import workloads

    h = hb.make_batch("general", 10, 12, 1, 4)[0]
    fams = workloads._families(1, h, 2000)
    assert fams == workloads._families(1, h, 2000)
    sizes = {len(f) for f in fams}
    assert min(sizes) <= 2 and max(sizes) >= 10
    assert all(f and list(f) == sorted(set(f)) for f in fams)
