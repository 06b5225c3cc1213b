"""Campaign runner: statuses, merging, shrinking, determinism."""

from __future__ import annotations

import functools
import inspect
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import pytest

import hyperbetti.checks as checks
from hyperbetti import limits
from hyperbetti.checks import (
    CHECK_NAMES,
    CampaignReport,
    CheckResult,
    _Ctx,
    _merge_results,
    _split_tables,
    check_still_fails,
    run_checks,
    run_fuzz,
    shrink_failure,
)
from hyperbetti.errors import ViolationFound
from hyperbetti.formats import instance_payload, parse_json
from hyperbetti.generators import make_batch, path_graph
from hyperbetti.homology import betti_table
from hyperbetti.hypergraph import build
from hyperbetti.linalg import GF2, QQ, Field
from hyperbetti.splitting import split

from conftest import cycle_graph


FIELDS = [QQ, GF2]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", ["p3", "c4", "p6", "triples"])
def test_fixtures_pass_everything(name, field):
    fixtures = {
        "p3": path_graph(3),
        "c4": cycle_graph(4),
        "p6": path_graph(6),
        "triples": build(
            ["x1", "x2", "x3", "x4", "x5", "x6"],
            [(0, 1, 2), (1, 2, 3), (1, 4, 5)],
        ),
    }
    report = run_checks(fixtures[name], field)
    assert report.ok
    statuses = {r.name: r.status for r in report.checks}
    assert "fail" not in statuses.values()
    assert [r.name for r in report.checks] == list(CHECK_NAMES)


def test_report_shape_and_determinism():
    h = path_graph(4)
    a = run_checks(h, QQ, seed=3).as_dict()
    b = run_checks(h, QQ, seed=3).as_dict()
    assert a["schema_version"] == 2
    assert set(a) == {"schema_version", "ok", "seed", "instances", "checks",
                      "failures", "meta"}
    # everything that may vary between runs lives under meta
    a.pop("meta"), b.pop("meta")
    assert a == b


def test_large_instance_skips_exact_checks_without_failing():
    # an 11-edge matching exceeds both exact caps but no family budget
    labels = [f"v{i}" for i in range(22)]
    h = build(labels, [(2 * i, 2 * i + 1) for i in range(11)])
    report = run_checks(h)
    assert report.ok
    statuses = {r.name: r.status for r in report.checks}
    assert statuses["engine-agreement"] == "skip"
    assert statuses["restriction-monotonicity"] == "skip"
    assert statuses["invariant-inequalities"] == "pass"


def test_cap_override_via_env(monkeypatch):
    monkeypatch.setenv("BETTI_CAP_N", "3")
    report = run_checks(path_graph(4))
    statuses = {r.name: r.status for r in report.checks}
    assert statuses["engine-agreement"] == "skip"
    monkeypatch.delenv("BETTI_CAP_N")
    report = run_checks(path_graph(4))
    statuses = {r.name: r.status for r in report.checks}
    assert statuses["engine-agreement"] == "pass"


def test_merge_results_precedence():
    def rep(status, checked, counter=None):
        results = [CheckResult(name, "skip", 0) for name in CHECK_NAMES]
        results[0] = CheckResult(CHECK_NAMES[0], status, checked,
                                 detail=status, counterexample=counter)
        return CampaignReport(results)

    merged = _merge_results([rep("pass", 2), rep("fail", 1, {"x": 1}),
                             rep("fail", 1, {"x": 2}), rep("skip", 0)])
    first = merged[0]
    assert first.status == "fail"
    assert first.checked == 4
    assert first.counterexample == {"x": 1}  # first failure wins
    assert [r.name for r in merged] == list(CHECK_NAMES)
    # a check no instance exercised stays skip with a reason
    assert merged[1].status == "skip" and merged[1].detail


# a synthetic check, named after a real one so merged reports accept it
_FAKE = CHECK_NAMES[0]


def _fails_while_two_edges(ctx):
    if ctx.h.m >= 2:
        return checks._fail(_FAKE, ctx.h, "two edges remain")
    return CheckResult(_FAKE, "pass", 1)


def test_shrink_failure_reaches_single_deletion_minimum(monkeypatch):
    monkeypatch.setattr(checks, "_CHECKS", (_fails_while_two_edges,))
    small = shrink_failure(path_graph(6), _FAKE)
    # minimal under one-step deletion: two edges, no removable vertex
    assert small.m == 2
    assert small.n == 3


def test_failure_payload_replays(monkeypatch):
    monkeypatch.setattr(checks, "_CHECKS", (_fails_while_two_edges,))
    report = run_checks(path_graph(3))
    assert not report.ok
    payload = report.failures[0]["instance"]
    again = parse_json(json.dumps(payload))
    assert again.labels == path_graph(3).labels
    assert again.edges == path_graph(3).edges


def test_run_fuzz_merges_and_is_deterministic():
    kwargs = dict(class_spec="general", n=6, m=5, count=4, seed=9)
    a = run_fuzz(**kwargs)
    b = run_fuzz(**kwargs)
    assert a.ok and a.instances == 4
    da, db = a.as_dict(), b.as_dict()
    da.pop("meta"), db.pop("meta")
    assert da == db
    assert json.dumps(da) == json.dumps(db)


def test_run_fuzz_parallel_matches_serial():
    serial = run_fuzz("uniform:2", 6, 5, 4, seed=5, jobs=1).as_dict()
    parallel = run_fuzz("uniform:2", 6, 5, 4, seed=5, jobs=2).as_dict()
    serial.pop("meta"), parallel.pop("meta")
    assert serial == parallel


def test_run_fuzz_shrinks_first_failure(monkeypatch):
    monkeypatch.setattr(checks, "_CHECKS", (_fails_while_two_edges,))
    report = run_fuzz("general", 6, 5, count=3, seed=1)
    assert not report.ok
    assert report.failures
    failure = report.failures[0]
    assert set(failure) == {"check", "index", "seed", "instance", "shrunk", "message"}
    h = parse_json(json.dumps(failure["shrunk"]))
    assert h.m == 2
    covered = 0
    for s in range(h.m):
        covered |= h.edges[s]
    assert covered.bit_count() == h.n  # no deletable isolated vertex remains


def test_entries_keep_their_declared_names():
    # span names of wrapped entries are derived from __name__
    for check, name in zip(checks._CHECKS, CHECK_NAMES):
        assert check.__name__ == "_check_" + name.replace("-", "_")


@checks._declare("implication-chain")
def _check_implication_chain(ctx, name):
    raise ViolationFound(name, "injected")


@checks._declare("splitting-recursion", "edges")
def _check_splitting_recursion(ctx, name):
    raise ZeroDivisionError("injected")


def _inject_raising_checks(monkeypatch):
    entries = list(checks._CHECKS)
    entries[CHECK_NAMES.index("implication-chain")] = _check_implication_chain
    entries[CHECK_NAMES.index("splitting-recursion")] = _check_splitting_recursion
    monkeypatch.setattr(checks, "_CHECKS", tuple(entries))


def test_exceptions_inside_checks_become_failures(monkeypatch):
    _inject_raising_checks(monkeypatch)
    h = path_graph(4)
    report = run_checks(h)
    assert [r.name for r in report.checks] == list(CHECK_NAMES)
    failed = {r.name: r for r in report.checks if r.status == "fail"}
    assert set(failed) == {"implication-chain", "splitting-recursion"}
    assert failed["implication-chain"].detail == "ViolationFound: implication-chain: injected"
    assert failed["splitting-recursion"].detail == "ZeroDivisionError: injected"
    for result in failed.values():
        again = parse_json(json.dumps(result.counterexample["instance"]))
        assert again.labels == h.labels and again.edges == h.edges
    assert sum(r.status == "pass" for r in report.checks) > 0


def test_run_fuzz_shrinks_a_raising_check(monkeypatch):
    _inject_raising_checks(monkeypatch)
    report = run_fuzz("general", 5, 4, count=3, seed=1)
    assert report.instances == 3 and not report.ok
    statuses = {r.name: r.status for r in report.checks}
    assert statuses["implication-chain"] == statuses["splitting-recursion"] == "fail"
    failure = report.failures[0]
    assert failure["check"] == "implication-chain"
    # the check raises on every instance, so shrinking reaches the empty hypergraph
    assert parse_json(json.dumps(failure["shrunk"])).n == 0


def test_instance_payload_round_trip():
    h = cycle_graph(5)
    payload = instance_payload(h)
    again = parse_json(json.dumps(payload))
    assert again.labels == h.labels and again.edges == h.edges


@pytest.mark.parametrize("field", [QQ, GF2, Field(3)], ids=str)
@pytest.mark.parametrize("spec", ["special:3", "chordal"])
def test_split_tables_from_the_shared_map_match_fresh_tables(spec, field):
    splits = 0
    for h in make_batch(spec, 8, 8, 6, 41) + make_batch(spec, 9, 9, 4, 43):
        ctx = _Ctx(h, field, 0)
        if not (ctx.special and h.m):
            continue
        dec = split(h)
        tab1, tab2 = _split_tables(ctx, dec)
        assert tab1 == betti_table(dec.h1, field)
        assert tab2 == betti_table(dec.h2, field)
        splits += 1
    assert splits >= 8


def test_check_still_fails_stops_at_the_named_check(monkeypatch):
    ran = []

    def traced(entry):
        # like a tracer's wrapper: no attributes of the entry survive
        def wrapper(ctx):
            result = entry(ctx)
            ran.append(result.name)
            return result
        return wrapper

    monkeypatch.setattr(checks, "_CHECKS", tuple(traced(e) for e in checks._CHECKS))
    h = path_graph(4)
    target = "engine-agreement"
    assert not check_still_fails(h, target, QQ, 0)
    assert ran == [target]
    assert not check_still_fails(h, "no-such-check", QQ, 0)
    # a failure of another check does not count
    passing = CHECK_NAMES[1]
    monkeypatch.setattr(checks, "_CHECKS", (
        traced(_fails_while_two_edges),
        traced(lambda ctx: CheckResult(passing, "pass", 1))))
    assert check_still_fails(h, _FAKE, QQ, 0)
    assert not check_still_fails(h, passing, QQ, 0)


def test_campaign_builds_no_hochster_map(monkeypatch):
    import hyperbetti.homology as homology

    def refuse(*args, **kwargs):
        raise AssertionError("the campaign called homology_of_restrictions")

    # in its own module, and wherever a module imported it by name
    original = homology.homology_of_restrictions
    for name, module in list(sys.modules.items()):
        if name.startswith("hyperbetti") and getattr(
                module, "homology_of_restrictions", None) is original:
            monkeypatch.setattr(module, "homology_of_restrictions", refuse)
    special = next(h for h in make_batch("special:3", 8, 8, 10, 41) if h.m >= 3)
    general = make_batch("general", 8, 8, 1, 41)[0]
    for h, exercised in ((special, ("engine-agreement", "splitting-recursion")),
                         (general, ("engine-agreement", "restriction-monotonicity"))):
        report = run_checks(h, QQ)
        assert report.ok, report.failures
        statuses = {r.name: r.status for r in report.checks}
        assert all(statuses[name] == "pass" for name in exercised), statuses


def _raise_injected(*args, **kwargs):
    raise ZeroDivisionError("injected")


# Checks of path_graph(4) that read each artifact, directly or through
# another artifact built from it.
_READERS = {
    "survey": {
        "implication-chain", "invariant-inequalities", "graph-identities",
        "uniform-spread-identity", "induced-matching-slices", "pd-reg-lower-bounds",
        "lower-bound-certificates", "basis-sandwich", "conditional-slice-bounds",
        "conditional-pd-cap", "admissibility-orderings", "matching-persistence",
        "split-extension", "disjointness-characterization"},
    "lyubeznik_restrictions": {
        "degree-window", "restriction-monotonicity", "engine-agreement",
        "induced-matching-slices", "pd-reg-lower-bounds", "lower-bound-certificates",
        "conditional-slice-bounds", "conditional-pd-cap", "splitting-recursion"},
}


@pytest.mark.parametrize("artifact", sorted(_READERS))
def test_a_raising_artifact_fails_only_its_readers(artifact, monkeypatch):
    monkeypatch.setattr(checks, artifact, _raise_injected)
    h = path_graph(4)
    report = run_checks(h)
    assert [r.name for r in report.checks] == list(CHECK_NAMES)
    failed = {r.name: r for r in report.checks if r.status == "fail"}
    assert set(failed) == _READERS[artifact]
    for result in failed.values():
        assert result.detail == "ZeroDivisionError: injected"
        again = parse_json(json.dumps(result.counterexample["instance"]))
        assert again.labels == h.labels and again.edges == h.edges
    assert len(report.failures) == len(failed)
    assert sum(r.status == "pass" for r in report.checks) > 0
    fuzzed = run_fuzz("general", 5, 4, count=3, seed=1)
    first = next(name for name in CHECK_NAMES if name in _READERS[artifact])
    failure = fuzzed.failures[0]
    assert failure["check"] == first
    assert failure["message"] == "ZeroDivisionError: injected"
    # the artifact raises on every instance, so shrinking reaches the empty hypergraph
    assert parse_json(json.dumps(failure["shrunk"])).n == 0


def test_a_raising_artifact_is_built_once(monkeypatch):
    calls = []

    def raising(*args, **kwargs):
        calls.append(args)
        _raise_injected()

    monkeypatch.setattr(checks, "survey", raising)
    report = run_checks(path_graph(4))
    assert len(calls) == 1
    failed = [r for r in report.checks if r.status == "fail"]
    assert len(failed) == 14
    assert {r.name for r in failed} == _READERS["survey"]
    assert all(r.detail == "ZeroDivisionError: injected" for r in failed)


def test_check_still_fails_builds_only_what_the_check_reads(monkeypatch):
    called = []

    def refuse(name):
        def engine(*args, **kwargs):
            called.append(name)
            raise AssertionError(f"degree-window built {name}")
        return engine

    for name in ("survey", "compute_invariants", "analyze_taylor",
                 "is_triangulated", "betti_recursive"):
        monkeypatch.setattr(checks, name, refuse(name))
    for h in (path_graph(4), cycle_graph(5), make_batch("general", 8, 8, 1, 41)[0]):
        assert not check_still_fails(h, "degree-window", QQ, 0)
    assert called == []


def test_context_builds_no_artifact(monkeypatch):
    # every engine the campaign imports, except the profile __init__ keeps
    engines = [name for name, value in vars(checks).items()
               if inspect.isfunction(value) and value.__module__ != checks.__name__
               and value.__module__.startswith("hyperbetti.")
               and name != "uniformity_profile"]
    assert {"lyubeznik_restrictions", "survey", "analyze_taylor",
            "is_triangulated", "betti_recursive"} <= set(engines)
    for name in engines:
        monkeypatch.setattr(checks, name, _raise_injected)
    for field in FIELDS:
        ctx = _Ctx(path_graph(4), field, 0)
        with pytest.raises(ZeroDivisionError):
            ctx.sv


def test_spawned_workers_take_the_callers_limits(monkeypatch):
    monkeypatch.setattr(checks, "ProcessPoolExecutor",
                        functools.partial(ProcessPoolExecutor, mp_context=get_context("spawn")))
    monkeypatch.setattr(limits, "FAMILY_BUDGET", 0)
    serial = run_fuzz("general", 5, 4, 2, 3, jobs=1).as_dict()
    parallel = run_fuzz("general", 5, 4, 2, 3, jobs=2).as_dict()
    serial.pop("meta"), parallel.pop("meta")
    assert serial == parallel
    statuses = {r["name"]: r["status"] for r in serial["checks"]}
    assert statuses["invariant-inequalities"] == "skip"
