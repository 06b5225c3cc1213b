"""Campaign runner: statuses, merging, shrinking, determinism."""

from __future__ import annotations

import ast
import dataclasses
import functools
import inspect
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import pytest
from hypothesis import given, settings

import hyperbetti.checks as checks
from hyperbetti import families, limits
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
from hyperbetti.families import _Kernel, compute_invariants
from hyperbetti.formats import instance_payload, parse_json
from hyperbetti.generators import make_batch, path_graph, random_free_vertex
from hyperbetti.homology import BettiTable, betti_table
from hyperbetti.hypergraph import build
from hyperbetti.linalg import GF2, QQ, Field
from hyperbetti.splitting import split
from hyperbetti.taylor import TaylorAnalysis

import family_oracle as oracle
from conftest import cycle_graph
from test_families import sized_hypergraphs


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
    assert a["schema_version"] == 11
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert f"Reports carry `schema_version` {checks.SCHEMA_VERSION} " in readme
    assert set(a) == {"schema_version", "ok", "seed", "instances", "checks",
                      "failures", "meta"}
    # everything that may vary between runs lives under meta
    a.pop("meta"), b.pop("meta")
    assert a == b


_TABLE_CHECKS = ("degree-window", "restriction-monotonicity", "engine-agreement",
                 "induced-matching-slices", "pd-reg-lower-bounds", "lower-bound-certificates",
                 "conditional-slice-bounds", "conditional-pd-cap", "splitting-recursion")


def _matching(k):
    return build([f"v{i}" for i in range(2 * k)], [(2 * i, 2 * i + 1) for i in range(k)])


def test_large_instance_skips_exact_checks_without_failing():
    # a 17-edge matching has 2^17 admissible symbols and is over every
    # edge budget: each engine refuses it, and its checks skip
    report = run_checks(_matching(17))
    assert [r.name for r in report.checks if r.status != "skip"] == []
    # an 11-edge matching is within every engine's limit, and every one
    # of its families is reduced, so implication-chain checks them all
    report = run_checks(_matching(11))
    assert report.ok
    results = {r.name: r for r in report.checks}
    assert results["engine-agreement"].status == "pass"
    assert results["restriction-monotonicity"].status == "pass"
    assert results["invariant-inequalities"].status == "pass"
    assert results["implication-chain"].status == "pass"
    assert results["implication-chain"].checked == 2**11 - 1


def test_taylor_checks_skip_where_the_survey_does():
    # 17 edges of K7: the table fits its budget, but the Taylor analysis,
    # like the survey, walks the 2^17 edge families, and both refuse them
    h = build([f"v{i}" for i in range(7)], [(a, b) for a in range(7) for b in range(a + 1, 7)][:17])
    results = {r.name: r for r in run_checks(h).checks}
    for name in ("implication-chain", "restriction-monotonicity", "basis-sandwich",
                 "conditional-slice-bounds"):
        assert (results[name].status, results[name].detail) == (
            "skip", f"more than {limits.FAMILY_BUDGET} edges"), name
    # engine-agreement holds the table to the recursion alone
    assert (results["engine-agreement"].status, results["engine-agreement"].checked) == ("pass", 1)


def test_budget_overrun_is_a_skip(monkeypatch):
    # P6 has more than 16 admissible symbols, so Lyubeznik's engine refuses it
    monkeypatch.setattr(limits, "LYUBEZNIK_BUDGET", 16)
    report = run_checks(path_graph(6))
    assert report.ok
    for r in report.checks:
        if r.name in _TABLE_CHECKS:
            assert (r.status, r.detail) == ("skip", "more than 16 admissible symbols"), r.name
        else:
            # every other check reads the family survey, and passes
            assert r.status == "pass", r.name


def test_checks_that_make_no_comparison_skip(monkeypatch):
    # Each edge alone is reduced and an induced matching, so an instance
    # with an edge has a slice (1, j) under the all-reduced hypothesis and
    # a nonempty witness of a: only the edgeless one leaves these two
    # checks nothing to compare
    results = {r.name: (r.status, r.detail) for r in run_checks(build(["x"], [])).checks}
    assert results["lower-bound-certificates"] == ("skip", "no nonempty witness families")
    assert results["conditional-slice-bounds"] == ("skip", "no slice satisfies either hypothesis")
    # C5 is not chordal, so it has no recursive table, and a family budget
    # of 0 refuses its Taylor analysis but not its table
    monkeypatch.setattr(limits, "FAMILY_BUDGET", 0)
    results = {r.name: (r.status, r.detail) for r in run_checks(cycle_graph(5)).checks}
    assert results["degree-window"] == ("pass", "")
    assert results["engine-agreement"] == ("skip", "no second engine applicable")


def test_triangulated_instance_above_the_recursion_cap():
    # the triangulation test has no cap, so only the check that reads the
    # recursive table skips on a 20-vertex chordal graph
    report = run_checks(make_batch("chordal", 20, 14, 1, 7)[0])
    assert report.ok
    results = {r.name: r for r in report.checks}
    assert all(r.detail != "needs a triangulated instance of the restricted class"
               for r in report.checks)
    for name in ("splitting-recursion", "matching-persistence", "split-extension"):
        assert results[name].status == "pass", name
    disjoint = results["disjointness-characterization"]
    assert (disjoint.status, disjoint.detail) == ("skip", "more than 16 vertices")


def test_cap_override_via_env(monkeypatch):
    # BETTI_CAP_N is the Hochster cap only; the campaign runs no Hochster
    # table, so a cap below the vertex count changes no check
    plain = run_checks(path_graph(4)).as_dict()
    monkeypatch.setenv("BETTI_CAP_N", "3")
    report = run_checks(path_graph(4))
    statuses = {r.name: r.status for r in report.checks}
    assert statuses["engine-agreement"] == "pass"
    capped = report.as_dict()
    plain.pop("meta"), capped.pop("meta")
    assert capped == plain


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
    # the failing check carries the same counterexample through the json report
    counterexample = json.loads(report.to_json())["checks"][0]["counterexample"]
    assert counterexample == report.failures[0]
    replayed = run_checks(parse_json(json.dumps(counterexample["instance"])))
    assert replayed.failures == [counterexample]


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


# Ids end in field0 (QQ) or field1 (GF(2)) on every input, so adding an
# input renames no test.
_GOLDEN = [pytest.param(spec, n, m, tag, field, id=f"{spec}-{n}-{m}-{tag}-field{k}")
           for spec, n, m in [("general", 8, 8), ("special:3", 9, 6), ("chordal", 8, 8),
                              ("uniform:3", 9, 10), ("general", 14, 12), ("uniform:3", 12, 14)]
           for k, (tag, field) in enumerate([("q", QQ), ("gf2", GF2)])
           # general 14/12 runs the table checks above 10 vertices and 10
           # edges, and uniform:3 12/14 the Taylor checks above 12 edges
           if tag == "q" or n < 12]


@pytest.mark.parametrize("class_spec, n, m, tag, field", _GOLDEN)
def test_fuzz_reports_match_golden(class_spec, n, m, tag, field):
    """``fuzz --count 20 --seed 7`` report bodies, without ``meta``, stay
    byte for byte those in ``tests/golden``. A deliberate change to the
    reports, such as a ``SCHEMA_VERSION`` bump, regenerates the files
    with this same body and says so in CHANGES.md."""
    report = run_fuzz(class_spec, n, m, 20, 7, field).as_dict()
    del report["meta"]
    body = json.dumps(report, indent=2, sort_keys=True) + "\n"
    golden = Path(__file__).parent / "golden" / f"fuzz_{class_spec.replace(':', '')}_{n}_{m}_{tag}.json"
    assert body == golden.read_text()


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
        # a body yields its comparisons; one that returns a result fails here by name
        assert inspect.isgeneratorfunction(check.__wrapped__), name


def _violation_names():
    """The module and check-name argument of each ViolationFound(...)
    that the package constructs."""
    for path in sorted(Path(checks.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ViolationFound"):
                check = node.args[0] if node.args else next(
                    kw.value for kw in node.keywords if kw.arg == "check")
                yield path.name, check


def test_raised_violations_name_a_check():
    # a library verifier raises under the name of the check that reports
    # the same property, or of the split step's neighbor-edge rule
    found = list(_violation_names())
    assert found
    for module, check in found:
        assert isinstance(check, ast.Constant) and check.value in (*CHECK_NAMES, "neighbor-edge"), (
            module, ast.unparse(check))


@checks._declare("implication-chain")
def _check_implication_chain(ctx):
    raise ViolationFound("implication-chain", "injected")


@checks._declare("splitting-recursion", "edges")
def _check_splitting_recursion(ctx):
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


def test_a_special_instance_is_split_once(monkeypatch):
    calls = []

    def counted(h, *args):
        calls.append(h)
        return split(h, *args)

    monkeypatch.setattr(checks, "split", counted)
    h = next(h for h in make_batch("special:3", 9, 6, 10, 7) if h.m >= 3)
    report = run_checks(h)
    statuses = {r.name: r.status for r in report.checks}
    readers = ("splitting-recursion", "matching-persistence", "split-extension")
    assert all(statuses[name] == "pass" for name in readers), statuses
    assert calls == [h]


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


def test_restriction_monotonicity_catches_a_corrupted_map(monkeypatch):
    real = checks.lyubeznik_restrictions

    def corrupted(h, field=QQ):
        # 1-3 more in one slot of every W, and one W the map lacks
        hom = {w: [d + (1 + w % 3) * (slot == w % len(dims)) for slot, d in enumerate(dims)]
               for w, dims in real(h, field).items()}
        hom[min(set(range(1 << h.n)) - hom.keys())] = [0, 1]
        return hom

    monkeypatch.setattr(checks, "lyubeznik_restrictions", corrupted)
    for h in make_batch("general", 8, 8, 10, 5):
        statuses = {r.name: r.status for r in run_checks(h).checks}
        assert statuses["restriction-monotonicity"] == "fail", h


def _entry(name):
    return checks._CHECKS[CHECK_NAMES.index(name)]


def test_splitting_recursion_catches_every_full_degree_entry():
    # At j = n only the l = t term of the split sum survives; the loop
    # holds each such entry to it on its own.
    entry = _entry("splitting-recursion")
    splits = 0
    for h in make_batch("special:3", 9, 6, 5, 7) + make_batch("chordal", 9, 9, 5, 7):
        ctx = _Ctx(h, QQ, 0)
        if not (ctx.special and h.m):
            continue
        assert entry(ctx).status == "pass"
        entries = ctx.table.entries
        for i in range(h.m + 2):
            entries[i, h.n] = entries.get((i, h.n), 0) + 1
            result = entry(ctx)
            assert result.status == "fail"
            assert result.detail.startswith(f"recursion mismatch at ({i},{h.n}):"), result.detail
            entries[i, h.n] -= 1
        splits += 1
    assert splits >= 8


def test_conditional_slice_bounds_catch_an_extra_symbol_under_both_hypotheses(monkeypatch):
    # Under both hypotheses beta <= |B| and beta >= |B| are tested one by
    # one, so a B one symbol too large fails the second of them.
    entry = _entry("conditional-slice-bounds")
    real = TaylorAnalysis.b_set
    target = None

    def b_set(self, i, j):
        return real(self, i, j) + [("extra",)] * ((i, j) == target)

    monkeypatch.setattr(TaylorAnalysis, "b_set", b_set)
    slices = 0
    for h in make_batch("general", 8, 8, 5, 5) + make_batch("special:3", 9, 6, 5, 7):
        ctx = _Ctx(h, QQ, 0)
        target = None
        assert entry(ctx).status == "pass"
        for target in ctx.taylor.types():
            i, j = target
            if i and ctx.taylor.families_all_reduced(i, j) and ctx.taylor.absorbing_families_stay_reduced(i, j):
                result = entry(ctx)
                assert result.status == "fail"
                assert "under no-double-absorption hypothesis" in result.detail
                slices += 1
    assert slices >= 60


def _wrong_bouquets(key):
    def patch(monkeypatch):
        real = families.bouquet_invariants

        def bouquet_invariants(h):
            rep = real(h)
            return dataclasses.replace(rep, **{key: getattr(rep, key) + 1})

        monkeypatch.setattr(families, "bouquet_invariants", bouquet_invariants)
    return patch


def _wrong_survey(edit):
    def patch(monkeypatch):
        real = checks.survey

        def survey(h):
            sv = real(h)
            edit(sv)
            return sv

        monkeypatch.setattr(checks, "survey", survey)
    return patch


def _shift_counts(key, delta):
    def edit(sv):
        counts = getattr(sv, key)
        for t in counts:
            counts[t] += delta * (t != (0, 0))
    return edit


def _wrong_a(sv):
    sv.maxima["a"].value += 1


def test_disjointness_characterization_failure_names_the_check(monkeypatch):
    # a d1 one above its value breaks pd = d1 = d2, after the positions held
    def wrong_d1(sv):
        sv.maxima["d1"].value += 1

    _wrong_survey(wrong_d1)(monkeypatch)
    result = {r.name: r for r in run_checks(path_graph(4)).checks}["disjointness-characterization"]
    assert (result.status, result.checked) == ("fail", 1)
    assert result.detail == "relation pd==d1==d2 fails: pd=2, d1=3, d2=2", result.detail


def _recursive_without_top_row(monkeypatch):
    real = checks.betti_recursive

    def betti_recursive(h, field=QQ):
        table = real(h, field)
        reg = table.regularity()
        return BettiTable({(i, j): v for (i, j), v in table.entries.items() if j - i != reg},
                          field)

    monkeypatch.setattr(checks, "betti_recursive", betti_recursive)


_CHORDAL = [("chordal", 8, 8)]
_SLICES = [("general", 8, 8), ("special:3", 9, 6)]


# Faults that comparisons dropped from the campaign caught, each with the
# checks that still catch it on every instance. The chordal block of
# disjointness-characterization caught a wrong d_G, d_G' or a, and a
# recursive table without its top row (j - i = reg); the survey bounds of
# conditional-slice-bounds caught wrong ssi or scsi counts.
@pytest.mark.parametrize("patch, corpus, catchers", [
    pytest.param(_wrong_bouquets("total_flowers"), _CHORDAL, {"graph-identities"}, id="d_G"),
    pytest.param(_wrong_bouquets("bouquet_count"), _CHORDAL, {"graph-identities"},
                 id="d_G_prime"),
    pytest.param(_wrong_survey(_wrong_a), _CHORDAL, {"uniform-spread-identity"}, id="a"),
    pytest.param(_recursive_without_top_row, _CHORDAL,
                 {"engine-agreement", "disjointness-characterization"}, id="recursive-top-row"),
    pytest.param(_wrong_survey(_shift_counts("counts_ssi", 1)), _SLICES, {"basis-sandwich"},
                 id="ssi"),
    pytest.param(_wrong_survey(_shift_counts("counts_scsi", -1)), _SLICES, {"basis-sandwich"},
                 id="scsi"),
])
def test_a_fault_of_a_dropped_comparison_still_fails_the_campaign(patch, corpus, catchers,
                                                                  monkeypatch):
    patch(monkeypatch)
    for spec, n, m in corpus:
        for h in make_batch(spec, n, m, 20, 7):
            failed = {r.name for r in run_checks(h).checks if r.status == "fail"}
            assert catchers <= failed, (spec, failed)


def _assert_pd_cap_hypothesis_is_the_edge_set_reduced(h):
    """``conditional-pd-cap`` used to skip when some family of e or more
    edges is absorbed, e the self-contained number; it now skips when
    the whole edge set is absorbed. Both against the family oracle, and
    under the hypothesis e is m."""
    edges = oracle.edge_sets(h)
    *_, hyp1, _ = oracle.survey_facts(edges)
    e = oracle.survey_maxima(edges)[0]["e"][0]
    absorbed = not all(_Kernel(h.edges).private_parts((1 << h.m) - 1))
    assert absorbed == bool(oracle.absorbed(edges, tuple(range(h.m)))), edges
    assert absorbed == any(i >= e for i, _ in hyp1), edges
    if not absorbed:
        assert compute_invariants(h).values["e"] == h.m, edges


@settings(max_examples=60, deadline=None)
@given(sized_hypergraphs())
def test_conditional_pd_cap_hypothesis_is_the_edge_set_reduced(h):
    _assert_pd_cap_hypothesis_is_the_edge_set_reduced(h)


@pytest.mark.parametrize("m", range(1, 8))
def test_conditional_pd_cap_hypothesis_holds_on_free_vertex_instances(m):
    for seed in range(3):
        _assert_pd_cap_hypothesis_is_the_edge_set_reduced(random_free_vertex(m, seed))


@pytest.mark.parametrize("shift", [1, -1], ids=["above", "below"])
def test_conditional_pd_cap_catches_pd_above_m(monkeypatch, shift):
    # every edge has a private vertex, so the check applies with e = m and
    # the Taylor resolution is minimal, so pd = m
    entry = _entry("conditional-pd-cap")
    h = random_free_vertex(5, 3)
    ctx = _Ctx(h, QQ, 0)
    assert entry(ctx).status == "pass"
    monkeypatch.setattr(type(ctx.table), "projective_dimension", lambda table: h.m + shift)
    result = entry(ctx)
    assert result.status == "fail"
    assert result.detail == f"relation pd==e fails: pd={h.m + shift}, e={h.m}"


def test_invariant_inequalities_holds_b_prime_to_d2_prime():
    # b' = d2' is an identity (README), so a d2' one above b' fails the
    # check, which a mere b' <= d2' would let pass
    entry = _entry("invariant-inequalities")
    ctx = _Ctx(path_graph(5), QQ, 0)
    assert entry(ctx).status == "pass"
    v = ctx.invariants.values
    v["d2_prime"] = v["b_prime"] + 1
    result = entry(ctx)
    assert result.status == "fail"
    assert result.detail == "relation b_prime==d2_prime fails: b_prime=2, d2_prime=3"
    # the seven relations listed before it held
    assert result.checked == 7


def _move(key, base, delta):
    """Set invariant ``key`` ``delta`` past ``base``, an invariant, pd or reg."""
    def move(ctx, monkeypatch):
        v = ctx.invariants.values
        v[key] = {**v, "pd": ctx.table.projective_dimension(),
                  "reg": ctx.table.regularity()}[base] + delta
    return move


def _move_a_t(t):
    def move(ctx, monkeypatch):
        ctx.invariants.values["a_t"][t] = ctx.table.regularity() + 1
    return move


def _move_table(method, value):
    """Make every table's ``method`` return ``value(ctx)``."""
    def move(ctx, monkeypatch):
        fixed = value(ctx)
        monkeypatch.setattr(BettiTable, method, lambda table: fixed)
    return move


def _move_maximum(key):
    def move(ctx, monkeypatch):
        ctx.sv.maxima[key].value += 1
    return move


def _extra_type(kind):
    def move(ctx, monkeypatch):
        ctx.sv.types[kind] = ctx.sv.types[kind] | {(9, 99)}
    return move


def _rule(name, rule, h, move, before, tag=""):
    return pytest.param(name, rule, h, move, before, id=f"{name}:{rule}{tag}")


# Each rule of the relation bodies, with one side moved so that it fails
# while the rules before it in its body still hold; ``before`` counts
# those, and None marks the reg window, which follows degree-window's
# loop over the table's entries.
_P5, _FREE = path_graph(5), random_free_vertex(5, 3)
_BROKEN_RULES = [
    _rule("invariant-inequalities", "a<=m", _FREE, _move("a", "m", 1), 0),
    _rule("invariant-inequalities", "a<=b", _FREE, _move("b", "a", -1), 1),
    _rule("invariant-inequalities", "b<=d2", _FREE, _move("b", "d2", 1), 2),
    _rule("invariant-inequalities", "b<=e", _FREE, _move("e", "b", -1), 3),
    _rule("invariant-inequalities", "a<=d1", _FREE, _move("d1", "a", -1), 4),
    _rule("invariant-inequalities", "d1<=d2", _FREE, _move("d1", "d2", 1), 5),
    _rule("invariant-inequalities", "c<=e", _FREE, _move("c", "e", 1), 6),
    _rule("invariant-inequalities", "b_prime==d2_prime", _FREE,
          _move("d2_prime", "b_prime", 1), 7),
    _rule("invariant-inequalities", "d1_prime<=d2_prime", _FREE,
          _move("d1_prime", "d2_prime", 1), 8),
    _rule("graph-identities", "d_g==d1==d2", _P5, _move("d_g", "d1", 1), 0),
    _rule("graph-identities", "d_g_prime==d1_prime==d2_prime", _P5,
          _move("d2_prime", "d1_prime", 1), 1),
    _rule("graph-identities", "self_disjoint==self_semi_disjoint", _P5,
          _extra_type("self_semi_disjoint"), 2),
    _rule("uniform-spread-identity", "d1_prime==(d-1)*a", _P5,
          _move("d1_prime", "d1_prime", 1), 0),
    _rule("degree-window", "t'-1<=reg<=(t-1)*pd", _FREE,
          _move_table("regularity", lambda ctx: 0), None, tag="-low"),
    _rule("degree-window", "t'-1<=reg<=(t-1)*pd", _FREE,
          _move_table("projective_dimension", lambda ctx: 0), None, tag="-high"),
    _rule("pd-reg-lower-bounds", "pd>=c", _FREE, _move("c", "pd", 1), 0),
    _rule("pd-reg-lower-bounds", "pd>=d2", _FREE, _move("d2", "pd", 1), 1),
    _rule("pd-reg-lower-bounds", "reg>=b_prime", _FREE, _move("b_prime", "reg", 1), 2),
    _rule("pd-reg-lower-bounds", "reg>=c_prime", _FREE, _move("c_prime", "reg", 1), 3),
    # one rule per edge size t, in the order of a_t: 2, 4, 3
    _rule("pd-reg-lower-bounds", "reg>=(2-1)*a_2", _FREE, _move_a_t(2), 4),
    _rule("pd-reg-lower-bounds", "reg>=(4-1)*a_4", _FREE, _move_a_t(4), 5),
    _rule("pd-reg-lower-bounds", "reg>=(3-1)*a_3", _FREE, _move_a_t(3), 6),
    _rule("conditional-pd-cap", "pd==e", _FREE,
          _move_table("projective_dimension", lambda ctx: ctx.invariants.values["e"] + 1), 0),
    _rule("disjointness-characterization", "nonzero_positions==self_disjoint_types", _P5,
          _extra_type("self_disjoint"), 0),
    _rule("disjointness-characterization", "pd==d1==d2", _P5, _move_maximum("d1"), 1),
    _rule("disjointness-characterization", "reg==d1_prime==d2_prime", _P5,
          _move_maximum("d2_prime"), 2),
]


@pytest.mark.parametrize("name, rule, h, move, before", _BROKEN_RULES)
def test_each_relation_fails_in_its_own_terms(name, rule, h, move, before, monkeypatch):
    entry = _entry(name)
    ctx = _Ctx(h, QQ, 0)
    passed = entry(ctx)
    assert passed.status == "pass"
    move(ctx, monkeypatch)
    result = entry(ctx)
    assert result.status == "fail"
    assert result.detail.startswith(f"relation {rule} fails: "), result.detail
    assert result.checked == (passed.checked - 1 if before is None else before)


def test_implication_chain_catches_induced_read_as_semi_induced(monkeypatch):
    # induced->matching holds by construction, induced = matching and
    # semi-induced, yet it is the campaign's only rule that catches this
    real = checks.FamilyClassification

    def induced_as_semi_induced(kernel, fam):
        cls = real(kernel, fam)
        cls.induced = cls.semi_induced
        return cls

    monkeypatch.setattr(checks, "FamilyClassification", induced_as_semi_induced)
    results = [{r.name: r for r in run_checks(h).checks}["implication-chain"]
               for h in make_batch("special:3", 9, 6, 20, 7)]
    failed = [r for r in results if r.status == "fail"]
    assert len(failed) >= 19  # measured: 19 of 20
    assert all(r.detail.endswith("violates induced->matching") for r in failed)


def test_implication_chain_catches_self_semi_induced_read_as_reduced(monkeypatch):
    # ssi->semi_induced holds by construction too, self semi-induced =
    # reduced and semi-induced, and is likewise the only rule that
    # catches dropping the semi-induced half
    real = checks.FamilyClassification

    def ssi_as_reduced(kernel, fam):
        cls = real(kernel, fam)
        cls.self_semi_induced = cls.reduced
        return cls

    monkeypatch.setattr(checks, "FamilyClassification", ssi_as_reduced)
    results = [checks._check_implication_chain(_Ctx(h, QQ, 0))
               for h in make_batch("chordal", 9, 9, 20, 7)]
    failed = [r for r in results if r.status == "fail"]
    assert len(failed) >= 18  # measured: 18 of 20
    assert all(r.detail.endswith("violates ssi->semi_induced") for r in failed)


def _raise_injected(*args, **kwargs):
    raise ZeroDivisionError("injected")


# Checks of path_graph(4) that read each artifact, directly or through
# another artifact built from it.
_READERS = {
    "survey": {
        "implication-chain", "invariant-inequalities", "graph-identities",
        "uniform-spread-identity", "induced-matching-slices", "pd-reg-lower-bounds",
        "lower-bound-certificates", "basis-sandwich", "conditional-pd-cap",
        "admissibility-orderings", "matching-persistence", "split-extension",
        "disjointness-characterization"},
    "lyubeznik_restrictions": {
        "degree-window", "restriction-monotonicity", "engine-agreement",
        "induced-matching-slices", "pd-reg-lower-bounds", "lower-bound-certificates",
        "conditional-slice-bounds", "conditional-pd-cap", "splitting-recursion"},
    "analyze_taylor": {
        "restriction-monotonicity", "engine-agreement", "basis-sandwich",
        "conditional-slice-bounds"},
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
    assert len(failed) == 13
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
