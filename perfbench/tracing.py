"""Spans at the package's module boundaries, and the per-layer metrics
derived from them.

The tracer wraps public functions in place: in the module that defines
each one and in every package module that imported it by name, since a
caller looks a name up in its own module. Hot leaf calls
(``RowSpace.add`` and ``RowSpace.contains``) are counted and timed
without a span of their own; their time is charged to the span that
encloses them. Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (module, attribute, span name). "Class.method" wraps a method on its
# class, which every caller reaches through the instance.
SPANS = (
    ("homology", "independent_faces", "homology.independent_faces"),
    ("homology", "reduced_homology_dims", "homology.reduced_homology_dims"),
    ("homology", "homology_of_restrictions", "homology.homology_of_restrictions"),
    ("homology", "table_from_homology", "homology.table_from_homology"),
    ("homology", "betti_table", "homology.betti_table"),
    ("linalg", "rank_of", "linalg.rank_of"),
    ("taylor", "analyze_taylor", "taylor.analyze_taylor"),
    ("taylor", "betti_via_taylor", "taylor.betti_via_taylor"),
    ("taylor", "TaylorAnalysis.b_set", "taylor.b_set"),
    ("taylor", "certify_nonvanishing", "taylor.certify_nonvanishing"),
    ("taylor", "is_maximal_l_admissible", "taylor.is_maximal_l_admissible"),
    ("splitting", "betti_recursive", "splitting.betti_recursive"),
    ("splitting", "split", "splitting.split"),
    ("splitting", "canonical_key", "splitting.canonical_key"),
    ("splitting", "verify_disjointness_characterization", "splitting.verify"),
    ("splitting", "verify_matching_persistence", "splitting.verify"),
    ("splitting", "verify_split_extension", "splitting.verify"),
    ("hypergraph", "is_triangulated", "hypergraph.is_triangulated"),
    ("hypergraph", "uniformity_profile", "hypergraph.uniformity_profile"),
    ("families", "survey", "families.survey"),
    ("families", "classify", "families.classify"),
    ("families", "compute_invariants", "families.compute_invariants"),
    ("families", "self_ordered_witness", "families.self_ordered_witness"),
    ("families", "bouquet_invariants", "families.bouquet_invariants"),
    ("checks", "run_checks", "checks.run_checks"),
    ("checks", "run_fuzz", "checks.run_fuzz"),
    ("generators", "make_batch", "generators.make_batch"),
    ("formats", "parse", "formats.parse"),
    ("formats", "serialize", "formats.serialize"),
)
LEAVES = (
    ("linalg", "RowSpace.add", "linalg.add"),
    ("linalg", "RowSpace.contains", "linalg.contains"),
)


def _counters(name: str, args, result) -> dict[str, int]:
    """Work counts recorded where the work happens."""
    if name == "homology.independent_faces":
        return {"homology.faces": sum(len(level) for level in result)}
    if name == "taylor.analyze_taylor":
        return {"taylor.symbols": sum(len(basis) for basis in result.slices.values())}
    if name == "families.survey":
        return {"families.families_enumerated": (1 << args[0].m) - 1}
    if name == "checks.run_checks":
        status = [r.status for r in result.checks]
        return {"checks.passed": status.count("pass"), "checks.skipped": status.count("skip")}
    if name == "linalg.add":
        return {"linalg.add.rank_gained": int(bool(result))}
    return {}


# Span fields, kept as lists to hold memory down.
NAME, START, END, PARENT, GROUP, INSTANCE, LEAF_TIME = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.group = "setup"
        self.instance = 0
        # (group, leaf name) -> [calls, seconds]; (group, counter) -> value
        self.leaf: dict[tuple[str, str], list] = {}
        self.counts: dict[tuple[str, str], int] = {}
        self.unattached: list[str] = []
        self._undo: list[tuple] = []

    def enter(self, group: str, instance: int) -> None:
        self.group, self.instance = group, instance

    def _count(self, name, args, result) -> None:
        for key, value in _counters(name, args, result).items():
            slot = (self.group, key)
            self.counts[slot] = self.counts.get(slot, 0) + value

    def _span(self, fn, name):
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                    self.group, self.instance, 0.0]
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self.stack.pop()
            self._count(name, args, result)
            return result
        return wrapper

    def _leaf_wrap(self, fn, name):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            spent = time.perf_counter() - start
            if self.stack:
                self.spans[self.stack[-1]][LEAF_TIME] += spent
            slot = self.leaf.setdefault((self.group, name), [0, 0.0])
            slot[0] += 1
            slot[1] += spent
            self._count(name, args, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every point in SPANS, LEAVES and the campaign's checks.

        A point that no longer exists is recorded in ``unattached`` and
        skipped; its metrics then read zero.
        """
        mods = {name: m for name, m in sys.modules.items()
                if name == "hyperbetti" or name.startswith("hyperbetti.")}
        for table, make in ((SPANS, self._span), (LEAVES, self._leaf_wrap)):
            for mod_name, attr, name in table:
                try:
                    module = importlib.import_module(f"hyperbetti.{mod_name}")
                    owner_name, _, meth = attr.rpartition(".")
                    owner = getattr(module, owner_name) if owner_name else module
                    original = getattr(owner, meth)
                except (ImportError, AttributeError):
                    self.unattached.append(f"{mod_name}.{attr}")
                    continue
                wrapped = make(original, name)
                if owner_name:
                    self._patch(owner, meth, wrapped)
                    continue
                for other in mods.values():
                    if getattr(other, meth, None) is original:
                        self._patch(other, meth, wrapped)
        checks = sys.modules.get("hyperbetti.checks")
        if checks is None or not hasattr(checks, "_CHECKS"):
            self.unattached.append("checks._CHECKS")
            return
        self._patch(checks, "_CHECKS", tuple(
            self._span(fn, "checks." + fn.__name__.removeprefix("_check_").replace("_", "-"))
            for fn in checks._CHECKS))

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path: str) -> None:
        """One json array per line: name, start, end, parent, group,
        instance, time in untraced leaf calls."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def totals(self) -> dict[tuple[str, str], dict[str, float]]:
        """Per (group, span name): calls, total seconds, self seconds."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        out: dict[tuple[str, str], dict[str, float]] = {}
        for k, span in enumerate(self.spans):
            dur = span[END] - span[START]
            slot = out.setdefault((span[GROUP], span[NAME]), {"calls": 0, "s": 0.0, "self_s": 0.0})
            slot["calls"] += 1
            slot["s"] += dur
            slot["self_s"] += dur - child[k] - span[LEAF_TIME]
        for (group, name), (calls, seconds) in self.leaf.items():
            out[(group, name)] = {"calls": calls, "s": seconds, "self_s": seconds}
        return out

    def fallbacks(self) -> dict[str, int]:
        """Taylor tables built inside the splitting recursion, per group."""
        out: dict[str, int] = {}
        for span in self.spans:
            if (span[NAME] == "taylor.betti_via_taylor" and span[PARENT] >= 0
                    and self.spans[span[PARENT]][NAME] == "splitting.betti_recursive"):
                out[span[GROUP]] = out.get(span[GROUP], 0) + 1
        return out

    def context_seconds(self) -> dict[str, float]:
        """Per group: time in run_checks outside its checks."""
        out: dict[str, float] = {}
        for span in self.spans:
            if span[NAME] == "checks.run_checks":
                out[span[GROUP]] = out.get(span[GROUP], 0.0) + span[END] - span[START]
            elif span[NAME].startswith("checks.") and span[NAME] not in (
                    "checks.run_checks", "checks.run_fuzz"):
                out[span[GROUP]] = out.get(span[GROUP], 0.0) - (span[END] - span[START])
        return out


def layer_metrics(tracer: Tracer, per_layer: list[dict], passes: int,
                  overhead: float) -> dict[str, dict]:
    """Every metric of ``per_layer`` (BENCHMARK.json's list), per pass
    (setup: per set-up).

    A name is "<group>.<layer metric>"; group "campaign" sums both
    campaign fields and group "setup" covers the set-up step. Kinds of
    value, by the layer metric's suffix: "_s" total span time,
    "_self_s" span time minus child spans, ".calls" span count,
    anything else a counter.
    """
    totals = tracer.totals()
    fallbacks = tracer.fallbacks()
    context = tracer.context_seconds()

    def members(group):
        return ("campaign_qq", "campaign_gf2") if group == "campaign" else (group,)

    def total(group, name, key):
        return sum(totals.get((g, name), {}).get(key, 0) for g in members(group))

    def count(group, key):
        return sum(tracer.counts.get((g, key), 0) for g in members(group))

    out = {}
    for entry in per_layer:
        group, _, metric = entry["name"].partition(".")
        if group == "trace":
            value = overhead
        elif metric == "homology.restrictions":
            value = total(group, "homology.independent_faces", "calls")
        elif metric == "linalg.add_useful_ratio":
            calls = total(group, "linalg.add", "calls")
            value = count(group, "linalg.add.rank_gained") / calls if calls else 0.0
        elif metric == "splitting.taylor_fallbacks":
            value = sum(fallbacks.get(g, 0) for g in members(group))
        elif metric == "checks.context_s":
            value = sum(context.get(g, 0.0) for g in members(group))
        elif metric.endswith("_self_s"):
            value = total(group, metric[:-len("_self_s")], "self_s")
        elif metric.endswith("_s"):
            value = total(group, metric[:-len("_s")], "s")
        elif metric.endswith(".calls"):
            value = total(group, metric[:-len(".calls")], "calls")
        else:
            value = count(group, metric)
        if group not in ("trace", "setup"):
            value /= passes
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return out
