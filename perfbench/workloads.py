"""Seeded corpora, the timed groups of each workload, and their checks.

A group is one public call applied to every item of a corpus, such as
``betti_table`` over GF(2) on the Hochster corpus. Every workload runs
every group, so every run reports every rate; a workload's own groups
run on their full corpus, made from the run's seed, and the rest on a
small probe corpus made from PROBE_SEED. One pass runs each group once
over its corpus; a run makes whole passes until its time is up. Import
this module only after the package is on ``sys.path``.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import hyperbetti as hb
from hyperbetti.linalg import Field

import verify

QQ, GF2, GF3 = hb.QQ, hb.GF2, Field(3)

# Edge sizes of the sparse general hypergraphs. A fixed size profile
# keeps the cost of one instance within about 15% of the corpus mean,
# where uniformly random sizes spread it by 35%, so a corpus of a few
# instances already gives the same rate on every seed.
SPARSE_PROFILE = (2, 2, 3, 3, 3, 3, 4, 4, 4, 5)

# Corpus parts: (kind, n, m, count). Kinds: "sparse" (general, sizes from
# SPARSE_PROFILE), "graph" (random graph with m edges), "rp2", and the
# package's own instance classes, made with make_batch.
CORPORA = {
    "hochster": {
        "full": (("sparse", 9, 10, 4), ("graph", 11, 20, 1), ("rp2", 6, 10, 1)),
        "probe": (("sparse", 7, 7, 6), ("graph", 8, 12, 2), ("rp2", 6, 10, 1)),
    },
    "taylor": {
        "full": (("sparse", 9, 10, 8), ("rp2", 6, 10, 1)),
        "probe": (("sparse", 7, 7, 6), ("rp2", 6, 10, 1)),
    },
    "recursive": {
        "full": (("special:3", 16, 16, 30), ("chordal", 16, 16, 30)),
        "probe": (("special:3", 10, 10, 10), ("chordal", 10, 10, 10)),
    },
    "campaign": {
        "full": (("general", 8, 8, 5), ("special:3", 8, 8, 3), ("chordal", 8, 8, 5)),
        "probe": (("general", 6, 6, 2), ("special:3", 6, 6, 2), ("chordal", 6, 6, 2)),
    },
    "invariants": {
        "full": (("general", 10, 12, 12), ("uniform:3", 9, 13, 14), ("chordal", 10, 10, 20)),
        "probe": (("general", 8, 9, 4), ("uniform:3", 8, 10, 4), ("chordal", 9, 9, 4)),
    },
}
# Families classify takes per instance; on the full corpus this makes the
# group about 0.36 of the 4.1 reference seconds of an invariants pass.
FAMILIES_PER_INSTANCE = {"full": 300, "probe": 40}
# Probe corpora are the same on every run, so a probe rate only moves
# when the code or the machine does.
PROBE_SEED = 0
# A probe group runs its corpus this many times per pass, so that it
# takes 0.15-0.3 s: shorter stretches of work are too noisy to time.
PROBE_REPEATS = {"hochster_qq": 1, "hochster_gf2": 2, "hochster_gf3": 2, "taylor_qq": 2,
                 "taylor_gf2": 5, "recursive": 8, "campaign_qq": 2, "campaign_gf2": 3,
                 "invariants": 3, "classify": 10}

# Which corpus each group reads, and which workload owns it.
GROUPS = (
    ("hochster_qq", "hochster", "engines"),
    ("hochster_gf2", "hochster", "engines"),
    ("hochster_gf3", "hochster", "engines"),
    ("taylor_qq", "taylor", "engines"),
    ("taylor_gf2", "taylor", "engines"),
    ("recursive", "recursive", "engines"),
    ("campaign_qq", "campaign", "campaign"),
    ("campaign_gf2", "campaign", "campaign"),
    ("invariants", "invariants", "invariants"),
    ("classify", "invariants", "invariants"),
)


def _rng(seed: int, *key) -> random.Random:
    return random.Random("/".join(map(str, (seed, *key))))


def sparse_general(n: int, m: int, rng: random.Random) -> hb.Hypergraph:
    """Antichain of m edges on n vertices with sizes from SPARSE_PROFILE."""
    sizes = [min(SPARSE_PROFILE[k * len(SPARSE_PROFILE) // m], n - 1) for k in range(m)]
    while True:
        masks: list[int] = []
        for size in sizes:
            for _ in range(200):
                cand = sum(1 << v for v in rng.sample(range(n), size))
                if not any(cand & e in (cand, e) for e in masks):
                    masks.append(cand)
                    break
            else:
                break
        if len(masks) == m:
            return hb.build([f"v{i}" for i in range(n)],
                            [[v for v in range(n) if mask >> v & 1] for mask in masks])


def rp2() -> hb.Hypergraph:
    return hb.build([f"p{i}" for i in range(6)],
                    [[v for v in range(6) if mask >> v & 1] for mask in verify.rp2_edges()])


def make_part(seed: int, kind: str, n: int, m: int, count: int) -> list[hb.Hypergraph]:
    """``count`` instances of one part. The seed key leaves out ``count``
    and the group, so parts that share (kind, n, m) share their leading
    instances."""
    rng = _rng(seed, kind, n, m)
    if kind == "rp2":
        return [rp2()]
    if kind == "sparse":
        return [sparse_general(n, m, rng) for _ in range(count)]
    spec = "uniform:2" if kind == "graph" else kind
    return hb.make_batch(spec, n, m, count, rng.getrandbits(31))


@dataclass
class Item:
    """One unit of timed work with what its check needs."""

    kind: str
    h: hb.Hypergraph | None = None
    arg: object = None
    units: int = 1


@dataclass
class Group:
    name: str
    call: Callable
    items: list[Item]
    distinct: int = 0
    outputs: list = field(default_factory=list)
    # Per item, one time per untraced pass: scaled and wall-clock.
    times: list = field(default_factory=list)
    wall: list = field(default_factory=list)

    def __post_init__(self):
        self.times = [[] for _ in self.items]
        self.wall = [[] for _ in self.items]
        self.distinct = self.distinct or len(self.items)

    def rate(self, wall: bool = False) -> float:
        """Units per reference second, or per wall-clock second with
        ``wall``; each item counts with its median time over the
        untraced passes."""
        done = [(item.units, statistics.median(ts))
                for item, ts, out in zip(self.items, self.wall if wall else self.times,
                                         self.outputs)
                if not isinstance(out, Failed)]
        return sum(u for u, _ in done) / sum(t for _, t in done)

    def summary(self) -> dict:
        """Per-pass totals, per-item medians and rates, scaled and wall-clock."""
        return {"items": len(self.items),
                "seconds": [sum(p) for p in zip(*self.times)],
                "wall_seconds": [sum(p) for p in zip(*self.wall)],
                "item_medians": [statistics.median(ts) for ts in self.times],
                "item_wall_medians": [statistics.median(ts) for ts in self.wall],
                "rate": self.rate(), "wall_rate": self.rate(wall=True)}


def reference() -> int:
    """Fixed pure-Python work in the style of the package: sparse row
    elimination over dicts mod a prime, Fraction sums and bit tricks."""
    p = 10007
    rows: dict[int, dict[int, int]] = {}
    x = 12345
    for _ in range(40):
        row = {}
        for _ in range(10):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            row[x % 64] = x % p or 1
        while row:
            lead = min(row)
            pivot = rows.get(lead)
            if pivot is None:
                inv = pow(row[lead], p - 2, p)
                rows[lead] = {c: v * inv % p for c, v in row.items()}
                break
            c0 = row[lead]
            for c, v in pivot.items():
                nv = (row.get(c, 0) - c0 * v) % p
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
    total = sum(Fraction(k % 7 + 1, k) for k in range(1, 30))
    bits = sum((m & -m).bit_length() for m in range(1, 500))
    return len(rows) + total.numerator % 97 + bits


# Duration of reference() on an idle 2-core x86-64 host under CPython
# 3.11; it fixes the unit of every reported time ("reference seconds").
REFERENCE_SECONDS = 0.0012
# Longest stretch of work between two reference timings. Contention
# comes and goes within a second, so the reference is short and often.
CADENCE = 0.1


class Clock:
    """Times work in reference seconds.

    The machine may be shared, and other tenants slow everything down
    by up to half for seconds to minutes at a time. reference() runs
    between items once CADENCE seconds have passed since it last ran;
    each item's time is scaled by REFERENCE_SECONDS over the mean of
    the two reference timings that bracket it, which cancels most of
    that drift.
    """

    def __init__(self):
        self.pending: list[tuple[list, float]] = []
        self.samples: list[float] = []
        self.last = self._reference()
        self.last_at = time.perf_counter()

    def _reference(self) -> float:
        start = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - start)
        return self.samples[-1]

    def scaled(self, seconds: float, since: int) -> float:
        """``seconds`` of wall time scaled by the median reference timing
        from sample ``since`` on."""
        return seconds * REFERENCE_SECONDS / statistics.median(self.samples[since:])

    def record(self, sink: list, seconds: float) -> None:
        """Append ``seconds``, once scaled, to ``sink``."""
        self.pending.append((sink, seconds))
        if time.perf_counter() - self.last_at >= CADENCE:
            self.flush()

    def flush(self) -> None:
        new = self._reference()
        scale = REFERENCE_SECONDS / ((self.last + new) / 2)
        for sink, seconds in self.pending:
            sink.append(seconds * scale)
        self.pending.clear()
        self.last = new
        self.last_at = time.perf_counter()


def scales(workload: str) -> dict[str, str]:
    """Corpus scale of each group in ``workload``."""
    return {name: "full" if owner == workload else "probe" for name, _, owner in GROUPS}


def part_seed(seed: int, scale: str) -> int:
    return seed if scale == "full" else PROBE_SEED


def corpus_parts(workload: str, seed: int) -> list[tuple]:
    """Distinct (seed, *part) the workload's groups read. Campaign
    instances are made inside run_fuzz and are not among them."""
    parts = []
    for name, corpus, _ in GROUPS:
        if corpus == "campaign":
            continue
        scale = scales(workload)[name]
        for part in CORPORA[corpus][scale]:
            key = (part_seed(seed, scale), *part)
            if key not in parts:
                parts.append(key)
    return parts


def setup(workload: str, seed: int, out_dir: str) -> dict[tuple, list[hb.Hypergraph]]:
    """Make the corpus, write every instance as json, read it back and parse it."""
    made = {key: make_part(*key) for key in corpus_parts(workload, seed)}
    os.makedirs(out_dir, exist_ok=True)
    parsed = {}
    for p, (part, hs) in enumerate(made.items()):
        parsed[part] = []
        for k, h in enumerate(hs):
            path = os.path.join(out_dir, f"{p:02d}-{k:03d}.json")
            with open(path, "w") as fh:
                fh.write(hb.serialize(h, "json"))
            with open(path) as fh:
                back = hb.parse(fh.read())
            if back != h:
                raise RuntimeError(f"{path}: parsing the written instance gave another hypergraph")
            parsed[part].append(back)
    return parsed


def _families(seed: int, h: hb.Hypergraph, count: int) -> list[tuple[int, ...]]:
    """``count`` families drawn uniformly from all 2^m - 1 nonempty ones,
    so their sizes follow those of a sweep over every family."""
    rng = _rng(seed, "families", h.labels, h.edges)
    out = []
    while len(out) < count:
        mask = rng.getrandbits(h.m)
        if mask:
            out.append(tuple(k for k in range(h.m) if mask >> k & 1))
    return out


def build_groups(workload: str, seed: int, corpus: dict) -> list[Group]:
    scale = scales(workload)
    fields = {"qq": QQ, "gf2": GF2, "gf3": GF3}

    def instances(name: str, corpus_name: str) -> list[hb.Hypergraph]:
        out = []
        for part in CORPORA[corpus_name][scale[name]]:
            out.extend(corpus[(part_seed(seed, scale[name]), *part)])
        return out

    groups = []
    for name, corpus_name, _ in GROUPS:
        engine, _, tag = name.partition("_")
        if engine == "hochster":
            f = fields[tag]
            call = lambda it, f=f: hb.betti_table(it.h, f).entries
            items = [Item("table", h, f) for h in instances(name, corpus_name)]
        elif engine == "taylor":
            f = fields[tag]
            call = lambda it, f=f: hb.betti_via_taylor(it.h, f).entries
            items = [Item("table", h, f) for h in instances(name, corpus_name)]
        elif name == "recursive":
            call = lambda it: hb.betti_recursive(it.h, QQ).entries
            items = [Item("table", h, QQ) for h in instances(name, corpus_name)]
        elif engine == "campaign":
            f = fields[tag]
            call = lambda it, f=f: _report(hb.run_fuzz(*it.arg, field=f, jobs=1))
            # One instance per call: short calls let the reference
            # timings bracket each one closely.
            batch_seed = part_seed(seed, scale[name])
            items = [Item("campaign", None, (kind, n, m, 1, _rng(
                         batch_seed, "campaign", kind, n, m, k).getrandbits(31)))
                     for kind, n, m, count in CORPORA["campaign"][scale[name]]
                     for k in range(count)]
        elif name == "invariants":
            call = lambda it: hb.compute_invariants(it.h).as_dict()
            items = [Item("invariants", h) for h in instances(name, corpus_name)]
        else:
            call = lambda it: _classification(hb.classify(it.h, it.arg))
            items = [Item("classify", h, fam)
                     for h in instances(name, corpus_name)
                     for fam in _families(part_seed(seed, scale[name]), h,
                                          FAMILIES_PER_INSTANCE[scale[name]])]
        distinct = len(items)
        if scale[name] == "probe":
            items *= PROBE_REPEATS[name]
        groups.append(Group(name, call, items, distinct))
    return groups


def _report(report) -> dict:
    """Report body without ``meta``, which holds timings and a timestamp."""
    out = report.as_dict()
    del out["meta"]
    return out


def _classification(cls) -> dict:
    return {"i": cls.i, "j": cls.j, "matching": cls.matching, "semi_induced": cls.semi_induced,
            "induced": cls.induced, "reduced": cls.reduced,
            "self_semi_induced": cls.self_semi_induced}


@dataclass(frozen=True)
class Failed:
    """Output slot of a call that raised."""

    error: str


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)


def run_pass(groups: list[Group], tally: Tally, clock: Clock | None = None,
             tracer=None) -> None:
    """One pass: every group once over its items.

    An exception escaping a public call counts as a failed operation
    and the pass goes on. With a clock, each item's time is recorded,
    scaled and as wall-clock time.
    """
    first = not groups[0].outputs
    for g in groups:
        outputs = []
        for k, item in enumerate(g.items):
            if tracer is not None:
                tracer.enter(g.name, k)
            tally.attempted += 1
            start = time.perf_counter()
            try:
                out = g.call(item)
            except Exception as exc:  # noqa: BLE001 - a failure is a counted result
                tally.failed += 1
                out = Failed(f"{g.name}[{k}]: {type(exc).__name__}: {exc}")
                tally.errors.append(out.error)
            if clock is not None:
                g.wall[k].append(time.perf_counter() - start)
                clock.record(g.times[k], g.wall[k][-1])
            outputs.append(out)
        if first:
            g.outputs = outputs
        elif outputs != g.outputs:
            tally.mismatches.append(f"{g.name}: a later pass gave different outputs")
    if clock is not None:
        clock.flush()


def check_outputs(groups: list[Group]) -> list[str]:
    """Every output check, on the outputs of the first pass."""
    problems: list[str] = []
    numerators: dict = {}
    by_instance: dict = {}
    by_class: dict = {}
    rp2_h = rp2()
    for g in groups:
        for item, out in zip(g.items[:g.distinct], g.outputs):
            if isinstance(out, Failed):
                continue
            h = item.h
            edges = list(h.edges) if h is not None else []
            if item.kind == "table":
                key = (h.labels, h.edges)
                if key not in numerators:
                    numerators[key] = verify.euler_numerator(h.n, edges)
                problems += [f"{g.name}: {p}" for p in
                             verify.check_table(h.n, edges, out, numerators[key])]
                p = item.arg.p
                by_instance.setdefault((key, p), {})[g.name] = out
                if h == rp2_h:
                    problems += verify.check_rp2(p, out)
                if g.name == "recursive" and h.m and all(e.bit_count() == 2 for e in edges):
                    problems += verify.check_chordal_regularity(edges, out)
            elif item.kind == "campaign":
                by_class.setdefault((g.name, item.arg[0]), []).append(out)
            elif item.kind == "invariants":
                problems += verify.check_invariants(edges, out)
            else:
                problems += verify.check_classification(edges, item.arg, out)
    for tables in by_instance.values():
        problems += verify.check_agreement(tables)
    for (name, class_spec), reports in by_class.items():
        problems += [f"{name}: {p}" for p in verify.check_campaign(class_spec, reports)]
    return problems


# Groups whose tables no timed group computes with a second engine over
# the same field, with the most edges for which a Taylor table is made
# to compare against, outside the timed passes.
CROSS_CHECKED = {"recursive": 10, "hochster_gf3": 12}


def cross_check(groups: list[Group]) -> list[str]:
    """Tables of the CROSS_CHECKED groups against Taylor tables."""
    problems = []
    for g in groups:
        if g.name not in CROSS_CHECKED:
            continue
        for item, out in zip(g.items[:g.distinct], g.outputs):
            if isinstance(out, Failed) or item.h.m > CROSS_CHECKED[g.name]:
                continue
            other = hb.betti_via_taylor(item.h, item.arg).entries
            problems += [f"{g.name}: {p}" for p in
                         verify.check_agreement({g.name: out, "taylor": other})]
    return problems


def dump_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")
