"""Theorem-backed verification campaigns.

``run_checks`` runs every applicable check on one instance and reports
pass/fail/skip per check; nothing raises on a violated property, the
failure becomes report content with a replayable instance attached.
``run_fuzz`` drives batches of random instances through the same
campaign and shrinks the first failure.

Each check names with ``_declare`` what it needs (see ``_NEEDS``); an
unmet need makes it a ``skip`` with that need's reason, and an exception
inside a check becomes its ``fail`` result while the others still run.
The per-instance artifacts (restriction map, table, survey, invariants,
Taylor analysis, triangulation test, recursive table) are built on first
use, inside the check that first reads them, and kept. An artifact that
raises is therefore a ``fail`` of each check that reads it, and shrinking
a failure builds only what the failing check reads.

The exact table is read off one restriction map: each vertex subset W
with nonzero reduced homology of its independence complex, taken from
Lyubeznik's resolution (``taylor.lyubeznik_restrictions``), which by
Hochster's formula gives the same numbers. ``engine-agreement``
compares that table with the Taylor and recursive engines.

Exact-table checks and family sweeps are gated by the size limits in
``limits``; an unmet gate is a skip. Reports follow ``SCHEMA_VERSION``
2 and are deterministic for fixed inputs and seed: everything that
varies between runs lives under the ``meta`` key.
"""

from __future__ import annotations

import functools
import json
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field
from datetime import datetime, timezone
from math import comb

from . import limits
from .bitsets import bits_of, mask_of
from .errors import CertificateError, ValidationError
from .families import (
    FamilySurvey,
    InvariantReport,
    _classification,
    _Kernel,
    _union_table,
    classify,
    compute_invariants,
    survey,
)
from .formats import instance_payload
from .generators import derive_seed, make_batch
from .homology import BettiTable, table_from_homology
from .hypergraph import (
    Hypergraph,
    delete_edge,
    induced_subhypergraph,
    is_triangulated,
    uniformity_profile,
)
from .linalg import QQ, Field
from .splitting import (
    SplittingDecomposition,
    betti_recursive,
    find_simplicial_vertex,
    split,
    verify_disjointness_characterization,
    verify_matching_persistence,
    verify_split_extension,
)
from .taylor import (
    Certificate,
    TaylorAnalysis,
    analyze_taylor,
    betti_via_lyubeznik,
    certify_nonvanishing,
    chain_union,
    is_l_admissible,
    is_maximal_l_admissible,
    lyubeznik_restrictions,
)

SCHEMA_VERSION = 2
SAMPLED_ORDERINGS = 6


@dataclass
class CheckResult:
    name: str
    status: str  # pass | fail | skip
    checked: int = 0
    detail: str = ""
    witness: dict | None = None
    counterexample: dict | None = None

    def as_dict(self) -> dict:
        out = {"name": self.name, "status": self.status, "checked": self.checked}
        if self.detail:
            out["detail"] = self.detail
        if self.witness is not None:
            out["witness"] = self.witness
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


@dataclass
class CampaignReport:
    checks: list[CheckResult]
    seed: int | None = None
    instances: int = 1
    failures: list[dict] = dc_field(default_factory=list)
    meta: dict = dc_field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(r.status != "fail" for r in self.checks)

    def as_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "ok": self.ok,
            "seed": self.seed,
            "instances": self.instances,
            "checks": [r.as_dict() for r in self.checks],
            "failures": self.failures,
            "meta": self.meta,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"


def _fail(name: str, h: Hypergraph, message: str, checked: int = 0,
          extra: dict | None = None) -> CheckResult:
    payload = {"instance": instance_payload(h), "message": message}
    if extra:
        payload.update(extra)
    return CheckResult(name, "fail", checked, detail=message, counterexample=payload)


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        value = sorted(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _artifact(build):
    """A property of ``_Ctx`` built on first read and kept, and so is a
    raise: every later read raises the same exception again."""
    name = build.__name__

    @functools.wraps(build)
    def read(ctx):
        if name not in ctx.built:
            try:
                ctx.built[name] = (build(ctx), None)
            except Exception as exc:
                ctx.built[name] = (None, exc)
        value, exc = ctx.built[name]
        if exc is not None:
            raise exc
        return value

    return property(read)


class _Ctx:
    """Shared per-instance artifacts, each built on first use and kept.

    Each artifact is an ``_artifact``, None (``special``: False) above
    its limit. Checks first read one inside their ``_declare`` entry, so
    an artifact that raises is built once and is a ``fail`` of each
    check that reads it, and the other checks still run.
    """

    def __init__(self, h: Hypergraph, field: Field, seed: int):
        self.built: dict[str, tuple] = {}
        self.h = h
        self.field = field
        self.seed = seed
        self.profile = uniformity_profile(h)
        # Read here, so that a malformed BETTI_CAP_N is a usage error.
        self.exact = (h.n <= limits.vertex_cap(limits.EXACT_N_CAP)
                      and h.m <= limits.EXACT_M_CAP)

    @_artifact
    def hom(self) -> dict[int, list[int]] | None:
        return lyubeznik_restrictions(self.h, self.field) if self.exact else None

    @_artifact
    def table(self) -> BettiTable | None:
        return None if self.hom is None else table_from_homology(self.hom, self.field, self.h.n)

    @_artifact
    def sv(self) -> FamilySurvey | None:
        return survey(self.h) if self.h.m <= limits.FAMILY_BUDGET else None

    @_artifact
    def invariants(self) -> InvariantReport | None:
        return None if self.sv is None else compute_invariants(self.h, precomputed=self.sv)

    @_artifact
    def taylor(self) -> TaylorAnalysis | None:
        within = self.exact and self.h.m <= limits.TAYLOR_BUDGET
        return analyze_taylor(self.h, self.field) if within else None

    @_artifact
    def special(self) -> bool:
        """Whether the instance is a triangulated one of the restricted class."""
        return (self.profile.is_special_class and self.profile.d is not None
                and self.h.n <= limits.TRIANGULATED_CAP and is_triangulated(self.h))

    @_artifact
    def recursive(self) -> BettiTable | None:
        """Table by the splitting recursion, on ``special`` instances."""
        return betti_recursive(self.h, self.field) if self.special else None


def _skip(name: str, why: str) -> CheckResult:
    return CheckResult(name, "skip", 0, detail=why)


# What a check may declare it needs: a predicate on _Ctx, and the skip
# reason reported when the predicate does not hold, formatted with
# ``limits`` when the skip happens.
_NEEDS = {
    "table": (lambda ctx: ctx.table is not None, "instance above exact-table caps"),
    "survey": (lambda ctx: ctx.sv is not None, "family enumeration too large"),
    "taylor": (lambda ctx: ctx.taylor is not None, "instance above Taylor-analysis caps"),
    "special": (lambda ctx: ctx.special,
                "needs a triangulated instance of the restricted class"),
    "edges": (lambda ctx: ctx.h.m > 0, "no edges"),
    "graph": (lambda ctx: ctx.profile.d == 2 or ctx.h.m == 0, "not a graph"),
    "uniform": (lambda ctx: ctx.profile.is_uniform and ctx.profile.d is not None,
                "not uniform"),
    "edge-cap": (lambda ctx: ctx.h.m <= limits.EXACT_M_CAP,
                 "more than {limits.EXACT_M_CAP} edges"),
}


def _declare(name: str, *needs: str):
    """Declare the campaign check ``name``, run only when all ``needs`` hold.

    The body takes ``(ctx, name)``; the entry it becomes takes ``ctx``,
    skips with the first unmet need's reason, and turns any exception
    from the gates or the body, such as an artifact that fails to build,
    into a ``fail`` with a replayable instance. Both stay inside the
    entry: wrappers around ``_CHECKS`` entries, such as a tracer's, keep
    no function attributes.
    """
    gates = [_NEEDS[need] for need in needs]

    def wrap(body):
        @functools.wraps(body)
        def entry(ctx: _Ctx) -> CheckResult:
            try:
                for holds, why in gates:
                    if not holds(ctx):
                        return _skip(name, why.format(limits=limits))
                return body(ctx, name)
            except Exception as exc:
                return _fail(name, ctx.h, f"{type(exc).__name__}: {exc}")

        entry.check_name = name
        return entry

    return wrap


@_declare("implication-chain", "survey", "edge-cap")
def _check_implication_chain(ctx: _Ctx, name: str) -> CheckResult:
    h = ctx.h
    kernel = _Kernel(h.edges, _union_table(h.edges))
    checked = 0
    for bits in range(1, 1 << h.m):
        fam = tuple(bits_of(bits))
        cls = _classification(kernel, fam)
        rules = (
            ("induced->matching", not cls.induced or cls.matching),
            ("induced->self_semi_induced", not cls.induced or cls.self_semi_induced),
            ("induced->self_disjoint", not cls.induced or cls.self_disjoint),
            ("ssi->semi_induced", not cls.self_semi_induced or cls.semi_induced),
            ("ssi->self_contained", not cls.self_semi_induced or cls.self_contained),
            ("ssi->ssd", not cls.self_semi_induced or cls.self_semi_disjoint),
            ("sd->ssd", not cls.self_disjoint or cls.self_semi_disjoint),
            ("ordered->self_contained", not cls.self_ordered or cls.self_contained),
        )
        for rule, holds in rules:
            if not holds:
                return _fail(name, h, f"family {fam} violates {rule}", checked)
        checked += 1
    return CheckResult(name, "pass", checked)


@_declare("invariant-inequalities", "survey")
def _check_invariant_inequalities(ctx: _Ctx, name: str) -> CheckResult:
    v = ctx.invariants.values
    relations = (
        ("a<=m", v["a"] <= v["m"]),
        ("a<=b", v["a"] <= v["b"]),
        ("b<=d2", v["b"] <= v["d2"]),
        ("b<=e", v["b"] <= v["e"]),
        ("a<=d1", v["a"] <= v["d1"]),
        ("d1<=d2", v["d1"] <= v["d2"]),
        ("c<=e", v["c"] <= v["e"]),
        ("b_prime<=d2_prime", v["b_prime"] <= v["d2_prime"]),
        ("d1_prime<=d2_prime", v["d1_prime"] <= v["d2_prime"]),
    )
    for rel, holds in relations:
        if not holds:
            return _fail(name, ctx.h, f"inequality {rel} fails: {v}", 0)
    return CheckResult(name, "pass", len(relations))


@_declare("graph-identities", "survey", "graph")
def _check_graph_identities(ctx: _Ctx, name: str) -> CheckResult:
    v = ctx.invariants.values
    if not (v["d_g"] == v["d1"] == v["d2"]):
        return _fail(name, ctx.h, f"d_G {v['d_g']} vs d1 {v['d1']}, d2 {v['d2']}")
    if not (v["d_g_prime"] == v["d1_prime"] == v["d2_prime"]):
        return _fail(
            name, ctx.h,
            f"d_G' {v['d_g_prime']} vs d1' {v['d1_prime']}, d2' {v['d2_prime']}")
    if ctx.sv.types["self_disjoint"] != ctx.sv.types["self_semi_disjoint"]:
        return _fail(name, ctx.h, "graph has a self semi-disjoint type with no self disjoint set")
    return CheckResult(name, "pass", 3)


@_declare("uniform-spread-identity", "survey", "uniform")
def _check_uniform_spread_identity(ctx: _Ctx, name: str) -> CheckResult:
    v = ctx.invariants.values
    d = ctx.profile.d
    if v["d1_prime"] != (d - 1) * v["a"]:
        return _fail(name, ctx.h, f"d1' {v['d1_prime']} != (d-1)*a = {(d - 1) * v['a']}")
    return CheckResult(name, "pass", 1)


@_declare("degree-window", "table", "edges")
def _check_degree_window(ctx: _Ctx, name: str) -> CheckResult:
    sizes = [mask.bit_count() for mask in ctx.h.edges]
    t, tp = max(sizes), min(sizes)
    checked = 0
    for (i, j), value in ctx.table.entries.items():
        if i == 0 or value == 0:
            continue
        if not (i + tp - 1 <= j <= min(ctx.h.n, t * i)):
            return _fail(name, ctx.h, f"entry ({i},{j}) outside degree window", checked)
        checked += 1
    pd, reg = ctx.table.projective_dimension(), ctx.table.regularity()
    if not (tp - 1 <= reg <= (t - 1) * pd):
        return _fail(name, ctx.h, f"reg {reg} outside [{tp - 1}, {(t - 1) * pd}]", checked)
    return CheckResult(name, "pass", checked + 1)


@_declare("restriction-monotonicity", "table")
def _check_restriction_monotonicity(ctx: _Ctx, name: str) -> CheckResult:
    full = ctx.table
    checked = 0
    for wmask in range((1 << ctx.h.n) - 1):
        sub = table_from_homology(ctx.hom, ctx.field, ctx.h.n, within=wmask)
        for (i, j), value in sub.entries.items():
            if value > full.get(i, j):
                return _fail(
                    name, ctx.h,
                    f"restriction {wmask:b} has beta({i},{j})={value} above full {full.get(i, j)}",
                    checked)
        if sub.projective_dimension() > full.projective_dimension():
            return _fail(name, ctx.h, f"restriction {wmask:b} raises pd", checked)
        if sub.regularity() > full.regularity():
            return _fail(name, ctx.h, f"restriction {wmask:b} raises reg", checked)
        checked += 1
    return CheckResult(name, "pass", checked)


@_declare("engine-agreement", "table")
def _check_engine_agreement(ctx: _Ctx, name: str) -> CheckResult:
    checked = 0
    if ctx.taylor is not None:
        if ctx.taylor.table().entries != ctx.table.entries:
            return _fail(name, ctx.h, "Taylor table differs from restriction-homology table")
        checked += 1
    if ctx.recursive is not None:
        if ctx.recursive.entries != ctx.table.entries:
            return _fail(name, ctx.h, "recursive table differs from restriction-homology table",
                         checked)
        checked += 1
    if checked == 0:
        return _skip(name, "no second engine applicable")
    return CheckResult(name, "pass", checked)


@_declare("induced-matching-slices", "table", "survey", "edges")
def _check_induced_matching_slices(ctx: _Ctx, name: str) -> CheckResult:
    t = max(mask.bit_count() for mask in ctx.h.edges)
    checked = 0
    for i in range(1, ctx.h.m + 1):
        expected = ctx.sv.counts_induced_uniform.get((t, i), 0)
        actual = ctx.table.get(i, t * i)
        if expected != actual:
            return _fail(
                name, ctx.h,
                f"beta({i},{t * i})={actual} but {expected} induced matchings of {t}-sets",
                checked)
        checked += 1
    return CheckResult(name, "pass", checked)


@_declare("pd-reg-lower-bounds", "table", "survey")
def _check_pd_reg_lower_bounds(ctx: _Ctx, name: str) -> CheckResult:
    v = ctx.invariants.values
    pd, reg = ctx.table.projective_dimension(), ctx.table.regularity()
    bounds = [
        ("pd>=b", pd >= v["b"]),
        ("pd>=c", pd >= v["c"]),
        ("pd>=d2", pd >= v["d2"]),
        ("reg>=b_prime", reg >= v["b_prime"]),
        ("reg>=c_prime", reg >= v["c_prime"]),
        ("reg>=d2_prime", reg >= v["d2_prime"]),
    ]
    for t, a_t in v["a_t"].items():
        bounds.append((f"reg>=({t}-1)*a_{t}", reg >= (t - 1) * a_t))
    for rel, holds in bounds:
        if not holds:
            return _fail(name, ctx.h, f"bound {rel} fails: pd={pd} reg={reg} {v}")
    return CheckResult(name, "pass", len(bounds))


@_declare("lower-bound-certificates", "table", "survey")
def _check_lower_bound_certificates(ctx: _Ctx, name: str) -> CheckResult:
    plans = (
        ("a", "induced_matching"),
        ("b", "semi_induced"),
        ("c", "self_ordered"),
        ("d2", "self_semi_disjoint"),
    )
    issued = []
    for key, kind in plans:
        fam = ctx.invariants.witnesses[key]
        if not fam:
            continue
        cert = Certificate(kind, tuple(fam), len(fam), chain_union(ctx.h, fam).bit_count())
        try:
            verdict = certify_nonvanishing(ctx.h, cert, ctx.field, table=ctx.table)
        except CertificateError as exc:
            return _fail(
                name, ctx.h, f"{kind} certificate for {tuple(fam)} failed: {exc}",
                len(issued))
        issued.append(
            {"kind": kind, "family": list(fam), "i": cert.i, "j": cert.j,
             "beta": verdict.beta})
    if not issued:
        return _skip(name, "no nonempty witness families")
    return CheckResult(name, "pass", len(issued), witness={"certificates": issued})


@_declare("basis-sandwich", "taylor", "survey")
def _check_basis_sandwich(ctx: _Ctx, name: str) -> CheckResult:
    checked = 0
    for (i, j) in sorted(ctx.taylor.slices):
        if i == 0:
            continue
        b = len(ctx.taylor.b_set(i, j))
        ssi = ctx.sv.counts_ssi.get((i, j), 0)
        scsi = ctx.sv.counts_scsi.get((i, j), 0)
        if not ssi <= b <= scsi:
            return _fail(
                name, ctx.h,
                f"slice ({i},{j}): ssi {ssi} <= |B| {b} <= scsi {scsi} fails", checked)
        checked += 1
    return CheckResult(name, "pass", checked)


@_declare("conditional-slice-bounds", "table", "taylor", "survey")
def _check_conditional_slice_bounds(ctx: _Ctx, name: str) -> CheckResult:
    checked = 0
    for (i, j) in sorted(ctx.taylor.slices):
        if i == 0 or not ctx.taylor.slices[(i, j)]:
            continue
        hyp1 = ctx.sv.families_all_reduced(i, j)
        hyp2 = ctx.sv.absorbing_families_stay_reduced(i, j)
        if not hyp1 and not hyp2:
            continue
        beta = ctx.table.get(i, j)
        b = len(ctx.taylor.b_set(i, j))
        ssi = ctx.sv.counts_ssi.get((i, j), 0)
        scsi = ctx.sv.counts_scsi.get((i, j), 0)
        if hyp1 and not (beta <= b and beta <= scsi):
            return _fail(
                name, ctx.h,
                f"slice ({i},{j}) under all-reduced hypothesis: beta {beta} > |B| {b} or scsi {scsi}",
                checked)
        if hyp2 and not (beta >= b and beta >= ssi):
            return _fail(
                name, ctx.h,
                f"slice ({i},{j}) under no-double-absorption hypothesis: beta {beta} < |B| {b} or ssi {ssi}",
                checked)
        if hyp1 and hyp2 and beta != b:
            return _fail(name, ctx.h,
                         f"slice ({i},{j}) under both hypotheses: beta {beta} != |B| {b}",
                         checked)
        checked += 1
    if checked == 0:
        return _skip(name, "no slice satisfies either hypothesis")
    return CheckResult(name, "pass", checked)


@_declare("conditional-pd-cap", "table", "survey")
def _check_conditional_pd_cap(ctx: _Ctx, name: str) -> CheckResult:
    e = ctx.invariants.values["e"]
    if any(i >= e for (i, j) in ctx.sv.hyp1_violations):
        return _skip(name, "all-reduced hypothesis fails at or above e")
    pd = ctx.table.projective_dimension()
    if pd > e:
        return _fail(name, ctx.h, f"pd {pd} exceeds e {e} despite hypothesis")
    return CheckResult(name, "pass", 1, witness={"pd": pd, "e": e})


@_declare("admissibility-orderings", "survey", "edges")
def _check_admissibility_orderings(ctx: _Ctx, name: str) -> CheckResult:
    h = ctx.h
    rng = random.Random(ctx.seed)
    orderings = [tuple(range(h.m))]
    for _ in range(SAMPLED_ORDERINGS):
        perm = list(range(h.m))
        rng.shuffle(perm)
        orderings.append(tuple(perm))
    families = []
    seen = set()
    for key in ("a", "b", "c", "d2", "e"):
        fam = tuple(sorted(ctx.invariants.witnesses[key]))
        if fam and fam not in seen:
            seen.add(fam)
            families.append(fam)
    checked = 0
    for fam in families:
        cls = classify(h, fam)
        for order in orderings:
            positions = tuple(sorted(order.index(s) for s in fam))
            admissible = is_l_admissible(h, order, positions)
            if cls.self_semi_induced and not admissible:
                return _fail(
                    name, h,
                    f"self semi-induced family {fam} not admissible under {order}", checked)
            checked += 1
        fam_first = tuple(fam) + tuple(s for s in range(h.m) if s not in fam)
        front = tuple(range(len(fam)))
        front_ok = is_l_admissible(h, fam_first, front)
        if cls.reduced != front_ok:
            return _fail(
                name, h,
                f"family {fam}: reduced={cls.reduced} but family-first admissibility={front_ok}",
                checked)
        checked += 1
    ordered = ctx.invariants.witnesses.get("c", ())
    # Maximality under the family-first ordering needs a prefix member to
    # absorb, so it starts at two edges; a lone edge can sit inside an
    # admissible pair with any disjoint edge.
    if len(ordered) >= 2:
        rest = tuple(s for s in range(h.m) if s not in ordered)
        order = tuple(ordered) + rest
        front = tuple(range(len(ordered)))
        if not is_maximal_l_admissible(h, order, front):
            return _fail(
                name, h,
                f"self ordered family {ordered} not maximal admissible when listed first",
                checked)
        checked += 1
    return CheckResult(name, "pass", checked)


def _split_tables(ctx: _Ctx, dec: SplittingDecomposition) -> tuple[BettiTable, BettiTable]:
    """Tables of the split's H1 and H2.

    H1, H minus the edge S, gets a table of its own. H2 is H induced on
    the vertices outside S and its neighbours, so its restrictions are
    those of H to subsets of that set, read from the restriction map.
    """
    keep = ((1 << ctx.h.n) - 1) & ~mask_of(dec.removed_vertices)
    return (betti_via_lyubeznik(dec.h1, ctx.field),
            table_from_homology(ctx.hom, ctx.field, ctx.h.n, within=keep))


@_declare("splitting-recursion", "special", "edges", "table")
def _check_splitting_recursion(ctx: _Ctx, name: str) -> CheckResult:
    dec = split(ctx.h)
    t, d = dec.t, dec.d
    tab1, tab2 = _split_tables(ctx, dec)
    checked = 0
    for i in range(ctx.h.m + 2):
        for j in range(ctx.h.n + 1):
            lhs = ctx.table.get(i, j)
            rhs = tab1.get(i, j)
            for ell in range(i):
                rhs += comb(t, ell) * tab2.get(i - 1 - ell, j - d - ell)
            if lhs != rhs:
                return _fail(
                    name, ctx.h,
                    f"recursion mismatch at ({i},{j}): table {lhs}, split sum {rhs}",
                    checked)
            checked += 1
        collapsed = tab1.get(i, ctx.h.n) + tab2.get(i - 1 - t, ctx.h.n - d - t)
        if ctx.table.get(i, ctx.h.n) != collapsed:
            return _fail(
                name, ctx.h,
                f"two-term reduction fails at ({i},{ctx.h.n})", checked)
        checked += 1
    return CheckResult(name, "pass", checked)


@_declare("matching-persistence", "special", "edges", "survey")
def _check_matching_persistence(ctx: _Ctx, name: str) -> CheckResult:
    x = find_simplicial_vertex(ctx.h)
    s = next(s for s in range(ctx.h.m) if ctx.h.edge_mask(s) >> x & 1)
    count = verify_matching_persistence(ctx.h, x, s)
    return CheckResult(name, "pass", count, witness={"x": x, "s": s})


@_declare("split-extension", "special", "edges", "survey")
def _check_split_extension(ctx: _Ctx, name: str) -> CheckResult:
    dec = split(ctx.h)
    count = verify_split_extension(ctx.h, dec)
    return CheckResult(name, "pass", count, witness={"x": dec.x, "s": dec.s})


@_declare("disjointness-characterization", "special", "survey")
def _check_disjointness_characterization(ctx: _Ctx, name: str) -> CheckResult:
    rep = verify_disjointness_characterization(ctx.h, ctx.field, table=ctx.recursive,
                                               precomputed=ctx.sv)
    checked = 3
    if ctx.profile.d == 2 or ctx.h.m == 0:
        v = ctx.invariants.values
        if rep["pd"] != v["d_g"] or rep["reg"] != v["d_g_prime"]:
            return _fail(
                name, ctx.h,
                f"chordal identities fail: pd {rep['pd']} vs d_G {v['d_g']}, "
                f"reg {rep['reg']} vs d_G' {v['d_g_prime']}", checked)
        if v["d_g_prime"] != v["a"]:
            return _fail(name, ctx.h,
                         f"chordal spread {v['d_g_prime']} != induced matching number {v['a']}",
                         checked)
        checked += 2
    return CheckResult(name, "pass", checked, witness=_jsonable(rep))


_CHECKS = (
    _check_implication_chain,
    _check_invariant_inequalities,
    _check_graph_identities,
    _check_uniform_spread_identity,
    _check_degree_window,
    _check_restriction_monotonicity,
    _check_engine_agreement,
    _check_induced_matching_slices,
    _check_pd_reg_lower_bounds,
    _check_lower_bound_certificates,
    _check_basis_sandwich,
    _check_conditional_slice_bounds,
    _check_conditional_pd_cap,
    _check_admissibility_orderings,
    _check_splitting_recursion,
    _check_matching_persistence,
    _check_split_extension,
    _check_disjointness_characterization,
)
# Names are read once, here: tests and tracers replace _CHECKS entries later.
CHECK_NAMES = tuple(check.check_name for check in _CHECKS)


def _meta(start: float, field: Field, extra: dict | None = None) -> dict:
    """The part of a report that varies between runs."""
    return {"runtime_ms": round((time.perf_counter() - start) * 1000, 3),
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "field": str(field), **(extra or {})}


def run_checks(h: Hypergraph, field: Field = QQ, seed: int = 0) -> CampaignReport:
    """Run every applicable check on one instance."""
    start = time.perf_counter()
    ctx = _Ctx(h, field, seed)
    results = [check(ctx) for check in _CHECKS]
    failures = [r.counterexample for r in results if r.counterexample is not None]
    return CampaignReport(results, seed=seed, instances=1, failures=failures,
                          meta=_meta(start, field))


def check_still_fails(h: Hypergraph, name: str, field: Field, seed: int) -> bool:
    """Whether check ``name`` still fails on ``h``.

    Runs only the entry at ``name``'s place in ``CHECK_NAMES``, on a
    fresh context, so it builds only the artifacts that check reads. The
    result's name must match too, because ``_CHECKS`` may be replaced or
    wrapped after import.
    """
    if name not in CHECK_NAMES[:len(_CHECKS)]:
        return False
    result = _CHECKS[CHECK_NAMES.index(name)](_Ctx(h, field, seed))
    return result.name == name and result.status == "fail"


def shrink_failure(h: Hypergraph, name: str, field: Field = QQ, seed: int = 0) -> Hypergraph:
    """Greedy single-deletion shrinking that preserves the failing check.

    Tries edge deletions first, then vertex deletions; stops when no
    single move still fails, so the result is minimal under one-step
    deletion.
    """
    current = h
    while True:
        candidates = [delete_edge(current, s) for s in range(current.m)] + [
            induced_subhypergraph(current, [v for v in range(current.n) if v != x])[0]
            for x in range(current.n)]
        step = next((c for c in candidates if check_still_fails(c, name, field, seed)), None)
        if step is None:
            return current
        current = step


def _merge_results(per_instance: list[CampaignReport]) -> list[CheckResult]:
    merged: dict[str, CheckResult] = {
        name: CheckResult(name, "skip", 0) for name in CHECK_NAMES
    }
    skip_reasons: dict[str, str] = {}
    for report in per_instance:
        for result in report.checks:
            agg = merged[result.name]
            agg.checked += result.checked
            if result.status == "fail":
                agg.status = "fail"
                if agg.counterexample is None:
                    agg.counterexample = result.counterexample
                    agg.detail = result.detail
            elif result.status == "pass" and agg.status != "fail":
                agg.status = "pass"
            elif result.status == "skip" and result.detail:
                skip_reasons.setdefault(result.name, result.detail)
    for name, agg in merged.items():
        if agg.status == "skip":
            agg.detail = skip_reasons.get(name, "not applicable to any instance")
    return [merged[name] for name in CHECK_NAMES]


def _fuzz_one(task: tuple[Hypergraph, Field, int]) -> CampaignReport:
    return run_checks(*task)


def run_fuzz(class_spec: str, n: int, m: int, count: int, seed: int,
             field: Field = QQ, jobs: int = 1) -> CampaignReport:
    """Generate ``count`` seeded instances and run the campaign on each.

    The first failing (instance, check) pair is shrunk and embedded in
    the report. Reports merge in instance order, so the output does not
    depend on the worker schedule. ``count`` and ``jobs`` must be at
    least 1; at most one worker per CPU and per instance is started.
    """
    if count < 1:
        raise ValidationError(f"count must be at least 1, got {count}")
    if jobs < 1:
        raise ValidationError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1, count)
    start = time.perf_counter()
    instances = make_batch(class_spec, n, m, count, seed)
    tasks = [(h, field, derive_seed(seed, k)) for k, h in enumerate(instances)]
    if jobs > 1:
        # Workers take the caller's limits, whether forked or spawned.
        with ProcessPoolExecutor(max_workers=jobs, initializer=limits.assign,
                                 initargs=(limits.current(),)) as pool:
            reports = list(pool.map(_fuzz_one, tasks))
    else:
        reports = [_fuzz_one(task) for task in tasks]
    failures = []
    for k, (h, _, child_seed) in enumerate(tasks):
        result = next((r for r in reports[k].checks if r.status == "fail"), None)
        if result is not None:
            failures.append({
                "check": result.name,
                "index": k,
                "seed": child_seed,
                "instance": instance_payload(h),
                "shrunk": instance_payload(shrink_failure(h, result.name, field, child_seed)),
                "message": result.detail,
            })
            break
    meta = _meta(start, field, {"class": class_spec, "vertices": n, "edges": m})
    return CampaignReport(_merge_results(reports), seed=seed, instances=count,
                          failures=failures, meta=meta)
