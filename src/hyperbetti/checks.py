"""Theorem-backed verification campaigns.

``run_checks`` runs every applicable check on one instance and reports
pass/fail/skip per check; nothing raises on a violated property, the
failure becomes report content with a replayable instance attached.
``run_fuzz`` drives batches of random instances through the same
campaign and shrinks the first failure.

Each check names with ``_declare`` what it needs (see ``_NEEDS``); an
unmet need makes it a ``skip`` with that need's reason, and an exception
inside a check becomes its ``fail`` result while the others still run.
A check's body only compares: it is a generator that yields None for
each comparison that holds and the detail of the first one that does
not, where the entry stops, and returns the pass result's witness. The
entry alone counts ``checked`` and builds every result; a body that
makes no comparison passes with ``checked`` 0, or skips with the reason
its declaration gives as ``empty``. The splitting checks' bodies yield
from the library's verifiers, which keep the same protocol: a violated
property is always a yielded detail, never an exception.
The per-instance artifacts (restriction map, table, survey, invariants,
Taylor analysis, triangulation test, split, recursive table) are built
on first use, inside the check that first reads them, and kept. An
artifact whose engine is over its size limit is None, and an artifact
that raises anything else is a ``fail`` of each check that reads it.
Shrinking a failure builds only what the failing check reads.

The exact table is read off one restriction map: each vertex subset W
with nonzero reduced homology of its independence complex, taken from
Lyubeznik's resolution (``taylor.lyubeznik_restrictions``), which by
Hochster's formula gives the same numbers. ``engine-agreement``
compares that table with the Taylor and recursive engines, and
``restriction-monotonicity`` compares the map itself, W by W, with the
one the Taylor complex gives (``TaylorAnalysis.restrictions``).

The campaign compares no size limit of its own: each engine enforces
its limit in ``limits``, and an artifact whose engine raises
``CapExceeded`` is None, a skip of each check that needs it. Reports
follow ``SCHEMA_VERSION`` and are deterministic for fixed inputs and
seed: everything that varies between runs lives under the ``meta`` key.
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

from . import limits
from .bitsets import mask_of
from .errors import CapExceeded, CertificateError, ValidationError
from .families import (
    FamilyClassification,
    FamilySurvey,
    InvariantReport,
    _Kernel,
    _reduced_families,
    _sweep_kernel,
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
    _disjointness_comparisons,
    betti_recursive,
    split,
    split_sum,
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

SCHEMA_VERSION = 10
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


def _fail(name: str, h: Hypergraph, message: str, checked: int = 0) -> CheckResult:
    payload = {"instance": instance_payload(h), "message": message}
    return CheckResult(name, "fail", checked, detail=message, counterexample=payload)


def _artifact(build):
    """A property of ``_Ctx`` built on first read and kept, and so is a
    raise: every later read raises the same exception again. A build
    whose engine is over its size limit (``CapExceeded``) is kept as
    None instead, which the checks that need it read as a skip."""
    name = build.__name__

    @functools.wraps(build)
    def read(ctx):
        if name not in ctx.built:
            try:
                ctx.built[name] = (build(ctx), None)
            except CapExceeded:
                ctx.built[name] = (None, None)
            except Exception as exc:
                ctx.built[name] = (None, exc)
        value, exc = ctx.built[name]
        if exc is not None:
            raise exc
        return value

    return property(read)


class _Ctx:
    """Shared per-instance artifacts, each built on first use and kept.

    Each artifact is an ``_artifact``: None where its engine is over its
    size limit, or where an artifact it reads is None or False, and None
    where it does not apply. ``special`` is a bool, never None, because
    no limit stops the triangulation test. Checks first read one inside
    their ``_declare`` entry, so an artifact that raises anything else is
    built once and is a ``fail`` of each check that reads it, and the
    other checks still run.
    """

    def __init__(self, h: Hypergraph, field: Field, seed: int):
        self.built: dict[str, tuple] = {}
        self.h = h
        self.field = field
        self.seed = seed
        self.profile = uniformity_profile(h)

    @_artifact
    def hom(self) -> dict[int, list[int]] | None:
        return lyubeznik_restrictions(self.h, self.field)

    @_artifact
    def table(self) -> BettiTable | None:
        return None if self.hom is None else table_from_homology(self.hom, self.field)

    @_artifact
    def sv(self) -> FamilySurvey | None:
        return survey(self.h)

    @_artifact
    def invariants(self) -> InvariantReport | None:
        return None if self.sv is None else compute_invariants(self.h, precomputed=self.sv)

    @_artifact
    def taylor(self) -> TaylorAnalysis | None:
        return analyze_taylor(self.h, self.field)

    @_artifact
    def special(self) -> bool:
        """Whether the instance is a triangulated one of the restricted class."""
        return (self.profile.is_special_class and self.profile.d is not None
                and is_triangulated(self.h))

    @_artifact
    def dec(self) -> SplittingDecomposition | None:
        """The split at the least simplicial vertex, on ``special`` instances."""
        return split(self.h) if self.special else None

    @_artifact
    def recursive(self) -> BettiTable | None:
        """Table by the splitting recursion, on ``special`` instances
        within its vertex cap."""
        return betti_recursive(self.h, self.field) if self.special else None


def _skip(name: str, why: str) -> CheckResult:
    return CheckResult(name, "skip", 0, detail=why)


# What a check may declare it needs: a predicate on _Ctx, and the skip
# reason reported when the predicate does not hold, formatted with
# ``limits`` when the skip happens; the survey and Taylor share a budget.
_TOO_MANY_EDGES = "more than {limits.FAMILY_BUDGET} edges"
_NEEDS = {
    "table": (lambda ctx: ctx.table is not None,
              "more than {limits.LYUBEZNIK_BUDGET} admissible symbols"),
    "survey": (lambda ctx: ctx.sv is not None, _TOO_MANY_EDGES),
    "taylor": (lambda ctx: ctx.taylor is not None, _TOO_MANY_EDGES),
    "special": (lambda ctx: ctx.special,
                "needs a triangulated instance of the restricted class"),
    "recursive": (lambda ctx: ctx.recursive is not None,
                  "more than {limits.TRIANGULATED_CAP} vertices"),
    "edges": (lambda ctx: ctx.h.m > 0, "no edges"),
    "graph": (lambda ctx: ctx.profile.d == 2 or ctx.h.m == 0, "not a graph"),
    "uniform": (lambda ctx: ctx.profile.is_uniform and ctx.profile.d is not None,
                "not uniform"),
}


def _declare(name: str, *needs: str, empty: str | None = None):
    """Declare the campaign check ``name``, run only when all ``needs`` hold.

    The body is a generator on ``ctx`` that yields once per comparison,
    None if it holds and the failure detail if not, and returns the pass
    result's witness. The entry it becomes takes ``ctx`` and returns a
    skip with the first unmet need's reason; a ``fail`` at the first
    detail, counting as ``checked`` the comparisons that held before it;
    a skip with reason ``empty``, if given, when no comparison was made;
    else a pass counting them. Any exception from the gates or the body,
    such as an artifact that fails to build, is a ``fail`` with
    ``checked`` 0. Both stay inside the entry: wrappers around
    ``_CHECKS`` entries, such as a tracer's, keep no function attributes.
    """
    gates = [_NEEDS[need] for need in needs]

    def wrap(body):
        @functools.wraps(body)
        def entry(ctx: _Ctx) -> CheckResult:
            checked = 0
            try:
                for holds, why in gates:
                    if not holds(ctx):
                        return _skip(name, why.format(limits=limits))
                comparisons = body(ctx)
                try:
                    while (detail := next(comparisons)) is None:
                        checked += 1
                except StopIteration as done:
                    if empty is not None and checked == 0:
                        return _skip(name, empty)
                    return CheckResult(name, "pass", checked, witness=done.value)
            except Exception as exc:
                return _fail(name, ctx.h, f"{type(exc).__name__}: {exc}")
            return _fail(name, ctx.h, detail, checked)

        entry.check_name = name
        return entry

    return wrap


# Class implications, grouped by premise: (premise, [(rule, conclusion)]),
# each a FamilyClassification attribute.
_IMPLICATIONS = (
    ("induced", (("induced->matching", "matching"),
                 ("induced->self_semi_induced", "self_semi_induced"),
                 ("induced->self_disjoint", "self_disjoint"))),
    ("self_semi_induced", (("ssi->semi_induced", "semi_induced"),
                           ("ssi->self_contained", "self_contained"),
                           ("ssi->ssd", "self_semi_disjoint"))),
    ("self_disjoint", (("sd->ssd", "self_semi_disjoint"),)),
    ("self_ordered", (("ordered->self_contained", "self_contained"),)),
)


@_declare("implication-chain", "survey")
def _check_implication_chain(ctx: _Ctx):
    """Each nonempty reduced family's classes satisfy ``_IMPLICATIONS``,
    a conclusion read only where its premise holds. No rule fires on an
    absorbed family: every premise implies reduced on a nonempty family,
    as a matching is reduced and each self class asks for it (a singleton
    is reduced)."""
    kernel = _sweep_kernel(ctx.h)
    for bits, fam, _, _, _ in _reduced_families(kernel):
        if not bits:
            continue
        cls = FamilyClassification(kernel, fam)
        for premise, rules in _IMPLICATIONS:
            if getattr(cls, premise):
                for rule, conclusion in rules:
                    if not getattr(cls, conclusion):
                        yield f"family {fam} violates {rule}"
        yield None


@_declare("invariant-inequalities", "survey")
def _check_invariant_inequalities(ctx: _Ctx):
    """The invariants' order relations, and b' = d2', an identity (see README).

    Each order relation is a class inclusion of ``_IMPLICATIONS`` read
    on the maximizing family: ``induced->matching`` gives a <= m,
    ``induced->self_semi_induced`` a <= b, ``induced->self_disjoint``
    a <= d1, ``ssi->ssd`` b <= d2, ``ssi->self_contained`` b <= e,
    ``sd->ssd`` d1 <= d2 and d1' <= d2', and ``ordered->self_contained``
    c <= e. Where ``implication-chain`` passes, this check can therefore
    fail only through the survey's pruning and bookkeeping of maxima.
    """
    v = ctx.invariants.values
    relations = (
        ("a<=m", v["a"] <= v["m"]),
        ("a<=b", v["a"] <= v["b"]),
        ("b<=d2", v["b"] <= v["d2"]),
        ("b<=e", v["b"] <= v["e"]),
        ("a<=d1", v["a"] <= v["d1"]),
        ("d1<=d2", v["d1"] <= v["d2"]),
        ("c<=e", v["c"] <= v["e"]),
        ("b_prime==d2_prime", v["b_prime"] == v["d2_prime"]),
        ("d1_prime<=d2_prime", v["d1_prime"] <= v["d2_prime"]),
    )
    for rel, holds in relations:
        yield None if holds else f"relation {rel} fails: {v}"


@_declare("graph-identities", "survey", "graph")
def _check_graph_identities(ctx: _Ctx):
    v = ctx.invariants.values
    yield (None if v["d_g"] == v["d1"] == v["d2"]
           else f"d_G {v['d_g']} vs d1 {v['d1']}, d2 {v['d2']}")
    yield (None if v["d_g_prime"] == v["d1_prime"] == v["d2_prime"]
           else f"d_G' {v['d_g_prime']} vs d1' {v['d1_prime']}, d2' {v['d2_prime']}")
    yield (None if ctx.sv.types["self_disjoint"] == ctx.sv.types["self_semi_disjoint"]
           else "graph has a self semi-disjoint type with no self disjoint set")


@_declare("uniform-spread-identity", "survey", "uniform")
def _check_uniform_spread_identity(ctx: _Ctx):
    v = ctx.invariants.values
    d = ctx.profile.d
    yield (None if v["d1_prime"] == (d - 1) * v["a"]
           else f"d1' {v['d1_prime']} != (d-1)*a = {(d - 1) * v['a']}")


@_declare("degree-window", "table", "edges")
def _check_degree_window(ctx: _Ctx):
    sizes = [mask.bit_count() for mask in ctx.h.edges]
    t, tp = max(sizes), min(sizes)
    for (i, j), value in ctx.table.entries.items():
        if i and value:
            yield (None if i + tp - 1 <= j <= min(ctx.h.n, t * i)
                   else f"entry ({i},{j}) outside degree window")
    pd, reg = ctx.table.projective_dimension(), ctx.table.regularity()
    yield None if tp - 1 <= reg <= (t - 1) * pd else f"reg {reg} outside [{tp - 1}, {(t - 1) * pd}]"


@_declare("restriction-monotonicity", "table", "taylor")
def _check_restriction_monotonicity(ctx: _Ctx):
    """beta(H|W) <= beta(H) holds for any nonnegative map summed over
    subsets of W; what can be wrong is the map. So hold it, W by W, to
    the Taylor complex's block of union W, which is beta_{i,W}(H|W)."""
    taylor = ctx.taylor.restrictions()
    for w in sorted(ctx.hom.keys() | taylor.keys()):
        yield (None if ctx.hom.get(w) == taylor.get(w)
               else f"restriction {w:b}: map has {ctx.hom.get(w)}, Taylor block {taylor.get(w)}")


@_declare("engine-agreement", "table", empty="no second engine applicable")
def _check_engine_agreement(ctx: _Ctx):
    if ctx.taylor is not None:
        yield (None if ctx.taylor.table().entries == ctx.table.entries
               else "Taylor table differs from restriction-homology table")
    if ctx.recursive is not None:
        yield (None if ctx.recursive.entries == ctx.table.entries
               else "recursive table differs from restriction-homology table")


@_declare("induced-matching-slices", "table", "survey", "edges")
def _check_induced_matching_slices(ctx: _Ctx):
    t = max(mask.bit_count() for mask in ctx.h.edges)
    for i in range(1, ctx.h.m + 1):
        expected = ctx.sv.counts_induced_uniform.get((t, i), 0)
        actual = ctx.table.get(i, t * i)
        yield (None if expected == actual
               else f"beta({i},{t * i})={actual} but {expected} induced matchings of {t}-sets")


@_declare("pd-reg-lower-bounds", "table", "survey")
def _check_pd_reg_lower_bounds(ctx: _Ctx):
    v = ctx.invariants.values
    pd, reg = ctx.table.projective_dimension(), ctx.table.regularity()
    # pd >= b and reg >= d2' follow from these and invariant-inequalities
    bounds = [
        ("pd>=c", pd >= v["c"]),
        ("pd>=d2", pd >= v["d2"]),
        ("reg>=b_prime", reg >= v["b_prime"]),
        ("reg>=c_prime", reg >= v["c_prime"]),
    ]
    for t, a_t in v["a_t"].items():
        bounds.append((f"reg>=({t}-1)*a_{t}", reg >= (t - 1) * a_t))
    for rel, holds in bounds:
        yield None if holds else f"bound {rel} fails: pd={pd} reg={reg} {v}"


@_declare("lower-bound-certificates", "table", "survey", empty="no nonempty witness families")
def _check_lower_bound_certificates(ctx: _Ctx):
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
            beta = certify_nonvanishing(ctx.h, cert, ctx.field, table=ctx.table).beta
        except CertificateError as exc:
            yield f"{kind} certificate for {tuple(fam)} failed: {exc}"
        issued.append({"kind": kind, "family": list(fam), "i": cert.i, "j": cert.j, "beta": beta})
        yield None
    return {"certificates": issued}


@_declare("basis-sandwich", "taylor", "survey")
def _check_basis_sandwich(ctx: _Ctx):
    for (i, j) in ctx.taylor.types():
        if i:
            b = len(ctx.taylor.b_set(i, j))
            ssi = ctx.sv.counts_ssi.get((i, j), 0)
            scsi = ctx.sv.counts_scsi.get((i, j), 0)
            yield (None if ssi <= b <= scsi
                   else f"slice ({i},{j}): ssi {ssi} <= |B| {b} <= scsi {scsi} fails")


@_declare("conditional-slice-bounds", "table", "taylor",
          empty="no slice satisfies either hypothesis")
def _check_conditional_slice_bounds(ctx: _Ctx):
    """beta <= |B| under the all-reduced hypothesis and beta >= |B| under
    the no-double-absorption one, one comparison per slice where either
    holds. The paper's bounds by scsi and ssi follow from these and
    ``basis-sandwich``'s ssi <= |B| <= scsi on the same slice, so they
    are not compared again here."""
    for (i, j) in ctx.taylor.types():
        if i == 0:
            continue
        hyp1 = ctx.taylor.families_all_reduced(i, j)
        hyp2 = ctx.taylor.absorbing_families_stay_reduced(i, j)
        if not hyp1 and not hyp2:
            continue
        beta = ctx.table.get(i, j)
        b = len(ctx.taylor.b_set(i, j))
        if hyp1 and not beta <= b:
            yield f"slice ({i},{j}) under all-reduced hypothesis: beta {beta} > |B| {b}"
        yield (None if not hyp2 or beta >= b else
               f"slice ({i},{j}) under no-double-absorption hypothesis: beta {beta} < |B| {b}")


@_declare("conditional-pd-cap", "table", "survey",
          empty="all-reduced hypothesis fails at or above e")
def _check_conditional_pd_cap(ctx: _Ctx):
    e = ctx.invariants.values["e"]
    # the all-reduced hypothesis fails at some size i >= e exactly when the
    # whole edge set is absorbed: a member absorbed in any family is absorbed
    # in it too, and it has m >= e members. Otherwise e = m, no Taylor symbol
    # has an absorbed member, and the Taylor resolution is minimal: pd = m
    if all(_Kernel(ctx.h.edges).private_parts((1 << ctx.h.m) - 1)):
        pd = ctx.table.projective_dimension()
        yield None if pd == e else f"pd {pd} differs from e {e} despite hypothesis"
        return {"pd": pd, "e": e}


@_declare("admissibility-orderings", "survey", "edges")
def _check_admissibility_orderings(ctx: _Ctx):
    h = ctx.h
    rng = random.Random(ctx.seed)
    orderings = [tuple(range(h.m))]
    for _ in range(SAMPLED_ORDERINGS):
        perm = list(range(h.m))
        rng.shuffle(perm)
        orderings.append(tuple(perm))
    witnesses = (tuple(sorted(ctx.invariants.witnesses[key])) for key in ("a", "b", "c", "d2", "e"))
    for fam in filter(None, dict.fromkeys(witnesses)):
        cls = classify(h, fam)
        for order in orderings:
            positions = tuple(sorted(order.index(s) for s in fam))
            yield (None if not cls.self_semi_induced or is_l_admissible(h, order, positions)
                   else f"self semi-induced family {fam} not admissible under {order}")
        fam_first = tuple(fam) + tuple(s for s in range(h.m) if s not in fam)
        front = tuple(range(len(fam)))
        front_ok = is_l_admissible(h, fam_first, front)
        yield (None if cls.reduced == front_ok else
               f"family {fam}: reduced={cls.reduced} but family-first admissibility={front_ok}")
    ordered = ctx.invariants.witnesses.get("c", ())
    # Maximality under the family-first ordering needs a prefix member to
    # absorb, so it starts at two edges; a lone edge can sit inside an
    # admissible pair with any disjoint edge.
    if len(ordered) >= 2:
        rest = tuple(s for s in range(h.m) if s not in ordered)
        order = tuple(ordered) + rest
        front = tuple(range(len(ordered)))
        yield (None if is_maximal_l_admissible(h, order, front) else
               f"self ordered family {ordered} not maximal admissible when listed first")


def _split_tables(ctx: _Ctx, dec: SplittingDecomposition) -> tuple[BettiTable, BettiTable]:
    """Tables of the split's H1 and H2.

    H1, H minus the edge S, gets a table of its own. H2 is H induced on
    the vertices outside S and its neighbours, so its restrictions are
    those of H to subsets of that set, read from the restriction map.
    """
    keep = ((1 << ctx.h.n) - 1) & ~mask_of(dec.removed_vertices)
    return (betti_via_lyubeznik(dec.h1, ctx.field),
            table_from_homology(ctx.hom, ctx.field, within=keep))


@_declare("splitting-recursion", "special", "table")
def _check_splitting_recursion(ctx: _Ctx):
    dec = ctx.dec
    tab1, tab2 = _split_tables(ctx, dec)
    rhs_entries = split_sum(dec.t, dec.d, tab1.entries, tab2.entries)
    for i in range(ctx.h.m + 2):
        for j in range(ctx.h.n + 1):
            lhs = ctx.table.get(i, j)
            rhs = rhs_entries.get((i, j), 0)
            yield (None if lhs == rhs
                   else f"recursion mismatch at ({i},{j}): table {lhs}, split sum {rhs}")


@_declare("matching-persistence", "special", "survey")
def _check_matching_persistence(ctx: _Ctx):
    yield from verify_matching_persistence(ctx.h, ctx.dec)
    return {"x": ctx.dec.x, "s": ctx.dec.s}


@_declare("split-extension", "special", "survey")
def _check_split_extension(ctx: _Ctx):
    yield from verify_split_extension(ctx.h, ctx.dec)
    return {"x": ctx.dec.x, "s": ctx.dec.s}


@_declare("disjointness-characterization", "special", "survey", "recursive")
def _check_disjointness_characterization(ctx: _Ctx):
    """Nonzero positions, pd = d1 = d2 and reg = d1' = d2'. On a chordal
    graph ``graph-identities`` and ``uniform-spread-identity`` run too,
    and with them these give pd = d_G, reg = d_G' and d_G' = a."""
    return (yield from _disjointness_comparisons(ctx.recursive, ctx.sv))


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
