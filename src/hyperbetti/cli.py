"""Command line surface.

Subcommands: ``invariants``, ``betti``, ``classify``, ``check``,
``fuzz``. Exit codes: 0 all checks passed, 1 a verified property was
violated, 2 usage or parse errors. Instance files are json
(``{"vertices": [...], "edges": [[...]]}``) or whitespace edge lists;
the format is sniffed from the content.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .checks import run_checks, run_fuzz
from .errors import HyperbettiError, ParseError, ViolationFound
from .families import classify, compute_invariants, self_ordered_witness
from .formats import parse
from .homology import betti_table
from .hypergraph import Hypergraph
from .linalg import parse_field
from .splitting import betti_recursive
from .taylor import betti_via_lyubeznik, betti_via_taylor

ENGINES = {"hochster": betti_table, "taylor": betti_via_taylor,
           "lyubeznik": betti_via_lyubeznik, "recursive": betti_recursive}


def _load(path: str) -> Hypergraph:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return parse(text)


def _family(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split())
    except ValueError:
        raise ParseError(f"family must be whitespace-separated edge indices, got {text!r}") from None


def cmd_invariants(args) -> int:
    h = _load(args.file)
    rep = compute_invariants(h)
    witnesses = {k: list(v) for k, v in rep.witnesses.items()}
    for key, value in rep.values.items():
        if key == "a_t":
            for t, count in sorted(value.items()):
                print(f"a_{t:<8} = {count}")
            continue
        wit = witnesses.get(key)
        suffix = f"   (witness edges: {' '.join(map(str, wit))})" if wit else ""
        print(f"{key:<10} = {value}{suffix}")
    payload = {"invariants": rep.values, "witnesses": witnesses}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_betti(args) -> int:
    h = _load(args.file)
    field = parse_field(args.field)
    print(ENGINES[args.method](h, field))
    return 0


def cmd_classify(args) -> int:
    h = _load(args.file)
    fam = _family(args.family)
    cls = classify(h, fam)
    out = {
        "family": list(fam),
        "type": [cls.i, cls.j],
        "matching": cls.matching,
        "induced_matching": cls.induced,
        "semi_induced_matching": cls.semi_induced,
        "reduced": cls.reduced,
        "self_semi_induced_matching": cls.self_semi_induced,
        "self_contained_semi_induced_matching": cls.self_contained,
        "self_disjoint": cls.self_disjoint,
        "self_semi_disjoint": cls.self_semi_disjoint,
    }
    if cls.self_disjoint:
        out["self_disjoint_witness"] = list(cls.self_disjoint_witness)
    if cls.self_semi_disjoint:
        out["self_semi_disjoint_witness"] = list(cls.self_semi_disjoint_witness)
    if args.ordered:
        out["self_ordered_in_given_order"] = cls.self_ordered
    else:
        witness = self_ordered_witness(h, fam)
        out["self_ordered_some_order"] = witness is not None
        if witness is not None:
            out["self_ordered_witness"] = list(witness)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_check(args) -> int:
    h = _load(args.file)
    field = parse_field(args.field)
    report = run_checks(h, field, seed=args.seed)
    print(report.to_json(), end="")
    return 0 if report.ok else 1


def cmd_fuzz(args) -> int:
    field = parse_field(args.field)
    if args.out:  # refused before the campaign runs, without opening the file
        out = Path(args.out)
        target = out if out.exists() else out.parent
        if out.is_dir() or not out.parent.is_dir() or not os.access(target, os.W_OK):
            raise HyperbettiError(f"cannot write {args.out}")
    report = run_fuzz(args.klass, args.vertices, args.edges, args.count,
                      args.seed, field, jobs=args.jobs)
    text = report.to_json()
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise HyperbettiError(f"cannot write {args.out}: {exc}") from None
    else:
        print(text, end="")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperbetti",
        description="Matching-type invariants and exact Betti tables of hypergraph edge ideals.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="matching-type invariants with witnesses")
    p.add_argument("file")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("betti", help="exact graded Betti table")
    p.add_argument("file")
    p.add_argument("--method", choices=ENGINES, default="hochster")
    p.add_argument("--field", default="q", help="q, gf2, or gf:P")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("classify", help="classify one family of edge indices")
    p.add_argument("file")
    p.add_argument("--family", required=True, help='edge indices, e.g. "0 2 3"')
    p.add_argument("--ordered", action="store_true",
                   help="treat the family as ordered and test that order only")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("check", help="run every applicable theorem check")
    p.add_argument("file")
    p.add_argument("--field", default="q")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("fuzz", help="seeded random campaign")
    p.add_argument("--class", dest="klass", required=True,
                   help="general, uniform:D, special:D, or chordal")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--edges", type=int, required=True,
                   help="most edges per instance; special:D instances seldom reach "
                        "it, since the vertex count usually decides their size")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", default="q")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_fuzz)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ViolationFound as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return 1
    except (HyperbettiError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
