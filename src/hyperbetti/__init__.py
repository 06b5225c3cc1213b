"""Matching-type invariants and exact graded Betti tables of edge ideals.

A hypergraph here is a finite vertex set with an antichain of edges,
each of size at least two. The package computes the graded Betti
numbers of the quotient by the edge ideal over any prime field or the
rationals, enumerates the matching-type families that bound projective
dimension and regularity from below, and cross-checks the two against
each other on demand.
"""

from .checks import CampaignReport, CheckResult, run_checks, run_fuzz, shrink_failure
from .errors import (
    CapExceeded,
    CertificateError,
    HyperbettiError,
    ParseError,
    ValidationError,
    ViolationFound,
)
from .families import (
    FamilyClassification,
    InvariantReport,
    bouquet_invariants,
    classify,
    compute_invariants,
    self_ordered_witness,
    survey,
)
from .formats import parse, serialize
from .generators import make_batch, make_instance, parse_class
from .homology import BettiTable, betti_table
from .hypergraph import (
    Hypergraph,
    build,
    from_edge_labels,
    induced_subhypergraph,
    is_triangulated,
    uniformity_profile,
)
from .linalg import GF2, QQ, Field, parse_field
from .splitting import betti_recursive, split, verify_disjointness_characterization
from .taylor import Certificate, betti_via_lyubeznik, betti_via_taylor, certify_nonvanishing

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "CampaignReport",
    "CapExceeded",
    "Certificate",
    "CertificateError",
    "CheckResult",
    "FamilyClassification",
    "Field",
    "GF2",
    "HyperbettiError",
    "Hypergraph",
    "InvariantReport",
    "ParseError",
    "QQ",
    "ValidationError",
    "ViolationFound",
    "betti_recursive",
    "betti_table",
    "betti_via_lyubeznik",
    "betti_via_taylor",
    "bouquet_invariants",
    "build",
    "certify_nonvanishing",
    "classify",
    "compute_invariants",
    "from_edge_labels",
    "induced_subhypergraph",
    "is_triangulated",
    "make_batch",
    "make_instance",
    "parse",
    "parse_class",
    "parse_field",
    "run_checks",
    "run_fuzz",
    "self_ordered_witness",
    "serialize",
    "shrink_failure",
    "split",
    "survey",
    "uniformity_profile",
    "verify_disjointness_characterization",
    "__version__",
]
