"""Exception hierarchy shared across the package.

Every error raised on purpose by this package derives from
:class:`HyperbettiError`, so callers can catch one type at the boundary.
Validation errors carry enough context (labels, indices) to reconstruct
the offending input.
"""

from __future__ import annotations


class HyperbettiError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(HyperbettiError, ValueError):
    """A hypergraph, family, or argument failed a structural precondition."""


class EdgeTooSmall(ValidationError):
    """An edge with fewer than two vertices was supplied."""


class ComparableEdges(ValidationError):
    """Two supplied edges are comparable under inclusion."""


class UnknownVertex(ValidationError):
    """An edge refers to a vertex not in the vertex table."""


class DuplicateEdge(ValidationError):
    """The same edge was supplied twice."""


class IndexOutOfRange(ValidationError, IndexError):
    """A vertex or edge index is outside the valid range."""


class NotUniform(ValidationError):
    """The operation requires all edges to have one common size."""


class NotAGraph(ValidationError):
    """The operation is defined for 2-uniform hypergraphs only."""


class NotSpecialClass(ValidationError):
    """The operation requires uniform edges whose pairwise intersections,
    when nonempty, have exactly one vertex fewer than the edges."""


class NotSimplicial(ValidationError):
    """The designated vertex is not simplicial."""


class NotTriangulated(ValidationError):
    """Some induced subhypergraph has no simplicial vertex."""


class CapExceeded(HyperbettiError):
    """An input is larger than the configured size cap."""


class SizeCapExceeded(CapExceeded):
    """Too many vertices for the requested computation."""


class BudgetExceeded(CapExceeded):
    """Too many edges for the requested enumeration."""


class ParseError(HyperbettiError, ValueError):
    """An input file could not be parsed.

    Attributes
    ----------
    line : int or None
        1-based line number of the offending input, when known.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class CertificateError(HyperbettiError):
    """A nonvanishing certificate failed to verify.

    Either outcome signals a bug or a counterexample in the instance
    that was certified.
    """


class PremiseFails(CertificateError):
    """The combinatorial premise of a certificate does not hold."""


class BettiVanishes(CertificateError):
    """The certified Betti entry is zero in the exact table."""


class ViolationFound(HyperbettiError):
    """A library verifier found a violated property; the campaign reports
    its violations as results instead.

    ``check`` names the property that failed.
    """

    def __init__(self, check: str, message: str):
        super().__init__(f"{check}: {message}")
        self.check = check
