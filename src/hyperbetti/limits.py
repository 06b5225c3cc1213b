"""Size limits: every exact answer here comes from an enumeration that is
exponential in the vertex count n or the edge count m, so each entry
point refuses inputs above one of these.

BETTI_CAP_N       vertices for Hochster homology, over all 2^n restrictions
EXACT_N_CAP       vertices for the campaign's exact table and Taylor analysis
EXACT_M_CAP       edges for those and for checks that classify all 2^m families
TAYLOR_BUDGET     edges for the reduced edge-subset complex of 2^m symbols
LYUBEZNIK_BUDGET  admissible symbols of Lyubeznik's resolution, up to 2^m
FAMILY_BUDGET     edges for the family survey, which sweeps all 2^m families
TRIANGULATED_CAP  vertices for triangulation tests, over neighborhood subsets

A vertex cap raises ``SizeCapExceeded`` and a budget ``BudgetExceeded``;
the CLI exits 2 on either. Modules read ``limits.NAME`` when called, so
assigning one here changes it for the whole package; ``current`` and
``assign`` carry the assigned values into another process. The only user
setting is the ``BETTI_CAP_N`` environment variable, which
``vertex_cap`` puts in place of both vertex caps of the exact tables.
"""

from __future__ import annotations

import os

from .errors import ValidationError

BETTI_CAP_N = 14
EXACT_N_CAP = 10
EXACT_M_CAP = 10
TAYLOR_BUDGET = 12
# A 16-edge matching has 2^16 admissible symbols, counting the empty
# one; its table took 0.3-0.6 s on a 2-core x86-64 host (Python 3.11).
LYUBEZNIK_BUDGET = 1 << 16
FAMILY_BUDGET = 16
TRIANGULATED_CAP = 16


def vertex_cap(default: int) -> int:
    """Vertex cap for the exact engines: ``default`` unless env BETTI_CAP_N
    is set, which must then be a positive integer."""
    raw = os.environ.get("BETTI_CAP_N")
    if not raw:
        return default
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValidationError(f"BETTI_CAP_N must be a positive integer, got {raw!r}")
    return int(raw)


def current() -> dict[str, int]:
    """Every limit's value now, by name."""
    return {name: value for name, value in globals().items() if name.isupper()}


def assign(values: dict[str, int]) -> None:
    """Set limits by name, as ``current`` gave them."""
    globals().update(values)
