"""Size limits: the exact answers here come from enumerations exponential
in the vertex count n or the edge count m, or from the splitting
recursion, so each entry point refuses inputs above one of these.

BETTI_CAP_N       vertices for Hochster homology, over all 2^n restrictions
LYUBEZNIK_BUDGET  admissible symbols of Lyubeznik's resolution, up to 2^m
FAMILY_BUDGET     edges for the walks over 2^m families and the Taylor complex,
                  and members of a family whose witnesses or orders are searched
TRIANGULATED_CAP  vertices of the splitting recursion; the triangulation
                  test it starts with counts edges in O(n^2 m) and has no cap

Each engine enforces its own limit: a vertex cap raises
``SizeCapExceeded`` and a budget ``BudgetExceeded``, both a
``CapExceeded``. The CLI exits 2 on either, and the campaign reads
either as a skip of the checks that need that engine's output. Modules
read ``limits.NAME`` when called, so assigning one here changes it for
the whole package; ``current`` and ``assign`` carry the assigned values
into another process. The only user setting is the ``BETTI_CAP_N``
environment variable, which ``vertex_cap`` puts in place of the
Hochster cap.
"""

from __future__ import annotations

import os

from .errors import ValidationError

BETTI_CAP_N = 14
# A 16-edge matching has 2^16 admissible symbols, counting the empty
# one; its table took 0.3-0.6 s on a 2-core x86-64 host (Python 3.11).
LYUBEZNIK_BUDGET = 1 << 16
# On a 16-edge matching, star and cycle the survey took 0.5-1.0 s and the
# Taylor analysis with every B_{i,j} 0.4-0.7 s, on the same host.
FAMILY_BUDGET = 16
# Only the memo bounds the recursion's node count: with no cap, chordal
# graphs of 64 vertices took up to 5.7k nodes and 3.7 s on the same host.
TRIANGULATED_CAP = 16


def vertex_cap() -> int:
    """Vertex cap for Hochster homology: ``BETTI_CAP_N`` unless env
    BETTI_CAP_N is set, which must then be a positive integer."""
    raw = os.environ.get("BETTI_CAP_N")
    if not raw:
        return BETTI_CAP_N
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValidationError(f"BETTI_CAP_N must be a positive integer, got {raw!r}")
    return int(raw)


def current() -> dict[str, int]:
    """Every limit's value now, by name."""
    return {name: value for name, value in globals().items() if name.isupper()}


def assign(values: dict[str, int]) -> None:
    """Set limits by name, as ``current`` gave them."""
    globals().update(values)
