"""Small-integer bitset helpers.

Vertex sets and edge-index sets are stored as Python ints, one bit per
dense id. Python ints are arbitrary width, so the same code covers the
fast word-sized path and anything larger.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


def mask_of(ids: Iterable[int]) -> int:
    """Pack an iterable of dense ids into a bitmask."""
    m = 0
    for i in ids:
        m |= 1 << i
    return m


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def tuple_of(mask: int) -> tuple[int, ...]:
    return tuple(bits_of(mask))


def is_subset(a: int, b: int) -> bool:
    """True when bitset ``a`` is contained in bitset ``b``."""
    return a & ~b == 0

