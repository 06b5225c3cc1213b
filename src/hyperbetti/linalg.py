"""Exact sparse linear algebra over the rationals or a prime field.

Vectors are dicts mapping column index to a nonzero integer
coefficient. The modular path keeps ints in 0..p-1. The rational path
never leaves the integers: a rational row spans the same line as its
primitive integer multiple (entries with gcd 1, lead entry positive),
so that is the row it stores, and elimination scales by integers and
divides out gcds instead of forming fractions (compare Bareiss, Math.
Comp. 1968, on fraction-free elimination). Matrices here come from
simplicial and algebraic boundary maps, so they are small and very
sparse. Plain exact elimination with an incremental echelon basis
covers both rank and membership queries with one code path and no
rounding anywhere, whatever the size of the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


# Miller-Rabin with the first 13 primes as bases is exact below
# PRIME_LIMIT (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic primality for ``p < PRIME_LIMIT``."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """Coefficient field tag: characteristic 0 (``p == 0``) or prime ``p``."""

    p: int = 0

    def __post_init__(self):
        if self.p < 0:
            raise ValueError("characteristic must be 0 or a prime")
        if self.p >= PRIME_LIMIT:
            raise ValueError(f"characteristic {self.p} is not below {PRIME_LIMIT}")
        if self.p and not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def __str__(self) -> str:
        return "QQ" if self.p == 0 else f"GF({self.p})"


QQ = Field(0)
GF2 = Field(2)


class RowSpace:
    """Incremental echelon basis of a span of sparse integer vectors.

    Over GF(p) each stored row has lead coefficient 1. Over QQ each
    stored row is a primitive integer row: its entries have gcd 1 and
    its lead entry is positive.
    """

    def __init__(self, field: Field):
        self.field = field
        # pivot column -> row; see the class docstring for its scaling
        self.rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: dict) -> dict:
        """Reduce ``vec`` against the stored rows.

        Returns a nonzero multiple of the residual, which is empty
        exactly when ``vec`` lies in the span.
        """
        p = self.field.p
        v = dict(vec)
        while v:
            lead = min(v)
            row = self.rows.get(lead)
            if row is None:
                return v
            a, b = row[lead], v[lead]
            if a != 1:
                v = {col: a * val for col, val in v.items()}
            for col, val in row.items():
                cur = v.get(col, 0) - b * val
                if p:
                    cur %= p
                if cur:
                    v[col] = cur
                else:
                    v.pop(col, None)
            if not p and v:
                g = gcd(*v.values())
                if g != 1:
                    v = {col: val // g for col, val in v.items()}
        return v

    def add(self, vec: dict) -> bool:
        """Insert ``vec`` into the span. Returns True when the rank grew."""
        v = self._reduce(self._clean(vec))
        if not v:
            return False
        lead = min(v)
        p = self.field.p
        if p:
            inv = pow(v[lead], p - 2, p)
            self.rows[lead] = {c: x * inv % p for c, x in v.items()}
        else:
            g = gcd(*v.values())
            if v[lead] < 0:
                g = -g
            self.rows[lead] = {c: x // g for c, x in v.items()}
        return True

    def contains(self, vec: dict) -> bool:
        return not self._reduce(self._clean(vec))

    def _clean(self, vec: dict) -> dict:
        p = self.field.p
        out = {}
        for col, val in vec.items():
            if p:
                val %= p
            if val:
                out[col] = val
        return out


def rank_of(rows, field: Field, limit: int | None = None) -> int:
    """Rank of the span of an iterable of sparse integer vectors.

    With ``limit`` set, reading stops at the row that brings the rank
    to ``limit``, so the result is ``min(rank, limit)`` and no later row
    is drawn from ``rows``. A caller that knows the rank cannot exceed
    some bound passes it to skip rows that could only reduce to zero.
    """
    if limit is not None and limit <= 0:
        return 0
    space = RowSpace(field)
    for row in rows:
        if space.add(row) and space.rank == limit:
            break
    return space.rank


def parse_field(spec: str) -> Field:
    """Parse a field spec: ``q`` for rationals, ``gf2``, or ``gf:P``."""
    s = spec.strip().lower()
    if s in ("q", "qq", "0"):
        return QQ
    if s == "gf2":
        return GF2
    if s.startswith("gf:"):
        try:
            p = int(s[3:])
        except ValueError:
            raise ValueError(f"gf:P needs an integer prime, got {spec!r}") from None
        if p < 2:
            raise ValueError(f"gf:P needs a prime P, got {spec!r}")
        return Field(p)
    raise ValueError(f"unrecognized field spec {spec!r}; use q, gf2, or gf:P")
