"""Exact sparse linear algebra over the rationals or a prime field.

Vectors are dicts mapping column index to a nonzero coefficient. The
rational path uses Fraction; the modular path keeps ints in 0..p-1.
Matrices here come from simplicial and algebraic boundary maps, so they
are small and very sparse. Plain exact elimination with an incremental
echelon basis covers both rank and membership queries with one code
path and no rounding anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


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

    def elem(self, value: int):
        return value % self.p if self.p else Fraction(value)

    def inv(self, value):
        if self.p:
            return pow(value, self.p - 2, self.p)
        return Fraction(1) / value

    def __str__(self) -> str:
        return "QQ" if self.p == 0 else f"GF({self.p})"


QQ = Field(0)
GF2 = Field(2)


class RowSpace:
    """Incremental echelon basis of a span of sparse vectors."""

    def __init__(self, field: Field):
        self.field = field
        # pivot column -> row normalized to leading coefficient 1
        self.rows: dict[int, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: dict) -> dict:
        p = self.field.p
        v = dict(vec)
        while v:
            lead = min(v)
            row = self.rows.get(lead)
            if row is None:
                return v
            coeff = v[lead]
            for col, val in row.items():
                cur = v.get(col, 0) - coeff * val
                if p:
                    cur %= p
                if cur:
                    v[col] = cur
                else:
                    v.pop(col, None)
        return v

    def add(self, vec: dict) -> bool:
        """Insert ``vec`` into the span. Returns True when the rank grew."""
        v = self._reduce(self._clean(vec))
        if not v:
            return False
        lead = min(v)
        inv = self.field.inv(v[lead])
        p = self.field.p
        self.rows[lead] = {c: (x * inv % p if p else x * inv) for c, x in v.items()}
        return True

    def contains(self, vec: dict) -> bool:
        return not self._reduce(self._clean(vec))

    def _clean(self, vec: dict) -> dict:
        elem = self.field.elem
        out = {}
        for col, val in vec.items():
            e = elem(val) if isinstance(val, int) else val
            if e:
                out[col] = e
        return out


def rank_of(rows, field: Field) -> int:
    """Rank of the span of an iterable of sparse integer vectors."""
    space = RowSpace(field)
    for row in rows:
        space.add(row)
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
        return Field(p)
    raise ValueError(f"unrecognized field spec {spec!r}; use q, gf2, or gf:P")
