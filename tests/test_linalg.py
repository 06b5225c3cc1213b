"""Exact sparse elimination checked against sympy's ranks.

Entries run over [-4, 4], so pivots other than +-1 are common and the
integer scaling and gcd steps of the rational path are exercised.
"""

from __future__ import annotations

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, ZZ, Matrix
from sympy.polys.matrices import DomainMatrix

from hyperbetti.linalg import GF2, QQ, Field, RowSpace, rank_of

FIELDS = [QQ, GF2, Field(3), Field(7)]
COLS = 6


def _sympy_rank(rows, p):
    if not rows:
        return 0
    if p == 0:
        return Matrix(rows).rank()
    return DomainMatrix.from_list(rows, ZZ).convert_to(GF(p)).rank()


def _sparse(row):
    return {col: x for col, x in enumerate(row) if x}


# About half the entries are zero, so rows stay sparse like boundary rows.
entries = st.one_of(st.just(0), st.integers(-4, 4))
matrices = st.lists(st.lists(entries, min_size=COLS, max_size=COLS), max_size=8)


def _assert_rows_normalized(space):
    p = space.field.p
    for pivot, row in space.rows.items():
        assert row and min(row) == pivot
        if p:
            assert row[pivot] == 1
            assert all(0 < x < p for x in row.values())
        else:
            assert row[pivot] > 0
            assert gcd(*row.values()) == 1


@settings(max_examples=80, deadline=None)
@given(matrices)
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_rank_growth_and_normalized_rows_match_sympy(field, rows):
    space = RowSpace(field)
    for k, row in enumerate(rows):
        before = _sympy_rank(rows[:k], field.p)
        after = _sympy_rank(rows[: k + 1], field.p)
        assert space.add(_sparse(row)) == (after > before)
        assert space.rank == after
        _assert_rows_normalized(space)
    assert rank_of([_sparse(r) for r in rows], field) == space.rank


@settings(max_examples=80, deadline=None)
@given(matrices, st.lists(entries, min_size=COLS, max_size=COLS))
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_contains_matches_rank(field, rows, vec):
    space = RowSpace(field)
    for row in rows:
        space.add(_sparse(row))
    expected = _sympy_rank(rows + [vec], field.p) == _sympy_rank(rows, field.p)
    assert space.contains(_sparse(vec)) == expected


BIG = 1 << 70


def test_huge_coefficients_stay_exact():
    # Both rows round to the same pair of doubles, yet their determinant
    # is (2^70 + 1)(2^70 - 1) - 2^140 = -1.
    rows = [[BIG + 1, BIG, 0], [BIG, BIG - 1, 0]]
    assert float(BIG + 1) == float(BIG) == float(BIG - 1)
    space = RowSpace(QQ)
    assert space.add(_sparse(rows[0]))
    # (2^70 + 3) times the first row lies on its line; moving one entry
    # of that 2^140-sized multiple by one takes it off the line
    multiple = {col: (BIG + 3) * x for col, x in _sparse(rows[0]).items()}
    assert space.contains(multiple)
    multiple[1] += 1
    assert not space.contains(multiple)
    assert space.add(_sparse(rows[1]))
    assert space.rank == 2 == _sympy_rank(rows, 0)
    assert not space.contains({2: 1})
    _assert_rows_normalized(space)
    # after one elimination step the residual is 2 (0, 2^70 + 1, 2^70 + 3),
    # whose gcd divides out to entries no double holds
    space = RowSpace(QQ)
    space.add({0: 1})
    assert space.add({0: 1, 1: 2 * (BIG + 1), 2: 2 * (BIG + 3)})
    assert space.rows[1] == {1: BIG + 1, 2: BIG + 3}
    assert space.contains({1: BIG + 1, 2: BIG + 3})


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4), max_size=5))
def test_rank_matches_sympy_near_two_to_the_seventy(offsets):
    rows = [[BIG + x for x in row] for row in offsets]
    space = RowSpace(QQ)
    for k, row in enumerate(rows):
        grew = _sympy_rank(rows[: k + 1], 0) > _sympy_rank(rows[:k], 0)
        assert space.add(_sparse(row)) == grew
        _assert_rows_normalized(space)
    assert space.rank == _sympy_rank(rows, 0)


@settings(max_examples=80, deadline=None)
@given(matrices)
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_rank_limit_stops_at_the_row_that_reaches_it(field, rows):
    r = _sympy_rank(rows, field.p)
    sparse = [_sparse(row) for row in rows]
    assert rank_of(sparse, field, limit=r) == r
    assert rank_of(sparse, field, limit=None) == r
    # the first prefix of full rank ends at the row that reaches the limit
    needed = next(k for k in range(len(rows) + 1) if _sympy_rank(rows[:k], field.p) == r)
    drawn = []

    def rows_read():
        for row in sparse:
            drawn.append(row)
            yield row

    assert rank_of(rows_read(), field, limit=r) == r
    assert len(drawn) == needed
    if r:
        assert rank_of(iter(sparse), field, limit=r - 1) == r - 1
