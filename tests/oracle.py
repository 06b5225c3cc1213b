"""Independent brute-force Betti oracle used only by the test suite.

Deliberately shares no code with the package engines: faces are found
by filtering the full powerset with frozensets, boundary matrices are
dense, and ranks come from sympy: ``Matrix.rank`` over the rationals,
``DomainMatrix`` over GF(p). Slow and obvious beats fast and clever
here.
"""

from __future__ import annotations

import itertools

from sympy import GF, ZZ, Matrix
from sympy.polys.matrices import DomainMatrix


def _independent_faces(vertices, edges, size):
    faces = []
    for combo in itertools.combinations(sorted(vertices), size):
        cset = set(combo)
        if not any(e <= cset for e in edges):
            faces.append(combo)
    return faces


def _boundary_rank(upper, lower, p):
    """Rank of the simplicial boundary map from ``upper`` to ``lower``
    faces, over the rationals when ``p`` is 0 and over GF(p) otherwise."""
    if not upper or not lower:
        return 0
    index = {face: i for i, face in enumerate(lower)}
    mat = [[0] * len(upper) for _ in lower]
    for col, face in enumerate(upper):
        for pos in range(len(face)):
            sub = face[:pos] + face[pos + 1 :]
            mat[index[sub]][col] = (-1) ** pos
    if p:
        return DomainMatrix.from_list(mat, ZZ).convert_to(GF(p)).rank()
    return Matrix(mat).rank()


def oracle_betti(n, edges, p=0):
    """Graded Betti numbers, as a dict (i, j) -> value, over the
    rationals (``p`` 0) or over GF(p) for a prime ``p``.

    ``edges`` is any iterable of vertex-id collections.
    """
    edges = [frozenset(e) for e in edges]
    table: dict[tuple[int, int], int] = {}
    for j in range(n + 1):
        for w in itertools.combinations(range(n), j):
            levels = [_independent_faces(w, edges, r) for r in range(j + 1)]
            # levels[0] is the empty face; the map out of it is zero.
            ranks = [0] * (j + 2)
            for r in range(1, j + 1):
                ranks[r] = _boundary_rank(levels[r], levels[r - 1], p)
            for r in range(j + 1):
                dim = len(levels[r]) - ranks[r] - ranks[r + 1]
                if dim:
                    key = (j - r, j)
                    table[key] = table.get(key, 0) + dim
    return table


def oracle_pd(table):
    return max((i for i, _ in table), default=0)


def oracle_reg(table):
    return max((j - i for i, j in table), default=0)
