"""The Bareiss elimination against a Fraction Gauss–Jordan oracle.

The reference ``_rref`` below is the plain Gauss–Jordan pivot loop over
Fractions.  RREF is unique, so ``rref``, ``solve``, ``nullspace``,
``inverse``, ``rank`` and ``localize`` must agree with the routines
built on it exactly, not just up to a change of basis.
"""

import random
from fractions import Fraction

import pytest

from test_properties import RING2, _random_poly, _random_zero_dim_algebra
from torfan.errors import Inconsistent
from torfan.exact_algebra import (
    QuotientAlgebra,
    inverse,
    localize,
    mat_mul,
    mat_pow,
    nullspace,
    rank,
    rref,
    solve,
    transpose,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


# -- reference: Gauss–Jordan over Fractions ----------------------------


def _rref(A):
    M = [row[:] for row in A]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if M[i][c]), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        inv = _ONE / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(rows):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return M, pivots


def _solve(A, b):
    cols = len(A[0]) if A else 0
    M, pivots = _rref([A[i][:] + [b[i]] for i in range(len(A))])
    if cols in pivots:
        raise Inconsistent("system has no solution")
    x = [_ZERO] * cols
    for r, c in enumerate(pivots):
        x[c] = M[r][cols]
    return x


def _nullspace(A):
    cols = len(A[0]) if A else 0
    M, pivots = _rref(A)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [_ZERO] * cols
        v[fc] = _ONE
        for r, pc in enumerate(pivots):
            v[pc] = -M[r][fc]
        basis.append(v)
    return basis


def _inverse(A):
    n = len(A)
    unit = [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]
    M, pivots = _rref([A[i][:] + unit[i] for i in range(n)])
    if pivots != list(range(n)):
        raise Inconsistent("matrix is singular")
    return [row[n:] for row in M]


def _localize(A, f):
    """Localization with the kernel completed by a probe elimination:
    the unit vectors are taken greedily, in order, when independent of
    the kernel and of the unit vectors taken before."""
    n = A.dimension
    if n == 0:
        return A
    K = _nullspace(mat_pow(A.operator(f), n))
    s = len(K)
    if s == 0:
        return A
    if s == n:
        return QuotientAlgebra(A.ring, [], {name: [] for name in A.ring.names})
    units = [[_ONE if i == j else _ZERO for i in range(n)] for j in range(n)]
    _, pivots = _rref(transpose(K + units))
    chosen = [c - s for c in pivots if c >= s]
    C = transpose(K + [units[j] for j in chosen])
    Cinv = _inverse(C)
    mult = {}
    for name, M in A.mult_matrices.items():
        Q = mat_mul(Cinv, mat_mul(M, C))
        mult[name] = [row[s:] for row in Q[s:]]
    return QuotientAlgebra(A.ring, [A.basis[j] for j in chosen], mult)


# -- random matrices -----------------------------------------------------


def _entry(rng):
    if rng.random() < 0.4:
        return _ZERO
    return Fraction(rng.randint(-6, 6), rng.randint(1, 5))


def _random_matrix(rng):
    """Dense, wide, tall or rank-deficient, with zero rows and columns
    and the empty shapes among them."""
    rows, cols = rng.randint(0, 8), rng.randint(0, 8)
    A = [[_entry(rng) for _ in range(cols)] for _ in range(rows)]
    kind = rng.randrange(4)
    if kind == 1 and rows > 1:
        # singular: each row a combination of the first two
        A = [
            [rng.randint(-2, 2) * x + Fraction(rng.randint(-2, 2), 3) * y
             for x, y in zip(A[0], A[1 % rows])]
            for _ in range(rows)
        ]
    elif kind == 2 and rows and cols:
        A[rng.randrange(rows)] = [_ZERO] * cols
        c = rng.randrange(cols)
        for row in A:
            row[c] = _ZERO
    return A


CASES = 2400


def test_elimination_matches_gauss_jordan_oracle():
    rng = random.Random(20250)
    shapes = set()
    singular = 0
    for _ in range(CASES):
        A = _random_matrix(rng)
        rows, cols = len(A), len(A[0]) if A else 0
        shapes.add((rows == 0 or cols == 0, rows > cols, rows < cols))
        M, pivots = rref(A)
        expected = _rref(A)
        assert (M, pivots) == expected
        assert all(isinstance(x, Fraction) for row in M for x in row)
        assert rank(A) == len(pivots)
        assert nullspace(A) == _nullspace(A)
        b = [_entry(rng) for _ in range(rows)]
        try:
            x = _solve(A, b)
        except Inconsistent:
            with pytest.raises(Inconsistent):
                solve(A, b)
        else:
            assert solve(A, b) == x
        if rows == cols:
            singular += len(pivots) < rows
            try:
                Ainv = _inverse(A)
            except Inconsistent:
                with pytest.raises(Inconsistent):
                    inverse(A)
            else:
                assert inverse(A) == Ainv
    # empty, square, tall and wide inputs all occurred
    assert {(True, False, False), (False, False, False)} <= shapes
    assert {(False, True, False), (False, False, True)} <= shapes
    assert singular >= 50


def test_localize_matches_probe_completion():
    rng = random.Random(20251)
    shifts = [RING2.var(i) - r for i in range(2) for r in (-1, 0, 1)]
    localized = 0
    for _ in range(200):
        A = _random_zero_dim_algebra(rng)
        # x - r and y - r are zero divisors whenever r is a coordinate
        # of a point of Spec A
        for f in [_random_poly(rng)] + shifts:
            L, ref = localize(A, f), _localize(A, f)
            assert L.basis == ref.basis
            assert L.mult_matrices == ref.mult_matrices
            localized += 0 < L.dimension < A.dimension
    # the kernel completion itself was exercised
    assert localized >= 50
