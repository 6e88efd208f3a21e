"""The kernel chain ker N ⊂ ker N^2 ⊂ ... against the N^n route.

The reference is the route the chain replaced: the kernels of
``mat_pow(N, k)``, and the generalized kernel and its invariant
complement read from N^n with n = len(N).  By Fitting's lemma both
routes see the same subspaces, and rref is unique, so the chain must
agree with them exactly.
"""

import json
import random
from fractions import Fraction

import pytest

from torfan.cli import main
from torfan.errors import NotSemisimple
from torfan.exact_algebra import (
    identity,
    inverse,
    mat_mul,
    mat_pow,
    nullspace,
    rref,
    transpose,
    zero_matrix,
)
from torfan.exact_algebra.linalg import _kernel, _kernel_chain
from torfan.perturbation import MatrixFamily, _check_semisimple, _spectral_basis_exact

F = Fraction


# -- reference: powers of N -------------------------------------------


def _reference_projection(N):
    n = len(N)
    Npow = mat_pow(N, n)
    E, pivots = rref(Npow)
    K = _kernel(E, pivots, n)
    R = [[Npow[i][j] for i in range(n)] for j in pivots]
    C = transpose(K + R)
    s = len(K)
    return mat_mul([row[:s] for row in C], inverse(C)[:s]), s


# -- inputs ------------------------------------------------------------


def _unimodular(rng, n):
    """An integer matrix of determinant ±1: a row permutation of a
    product of elementary row additions."""
    S = identity(n)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        S[i] = [a + c * b for a, b in zip(S[i], S[j])]
    rng.shuffle(S)
    return S


def _conjugated_jordan(rng):
    """S J S^-1 for a Jordan form J with rational eigenvalues (0 among
    them most of the time) and blocks of size at most 4."""
    eigenvalues = (F(0), F(0), F(1, 2), F(-3), F(2, 3))
    blocks = [(rng.choice(eigenvalues), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
    n = sum(size for _, size in blocks)
    J = zero_matrix(n, n)
    start = 0
    for lam, size in blocks:
        for i in range(start, start + size):
            J[i][i] = lam
            if i + 1 < start + size:
                J[i][i + 1] = F(1)
        start += size
    if n == 1:
        return J
    S = _unimodular(rng, n)
    return mat_mul(mat_mul(S, J), inverse(S))


def _inputs():
    rng = random.Random(13)
    mats = [_conjugated_jordan(rng) for _ in range(30)]
    # the zero matrix, an invertible matrix and the 0 x 0 matrix
    mats.append(zero_matrix(4, 4))
    mats.append([[F(x) for x in row] for row in _unimodular(rng, 5)])
    mats.append([])
    return mats


INPUTS = _inputs()


@pytest.mark.parametrize("N", INPUTS, ids=[f"m{i}" for i in range(len(INPUTS))])
def test_kernel_chain_matches_powers(N):
    n = len(N)
    kernels, P, pivots = _kernel_chain(N)
    p = len(kernels) - 1
    for k, basis in enumerate(kernels):
        assert basis == nullspace(mat_pow(N, k))
    # the chain grows at every level and stops at p
    assert all(len(a) < len(b) for a, b in zip(kernels, kernels[1:]))
    assert len(nullspace(mat_pow(N, p + 1))) == len(kernels[-1])
    assert P == mat_pow(N, p)
    R, reference_pivots = rref(mat_pow(N, n))
    assert kernels[-1] == _kernel(R, reference_pivots, n)
    assert pivots == reference_pivots
    K, L, depth = _spectral_basis_exact(N)
    assert (mat_mul(K, L), len(L)) == _reference_projection(N) and depth == p


def test_kernel_chain_inputs_cover_every_depth():
    depths = {len(_kernel_chain(N)[0]) - 1 for N in INPUTS}
    assert {0, 1, 2, 3, 4} <= depths


def test_exact_size_three_block_is_not_semisimple():
    # A(x) = J_3(0) + x diag(1, 2, 3): A(0) is one Jordan block of size 3
    fam = MatrixFamily.make(
        [
            [(0, 1), (1,), (0,)],
            [(0,), (0, 2), (1,)],
            [(0,), (0,), (0, 3)],
        ]
    )
    with pytest.raises(NotSemisimple):
        _check_semisimple(fam, 0)
    # at a semisimple eigenvalue K spans the exact kernel and L is dual to it
    diag = MatrixFamily.make([[(0,), (0,)], [(0,), (0, 1)]])
    K, L = _check_semisimple(diag, 0)
    assert K == transpose(nullspace(zero_matrix(2, 2)))
    assert mat_mul(L, K) == identity(2)


def test_kato_reports_irrational_eigenvalues_at_zero(capsys, tmp_path):
    """A(0) = [[0, 1], [2, 0]] has eigenvalues ±√2, so the exact Jordan
    data of A(0) is out of reach and the report says so."""
    path = tmp_path / "sqrt2.json"
    path.write_text(json.dumps({"entries": [[[0, 1], [1]], [[2], [0]]]}))
    code = main(["kato", "--input", str(path), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    results = json.loads(out)["results"]
    assert results["gevec_warning"] == (
        "ValueError: exact block data needs rational eigenvalues at 0"
    )
