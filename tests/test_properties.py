"""Randomized property suites, 1000 cases each, deterministic seeds."""

import random
from fractions import Fraction

import numpy as np
import pytest

from torfan.exact_algebra import (
    Polynomial,
    Ring,
    groebner_basis,
    localize,
    mat_mul,
    mat_pow,
    normal_form,
    nullspace,
    quotient_algebra,
    rank,
)
from torfan.perturbation import (
    Subspace,
    _cluster_radius,
    eigenprojection,
    subspace_distance,
)

CASES = 1000

RING2 = Ring(("x", "y"))


def _random_poly(rng, max_degree=2, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        m = (rng.randint(0, max_degree), rng.randint(0, max_degree))
        terms[m] = terms.get(m, Fraction(0)) + Fraction(rng.randint(-3, 3))
    return Polynomial(RING2, {m: c for m, c in terms.items() if c})


def _random_zero_dim_algebra(rng):
    """Quotient by an ideal containing pure powers of both variables."""
    x, y = RING2.var(0), RING2.var(1)
    a, b = rng.randint(1, 3), rng.randint(1, 3)
    f = x ** a + Fraction(rng.randint(-2, 2)) * y + Fraction(rng.randint(-2, 2))
    g = y ** b + Fraction(rng.randint(-2, 2))
    return quotient_algebra(groebner_basis([f, g]))


def test_normal_form_idempotent_and_additive():
    rng = random.Random(20240)
    G = None
    for case in range(CASES):
        if case % 10 == 0:
            gens = [_random_poly(rng), _random_poly(rng)]
            gens = [g for g in gens if g.terms] or [RING2.var(0)]
            G = groebner_basis(gens)
        f, g = _random_poly(rng), _random_poly(rng)
        nf = normal_form(f, G)
        assert normal_form(nf, G).terms == nf.terms
        lhs = normal_form(f + g, G)
        rhs = normal_form(normal_form(f, G) + normal_form(g, G), G)
        assert lhs.terms == rhs.terms
        prod_lhs = normal_form(f * g, G)
        prod_rhs = normal_form(normal_form(f, G) * normal_form(g, G), G)
        assert prod_lhs.terms == prod_rhs.terms


def test_multiplication_matrices_commute():
    rng = random.Random(20241)
    for _ in range(CASES):
        A = _random_zero_dim_algebra(rng)
        Mx, My = A.mult_matrices["x"], A.mult_matrices["y"]
        assert mat_mul(Mx, My) == mat_mul(My, Mx)


def test_localization_dimension_accounting():
    rng = random.Random(20242)
    for _ in range(CASES):
        A = _random_zero_dim_algebra(rng)
        f = _random_poly(rng)
        L = localize(A, f)
        if A.dimension:
            F = A.operator(f)
            kernel = len(nullspace(mat_pow(F, A.dimension)))
            assert L.dimension + kernel == A.dimension
        if L.dimension:
            # multiplication by f is invertible after localization
            assert rank(L.operator(f)) == L.dimension


def test_projectors_resolve_identity():
    rng = np.random.default_rng(20243)
    done = 0
    while done < CASES:
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        w = np.linalg.eigvals(A)
        gaps = [
            min(abs(w[i] - w[j]) for j in range(4) if j != i) for i in range(4)
        ]
        if min(gaps) < 1e-2:
            continue  # resample near-degenerate spectra
        total = np.zeros((4, 4), dtype=complex)
        for lam in w:
            total += eigenprojection(A, lam, _cluster_radius(w, lam, 1)).matrix
        assert np.linalg.norm(total - np.eye(4), 2) < 1e-6
        done += 1


def _projector(S):
    return S.orthonormal_basis @ S.orthonormal_basis.conj().T


def test_subspace_distance_metric_axioms():
    """Metric axioms, and the oracle ||P_U - P_V||_2 from the n x n
    projectors, at n = 5 and n = 24."""
    rng = np.random.default_rng(20244)
    for n in (5, 24):
        for _ in range(CASES):
            k = int(rng.integers(1, 4))
            U, V, W = (
                Subspace.from_vectors(
                    rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
                )
                for _ in range(3)
            )
            duv = subspace_distance(U, V)
            assert 0 <= duv <= 1 + 1e-12
            assert duv == pytest.approx(
                np.linalg.norm(_projector(U) - _projector(V), 2), abs=1e-12
            )
            assert subspace_distance(U, U) < 1e-12
            assert duv == pytest.approx(subspace_distance(V, U), abs=1e-12)
            assert duv <= (
                subspace_distance(U, W) + subspace_distance(W, V) + 1e-9
            )
