"""Multiplication matrices from the border against normal forms.

The reference ``_quotient_algebra`` below reduces x_i·s modulo G for
every standard monomial s and every variable, and ``_operator`` builds
each monomial of f by repeated multiplication from the identity.  Both
are exact, so ``quotient_algebra`` and ``QuotientAlgebra.operator`` must
agree with them entry for entry.
"""

import random
from fractions import Fraction

import pytest

from conftest import four_variable_generators, oracle_ladder, random_ideal_generators, random_poly
from torfan.exact_algebra import (
    Polynomial,
    QuotientAlgebra,
    Ring,
    groebner,
    groebner_basis,
    grevlex_key,
    identity,
    localize,
    mat_mul,
    normal_form,
    quotient_algebra,
    zero_matrix,
)
from torfan.exact_algebra.poly import mono_divides
from torfan.quantum_algebra import qh_presentation
from torfan.superpotential import _laurent_polynomial, build_superpotential, jacobian_ring

F = Fraction


# -- reference: one normal form per column -------------------------------


def _quotient_algebra(G):
    ring, lms, n = G.ring, G.leading_monomials(), G.ring.nvars
    if any(sum(m) == 0 for m in lms):
        return QuotientAlgebra(ring, [], {name: [] for name in ring.names}, G)
    std, seen, queue = [], set(), [(0,) * n]
    while queue:
        m = queue.pop()
        if m in seen:
            continue
        seen.add(m)
        if any(mono_divides(lm, m) for lm in lms):
            continue
        std.append(m)
        for i in range(n):
            queue.append(m[:i] + (m[i] + 1,) + m[i + 1 :])
    std.sort(key=grevlex_key)
    index = {m: i for i, m in enumerate(std)}
    dim = len(std)
    mult = {}
    for i, name in enumerate(ring.names):
        cols = []
        for m in std:
            nf = normal_form(Polynomial(ring, {m[:i] + (m[i] + 1,) + m[i + 1 :]: F(1)}), G)
            col = [F(0)] * dim
            for mm, c in nf.terms.items():
                col[index[mm]] = c
            cols.append(col)
        mult[name] = [[cols[j][r] for j in range(dim)] for r in range(dim)]
    return QuotientAlgebra(ring, std, mult, G)


def _operator(A, f):
    n = A.dimension
    out = zero_matrix(n, n)
    for m, c in f.terms.items():
        term = identity(n)
        for name, e in zip(A.ring.names, m):
            for _ in range(e):
                term = mat_mul(A.mult_matrices[name], term)
        out = [[o + c * t for o, t in zip(ro, rt)] for ro, rt in zip(out, term)]
    return out


# -- cases -------------------------------------------------------------------


@pytest.fixture(scope="module")
def algebras():
    """(label, quotient algebra, polynomials to multiply by)."""
    out = []
    for name, fan, P in oracle_ladder():
        _, A = qh_presentation(fan, P)
        divisors = sum((A.ring.var(i) for i in range(A.ring.nvars)), A.ring.zero())
        omega = sum((-F(l) * A.ring.var(i) for i, l in enumerate(P.lambdas)), A.ring.zero())
        out.append((f"QH {name}", A, [divisors, omega, divisors * omega + 3]))
        W = build_superpotential(P)
        J = jacobian_ring(W)
        ring = J.algebra.ring
        out.append((f"Jac {name}", J.algebra, [_laurent_polynomial(ring, W.edges(), [1] * len(P.edges))]))
    G = groebner_basis(four_variable_generators())
    x, y, z, w = (G.ring.var(i) for i in range(4))
    out.append(("four-variable", quotient_algebra(G), [x * y * z * w - 2 * x + F(1, 3), w ** 3]))
    rng = random.Random(20261018)
    for case in range(40):
        ring = Ring(("a", "b", "c")[: 2 + case % 2])
        A = quotient_algebra(groebner_basis(random_ideal_generators(rng, ring, int(case % 8 == 0))))
        out.append((f"random {case}", A, [random_poly(rng, ring, 3, 4) for _ in range(2)]))
    return out


# -- tests -------------------------------------------------------------------


def test_quotient_algebra_matches_normal_forms(algebras):
    seen_zero = 0
    for label, A, _ in algebras:
        ref = _quotient_algebra(A.groebner)
        assert A.basis == ref.basis, label
        assert A.mult_matrices == ref.mult_matrices, label
        seen_zero += A.dimension == 0
    assert seen_zero >= 1  # some random ideal is the whole ring


def test_operator_matches_monomial_products(algebras):
    for label, A, polys in algebras:
        ring = A.ring
        for f in polys + [ring.zero(), ring.constant(F(-5, 2))]:
            assert A.operator(f) == _operator(A, f), label


def test_operator_on_localized_algebras(algebras):
    proper = 0
    for label, A, polys in algebras:
        if not A.dimension or label.startswith(("Jac", "four")):
            continue  # every z_j is a unit of Jac(W); dimension 54 localizes slowly
        ring = A.ring
        for g in polys[:1] + [ring.monomial((1,) * ring.nvars)]:
            L = localize(A, g)
            proper += 0 < L.dimension < A.dimension
            for f in polys + [g, ring.zero(), ring.constant(7)]:
                assert L.operator(f) == _operator(L, f), label
    assert proper >= 10


def test_zero_algebra():
    ring = Ring(("x", "y"))
    x, y = ring.var(0), ring.var(1)
    A = quotient_algebra(groebner_basis([x * y - 1, x, y ** 2]))
    assert A.dimension == 0 and A.mult_matrices == {"x": [], "y": []}
    for f in (ring.zero(), ring.constant(3), x * y + 1):
        assert A.operator(f) == [] == _operator(A, f)


def test_quotient_algebra_reads_no_normal_form(monkeypatch):
    G = groebner_basis(four_variable_generators())
    ref = _quotient_algebra(G)

    def refuse(*args, **kwargs):
        raise AssertionError("normal_form called")

    monkeypatch.setattr(groebner, "normal_form", refuse)
    A = quotient_algebra(G)
    assert (A.basis, A.mult_matrices) == (ref.basis, ref.mult_matrices)
    assert A.dimension == 54
