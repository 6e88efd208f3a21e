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

from conftest import product_of_lines, projective_space
from torfan.bundle_blowup import blowup_point, nlb_from_k
from torfan.exact_algebra import (
    Polynomial,
    QuotientAlgebra,
    Ring,
    groebner,
    groebner_basis,
    grevlex_key,
    identity,
    localize,
    mat_add,
    mat_mul,
    mat_scale,
    normal_form,
    quotient_algebra,
    zero_matrix,
)
from torfan.exact_algebra.poly import mono_divides
from torfan.lattice_fan import Fan
from torfan.polytope import MomentPolytope
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
        out = mat_add(out, mat_scale(term, c))
    return out


# -- cases -------------------------------------------------------------------


def _reflexive_blowup(m, points):
    edges = [tuple(int(i == j) for j in range(m)) for i in range(m)] + [(-1,) * m]
    cones = [tuple(j for j in range(m + 1) if j != i) for i in range(m + 1)]
    fan, P = Fan.make(m, edges, cones), MomentPolytope.make(m, edges, [-1] * (m + 1))
    for _ in range(points):
        cone = next(i for i, c in enumerate(fan.max_cones) if max(c) <= m)
        fan, P = blowup_point(fan, P, cone)
    return fan, P


def _ladder():
    """(name, fan, polytope) for a subset of the benchmark ladder."""
    out = [(f"P{m}", *projective_space(m)) for m in (2, 3, 4)]
    out += [(f"P1^{k}", *product_of_lines(k)) for k in (2, 3)]
    for m, k in ((2, 1), (3, 2)):
        fan, P, _ = nlb_from_k(*projective_space(m), k)
        out.append((f"O(-{k})->P{m}", fan, P))
    out.append(("Bl2P2", *_reflexive_blowup(2, 2)))
    out.append(("Bl1P3", *_reflexive_blowup(3, 1)))
    return out


def _four_variable_ideal():
    ring = Ring(("x", "y", "z", "w"))
    x, y, z, w = (ring.var(i) for i in range(4))
    return groebner_basis(
        [x ** 3 + y ** 2 - z * w, y ** 3 - x * z + w ** 2, z ** 3 - x * y * w - 1, w ** 2 - x - y - z]
    )


def _random_poly(rng, ring, degree, terms):
    out = ring.zero()
    for _ in range(terms):
        m = [0] * ring.nvars
        for _ in range(rng.randint(0, degree)):
            m[rng.randrange(ring.nvars)] += 1
        out = out + ring.monomial(m, F(rng.randint(-4, 4), rng.randint(1, 3)))
    return out


def _random_ideal(rng, ring, extra):
    """A pure power of each variable plus lower terms, so zero-dimensional;
    half of them without constant terms, so the origin is a point of the
    variety.  ``extra`` random generators mostly make it the whole ring."""
    origin = rng.random() < 0.5
    gens = []
    for i in range(ring.nvars):
        a = rng.randint(1, 3)
        g = ring.var(i) ** a + _random_poly(rng, ring, a - 1, 3)
        gens.append(Polynomial(ring, {m: c for m, c in g.terms.items() if any(m) or not origin}))
    gens += [_random_poly(rng, ring, 2, 3) for _ in range(extra)]
    return groebner_basis(gens)


@pytest.fixture(scope="module")
def algebras():
    """(label, quotient algebra, polynomials to multiply by)."""
    out = []
    for name, fan, P in _ladder():
        _, A = qh_presentation(fan, P)
        divisors = sum((A.ring.var(i) for i in range(A.ring.nvars)), A.ring.zero())
        omega = sum((-F(l) * A.ring.var(i) for i, l in enumerate(P.lambdas)), A.ring.zero())
        out.append((f"QH {name}", A, [divisors, omega, divisors * omega + 3]))
        W = build_superpotential(P)
        J = jacobian_ring(W)
        ring = J.algebra.ring
        out.append((f"Jac {name}", J.algebra, [_laurent_polynomial(ring, W.edges(), [1] * len(P.edges))]))
    G = _four_variable_ideal()
    x, y, z, w = (G.ring.var(i) for i in range(4))
    out.append(("four-variable", quotient_algebra(G), [x * y * z * w - 2 * x + F(1, 3), w ** 3]))
    rng = random.Random(20261018)
    for case in range(40):
        ring = Ring(("a", "b", "c")[: 2 + case % 2])
        A = quotient_algebra(_random_ideal(rng, ring, int(case % 8 == 0)))
        out.append((f"random {case}", A, [_random_poly(rng, ring, 3, 4) for _ in range(2)]))
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
    G = _four_variable_ideal()
    ref = _quotient_algebra(G)

    def refuse(*args, **kwargs):
        raise AssertionError("normal_form called")

    monkeypatch.setattr(groebner, "normal_form", refuse)
    A = quotient_algebra(G)
    assert (A.basis, A.mult_matrices) == (ref.basis, ref.mult_matrices)
    assert A.dimension == 54
