"""sympy as an independent oracle for the exact layer: Gröbner bases,
characteristic and minimal polynomials, ranks, and the factorization of
univariate rational polynomials.  sympy is a test-only dependency, so the
module is skipped when it is not installed."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from conftest import ladder_omega_charpolys
from test_exact_algebra import _oracle_matrices, _random_rational, seeded_products
from torfan.exact_algebra import (
    Polynomial,
    Ring,
    UNIVARIATE,
    charpoly,
    factor_rational_poly,
    grevlex_key,
    groebner_basis,
    jordan_profile,
    mat_mul,
    minpoly,
    rank,
)

F = Fraction


def _to_sympy(f, syms):
    expr = 0
    for m, c in f.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, m):
            term *= s ** e
        expr += term
    return sympy.expand(expr)


@pytest.mark.parametrize(
    "gens",
    [
        ["x**2 + y**2 - 1", "x*y - 1"],
        ["x**3 - 2*x*y", "x**2*y - 2*y**2 + x"],
        ["x**2 + y + z - 1", "x + y**2 + z - 1", "x + y + z**2 - 1"],
    ],
)
def test_groebner_matches_sympy(gens):
    names = ("x", "y", "z") if any("z" in g for g in gens) else ("x", "y")
    ring = Ring(names)
    syms = sympy.symbols(names)
    mine = groebner_basis(
        [
            _from_sympy(sympy.sympify(g), ring, syms)
            for g in gens
        ]
    )
    theirs = sympy.groebner(
        [sympy.sympify(g) for g in gens], *syms, order="grevlex"
    )

    def grevlex_monic(expr):
        p = sympy.Poly(expr, *syms)
        mono, coeff = max(p.terms(), key=lambda t: grevlex_key(tuple(int(e) for e in t[0])))
        return sympy.expand(expr / coeff)

    mine_set = {grevlex_monic(_to_sympy(f, syms)) for f in mine.generators}
    theirs_set = {grevlex_monic(p) for p in theirs.exprs}
    assert mine_set == theirs_set


def _from_sympy(expr, ring, syms):
    poly = sympy.Poly(expr, *syms)
    out = ring.zero()
    for mono, coeff in poly.terms():
        c = F(coeff.p, coeff.q)
        out = out + Polynomial(ring, {tuple(int(e) for e in mono): c})
    return out


def test_charpoly_minpoly_match_sympy():
    M = [[F(0), F(1), F(0)], [F(0), F(0), F(1)], [F(6), F(-11), F(6)]]
    chi = charpoly(M)
    X = sympy.Symbol("X")
    expected = sympy.Matrix([[0, 1, 0], [0, 0, 1], [6, -11, 6]]).charpoly(X)
    mine = sum(
        sympy.Rational(c.numerator, c.denominator) * X ** m[0]
        for m, c in chi.terms.items()
    )
    assert sympy.expand(mine - expected.as_expr()) == 0
    # distinct eigenvalues 1, 2, 3: minimal polynomial equals characteristic
    assert minpoly(M).terms == chi.terms


def test_charpoly_and_rank_match_sympy_on_random_rationals():
    X = sympy.Symbol("X")
    rng = random.Random(7)
    for M in _oracle_matrices():
        S = sympy.Matrix(M)
        assert sympy.expand(_to_sympy(charpoly(M), [X]) - S.charpoly(X).as_expr()) == 0
        assert rank(M) == S.rank()
        R = _random_rational(rng, rng.randint(1, 8), rng.randint(1, 8))
        assert rank(R) == sympy.Matrix(R).rank()


def _poly_at(p, M):
    """p(M) by Horner's rule in Fraction arithmetic."""
    n = len(M)
    out = [[F(0)] * n for _ in range(n)]
    for k in range(p.degree(), -1, -1):
        out = mat_mul(out, M)
        for i in range(n):
            out[i][i] += p.coeff((k,))
    return out


def test_minpoly_annihilates_divides_and_matches_jordan_profile():
    X = sympy.Symbol("X")
    for M in _oracle_matrices():
        n = len(M)
        mu = minpoly(M)
        assert _poly_at(mu, M) == [[F(0)] * n for _ in range(n)]
        assert sympy.rem(_to_sympy(charpoly(M), [X]), _to_sympy(mu, [X]), X) == 0
        from_blocks = UNIVARIATE.one()
        for p, sizes in jordan_profile(M).entries:
            from_blocks = from_blocks * p ** sizes[0]
        assert mu == from_blocks


def _sympy_factors(p):
    """sympy's factor_list of p, made monic, in factor_rational_poly's
    output format and order."""
    X = sympy.Symbol("X")
    _, factors = sympy.Poly(_to_sympy(p, [X]), X, domain="QQ").factor_list()
    out = []
    for fac, mult in factors:
        coeffs = [F(int(c.p), int(c.q)) for c in reversed(fac.monic().all_coeffs())]
        out.append((Polynomial(UNIVARIATE, {(i,): c for i, c in enumerate(coeffs) if c}), mult))
    out.sort(key=lambda t: (t[0].degree(), sorted(t[0].terms.items())))
    return out


def _oracle_polys():
    yield from (chi for _, chi in ladder_omega_charpolys())
    yield from (charpoly(M) for M in _oracle_matrices())
    yield from (p for p, _ in seeded_products())
    # a float A(0), as a kato document gives it: 0.1 has denominator 2^55
    yield charpoly([[F(0.1), F(1)], [F(0), F(0.3)]])


def test_factorization_matches_sympy():
    polys = list(_oracle_polys())
    assert len(polys) == 25 + 23 + 200 + 1
    for p in polys:
        assert factor_rational_poly(p) == _sympy_factors(p), p.pretty()
