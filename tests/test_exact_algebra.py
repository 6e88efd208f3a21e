"""Unit tests for the exact polynomial/linear-algebra layer."""

import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import ladder_omega_charpolys, ladder_omega_operators, projective_space
from torfan.cli import main
from torfan.errors import Inconsistent, InfiniteDimensional
from torfan.exact_algebra import (
    Ring,
    UNIVARIATE,
    char_min_poly,
    charpoly,
    complex_eigen,
    exact_roots,
    factor_rational_poly,
    grevlex_key,
    groebner_basis,
    identity,
    inverse,
    jordan_profile,
    localize,
    mat_mul,
    match_nearest,
    minpoly,
    normal_form,
    nullspace,
    quotient_algebra,
    rank,
    rref,
    solve,
    spectral_order,
    to_numpy,
)
from torfan.exact_algebra.linalg import ROOT_BACKWARD_ERROR, _clear, _int_poly_at, _poly_from_coeffs
from torfan.superpotential import build_superpotential, jacobian_ring

F = Fraction


def test_polynomial_arithmetic():
    ring = Ring(("x", "y"))
    x, y = ring.var(0), ring.var(1)
    p = (x + y) ** 2
    assert p.terms == {(2, 0): F(1), (1, 1): F(2), (0, 2): F(1)}
    assert (p - x * x - 2 * x * y - y * y).terms == {}


def test_cached_leading_monomial_after_arithmetic():
    ring = Ring(("x", "y", "z"))
    x, y, z = (ring.var(i) for i in range(3))
    p = 3 * x * y ** 2 - z ** 3 + F(1, 2) * x
    q = y ** 3 - 2 * x * z ** 2 + 5
    for f in (p, q):
        f.leading_monomial()
    results = [
        p + q,
        p - q,
        q - q.leading_coeff() * ring.monomial(q.leading_monomial()),
        p * q,
        p.monic(),
        q.monic(),
    ]
    for f in [p, q] + results:
        assert f.leading_monomial() == max(f.terms, key=grevlex_key)
        assert f.leading_coeff() == f.terms[max(f.terms, key=grevlex_key)]


def test_groebner_basis_independent_of_generator_order():
    ring = Ring(("x", "y", "z", "w"))
    x, y, z, w = (ring.var(i) for i in range(4))
    ideal = [
        x ** 2 + y + z - 1,
        x + y ** 2 + z - 1,
        x + y + z ** 2 - 1,
        w ** 2 - x * y,
    ]
    first = groebner_basis(ideal)
    for order in itertools.permutations(ideal):
        G = groebner_basis(list(order))
        assert G == first
        assert G.generators == first.generators


def test_projective_jacobian_rings_have_dimension_m_plus_one():
    # also a time guard: all seven rings together take well under a second
    for m in range(2, 9):
        _, P = projective_space(m)
        assert jacobian_ring(build_superpotential(P)).dimension == m + 1


def test_normal_form_is_zero_on_members():
    ring = Ring(("x", "y"))
    x, y = ring.var(0), ring.var(1)
    G = groebner_basis([x ** 2 - y, y ** 2 - 1])
    member = (x ** 2 - y) * (x + 3) + (y ** 2 - 1) * y
    assert not normal_form(member, G).terms


def test_quotient_dimension_and_commuting_matrices():
    ring = Ring(("x", "y"))
    x, y = ring.var(0), ring.var(1)
    A = quotient_algebra(groebner_basis([x ** 2 - 1, y ** 3 - 1]))
    assert A.dimension == 6
    Mx, My = A.mult_matrices["x"], A.mult_matrices["y"]
    assert mat_mul(Mx, My) == mat_mul(My, Mx)


def test_infinite_dimensional_detected():
    ring = Ring(("x", "y"))
    x, y = ring.var(0), ring.var(1)
    with pytest.raises(InfiniteDimensional):
        quotient_algebra(groebner_basis([x * y - 1]))


def test_linear_algebra_roundtrips():
    M = [[F(2), F(1)], [F(1), F(3)]]
    assert mat_mul(M, inverse(M)) == identity(2)
    assert solve(M, [F(3), F(4)]) == [F(1), F(1)]
    singular = [[F(1), F(2)], [F(2), F(4)]]
    assert rank(singular) == 1
    ns = nullspace(singular)
    assert len(ns) == 1 and ns[0][0] * 2 + ns[0][1] * 4 == 0
    with pytest.raises(Inconsistent):
        solve(singular, [F(1), F(0)])


def test_jordan_profile():
    # one 2-block and one 1-block at 3, one 1-block at 5
    M = [
        [F(3), F(1), F(0), F(0)],
        [F(0), F(3), F(0), F(0)],
        [F(0), F(0), F(3), F(0)],
        [F(0), F(0), F(0), F(5)],
    ]
    profile = jordan_profile(M)
    got = {f.pretty(): tuple(sorted(sizes)) for f, sizes in profile.entries}
    assert got == {"X - 3": (1, 2), "X - 5": (1,)}


def _random_rational(rng, rows, cols):
    return [
        [F(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() < 0.6 else F(0)
         for _ in range(cols)]
        for _ in range(rows)
    ]


def _oracle_matrices():
    """Seeded square rational matrices, n <= 10 and denominators up to
    12: full ones, rank-deficient products U·V, and block sums A ⊕ A
    whose minimal polynomial is a proper factor."""
    rng = random.Random(20140626)
    out = []
    for n in range(1, 11):
        out.append(_random_rational(rng, n, n))
        r = rng.randint(0, n - 1)
        U, V = _random_rational(rng, n, r), _random_rational(rng, r, n)
        out.append(
            [[sum((U[i][k] * V[k][j] for k in range(r)), F(0)) for j in range(n)] for i in range(n)]
        )
    for n in (2, 3, 5):
        A = _random_rational(rng, n, n)
        out.append([row + [F(0)] * n for row in A] + [[F(0)] * n + row for row in A])
    return out


_X = UNIVARIATE.var(0)

IRREDUCIBLES = (
    _X ** 4 + 1,
    _X ** 4 - 10 * _X ** 2 + 1,
    _X ** 8 + 1,
    _X ** 5 - _X - 1,
    2 * _X + 1,
    3 * _X ** 2 - 5,
)


def _factor_order(factors):
    return sorted(factors, key=lambda t: (t[0].degree(), sorted(t[0].terms.items())))


def seeded_products(count=200):
    """(p, factorization) for rational multiples p of products of
    distinct IRREDUCIBLES, each to a power up to 3."""
    rng = random.Random(1969)
    out = []
    for _ in range(count):
        p = UNIVARIATE.constant(F(rng.choice([1, -1]) * rng.randint(1, 9), rng.randint(1, 9)))
        factors = []
        for f in rng.sample(IRREDUCIBLES, rng.randint(1, 4)):
            k = rng.randint(1, 3)
            p = p * f ** k
            factors.append((f.monic(), k))
        out.append((p, _factor_order(factors)))
    return out


def test_factors_multiply_back_to_the_monic_input():
    polys = [chi for _, chi in ladder_omega_charpolys()]
    polys += [charpoly(M) for M in _oracle_matrices()]
    polys.append(charpoly([[F(0.1), F(1)], [F(0), F(0.3)]]))
    for p in polys:
        factors = factor_rational_poly(p)
        back = UNIVARIATE.one()
        for f, mult in factors:
            assert f.leading_coeff() == 1 and mult >= 1
            back = back * f ** mult
        assert back == p.monic(), p.pretty()
        assert len({f for f, _ in factors}) == len(factors)
        assert factors == _factor_order(factors)


def test_factorization_of_known_products():
    # X^4 + 1, X^4 - 10X^2 + 1 and X^8 + 1 split modulo every prime, so
    # only recombination shows them irreducible
    for f in IRREDUCIBLES:
        assert factor_rational_poly(f) == [(f.monic(), 1)]
    for p, factors in seeded_products():
        assert factor_rational_poly(p) == factors, p.pretty()


def test_factor_constant_is_empty():
    assert factor_rational_poly(UNIVARIATE.constant(F(-3, 7))) == []
    assert factor_rational_poly(UNIVARIATE.zero()) == []


def test_exact_roots_match_the_eigensolver_on_the_ladder():
    for name, M in ladder_omega_operators():
        roots, eigs = exact_roots(charpoly(M)), complex_eigen(to_numpy(M))[0]
        assert len(roots) == len(M), name
        scale = max(1.0, max(abs(z) for z in eigs))
        assert all(d <= 1e-12 * scale for _, d, _ in match_nearest(roots, eigs)), name


def test_exact_roots_repeat_each_root_by_its_multiplicity():
    roots = exact_roots(_X ** 2 * (_X ** 2 + 1) ** 3 * (_X - F(1, 3)))
    assert roots.count(0) == 2 and roots.count(F(1, 3)) == 1
    rest = [z for z in roots if z not in (0, F(1, 3))]
    assert len(rest) == 6
    assert sorted(round(z.imag) for z in rest) == [-1] * 3 + [1] * 3
    assert all(abs(z - round(z.imag) * 1j) <= 1e-15 for z in rest)


def _backward_error(coeffs, z):
    """|p(z)| / sum |c_i|·|z|^i for integer coefficients c, exactly in
    integers: z = (a + ib)/s and |z| = m/s, both sides times s^deg p."""
    (a, s1), (b, s2), (m, s3) = (x.as_integer_ratio() for x in (z.real, z.imag, abs(z)))
    s = max(s1, s2, s3)  # powers of two
    a, b, m = a * s // s1, b * s // s2, m * s // s3
    re = im = den = 0
    w = 1
    for c in reversed(coeffs):
        re, im, den = re * a - im * b + c * w, re * b + im * a, den * m + abs(c) * w
        w *= s
    return ((re * re + im * im) / den ** 2) ** 0.5


def test_exact_roots_of_seeded_integer_polynomials():
    # every third leading coefficient is 1, so that roots reach |z| ~ 1e8
    rng = random.Random(1973)
    for trial in range(60):
        d = rng.randint(2, 40)
        lead = 1 if trial % 3 == 0 else rng.choice([-1, 1]) * rng.randint(1, 10 ** 8)
        coeffs = [rng.randint(-10 ** 8, 10 ** 8) for _ in range(d)] + [lead]
        roots = exact_roots(_poly_from_coeffs(coeffs))
        assert len(roots) == d
        assert max(_backward_error(coeffs, z) for z in roots) <= ROOT_BACKWARD_ERROR, coeffs


def test_exact_roots_of_a_constant_are_empty():
    assert exact_roots(UNIVARIATE.constant(F(-3, 7))) == []
    assert exact_roots(UNIVARIATE.zero()) == []


def _approx(value):
    if isinstance(value, dict):
        return {k: _approx(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_approx(v) for v in value]
    if isinstance(value, float):
        return pytest.approx(value, rel=1e-6, abs=1e-5)
    return value


def test_kato_on_a_float_document(capsys, tmp_path):
    # A(0) = [[0.1, 1], [0, 0.3]] is exact with denominators 2^55 and 2^54;
    # the report is the one the sympy-factoring kato gave
    path = tmp_path / "float_kato.json"
    path.write_text(json.dumps({"entries": [[[0.1, 1], [1]], [[0], [0.3, 0.5]]]}))
    assert main(["kato", "--input", str(path), "--format", "json"]) == 0
    branch = {"matched": True, "pole_exponent": 3.7987663950769145e-06}
    cluster = {"block_size": 1, "decreasing": True, "size": 1}
    expected = {
        "command": "kato",
        "seed": 0,
        "results": {
            "size": 2,
            "branches": [
                dict(branch, start=[0.2, 0.0], limit=[0.10000019073486328, 0.0]),
                dict(branch, start=[0.35, 0.0], limit=[0.3000000953674316, 0.0]),
            ],
            "gevec_clusters": [
                dict(cluster, final_distance=0.0),
                dict(cluster, final_distance=9.169945534901594e-08),
            ],
            "gevec_ok": True,
        },
    }
    assert _approx(expected) == json.loads(capsys.readouterr().out)


def _conjugate(J, seed):
    """S·J·S^-1 for an invertible S = L·U with seeded unit triangular
    factors whose entries off the diagonal are p/q, |p| <= 4, q <= 5."""
    n = len(J)
    rng = random.Random(seed)

    def unit_triangular(below):
        return [
            [F(1) if i == j else F(rng.randint(-4, 4), rng.randint(1, 5)) if (j < i) == below else F(0)
             for j in range(n)]
            for i in range(n)
        ]

    S = mat_mul(unit_triangular(True), unit_triangular(False))
    return mat_mul(S, mat_mul(J, inverse(S)))


def test_jordan_profile_of_conjugated_blocks():
    # blocks (3, 1) at 1/2, a size-2 block for X^2 + 1 (companion C with
    # I above the diagonal), and a single block at -3, conjugated by an
    # invertible S = L·U
    C = [[0, -1], [1, 0]]
    J = [[F(0)] * 9 for _ in range(9)]
    for i in range(4):
        J[i][i] = F(1, 2)
    J[0][1] = J[1][2] = F(1)
    for i in range(2):
        for j in range(2):
            J[4 + i][4 + j] = J[6 + i][6 + j] = F(C[i][j])
        J[4 + i][6 + i] = F(1)
    J[8][8] = F(-3)
    M = _conjugate(J, 3)
    profile = jordan_profile(M)
    got = {p.pretty(): sizes for p, sizes in profile.entries}
    assert got == {"X - 1/2": (3, 1), "X + 3": (1,), "X^2 + 1": (2,)}
    x = UNIVARIATE.var(0)
    assert minpoly(M) == (x - F(1, 2)) ** 3 * (x + 3) * (x * x + 1) ** 2


def test_jordan_profile_of_a_quadratic_factor_squared():
    # the companion matrix of (X^2 - 2)^2 = X^4 - 4X^2 + 4: one block of
    # size 2 for X^2 - 2, whose rank chain stops at k - 1 = 1
    M = [[F(x) for x in row] for row in ([0, 0, 0, -4], [1, 0, 0, 0], [0, 1, 0, 4], [0, 0, 1, 0])]
    profile = jordan_profile(M)
    assert [(p.pretty(), sizes) for p, sizes in profile.entries] == [("X^2 - 2", (2,))]
    assert profile.dimension == 4


def test_jordan_profile_of_a_quadratic_chain_beside_thirds():
    # blocks (2, 1) for X^2 + 1 and a single block at 2/3, conjugated: the
    # rank chain of X^2 + 1 runs on a matrix cleared by a denominator d > 1
    C = [[0, -1], [1, 0]]
    J = [[F(0)] * 7 for _ in range(7)]
    for b in range(3):
        for i in range(2):
            for j in range(2):
                J[2 * b + i][2 * b + j] = F(C[i][j])
    J[0][2] = J[1][3] = F(1)
    J[6][6] = F(2, 3)
    M = _conjugate(J, 5)
    assert any(x.denominator > 1 for row in M for x in row)
    profile = jordan_profile(M)
    assert [(p.pretty(), sizes) for p, sizes in profile.entries] == [
        ("X - 2/3", (1,)),
        ("X^2 + 1", (2, 1)),
    ]


@pytest.mark.parametrize("c", [F(0), F(-7, 3)])
def test_jordan_profile_of_a_scalar_matrix(c):
    # one linear factor with k = 1 and m = n: no power and no rank
    n = 5
    M = [[c if i == j else F(0) for j in range(n)] for i in range(n)]
    x = UNIVARIATE.var(0)
    assert jordan_profile(M).entries == [(x - c, (1,) * n)]


def test_jordan_profile_multiplicities_rebuild_the_charpoly():
    # the multiplicities come from traces, not from the charpoly: each
    # factor to the sum of its block sizes multiplies back to it
    for M in _oracle_matrices() + [M for _, M in ladder_omega_operators()]:
        profile = jordan_profile(M)
        back = UNIVARIATE.one()
        for p, sizes in profile.entries:
            back = back * p ** sum(sizes)
        assert back == charpoly(M)
        assert sum(p.degree() * sum(sizes) for p, sizes in profile.entries) == len(M)


def test_int_poly_at_is_a_positive_multiple_of_p_of_m():
    """_int_poly_at on the cleared matrix against p(M) by Horner's rule in
    Fractions (mat_mul), for monic p of degree 1-3 with seeded rational
    coefficients: an integer matrix, p(M) times one positive factor."""
    rng = random.Random(32)
    for M in _oracle_matrices():
        n = len(M)
        for e in (1, 2, 3):
            coeffs = [F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(e)] + [F(1)]
            pM = [[F(0)] * n for _ in range(n)]
            for c in reversed(coeffs):
                pM = mat_mul(pM, M)
                for i in range(n):
                    pM[i][i] += c
            got = _int_poly_at(*_clear(M), _poly_from_coeffs(coeffs))
            assert all(type(g) is int for row in got for g in row)
            pairs = [(g, x) for grow, xrow in zip(got, pM) for g, x in zip(grow, xrow)]
            assert all((g == 0) == (x == 0) for g, x in pairs)
            ratios = {g / x for g, x in pairs if x}
            assert len(ratios) <= 1 and all(r > 0 for r in ratios), (M, coeffs)


@pytest.mark.parametrize("function", [charpoly, minpoly, char_min_poly, jordan_profile])
@pytest.mark.parametrize("M", [[[F(1), F(2)]], [[F(1)], [F(2)]]], ids=["1x2", "2x1"])
def test_non_square_matrix_is_rejected(function, M):
    with pytest.raises(ValueError, match="not square"):
        function(M)


def test_empty_matrix():
    assert charpoly([]).pretty() == "1"
    assert minpoly([]).pretty() == "1"
    assert jordan_profile([]).entries == [] and jordan_profile([]).dimension == 0
    assert rank([]) == 0


def test_localize_splits_nilpotent_part():
    ring = Ring(("x",))
    x = ring.var(0)
    # x^2 (x - 1): localizing at x keeps only the invertible eigenvalue 1
    A = quotient_algebra(groebner_basis([x ** 3 - x ** 2]))
    assert A.dimension == 3
    L = localize(A, x)
    assert L.dimension == 1
    chi, mu = char_min_poly(L.operator(x))
    assert chi.pretty() == "X - 1"


def test_complex_eigen_residual():
    M = [[F(0), F(-1)], [F(1), F(0)]]
    eigs, _ = complex_eigen(to_numpy(M))
    assert sorted(round(v.imag) for v in eigs) == [-1, 1]


def test_match_nearest_ties_runner_up_and_last_item():
    # 0 ties between candidates 0 and 1 and takes the lower index; 10 then
    # takes 9, with the taken candidate 1 no longer a runner-up
    assert match_nearest([0, 10], [1, -1, 9]) == [(0, 1, 1), (2, 1, 11)]
    # the last item has no candidate left beside its own
    assert match_nearest([0, 10], [9, 1]) == [(1, 1, 9), (0, 1, float("inf"))]
    # complex items, at the default distance
    assert match_nearest([-2j], [1, 2]) == [(0, abs(-2j - 1), abs(-2j - 2))]


def _ulp_neighbours(z):
    """The values one ulp away from z in its real or imaginary part."""
    out = []
    for part in ("real", "imag"):
        for to in (-np.inf, np.inf):
            re, im = z.real, z.imag
            if part == "real":
                re = np.nextafter(re, to)
            else:
                im = np.nextafter(im, to)
            out.append(complex(re, im))
    return out


def test_spectral_order_by_modulus_then_argument():
    assert spectral_order([-2 - 0j, 1j, -2 + 0j, 2, -1]) == [1j, -1, 2, -2 - 0j, -2 + 0j]
    # the order survives a change in the last bit of a modulus
    assert spectral_order([1 + 1e-15, -1, 1j]) == [1 + 1e-15, 1j, -1]
    assert spectral_order([1, -1 + 1e-15]) == [1, -1 + 1e-15]
    # an argument just below 2 pi counts as 0
    assert spectral_order([1j, 1 - 1e-300j, -1]) == [1 - 1e-300j, 1j, -1]
    assert spectral_order([3, -2, 1], key=lambda v: -v) == [1, -2, 3]
    assert spectral_order([]) == []


def test_spectral_order_survives_one_ulp():
    families = []
    for n in (2, 3, 4, 5, 6, 8, 12):  # roots of unity, scaled and rotated
        for r, phase in ((1.0, 0.0), (2.5, 0.0), (1e-3, 0.0), (3.0, np.pi / n)):
            families.append([r * np.exp(1j * (phase + 2 * np.pi * k / n)) for k in range(n)])
    for a in (1.0, 2.0, 0.75, 1e5):  # +-real pairs, with signed zero parts
        families.append([complex(a, 0.0), complex(-a, 0.0), complex(-a, -0.0)])
        families.append([complex(-a, -0.0), complex(a, -0.0), 0.5j * a, -0.5j * a])
    rng = np.random.default_rng(20260)
    for values in families:
        values = [complex(v) for v in values]
        indices = range(len(values))
        want = spectral_order(indices, key=values.__getitem__)
        for _ in range(20):
            moved = [complex(rng.choice(_ulp_neighbours(v))) for v in values]
            assert spectral_order(indices, key=moved.__getitem__) == want, values


def test_rref_idempotent():
    M = [[F(1), F(2), F(3)], [F(2), F(4), F(7)]]
    R, pivots = rref(M)
    R2, pivots2 = rref(R)
    assert R == R2 and pivots == pivots2
