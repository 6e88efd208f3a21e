"""Unit tests for superpotentials, Jacobian rings, critical points,
mirror comparisons, and support-number perturbation."""

import cmath
import random
from fractions import Fraction
from math import exp, gcd

import numpy as np
import pytest

from conftest import product_of_lines, projective_space
from torfan.bundle_blowup import blowup_point, nlb_from_k
from torfan.errors import HalfSpaceFan, MirrorMismatch
from torfan.exact_algebra import (
    Polynomial,
    QuotientAlgebra,
    charpoly,
    groebner_basis,
    identity,
    inverse,
    mat_mul,
    quotient_algebra,
    zero_matrix,
)
from torfan.lattice_fan import Fan
from torfan.polytope import MomentPolytope
from torfan.quantum_algebra import (
    eigen_family_check,
    qh_presentation,
    sh_presentation,
    symplectic_cohomology,
)
from torfan.superpotential import (
    JacAlgebra,
    _hessian,
    _laurent_polynomial,
    _laurent_ring,
    _log_gradient,
    barycentre_landing_check,
    build_superpotential,
    critical_points,
    galkin_point,
    jacobian_ring,
    mirror_check,
    perturb_and_separate,
)

F = Fraction


def test_superpotential_terms(p2):
    _, P = p2
    W = build_superpotential(P)
    assert sorted(W.edges()) == sorted(P.edges)
    # t-exponents are the negated support numbers
    assert sorted(t_exp for _, t_exp in W.terms) == [0, 0, 1]


def test_jacobian_dimension_matches_quantum(p2):
    fan, P = p2
    _, A = qh_presentation(fan, P)
    J = jacobian_ring(build_superpotential(P))
    assert J.dimension == A.dimension == 3


def test_critical_points_projective_plane(p2):
    _, P = p2
    pts = critical_points(build_superpotential(P), seed=0)
    assert len(pts) == 3 and all(p.nondegenerate for p in pts)
    # critical values are 3 times the cube roots of unity
    values = sorted((round(p.value.real, 6), round(p.value.imag, 6)) for p in pts)
    zeta = cmath.exp(2j * cmath.pi / 3)
    expected = sorted(
        (round((3 * zeta ** j).real, 6), round((3 * zeta ** j).imag, 6))
        for j in range(3)
    )
    assert values == expected


def test_projective_plane_gradient_and_hessian_at_one(p2):
    # W = z1 + z2 + 1/(z1 z2) is critical at (1, 1) with Hessian [[2, 1], [1, 2]]
    _, P = p2
    E = np.array(build_superpotential(P).edges())
    c = np.ones(len(E))
    assert _log_gradient(E, c, (1, 1)).tolist() == [0, 0]
    assert _hessian(E, c, (1, 1)).tolist() == [[2, 1], [1, 2]]


def _reference_derivatives(edges, coeffs, z):
    """Term-by-term loops for z_j dW/dz_j and d2W/dz_j dz_k."""
    n = len(z)
    g = np.zeros(n, dtype=complex)
    H = np.zeros((n, n), dtype=complex)
    for e, c in zip(edges, coeffs):
        t = c * np.prod([zj ** ej for zj, ej in zip(z, e)])
        for j in range(n):
            g[j] += e[j] * t
            for k in range(n):
                H[j, k] += e[j] * (e[k] - (j == k)) * t / (z[j] * z[k])
    return g, H


def test_laurent_derivatives_match_term_loops():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        edges = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n + 2)]
        coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in edges]
        z = [complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)) for _ in range(n)]
        g, H = _reference_derivatives(edges, coeffs, z)
        E, c = np.array(edges), np.array(coeffs)
        assert np.allclose(_log_gradient(E, c, z), g, rtol=1e-12, atol=1e-12)
        assert np.allclose(_hessian(E, c, z), H, rtol=1e-12, atol=1e-12)


def _shifted_generators(ring, edges, coeffs):
    """Reference: z_j dW/dz_j cleared by one monomial shift per variable,
    plus the saturation relation."""
    n = len(edges[0])
    gens = []
    for j in range(n):
        terms = {}
        for e, c in zip(edges, coeffs):
            if e[j]:
                terms[tuple(e)] = terms.get(tuple(e), F(0)) + c * e[j]
        terms = {m: c for m, c in terms.items() if c}
        if not terms:
            continue
        shift = [max(0, -min(m[v] for m in terms)) for v in range(n)]
        cleared = {
            tuple(m[v] + shift[v] for v in range(n)) + (0,): c
            for m, c in terms.items()
        }
        gens.append(Polynomial(ring, cleared))
    gens.append(Polynomial(ring, {(1,) * (n + 1): F(1), (0,) * (n + 1): F(-1)}))
    return gens


def _inverse_operator(A, edges, coeffs):
    """Reference: the matrix of W from exact inverses of the variable
    matrices."""
    n = A.dimension
    mats = [A.mult_matrices[name] for name in A.ring.names[:-1]]
    inv_mats = {}
    out = zero_matrix(n, n)
    for e, c in zip(edges, coeffs):
        term = identity(n)
        for j, ej in enumerate(e):
            if ej < 0 and j not in inv_mats:
                inv_mats[j] = inverse(mats[j])
            for _ in range(abs(ej)):
                term = mat_mul(mats[j] if ej > 0 else inv_mats[j], term)
        out = [[o + c * t for o, t in zip(ro, rt)] for ro, rt in zip(out, term)]
    return out


def _oracle_cases():
    cases = [projective_space(m)[1] for m in range(2, 6)]
    cases += [product_of_lines(k)[1] for k in range(2, 5)]
    for m in range(1, 4):
        for k in range(1, m + 1):
            cases.append(nlb_from_k(*projective_space(m), k)[1])
    fan, P = projective_space(2)
    P = MomentPolytope.make(2, P.edges, [-1, -1, -1])  # reflexive P^2
    for _ in range(3):
        cone = next(i for i, c in enumerate(fan.max_cones) if max(c) <= 2)
        fan, P = blowup_point(fan, P, cone)
        cases.append(P)
    return cases


def test_jacobian_ring_matches_shifted_generators_and_inverse_operator():
    # u z_1...z_n = 1 makes u^s z^(e+s) the class of z^e, so the ideal,
    # its reduced basis and the matrix of W equal the old construction
    cases = _oracle_cases()
    assert len(cases) == 16
    perturbed = []
    for seed, P in enumerate((cases[0], cases[4], cases[-3])):  # P^2, (P^1)^2, Bl1P2
        lam_pert, _ = perturb_and_separate(P, seed)
        coeffs = [F(exp(-lp)).limit_denominator(10 ** 8) for lp in lam_pert]
        perturbed.append((P, coeffs))
    for P, coeffs in [(P, None) for P in cases] + perturbed:
        W = build_superpotential(P)
        J = jacobian_ring(W, coefficients=coeffs)
        coeffs = coeffs or [F(1)] * len(P.edges)
        G = groebner_basis(_shifted_generators(_laurent_ring(P.rank), P.edges, coeffs))
        assert J.algebra.groebner == G
        W_matrix = J.algebra.operator(_laurent_polynomial(J.algebra.ring, P.edges, coeffs))
        assert W_matrix == _inverse_operator(quotient_algebra(G), P.edges, coeffs)


def test_critical_points_deterministic(p1xp1):
    _, P = p1xp1
    W = build_superpotential(P)
    a = critical_points(W, seed=7)
    b = critical_points(W, seed=7)
    assert [p.coordinates for p in a] == [p.coordinates for p in b]


def test_mirror_check_base_and_bundle(p1xp1):
    fan, P = p1xp1
    _, A = qh_presentation(fan, P)
    J = jacobian_ring(build_superpotential(P))
    assert mirror_check(fan, P, A, J).ok

    fan_E, P_E, spec = nlb_from_k(fan, P, 1)
    _, A_E = qh_presentation(fan_E, P_E)
    fiber = sum(
        (F(n) * A_E.ring.var(i) for i, n in enumerate(spec.n)),
        A_E.ring.zero(),
    )
    SH = sh_presentation(A_E, [fiber])
    J_E = jacobian_ring(build_superpotential(P_E))
    assert J_E.dimension == SH.dimension == 1
    assert mirror_check(fan_E, P_E, A_E, J_E, sh_algebra=SH).ok


def test_mirror_mismatch_raises(p2):
    fan, P = p2
    _, A = qh_presentation(fan, P)
    # Jacobian ring of the wrong space cannot match
    _, Q = product_of_lines()
    J_wrong = jacobian_ring(build_superpotential(Q))
    with pytest.raises(MirrorMismatch):
        mirror_check(fan, P, A, J_wrong)
    # nor can the Jacobian ring of a space of another dimension
    _, L = projective_space(1)
    with pytest.raises(MirrorMismatch, match="derivative match"):
        mirror_check(fan, P, A, jacobian_ring(build_superpotential(L)))


def test_mirror_derivative_match_sees_coefficients(p2):
    fan, P = p2
    _, A = qh_presentation(fan, P)
    # the linear relations map to z_j dW/dz_j only for unit coefficients
    J = jacobian_ring(build_superpotential(P), coefficients=[1, 2, 1])
    with pytest.raises(MirrorMismatch, match="derivative match"):
        mirror_check(fan, P, A, J)


def test_mirror_isomorphism_sees_one_entry_of_z1(p2):
    # psi intertwines every x_i with z^{e_i}, so one entry of z1's matrix
    # moved by 10^-12 breaks clause (b), on a closed space and on SH of a
    # bundle alike
    fan, P = p2
    fan_E, P_E, _ = nlb_from_k(fan, P, 1)
    for fan, P, localized in ((fan, P, False), (fan_E, P_E, True)):
        _, A = qh_presentation(fan, P)
        SH = symplectic_cohomology(A) if localized else None
        J = jacobian_ring(build_superpotential(P))
        assert mirror_check(fan, P, A, J, sh_algebra=SH).ok
        J.algebra.mult_matrices["z1"][0][0] += F(1, 10 ** 12)
        with pytest.raises(MirrorMismatch, match="derivative match"):
            mirror_check(fan, P, A, J, sh_algebra=SH)


def test_mirror_eigenvalue_match_is_the_rank_of_psi():
    # z1 and u both act as the identity on a 2-dimensional J: every
    # x^b goes to 1_J, so psi intertwines but has rank 1
    fan, P = projective_space(1)
    _, A = qh_presentation(fan, P)
    ring = _laurent_ring(1)
    J = JacAlgebra(
        QuotientAlgebra(ring, [(0, 0), (1, 0)], {"z1": identity(2), "u": identity(2)})
    )
    with pytest.raises(MirrorMismatch, match="^eigenvalue match$"):
        mirror_check(fan, P, A, J)


def test_family_closure(p2, p1xp1):
    _, P = p2
    assert eigen_family_check(charpoly(_W_matrix(P)), 3).holds
    # critical values of (P^1)^2 are 0, 0, 4, -4: no 3-fold families
    _, Q = p1xp1
    assert not eigen_family_check(charpoly(_W_matrix(Q)), 3).holds


def _W_matrix(P):
    """Matrix of the unit-coefficient superpotential on its Jacobian ring."""
    A = jacobian_ring(build_superpotential(P)).algebra
    return A.operator(_laurent_polynomial(A.ring, P.edges, [1] * len(P.edges)))


def test_barycentre_landing(p2):
    _, P = p2
    assert barycentre_landing_check(P, 3)


def test_galkin_point(p2, p1xp1):
    for fan, _ in (p2, p1xp1):
        point, value = galkin_point(fan)
        assert all(abs(c) < 1e-9 for c in point)
    fan, P = p1xp1
    fan_E, _, _ = nlb_from_k(fan, P, 1)
    with pytest.raises(HalfSpaceFan) as exc:
        galkin_point(fan_E)
    # a primitive integer direction u with <e, u> <= 0 for every edge e
    u = exc.value.certificate
    assert all(type(x) is int for x in u) and gcd(*u) == 1
    assert all(sum(a * b for a, b in zip(e, u)) <= 0 for e in fan_E.edges)
    assert str(u) in str(exc.value)


def test_galkin_point_damped_newton_on_blown_up_plane():
    """Bl_pt P^2 has edge sum (1, 1), so Newton leaves u = 0: exp(u) is
    the positive real critical point of W, with the same value."""
    edges = [(1, 0), (0, 1), (-1, -1), (1, 1)]
    fan = Fan.make(2, edges, [(0, 3), (1, 3), (1, 2), (0, 2)])
    P = MomentPolytope.make(2, edges, [0, 0, -1, F(1, 3)])
    u, value = galkin_point(fan)
    z = np.exp(u)
    positive = [
        p for p in critical_points(build_superpotential(P))
        if all(abs(c.imag) < 1e-9 and c.real > 0 for c in p.coordinates)
    ]
    assert len(positive) == 1
    assert np.allclose(positive[0].coordinates, z, rtol=0, atol=1e-9)
    assert abs(positive[0].value - value) < 1e-9
    assert value == pytest.approx(3.7996, abs=1e-4)


def test_perturb_and_separate(p1xp1):
    _, P = p1xp1
    lam, report = perturb_and_separate(P, seed=0)
    assert report.ok and report.morse
    assert report.min_gap >= 1e-9 and report.min_abs_value > 1e-9
    assert len(lam) == len(P.lambdas)
    # zero radius keeps the data and reports the non-Morse situation
    _, frozen = perturb_and_separate(P, seed=0, radius=0)
    assert frozen.jac_dimension == 4
