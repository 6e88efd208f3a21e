"""Unit tests for quantum presentations, localization, and eigenvalue
transfer."""

from fractions import Fraction
from importlib.resources import files

import pytest

from conftest import ideal_equal
from torfan.bundle_blowup import nlb_from_k
from torfan.cli import parse_fan_document
from torfan.errors import NotMonotone, ValidationError
from torfan.exact_algebra import char_min_poly, jordan_profile
from torfan.lattice_fan import Fan
from torfan.polytope import MomentPolytope
from torfan.quantum_algebra import (
    PhiMap,
    eigen_family_check,
    eigenvalue_transfer_check,
    omega_operator,
    phi_check,
    qh_presentation,
    sh_presentation,
    symplectic_cohomology,
)

F = Fraction


def _fiber_class(ring, n_twist):
    return sum(
        (F(n) * ring.var(i) for i, n in enumerate(n_twist)), ring.zero()
    )


def test_projective_plane_presentation(p2):
    fan, P = p2
    pres, A = qh_presentation(fan, P)
    assert A.dimension == 3
    assert pres.lam_X == 3
    ring = pres.ring
    x1, x2, x3, T = (ring.var(i) for i in range(4))
    assert ideal_equal(pres.relations(), [x1 - x3, x2 - x3, x3 ** 3 - T ** 3])


def test_product_presentation(p1xp1):
    fan, P = p1xp1
    pres, A = qh_presentation(fan, P)
    assert A.dimension == 4 and pres.lam_X == 2
    chi, mu = char_min_poly(omega_operator(A, P))
    assert chi.pretty() == "X^4 - 4*X^2"
    assert mu.pretty() == "X^3 - 4*X"


def _hirzebruch(a):
    edges = [(1, 0), (0, 1), (-1, a), (0, -1)]
    fan = Fan.make(2, edges, [(0, 1), (1, 2), (2, 3), (3, 0)])
    return fan, MomentPolytope.make(2, edges, [0, 0, -1 - a, -1])


def test_presentation_needs_nonnegative_c1_on_primitive_collections():
    # on F_a the collection {1, 3} has x1 x3 = T^{2-a} x2^a
    _, A = qh_presentation(*_hirzebruch(2))
    assert A.dimension == 4
    with pytest.raises(ValidationError, match=r"^primitive collection \[1, 3\] has c1 = -1 < 0$"):
        qh_presentation(*_hirzebruch(3))


def test_classical_limit(p2):
    fan, P = p2
    pres, _ = qh_presentation(fan, P)
    classical = pres.relations_classical()
    # T -> 0 recovers the Stanley-Reisner monomial x1*x2*x3
    assert any(f.pretty() == "x1*x2*x3" for f in classical)


def test_conifold_quantum_and_symplectic_data(p1xp1):
    fan, P = p1xp1
    fan_E, P_E, spec = nlb_from_k(fan, P, 1)
    pres_E, A_E = qh_presentation(fan_E, P_E)
    assert A_E.dimension == 4
    M = omega_operator(A_E, P_E)
    chi, mu = char_min_poly(M)
    assert chi.pretty() == "X^4 + 4*X^3"
    assert mu.pretty() == "X^3 + 4*X^2"
    profile = {
        f.pretty(): tuple(sorted(s)) for f, s in jordan_profile(M).entries
    }
    assert profile == {"X": (1, 2), "X + 4": (1,)}
    SH = sh_presentation(A_E, [_fiber_class(A_E.ring, spec.n)])
    assert SH.dimension == 1
    chi_sh, _ = char_min_poly(omega_operator(SH, P_E))
    assert chi_sh.pretty() == "X + 4"


def test_eigen_family_check(p2):
    fan, P = p2
    pres, A = qh_presentation(fan, P)
    chi, _ = char_min_poly(omega_operator(A, P))
    rep = eigen_family_check(chi, pres.lam_X)
    assert rep.holds and rep.d0 == 0
    assert rep.g.pretty() == "X - 1"
    bad = eigen_family_check(chi + chi.ring.var(0), pres.lam_X)
    assert not bad.holds


def test_phi_map(p2):
    fan, P = p2
    fan_E, P_E, spec = nlb_from_k(fan, P, 1)
    pres_B, _ = qh_presentation(fan, P)
    pres_E, _ = qh_presentation(fan_E, P_E)
    phi = PhiMap(1, _fiber_class(pres_E.ring, spec.n))
    assert phi_check(pres_B, pres_E, phi)
    wrong = PhiMap(1, pres_E.ring.var(0))
    assert not phi_check(pres_B, pres_E, wrong)


def _transfer_operators(fan, P, k):
    """omega on the base's QH, on SH of O(-k), and on QH of O(-k)."""
    fan_E, P_E, spec = nlb_from_k(fan, P, k)
    _, A_B = qh_presentation(fan, P)
    _, A_E = qh_presentation(fan_E, P_E)
    SH = sh_presentation(A_E, [_fiber_class(A_E.ring, spec.n)])
    return omega_operator(A_B, P), omega_operator(SH, P_E), omega_operator(A_E, P_E)


def test_eigenvalue_transfer(p1xp1):
    fan, P = p1xp1
    omega_B, sh_omega_E, qh_omega_E = _transfer_operators(fan, P, 1)
    assert eigenvalue_transfer_check(omega_B, sh_omega_E, 1, 2, qh_omega_E=qh_omega_E)


def test_eigenvalue_transfer_is_exact(p2):
    fan, P = p2
    omega_B, sh_omega_E, qh_omega_E = _transfer_operators(fan, P, 1)
    assert eigenvalue_transfer_check(omega_B, sh_omega_E, 1, 3, qh_omega_E=qh_omega_E)
    # a float match within 1e-6 cannot see a move of 1e-12
    sh_omega_E[0][0] += F(1, 10 ** 12)
    assert not eigenvalue_transfer_check(omega_B, sh_omega_E, 1, 3)


def test_eigenvalue_transfer_sees_multiplicities_and_twist(p2):
    fan, P = p2
    omega_B, sh_omega_E, qh_omega_E = _transfer_operators(fan, P, 1)
    # the unlocalized operator keeps its zero eigenvalues
    assert not eigenvalue_transfer_check(omega_B, qh_omega_E, 1, 3)
    # the same roots with a doubled base multiplicity
    doubled = [row + [F(0)] * 3 for row in omega_B] + [
        [F(0)] * 3 + row for row in omega_B
    ]
    assert not eigenvalue_transfer_check(doubled, sh_omega_E, 1, 3)
    # the total space of O(-1) read with the twist of O(-2)
    assert not eigenvalue_transfer_check(omega_B, sh_omega_E, 2, 3)


def test_eigenvalue_transfer_rejects_bad_twist(p1xp1):
    fan, P = p1xp1
    _, A_B = qh_presentation(fan, P)
    with pytest.raises(NotMonotone):
        eigenvalue_transfer_check(
            omega_operator(A_B, P), omega_operator(A_B, P), 2, 2
        )


def test_symplectic_cohomology_matches_fiber_class_localization():
    """On every shipped bundle example, localizing at x_1⋯x_r and at the
    fiber class give the same dimension and omega charpoly."""
    bundles = 0
    examples = files("torfan") / "examples"
    for path in sorted(examples.iterdir(), key=lambda p: p.name):
        if not path.name.endswith("_nlb.json"):
            continue
        fan, P, options = parse_fan_document(path.read_text(encoding="utf-8"))
        fan_E, P_E, spec = nlb_from_k(fan, P, options["bundle"]["k"])
        _, A = qh_presentation(fan_E, P_E)
        SH = symplectic_cohomology(A)
        fiber = sh_presentation(A, [_fiber_class(A.ring, spec.n)])
        assert 0 < SH.dimension == fiber.dimension < A.dimension, path.name
        chi, _ = char_min_poly(omega_operator(SH, P_E))
        chi_fiber, _ = char_min_poly(omega_operator(fiber, P_E))
        assert chi == chi_fiber, path.name
        bundles += 1
    assert bundles == 4
