"""Acceptance gate: one test per shipped criterion, each printing a
single pass/fail line."""

import inspect
import time
from fractions import Fraction

import numpy as np

from conftest import ideal_equal, product_of_lines, projective_space
from torfan.bundle_blowup import blowup_point, nlb_from_k
from torfan.errors import HalfSpaceFan
from torfan.exact_algebra import char_min_poly, complex_eigen, to_numpy
from torfan.lattice_fan import Fan
from torfan.perturbation import MatrixFamily, eigenprojection, gevec_convergence
from torfan.polytope import MomentPolytope, barycentre, fano_index, vertices
from torfan.quantum_algebra import (
    eigen_family_check,
    eigenvalue_transfer_check,
    omega_operator,
    qh_presentation,
    sh_presentation,
)
from torfan.superpotential import (
    build_superpotential,
    critical_points,
    galkin_point,
    jacobian_ring,
    mirror_check,
    perturb_and_separate,
)

F = Fraction


def _verdict(num, name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {name}")
    assert ok, f"criterion {num} ({name}) failed"


def _fiber_class(ring, n_twist):
    return sum((F(n) * ring.var(i) for i, n in enumerate(n_twist)), ring.zero())


def _nlb_pairs():
    """All shipped base -> negative-line-bundle pairs."""
    pairs = []
    for m in range(1, 5):
        fan, P = projective_space(m)
        for k in range(1, m + 1):
            pairs.append((f"P{m} k={k}", fan, P, k, m + 1))
    fan, P = product_of_lines()
    pairs.append(("P1xP1 k=1", fan, P, 1, 2))
    return pairs


def test_criterion_01_presentations():
    ok = True
    # projective plane: one variable, relation x^3 - t
    start = time.perf_counter()
    fan, P = projective_space(2)
    pres, A = qh_presentation(fan, P)
    ring = pres.ring
    x1, x2, x3, T = (ring.var(i) for i in range(4))
    ok &= A.dimension == 3 and ideal_equal(
        pres.relations(), [x1 - x3, x2 - x3, x3 ** 3 - T ** 3]
    )
    ok &= time.perf_counter() - start < 5.0
    # product of lines: two variables, x_i^2 - t
    start = time.perf_counter()
    fan, P = product_of_lines()
    pres, A = qh_presentation(fan, P)
    ring = pres.ring
    y1, y2, y3, y4, T = (ring.var(i) for i in range(5))
    ok &= A.dimension == 4 and ideal_equal(
        pres.relations(), [y1 - y2, y3 - y4, y2 ** 2 - T ** 2, y4 ** 2 - T ** 2]
    )
    ok &= time.perf_counter() - start < 5.0
    # negative line bundles over projective spaces
    for m in range(1, 5):
        fan, P = projective_space(m)
        for k in range(1, m + 1):
            start = time.perf_counter()
            fan_E, P_E, spec = nlb_from_k(fan, P, k)
            pres_E, _ = qh_presentation(fan_E, P_E)
            ring = pres_E.ring
            x = ring.var(m)  # base divisor variable with support -1
            T = ring.var(m + 2)
            target = pres_E.linear_relations + [
                x ** (1 + m) - T ** (1 + m - k) * (F(-k) * x) ** k
            ]
            ok &= ideal_equal(pres_E.relations(), target)
            ok &= time.perf_counter() - start < 5.0
    _verdict(1, "quantum presentations (P2, P1xP1, O(-k)->Pm)", ok)


def test_criterion_02_localization():
    ok = True
    for m in range(1, 5):
        fan, P = projective_space(m)
        for k in range(1, m + 1):
            fan_E, P_E, spec = nlb_from_k(fan, P, k)
            _, A_E = qh_presentation(fan_E, P_E)
            SH = sh_presentation(A_E, [_fiber_class(A_E.ring, spec.n)])
            ok &= SH.dimension == m + 1 - k
            eigs = complex_eigen(to_numpy(omega_operator(SH, P_E)))[0]
            # each eigenvalue is an (m+1-k)-th root of (-k)^k, and the
            # eigenvalues are pairwise distinct, so all roots appear
            scale = max(1.0, float(abs(k) ** k))
            ok &= all(
                abs(v ** (m + 1 - k) - (-k) ** k) <= 1e-8 * scale for v in eigs
            )
            ok &= all(
                abs(a - b) > 1e-6
                for i, a in enumerate(eigs)
                for b in eigs[i + 1 :]
            )
    # conifold-type bundle over the product of lines: dimension 1, eigenvalue -4
    fan, P = product_of_lines()
    fan_E, P_E, spec = nlb_from_k(fan, P, 1)
    _, A_E = qh_presentation(fan_E, P_E)
    SH = sh_presentation(A_E, [_fiber_class(A_E.ring, spec.n)])
    chi, _ = char_min_poly(omega_operator(SH, P_E))
    ok &= SH.dimension == 1 and chi.pretty() == "X + 4"
    _verdict(2, "symplectic-cohomology localization", ok)


def test_criterion_03_char_min_polys():
    fan, P = product_of_lines()
    _, A = qh_presentation(fan, P)
    chi_B, mu_B = char_min_poly(omega_operator(A, P))
    fan_E, P_E, _ = nlb_from_k(fan, P, 1)
    _, A_E = qh_presentation(fan_E, P_E)
    chi_E, mu_E = char_min_poly(omega_operator(A_E, P_E))
    ok = (
        chi_B.pretty() == "X^4 - 4*X^2"
        and mu_B.pretty() == "X^3 - 4*X"
        and chi_E.pretty() == "X^4 + 4*X^3"
        and mu_E.pretty() == "X^3 + 4*X^2"
    )
    _verdict(3, "characteristic/minimal polynomials at t=1", ok)


def test_criterion_04_blowup():
    ok = True
    for n in range(1, 5):
        edges = [
            tuple(1 if j == i else 0 for j in range(n + 1)) for i in range(n + 1)
        ]
        fan = Fan.make(n + 1, edges, [tuple(range(n + 1))])
        P = MomentPolytope.make(n + 1, edges, [0] * (n + 1))
        new_fan, new_P = blowup_point(fan, P, 0, epsilon=1)
        pres, A = qh_presentation(new_fan, new_P)
        ring = pres.ring
        x0 = ring.var(n + 1)  # exceptional divisor variable
        T = ring.var(n + 2)
        target = pres.linear_relations + [
            (F(-1) * x0) ** (n + 1) + T ** n * (F(-1) * x0)
        ]
        ok &= A.dimension == n + 1
        ok &= ideal_equal(pres.relations(), target)
    # chopped projective plane gains a vertex
    fan, _ = projective_space(2)
    P_ref = MomentPolytope.make(2, fan.edges, [-1, -1, -1])
    _, chopped = blowup_point(fan, P_ref, 2)
    ok &= len(vertices(P_ref).vertices) == 3
    ok &= len(vertices(chopped).vertices) == 4
    _verdict(4, "blow-up presentations and chopped vertex count", ok)


def test_criterion_05_mirror():
    ok = True
    bases = [projective_space(m) for m in (1, 2, 3, 4)] + [product_of_lines()]
    for fan, P in bases:
        _, A = qh_presentation(fan, P)
        J = jacobian_ring(build_superpotential(P))
        ok &= J.dimension == A.dimension
        ok &= mirror_check(fan, P, A, J).ok
    for name, fan, P, k, lam_B in _nlb_pairs():
        fan_E, P_E, spec = nlb_from_k(fan, P, k)
        _, A_E = qh_presentation(fan_E, P_E)
        SH = sh_presentation(A_E, [_fiber_class(A_E.ring, spec.n)])
        J = jacobian_ring(build_superpotential(P_E))
        ok &= J.dimension == SH.dimension
        ok &= mirror_check(fan_E, P_E, A_E, J, sh_algebra=SH).ok
    _verdict(5, "mirror dimensions and eigenvalue/critical-value match", ok)


def test_criterion_06_bundle_critical_points():
    ok = True
    for m in range(1, 5):
        fan, P = projective_space(m)
        for k in range(1, m + 1):
            _, P_E, _ = nlb_from_k(fan, P, k)
            pts = critical_points(build_superpotential(P_E), seed=0)
            ok &= len(pts) == m + 1 - k
            for p in pts:
                w = p.coordinates[0]
                coords_ok = all(
                    abs(p.coordinates[i] - w) <= 1e-8 * max(1.0, abs(w))
                    for i in range(m)
                ) and abs(p.coordinates[m] + k * w) <= 1e-8 * max(1.0, abs(w))
                root_ok = abs(w ** (1 + m - k) - (-k) ** k) <= 1e-8 * (
                    1.0 + abs(w) ** (1 + m - k)
                )
                value_ok = abs(p.value - (1 + m - k) * w) <= 1e-8 * max(
                    1.0, abs(p.value)
                )
                ok &= coords_ok and root_ok and value_ok
    _verdict(6, "critical points of O(-k)->Pm", ok)


def test_criterion_07_eigenvalue_transfer():
    ok = True
    for name, fan, P, k, lam_B in _nlb_pairs():
        _, A_B = qh_presentation(fan, P)
        fan_E, P_E, spec = nlb_from_k(fan, P, k)
        _, A_E = qh_presentation(fan_E, P_E)
        SH = sh_presentation(A_E, [_fiber_class(A_E.ring, spec.n)])
        ok &= eigenvalue_transfer_check(
            omega_operator(A_B, P),
            omega_operator(SH, P_E),
            k,
            lam_B,
            qh_omega_E=omega_operator(A_E, P_E),
        )
    _verdict(7, "base-to-total eigenvalue transfer with bookkeeping", ok)


def test_criterion_08_family_pattern():
    ok = True
    spaces = []
    for m in range(1, 5):
        fan, P = projective_space(m)
        spaces.append((fan, P))
    spaces.append(product_of_lines())
    for fan, P, k, lam_B in [(f, P, k, l) for _, f, P, k, l in _nlb_pairs()]:
        fan_E, P_E, _ = nlb_from_k(fan, P, k)
        spaces.append((fan_E, P_E))
    for fan, P in spaces:
        pres, A = qh_presentation(fan, P)
        chi, _ = char_min_poly(omega_operator(A, P))
        ok &= eigen_family_check(chi, pres.lam_X).holds
    _verdict(8, "root-of-unity eigenvalue families", ok)


def test_criterion_09_galkin():
    ok = True
    for fan, _ in (projective_space(2), product_of_lines(), projective_space(3)):
        start = time.perf_counter()
        point, value = galkin_point(fan)
        elapsed = time.perf_counter() - start
        exps = [sum(u * e for u, e in zip(point, edge)) for edge in fan.edges]
        grad = [
            sum(np.exp(x) * edge[j] for x, edge in zip(exps, fan.edges))
            for j in range(fan.rank)
        ]
        hess = np.zeros((fan.rank, fan.rank))
        for x, edge in zip(exps, fan.edges):
            hess += np.exp(x) * np.outer(edge, edge)
        ok &= max(abs(g) for g in grad) <= 1e-10
        ok &= np.all(np.linalg.eigvalsh(hess) > 0)
        ok &= abs(value - sum(np.exp(x) for x in exps)) <= 1e-10 * max(1.0, value)
        ok &= elapsed < 1.0
    for fan, P in (projective_space(2), product_of_lines()):
        fan_E, _, _ = nlb_from_k(fan, P, 1)
        try:
            galkin_point(fan_E)
            ok = False
        except HalfSpaceFan:
            pass
    _verdict(9, "Galkin-style positive critical points", ok)


def test_criterion_10_barycentre():
    ok = True
    # reflexive polytopes have barycentre equation solved by 0
    simplex = MomentPolytope.make(2, [(1, 0), (0, 1), (-1, -1)], [-1, -1, -1])
    square = MomentPolytope.make(
        2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [-1, -1, -1, -1]
    )
    for P in (simplex, square):
        ok &= all(c == 0 for c in barycentre(P, 1))
    # normalized monotone projective plane
    _, P2 = projective_space(2)
    ok &= barycentre(P2, fano_index(P2)) == (F(1, 3), F(1, 3))
    # fibre coordinate of every shipped bundle is 1/lam_E
    for name, fan, P, k, lam_B in _nlb_pairs():
        _, P_E, spec = nlb_from_k(fan, P, k)
        y = barycentre(P_E, fano_index(P_E))
        ok &= y[-1] == F(1, spec.lam_E)
    _verdict(10, "barycentres (reflexive, monotone, bundle fibre)", ok)


def test_criterion_11_perturbation():
    ok = True
    upper = MatrixFamily.make([[(0, 1), (1,)], [(0,), (0,)]])
    for x in (0.1, 0.01, 0.001):
        P1 = eigenprojection(upper(x), x, x / 2).matrix
        P2 = eigenprojection(upper(x), 0, x / 2).matrix
        ok &= np.abs(P1 - np.array([[1, 1 / x], [0, 0]])).max() <= 1e-8
        ok &= np.abs(P1 + P2 - np.eye(2)).max() <= 1e-8
    # pole exponent of the diverging projection
    xs = [0.1 * 0.5 ** j for j in range(8)]
    norms = [
        np.linalg.norm(eigenprojection(upper(x), x, x / 2).matrix, 2) for x in xs
    ]
    slope = np.polyfit(np.log(xs), np.log(norms), 1)[0]
    ok &= abs(slope + 1) <= 0.05
    # generalized eigenvector spans of the 3x3 family
    three = MatrixFamily.make(
        [[(0,), (0,), (0,)], [(0,), (0, 1), (1,)], [(0,), (0,), (0,)]]
    )
    ray = [0.1 * 0.5 ** j for j in range(11)]  # ends just below 1e-4
    rep = gevec_convergence(three, ray)
    ok &= rep.ok and {c.size for c in rep.clusters} == {1, 2}
    for c in rep.clusters:
        ok &= c.decreasing and c.residuals[-1] <= 1e-3
    _verdict(11, "spectral projections and eigenvector-span limits", ok)


def test_criterion_12_separation():
    ok = True
    fan, P = product_of_lines()
    _, P_E, _ = nlb_from_k(fan, P, 1)
    for seed in range(10):
        _, rep_base = perturb_and_separate(P, seed, radius=F(1, 100))
        ok &= rep_base.ok and rep_base.morse
        ok &= rep_base.min_gap >= 1e-9 and rep_base.min_abs_value > 1e-9
        _, rep_E = perturb_and_separate(P_E, seed, radius=F(1, 100))
        ok &= rep_E.ok and rep_E.morse
        ok &= rep_E.min_gap >= 1e-9 and rep_E.min_abs_value > 1e-9
        ok &= rep_E.jac_dimension > 1  # strict rank jump past the rigid model
    _verdict(12, "support-number perturbation separates critical values", ok)


def test_criterion_13_property_suites():
    # pytest collects and runs each suite on its own; the criterion
    # checks that all five are still there, without running them twice
    import test_properties as props

    suites = (
        "test_normal_form_idempotent_and_additive",
        "test_multiplication_matrices_commute",
        "test_localization_dimension_accounting",
        "test_projectors_resolve_identity",
        "test_subspace_distance_metric_axioms",
    )
    # a test_ function with no mark (no skip, no xfail) is collected and run
    found = [getattr(props, name, None) for name in suites]
    ok = all(inspect.isfunction(f) and not hasattr(f, "pytestmark") for f in found)
    _verdict(13, "randomized property suites (collected from test_properties)", ok)
