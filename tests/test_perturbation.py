"""Unit tests for the matrix-family perturbation machinery."""

from fractions import Fraction

import numpy as np
import pytest

from torfan import perturbation
from torfan.errors import (
    ClusterAmbiguous,
    ContourHitsSpectrum,
    DerivativesCollide,
    DimensionMismatch,
    IdempotencyFailed,
    NotSemisimple,
)
from torfan.perturbation import (
    MatrixFamily,
    Subspace,
    _cluster_radius,
    default_ray,
    derivative_spectrum,
    eigenprojection,
    exact_jordan_blocks,
    gevec_convergence,
    semisimple_convergence_check,
    subspace_distance,
    total_projection_limit_check,
    track_eigenvalues,
)

F = Fraction

UPPER = MatrixFamily.make([[(0, 1), (1,)], [(0,), (0,)]])  # [[x, 1], [0, 0]]
THREE = MatrixFamily.make(
    [
        [(0,), (0,), (0,)],
        [(0,), (0, 1), (1,)],
        [(0,), (0,), (0,)],
    ]
)  # [[0,0,0],[0,x,1],[0,0,0]]


def test_family_evaluation():
    A = UPPER(0.25)
    assert np.allclose(A, [[0.25, 1], [0, 0]])
    A0 = UPPER.rational_coefficient(0)
    assert A0 == [[F(0), F(1)], [F(0), F(0)]]


def _horner_per_entry(fam, x):
    """Horner's rule one entry at a time: the reference for the
    whole-array evaluation, which does the same arithmetic."""
    A = np.empty((fam.size, fam.size), dtype=complex)
    for i in range(fam.size):
        for j in range(fam.size):
            acc = 0j
            for c in reversed(fam.entries[i][j]):
                acc = acc * x + c
            A[i, j] = acc
    return A


def test_family_evaluation_matches_per_entry_horner():
    rng = np.random.default_rng(20250)
    families = [UPPER, THREE]
    for n in (1, 3, 6):  # entries of degree 0 to 3, padded unevenly
        cells = [
            [
                tuple(complex(*rng.normal(size=2)) for _ in range(rng.integers(1, 5)))
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        families.append(MatrixFamily.make(cells))
    for fam in families:
        for x in (0.0, 0.25, -1.5, 1e-6):
            assert np.array_equal(fam(x), _horner_per_entry(fam, x))


def test_eigenprojection_explicit():
    for x in (0.1, 0.01, 0.001):
        P = eigenprojection(UPPER(x), x, x / 2)
        assert np.allclose(P.matrix, [[1, 1 / x], [0, 0]], atol=1e-8 / x)
        Q = eigenprojection(UPPER(x), 0, x / 2)
        assert np.allclose(P.matrix + Q.matrix, np.eye(2), atol=1e-8)


def test_contour_hits_spectrum():
    A = np.diag([0.0, 1.0])
    with pytest.raises(ContourHitsSpectrum, match="threshold 1e-12"):
        eigenprojection(A, 0.0, 1.0)


def test_contour_hits_spectrum_on_a_midpoint_level():
    # e^{i pi/16} is a node of the 32-node level, not of the first 16
    A = np.diag([0.0, np.exp(1j * np.pi / 16)])
    with pytest.raises(ContourHitsSpectrum):
        eigenprojection(A, 0.0, 1.0)


def test_eigenprojection_takes_the_spectrum():
    for A, lam, radius in _random_cases(20253):
        own = eigenprojection(A, lam, radius)
        given = eigenprojection(A, lam, radius, spectrum=np.linalg.eigvals(A))
        assert np.array_equal(own.matrix, given.matrix)
        assert (own.idempotency_defect, own.nodes, own.difference) == (
            given.idempotency_defect, given.nodes, given.difference
        )
    # the node check reads the spectrum handed in: here it claims an
    # eigenvalue on the 32-node level that A = diag(0, 2) does not have
    A = np.diag([0.0, 2.0])
    with pytest.raises(ContourHitsSpectrum, match="threshold 1e-12"):
        eigenprojection(A, 0.0, 1.0, spectrum=np.array([0.0, np.exp(1j * np.pi / 16)]))


def test_cluster_radius_rule():
    w = np.array([0.0, 0.01, 0.04, 1.0])
    # geometric mean of the cluster's reach and the gap
    assert _cluster_radius(w, 0.0, 2) == pytest.approx(np.sqrt(0.01 * 0.04), rel=1e-15)
    assert _cluster_radius(w, 0.0, 3) == pytest.approx(np.sqrt(0.04 * 1.0), rel=1e-15)
    # an exact cluster reaches 0: the floor 1e-3 * outer takes its place
    assert _cluster_radius(w, 0.0, 1) == pytest.approx(np.sqrt(1e-3) * 0.01, rel=1e-15)
    assert _cluster_radius(np.array([5.0, 5.0, 7.0]), 5.0, 2) == pytest.approx(
        np.sqrt(1e-3) * 2, rel=1e-15
    )
    # the whole spectrum: 1 beyond its farthest member
    assert _cluster_radius(w, 0.0, 4) == 2.0
    # ambiguous once outer < 2 inner + 1e-14, as before
    assert _cluster_radius(np.array([0.0, 1.0, 2.0 + 1e-14]), 0.0, 2) > 1.0
    for spectrum in ([0.0, 1.0, 2.0], [0.0, 1.0, 1.5], [1e-15, 1e-15 + 1e-15j]):
        with pytest.raises(ClusterAmbiguous):
            _cluster_radius(np.array(spectrum), 0.0, 1 if len(spectrum) == 2 else 2)
    with pytest.raises(ClusterAmbiguous):
        _cluster_radius(w, 0.0, 0)


def test_semisimple_check_runs_once(monkeypatch):
    fam = MatrixFamily.make([[(0,), (0, 1)], [(0, 1), (0,)]])
    calls = []
    check = perturbation._check_semisimple
    monkeypatch.setattr(
        perturbation, "_check_semisimple", lambda *a: calls.append(a) or check(*a)
    )
    assert semisimple_convergence_check(fam, 0).ok
    assert len(calls) == 1


def _fixed_trapezoid(A, lam, radius, nodes=256):
    """The fixed-node trapezoid sum, one resolvent at a time: the oracle
    for nested doubling."""
    n = A.shape[0]
    P = np.zeros((n, n), dtype=complex)
    for th in 2 * np.pi * np.arange(nodes) / nodes:
        w = radius * np.exp(1j * th)
        P += w * np.linalg.inv((lam + w) * np.eye(n) - A)
    return P / nodes


def _random_cases(seed):
    """Random complex matrices, n = 2..12, each with a circle about one
    eigenvalue at a random fraction of the gap to the nearest other."""
    rng = np.random.default_rng(seed)
    for n in list(range(2, 13)) * 2:
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        w = np.linalg.eigvals(A)
        i = int(rng.integers(n))
        gap = float(np.min(np.abs(np.delete(w, i) - w[i])))
        yield A, w[i], gap * rng.uniform(0.1, 0.9)


def test_eigenprojection_matches_fixed_trapezoid():
    cases = list(_random_cases(20251))
    for x in 10.0 ** -np.arange(1, 7):  # the Kato family down to x = 1e-6
        cases += [(UPPER(x), x, x / 2), (UPPER(x), 0.0, x / 2)]
    for A, lam, radius in cases:
        P = eigenprojection(A, lam, radius).matrix
        oracle = _fixed_trapezoid(A, lam, radius)
        scale = max(1.0, float(np.linalg.norm(oracle, 2)))
        assert np.linalg.norm(P - oracle, 2) <= 1e-12 * scale


def test_eigenprojection_node_counts():
    # the outer eigenvalue at twice the radius: P_N is off by 2^-N
    A = np.diag([0.0, 2.0])
    full = eigenprojection(A, 0.0, 1.0)
    assert full.nodes == 128 and full.difference <= 1e-13
    for cap in (64, 100):  # a cap between levels rounds down to 64
        capped = eigenprojection(A, 0.0, 1.0, nodes=cap)
        assert capped.nodes == 64 and capped.difference > 1e-13
        assert np.allclose(capped.matrix, np.diag([1.0, 0.0]), atol=1e-12)
    used = {eigenprojection(*case).nodes for case in _random_cases(20252)}
    assert used <= {32, 64, 128, 256} and len(used) > 1


def test_idempotency_failed_at_the_cap():
    # 0.999 lies just outside the unit circle: quadrature cannot converge
    A = np.diag([0.0, 0.999])
    with pytest.raises(IdempotencyFailed, match="after 256 nodes"):
        eigenprojection(A, 0.0, 1.0)


def test_track_eigenvalues():
    paths = track_eigenvalues(UPPER)
    limits = sorted(abs(p.samples[-1][1]) for p in paths)
    assert limits[0] == 0 and limits[1] == pytest.approx(
        default_ray()[-1], rel=1e-6
    )
    assert all(p.matched for p in paths)


def test_total_projection_limit():
    rep = total_projection_limit_check(UPPER, 0)
    assert rep.ok and np.allclose(rep.limit, np.eye(2))
    assert rep.errors[-1] <= 1e-10


def test_derivative_spectrum_semisimple_guard():
    with pytest.raises(NotSemisimple):
        derivative_spectrum(UPPER, 0)


def test_derivative_spectrum_values():
    fam = MatrixFamily.make([[(0,), (0, 1)], [(0, 1), (0,)]])  # [[0,x],[x,0]]
    assert derivative_spectrum(fam, 0) == [1, -1]
    # x [[1, 2], [1, 1]]: an irreducible reduced charpoly, X^2 - 2X - 1
    fam = MatrixFamily.make([[(0, 1), (0, 2)], [(0, 1), (0, 1)]])
    assert derivative_spectrum(fam, 0) == pytest.approx([1 - 2 ** 0.5, 1 + 2 ** 0.5])


# A(0) = 0 (real) or i I (complex), A_1 = [[1, 1], [0, 1]]: A(0) is
# semisimple, but the reduced matrix is a Jordan block with derivative 1 twice
JORDAN_A1 = [
    MatrixFamily.make([[(l, 1), (0, 1)], [(0,), (l, 1)]]) for l in (0, 1j)
]


@pytest.mark.parametrize("fam", JORDAN_A1, ids=["real", "complex"])
def test_repeated_derivative_collides(fam):
    lam = fam.entries[0][0][0]
    assert derivative_spectrum(fam, lam) == pytest.approx([1, 1])
    with pytest.raises(DerivativesCollide):
        semisimple_convergence_check(fam, lam)


def test_collision_is_exact_on_real_families():
    # derivatives 1 and 1 + 2^-40: closer than the numeric test's 1e-6,
    # but a squarefree reduced charpoly
    near = MatrixFamily.make([[(0, 1), (0,)], [(0,), (0, 1 + 2.0 ** -40)]])
    values, distinct = perturbation._reduced_derivatives(
        near, *perturbation._check_semisimple(near, 0)
    )
    assert distinct and sorted(values, key=abs) == [1, 1 + 2.0 ** -40]
    real = JORDAN_A1[0]
    assert perturbation._reduced_derivatives(
        real, *perturbation._check_semisimple(real, 0)
    ) == ([1, 1], False)


COMPLEX = MatrixFamily.make(
    [[(1j,), (0, 1), (0, 1)], [(0, 1), (1j,), (0,)], [(0,), (0, 1), (2,)]]
)  # A(0) = diag(i, i, 2) is not real, so no exact shift exists


@pytest.mark.parametrize(
    "fam, lam",
    [(MatrixFamily.make([[(0,), (0, 1)], [(0, 1), (0,)]]), 0), (COMPLEX, 1j)],
    ids=["real", "complex"],
)
def test_derivative_spectrum_reads_no_contour(monkeypatch, fam, lam):
    calls = []
    monkeypatch.setattr(perturbation, "eigenprojection", lambda *a, **k: calls.append(a))
    assert len(derivative_spectrum(fam, lam)) == 2
    assert calls == []


def test_semisimple_convergence():
    fam = MatrixFamily.make([[(0,), (0, 1)], [(0, 1), (0,)]])
    rep = semisimple_convergence_check(fam, 0)
    assert rep.ok and rep.limit_distance <= 1e-6


def test_complex_constant_term_takes_the_numeric_branches():
    fam = COMPLEX
    assert total_projection_limit_check(fam, 1j).ok
    rep = semisimple_convergence_check(fam, 1j)
    assert rep.ok
    for ders in (derivative_spectrum(fam, 1j), rep.derivatives):
        assert sorted(ders, key=lambda v: v.real) == [
            pytest.approx(-1, abs=1e-9),
            pytest.approx(1, abs=1e-9),
        ]
    jordan = MatrixFamily.make([[(1j,), (1,)], [(0,), (1j, 1)]])
    with pytest.raises(NotSemisimple):
        semisimple_convergence_check(jordan, 1j)


def test_subspace_distance_metric():
    e1 = Subspace.from_vectors(np.array([1.0, 0.0, 0.0]))
    e2 = Subspace.from_vectors(np.array([0.0, 1.0, 0.0]))
    mix = Subspace.from_vectors(np.array([1.0, 1.0, 0.0]))
    assert subspace_distance(e1, e1) == 0
    assert subspace_distance(e1, e2) == pytest.approx(1.0)
    d = subspace_distance(e1, mix)
    assert 0 < d < 1
    assert subspace_distance(e1, mix) <= (
        subspace_distance(e1, e2) + subspace_distance(e2, mix) + 1e-12
    )
    plane = Subspace.from_vectors(np.eye(3)[:, :2])
    with pytest.raises(DimensionMismatch):
        subspace_distance(e1, plane)


def test_exact_jordan_blocks():
    A0 = [[F(0), F(0), F(0)], [F(0), F(0), F(1)], [F(0), F(0), F(0)]]
    blocks = exact_jordan_blocks(A0, F(0))
    sizes = sorted(len(chain) for _, chain in blocks)
    assert sizes == [1, 2]
    big = next(chain for _, chain in blocks if len(chain) == 2)
    assert big[0] == [F(0), F(1), F(0)]  # eigenvector of the 2-block


def test_gevec_convergence_three_by_three():
    rep = gevec_convergence(THREE)
    assert rep.ok
    by_size = {c.size: c for c in rep.clusters}
    assert set(by_size) == {1, 2}
    for c in rep.clusters:
        assert c.block_size == c.size
        assert c.decreasing
        assert c.final_distance <= 1e-3
