"""Unit tests for the matrix-family perturbation machinery."""

import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import projective_space, reflexive_blowup
from test_contour_radius import SIZES, semisimple_family

from torfan import perturbation
from torfan.bundle_blowup import nlb_from_k
from torfan.errors import (
    ClusterAmbiguous,
    ContourHitsSpectrum,
    DerivativesCollide,
    DimensionMismatch,
    IdempotencyFailed,
    Inconsistent,
    NotSemisimple,
)
from torfan.exact_algebra import charpoly, factor_rational_poly, inverse, mat_mul
from torfan.perturbation import (
    MatrixFamily,
    Subspace,
    _canonical_eigenbasis,
    _cluster_radius,
    default_ray,
    derivative_spectrum,
    eigenprojection,
    gevec_convergence,
    pole_exponent,
    semisimple_convergence_check,
    subspace_distance,
    total_projection_limit_check,
    track_eigenvalues,
)
from torfan.quantum_algebra import omega_operator, qh_presentation

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
    # nodes 8 and 255 of 256, in the first and in the last stack of
    # resolvents: the check covers every node
    for k in (8, 255):
        A = np.diag([0.0, np.exp(2j * np.pi * k / 256)])
        with pytest.raises(ContourHitsSpectrum, match="threshold 1e-12"):
            eigenprojection(A, 0.0, 1.0)


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


@pytest.mark.parametrize(
    "check",
    [total_projection_limit_check, derivative_spectrum, semisimple_convergence_check],
    ids=lambda check: check.__name__,
)
def test_semisimple_check_runs_once(monkeypatch, check):
    # each lambda-check reads A(0) at lambda once, through _reduction
    fam = MatrixFamily.make([[(0,), (0, 1)], [(0, 1), (0,)]])
    calls = []
    reduction = perturbation._reduction
    monkeypatch.setattr(
        perturbation, "_reduction", lambda *a: calls.append(a) or reduction(*a)
    )
    result = check(fam, 0)
    assert result == [1, -1] if check is derivative_spectrum else result.ok
    assert len(calls) == 1


def _fixed_trapezoid(A, lam, radius, nodes=256):
    """The fixed-node trapezoid sum, one resolvent at a time: the oracle
    for the stacked inverses."""
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
    # P(x) = I at every x: the residual sits at the floor, with no slope
    assert rep.errors[-1] <= 1e-10 and rep.slope is None


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
    values, distinct = perturbation._reduced_derivatives(near, 0)[2:]
    assert distinct and sorted(values, key=abs) == [1, 1 + 2.0 ** -40]
    assert perturbation._reduced_derivatives(JORDAN_A1[0], 0)[2:] == ([1, 1], False)


COMPLEX = MatrixFamily.make(
    [[(1j,), (0, 1), (0, 1)], [(0, 1), (1j,), (0,)], [(0,), (0, 1), (2,)]]
)  # A(0) = diag(i, i, 2) is not real, so it has no primary components over Q


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
    # the eigenlines (1, +-1) are constant: the residual sits at the floor
    assert rep.ok and rep.errors[-1] <= 1e-6 and rep.slope is None


@pytest.mark.parametrize(
    "fam, lam",
    [(MatrixFamily.make([[(0,), (0, 1)], [(0, 1), (0,)]]), 0), (COMPLEX, 1j)],
    ids=["real", "complex"],
)
def test_semisimple_check_reads_no_contour(monkeypatch, fam, lam):
    # each branch is simple at x > 0: its projector comes from eig
    calls = []
    monkeypatch.setattr(perturbation, "eigenprojection", lambda *a, **k: calls.append(a))
    assert semisimple_convergence_check(fam, lam).ok
    assert calls == []


def _meeting_branches(k):
    """[[x, x], [0, -x + c x^2]] with c = 2 / ray[k]: derivatives 1 and -1
    at 0, and the branches meet in a Jordan block at the ray point ray[k]."""
    x = default_ray()[k]
    fam = MatrixFamily.make([[(0, 1), (0, 1)], [(0,), (0, -1, 2 / x)]])
    assert fam(x)[1, 1] == x
    return fam


def test_semisimple_check_sees_branches_meet():
    # the meet at ray[16] leaves three ray points after it, fewer than
    # the six of the slope
    with pytest.raises(ClusterAmbiguous, match="fewer than six"):
        semisimple_convergence_check(_meeting_branches(16), 0)


def test_semisimple_check_trims_an_early_meet():
    # the meet at ray[3] = 1/80: the tail after it is kept
    rep = semisimple_convergence_check(_meeting_branches(3), 0)
    assert rep.ok and rep.ray == default_ray()[4:]


@pytest.mark.parametrize(
    "c2",
    [1, 0],
    ids=["tangent", "jordan"],
)
def test_semisimple_check_reads_only_the_lines_at_lam(c2):
    """[[5 + c2 x^2, 1, 0], [0, 5, 0], [0, 0, x]] at lam = 0: lam is simple
    and its K exact.  The two lines at 5 are dependent to 1e-8 from
    x ~ 1e-4 on (tangent branches) or at every x (a Jordan block); the
    check reads only lam's line, so every ray point is kept."""
    fam = MatrixFamily.make([[(5, 0, c2), (1,), (0,)], [(0,), (5,), (0,)], [(0,), (0,), (0, 1)]])
    rep = semisimple_convergence_check(fam, 0)
    assert rep.ok and rep.ray == default_ray()


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


@pytest.mark.parametrize(
    "fam, lam",
    [(MatrixFamily.make([[(0,), (0, 1)], [(0, 1), (0,)]]), 0), (COMPLEX, 1j)],
    ids=["real", "complex"],
)
def test_total_projection_reads_no_contour(monkeypatch, fam, lam):
    # the cluster splits into simple branches at x > 0, and the complex
    # family's A(0) is diagonalizable: every projection comes from eig
    calls = []
    monkeypatch.setattr(perturbation, "eigenprojection", lambda *a, **k: calls.append(a))
    assert total_projection_limit_check(fam, lam).ok
    assert calls == []


def _scaled(fam, s):
    """The family with A_1 scaled by s: A(s x), the same family on a
    rescaled ray."""
    return MatrixFamily.make([[(c[0], c[1] * s) for c in row] for row in fam.entries])


def test_continuity_verdicts_are_scale_free():
    # Kato's theorems hold for A(c x) as for A(x): the verdicts agree,
    # and the residuals fall like x on every scale
    for seed in range(1, 6):
        rng = random.Random(seed)
        for n, m in SIZES:
            fam = semisimple_family(rng, n, m)[0]
            for check in (total_projection_limit_check, semisimple_convergence_check):
                reports = [check(_scaled(fam, s), 0) for s in (1 / 20, 1, 20)]
                assert all(rep.ok for rep in reports), (seed, n, check)
                for rep in reports:
                    assert rep.slope == pytest.approx(1, abs=0.05), (seed, n, check)


def _spy_on_the_contour(monkeypatch):
    calls = []
    project = perturbation.eigenprojection
    monkeypatch.setattr(
        perturbation, "eigenprojection", lambda *a, **k: calls.append(a) or project(*a, **k)
    )
    return calls


def test_total_projection_falls_back_to_the_contour(monkeypatch):
    # [[x, 1, 0], [0, x, 0], [0, 0, 5]]: the cluster at 0 stays one Jordan
    # block at every x, so V is singular and the contour projects it
    fam = MatrixFamily.make(
        [[(0, 1), (1,), (0,)], [(0,), (0, 1), (0,)], [(0,), (0,), (5,)]]
    )
    calls = _spy_on_the_contour(monkeypatch)
    rep = total_projection_limit_check(fam, 0)
    assert rep.ok and len(calls) == len(default_ray())
    assert np.array_equal(rep.limit, np.diag([1.0, 1.0, 0.0]))


def test_total_projection_matches_the_contour(monkeypatch):
    # the closed form V_c (V^-1)_c against the contour on seeded families
    def contour(A, decomposition, lam, m):
        radius = perturbation._cluster_radius(decomposition[0], lam, m)
        return eigenprojection(A, lam, radius).matrix

    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for n, m in SIZES:
            fam = semisimple_family(rng, n, m)[0]
            got = total_projection_limit_check(fam, 0)
            with monkeypatch.context() as mp:
                mp.setattr(perturbation, "_total_projection", contour)
                want = total_projection_limit_check(fam, 0)
            assert got.ok and want.ok and got.ray == want.ray
            for a, b in zip(got.errors, want.errors):
                assert abs(a - b) <= 1e-9 * max(1.0, b), (seed, n)
            # the last errors are near 1e-7, where the contour's accuracy
            # is a relative 1e-6: the slopes agree to about that
            assert abs(got.slope - want.slope) <= 1e-5, (seed, n)


def _closed_form(A, lam, m):
    return perturbation._total_projection(A, perturbation._eigen_decomposition(A), lam, m)


def test_total_projection_keeps_the_contour_rules():
    # 0 and 1e-11: the circle of radius sqrt(1e-3) 1e-11 about 0 passes
    # within 1e-12 of the eigenvalue 0 itself
    with pytest.raises(ContourHitsSpectrum, match="threshold 1e-12"):
        _closed_form(np.diag([0.0, 1e-11]), 0.0, 1)
    with pytest.raises(ClusterAmbiguous):
        _closed_form(np.diag([0.0, 1.0, 1.5]), 0.0, 2)
    A = np.array([[2.0, 1.0], [0.0, 1.0]])
    assert np.allclose(_closed_form(A, 2.0, 1), [[1.0, 1.0], [0.0, 0.0]], atol=1e-15)


def test_total_projection_falls_back_past_the_residual_bound(monkeypatch):
    # a V^-1 off by 1e-6 leaves P^2 - P of that size: the contour projects
    A = np.array([[2.0, 1.0], [0.0, 1.0]])
    w, V, Vinv = perturbation._eigen_decomposition(A)
    calls = _spy_on_the_contour(monkeypatch)
    P = perturbation._total_projection(A, (w, V, Vinv + 1e-6), 2.0, 1)
    assert len(calls) == 1
    assert np.allclose(P, [[1.0, 1.0], [0.0, 0.0]], atol=1e-12)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_total_projection_falls_back_on_a_near_jordan_cluster(monkeypatch, seed, k):
    # a rotated Jordan block of size k at 0 beside 5: eig splits the block
    # into k eigenvalues (about 1e-8 apart for k = 2, 6e-6 for k = 3) with
    # a full-rank V of condition number 6e7 to 2e11, where (V^-1)_c V_c
    # misses I by 1e-9 to 1e-5 and V_c (V^-1)_c is off by as much; the
    # contour about the k is well conditioned
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((k + 1, k + 1)))[0]
    T = np.diag([1.0] * (k - 1) + [0.0], 1)
    T[k, k] = 5.0
    A = Q @ T @ Q.T
    w, V, Vinv = perturbation._eigen_decomposition(A)
    assert Vinv is not None
    calls = _spy_on_the_contour(monkeypatch)
    P = perturbation._total_projection(A, (w, V, Vinv), 0.0, k)
    assert len(calls) == 1
    want = Q @ np.diag([1.0] * k + [0.0]) @ Q.T
    assert np.linalg.norm(P - want, 2) < 1e-13


def test_pole_exponent_is_none_where_the_circle_meets_the_spectrum():
    # [[x^2, 1], [0, 0]]: the eigenvalues x^2 and 0 come within 1e-12, where
    # no circle about one resolves it from the other
    fam = MatrixFamily.make([[(0, 0, 1), (1,)], [(0,), (0,)]])
    paths = track_eigenvalues(fam)
    assert len(paths) == 2
    assert [pole_exponent(fam, path) for path in paths] == [None, None]


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


def test_gevec_convergence_three_by_three():
    rep = gevec_convergence(THREE)
    assert rep.ok
    by_size = {c.size: c for c in rep.clusters}
    assert set(by_size) == {1, 2}
    for c in rep.clusters:
        assert c.block_size == c.size
        assert c.decreasing
        assert c.final_distance <= 1e-3


def test_gevec_convergence_on_a_permuted_sum_of_kato_blocks():
    """Three 2 x 2 Kato blocks [[l + c x, 1], [0, l]] at distinct l,
    conjugated by a permutation: each block is one cluster of two
    eigenlines whose span converges to the block's Jordan span."""
    blocks = [(-2, 1), (1, 2), (3, 3)]  # (l, c)
    n = 2 * len(blocks)
    A = [[[0] for _ in range(n)] for _ in range(n)]
    for b, (l, c) in enumerate(blocks):
        A[2 * b][2 * b] = [l, c]
        A[2 * b][2 * b + 1] = [1]
        A[2 * b + 1][2 * b + 1] = [l]
    perm = [3, 0, 5, 1, 4, 2]  # P A P^T, P the permutation matrix of perm
    fam = MatrixFamily.make([[A[perm[i]][perm[j]] for j in range(n)] for i in range(n)])
    rep = gevec_convergence(fam)
    assert rep.ok
    assert len(rep.clusters) == len(blocks)
    for c in rep.clusters:
        assert c.size == c.block_size == 2
        assert c.decreasing
        assert c.final_distance <= 1e-3


@pytest.mark.parametrize("blocks", [2, 3, 4])
@pytest.mark.parametrize("seed", range(1, 11))
def test_gevec_convergence_on_seeded_sums_of_kato_blocks(seed, blocks):
    """Kato blocks at seeded distinct l with seeded c, conjugated by a
    seeded permutation.  Residuals of near-parallel lines carry eps / x
    round-off times ||N||, which must not break `decreasing`."""
    rng = random.Random(seed)
    n = 2 * blocks
    A = [[[0] for _ in range(n)] for _ in range(n)]
    for b, l in enumerate(rng.sample(range(-6, 7), blocks)):
        A[2 * b][2 * b] = [l, rng.choice((1, 2, 3))]
        A[2 * b][2 * b + 1] = [1]
        A[2 * b + 1][2 * b + 1] = [l]
    perm = list(range(n))
    rng.shuffle(perm)
    fam = MatrixFamily.make([[A[perm[i]][perm[j]] for j in range(n)] for i in range(n)])
    rep = gevec_convergence(fam)
    assert rep.ok
    assert sorted(c.size for c in rep.clusters) == [2] * blocks
    assert all(c.decreasing for c in rep.clusters)


def test_gevec_convergence_with_two_jordan_blocks_at_one_eigenvalue():
    """A(0) = J_2 + J_2 at 0: which 2-dimensional invariant subspaces of
    C^4 the two Puiseux pairs tend to depends on A_1, so no chain of A(0)
    alone names them.  The lines of a pair close their gap like sqrt(x)."""
    A0 = [[0] * 4 for _ in range(4)]
    A0[0][1] = A0[2][3] = 1
    A1 = [[1, 1, -1, 2], [0, -1, 0, -1], [1, 2, 0, 2], [-1, 0, -1, 0]]
    fam = MatrixFamily.make([[(A0[i][j], A1[i][j]) for j in range(4)] for i in range(4)])
    rep = gevec_convergence(fam)
    assert rep.ok
    assert [c.size for c in rep.clusters] == [2, 2]
    # ker N^2 is all of C^4, so each pair's residual is its invariance
    # defect, which falls like x: halved with x along the ray
    for pair in rep.clusters:
        assert all(0.45 < b / a < 0.55 for a, b in zip(pair.residuals[-6:], pair.residuals[-5:]))


@pytest.mark.parametrize("seed", range(1, 9))
def test_gevec_convergence_on_puiseux_pairs_at_two_eigenvalues(seed):
    """J_2(1) + J_2(-1) + x A_1, A_1 an integer matrix with entries in
    -2..2 drawn from random.Random(seed), splits each block into a
    Puiseux pair.  The gap of a pair's lines is about 1e-3 at the ray's
    end, yet it closes like sqrt(x): two clusters of two, each converging."""
    A0 = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, -1, 1], [0, 0, 0, -1]]
    rng = random.Random(seed)
    A1 = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
    fam = MatrixFamily.make([[(A0[i][j], A1[i][j]) for j in range(4)] for i in range(4)])
    rep = gevec_convergence(fam)
    assert rep.ok
    assert [c.size for c in rep.clusters] == [2, 2]


def test_gevec_convergence_keeps_the_ray_past_a_branch_point():
    """[[0, 1], [1/10 - x, 0]] is a Jordan block at x = 1/10, the ray's
    first point, and has eigenvalues +-sqrt(1/10 - x) past it: the tail
    is read, two lines with distinct limits."""
    fam = MatrixFamily.make([[(0,), (1,)], [(0.1, -1), (0,)]])
    rep = gevec_convergence(fam)
    assert rep.ok
    assert [c.size for c in rep.clusters] == [1, 1]
    assert all(len(c.residuals) == len(default_ray()) - 1 for c in rep.clusters)



def _conjugated_diagonal(seed, diagonal):
    """S diag(diagonal) S^-1, each entry of diagonal a pair (c0, c1) for
    c0 + c1 x, for a 4 x 4 integer S with entries in -3..3 drawn from
    random.Random(seed) and redrawn until S^-1 is integral."""
    rng = random.Random(seed)
    while True:
        S = [[F(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
        try:
            Si = inverse(S)
        except Inconsistent:
            continue
        if all(v.denominator == 1 for row in Si for v in row):
            break

    def conjugate(values):
        D = [[F(v) if i == j else F(0) for j in range(4)] for i, v in enumerate(values)]
        return mat_mul(mat_mul(S, D), Si)

    A0, A1 = (conjugate([d[k] for d in diagonal]) for k in (0, 1))
    return MatrixFamily.make([[(A0[i][j], A1[i][j]) for j in range(4)] for i in range(4)])


DOUBLE = [(0, 1), (0, 1), (1, 0), (2, 0)]  # diag(x, x, 1, 2)
TRIPLE = [(0, 1), (0, 1), (0, 1), (2, 0)]  # diag(x, x, x, 2)


@pytest.mark.parametrize("diagonal", [DOUBLE, TRIPLE], ids=["double", "triple"])
@pytest.mark.parametrize("seed", range(1, 11))
def test_gevec_convergence_at_an_eigenvalue_repeated_along_the_ray(request, seed, diagonal):
    """S diag(x, x, 1, 2) S^-1 and S diag(x, x, x, 2) S^-1: the eigenvalue
    x is repeated at every x != 0, where eig's basis of its constant
    eigenspace is arbitrary.  Aligned onto the previous point's lines, the
    lines are constant: four clusters of one, each converging."""
    if (seed, diagonal) == (8, TRIPLE):
        request.applymarker(pytest.mark.xfail(
            raises=ClusterAmbiguous,
            strict=True,
            reason="the 1e-8 independence test reads eig's raw, near-dependent "
            "vectors of the triple eigenvalue x and rejects every ray point",
        ))
    rep = gevec_convergence(_conjugated_diagonal(seed, diagonal))
    assert rep.ok
    assert [c.size for c in rep.clusters] == [1, 1, 1, 1]


def test_gevec_convergence_where_a_complex_pair_turns_real():
    """[[0, 1], [7/100 - x, 0]] + x I_2: the pair is complex at x = 1/10
    and real from x = 1/20 on, beside the double eigenvalue x."""
    fam = MatrixFamily.make(
        [
            [(0,), (1,), (0,), (0,)],
            [(F(7, 100), -1), (0,), (0,), (0,)],
            [(0,), (0,), (0, 1), (0,)],
            [(0,), (0,), (0,), (0, 1)],
        ]
    )
    rep = gevec_convergence(fam)
    assert rep.ok
    assert [c.size for c in rep.clusters] == [1, 1, 1, 1]


def test_canonical_eigenbasis_keeps_a_complex_previous_point():
    # real lines of a double eigenvalue turned onto complex previous lines
    # come out complex, with no part dropped
    prev = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    lines = _canonical_eigenbasis(np.array([1.0, 1.0]), np.eye(2), prev)
    assert lines.dtype == complex
    assert np.allclose(lines, prev)


# -- irrational eigenvalues of A(0) ------------------------------------


def _plus_seeded_a1(A0, seed=1):
    """A(x) = A0 + x A_1, A_1 an integer matrix with entries in -2..2
    drawn from random.Random(seed)."""
    n = len(A0)
    rng = random.Random(seed)
    A1 = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    return MatrixFamily.make([[(A0[i][j], A1[i][j]) for j in range(n)] for i in range(n)])


def _omega(fan, P):
    _, A = qh_presentation(fan, P)
    return omega_operator(A, P)


IRRATIONAL_CASES = {
    "Bl1P2": lambda: _omega(*reflexive_blowup(2, 1)),
    "Bl2P2": lambda: _omega(*reflexive_blowup(2, 2)),
    "Bl1P3": lambda: _omega(*reflexive_blowup(3, 1)),
    "O(-2)->P4": lambda: _omega(*nlb_from_k(*projective_space(4), 2)[:2]),
    "sqrt2": lambda: [[F(0), F(2)], [F(1), F(0)]],
    "i": lambda: [[F(0), F(-1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(2)]],
}


@pytest.mark.parametrize("name", IRRATIONAL_CASES)
def test_continuity_checks_at_irrational_eigenvalues(name):
    """At each irrational eigenvalue of A(0), real or not (a root of a
    factor of degree > 1 of its charpoly), the ladder's omega, [[0, 2],
    [1, 0]] or a rotation beside 2, the eigenspace is the range of the
    total projection and both ray checks converge at rate x; the
    eigenline clusters converge at every eigenvalue."""
    A0 = IRRATIONAL_CASES[name]()
    fam = _plus_seeded_a1(A0)
    eigenvalues = [
        complex(r) if r.imag else float(r.real)
        for p, _ in factor_rational_poly(charpoly(A0))
        if p.degree() > 1
        for r in np.roots([float(p.coeff((k,))) for k in range(p.degree(), -1, -1)])
    ]
    assert eigenvalues
    for lam in eigenvalues:
        for check in (total_projection_limit_check, semisimple_convergence_check):
            rep = check(fam, lam)
            assert rep.ok and abs(rep.slope - 1) < 0.05, (lam, check.__name__)
    assert gevec_convergence(fam).ok


# X^2 - 2 squared: a Jordan block of size 2 at each of +-sqrt(2)
QUADRATIC_CHAIN = [[0, 0, 0, -4], [1, 0, 0, 0], [0, 1, 0, 4], [0, 0, 1, 0]]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_total_projection_at_a_defective_irrational_eigenvalue(seed):
    """The companion matrix of (X^2 - 2)^2 plus x A_1: eig spreads each
    double root +-sqrt(2) of A(0) by about sqrt(eps), yet the factor
    X^2 - 2 of its charpoly gives the multiplicity 2 exactly, and the
    total projection converges at rate x."""
    fam = _plus_seeded_a1(QUADRATIC_CHAIN, seed)
    for lam in (2 ** 0.5, -(2 ** 0.5)):
        rep = total_projection_limit_check(fam, lam)
        assert rep.ok and abs(rep.slope - 1) < 0.05, lam


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_semisimple_checks_refuse_a_defective_irrational_eigenvalue(seed):
    # the chain of X^2 - 2 has two steps: a Jordan block at each root
    fam = _plus_seeded_a1(QUADRATIC_CHAIN, seed)
    for lam in (2 ** 0.5, -(2 ** 0.5)):
        for check in (semisimple_convergence_check, derivative_spectrum):
            with pytest.raises(NotSemisimple):
                check(fam, lam)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gevec_convergence_at_defective_irrational_eigenvalues(seed):
    # one primary component, of dimension 4, and a Puiseux pair per block
    rep = gevec_convergence(_plus_seeded_a1(QUADRATIC_CHAIN, seed))
    assert rep.ok
    assert [c.size for c in rep.clusters] == [2, 2]


@pytest.mark.parametrize("lam", [float("inf"), float("nan")], ids=["inf", "nan"])
@pytest.mark.parametrize(
    "fam",
    [_plus_seeded_a1(IRRATIONAL_CASES["sqrt2"]()), COMPLEX],
    ids=["real", "complex"],
)
def test_continuity_checks_at_a_non_finite_lam(fam, lam):
    for check in (total_projection_limit_check, derivative_spectrum, semisimple_convergence_check):
        with pytest.raises(ValueError, match=f"^{lam} is not an eigenvalue"):
            check(fam, lam)


def _rounded_conjugate(seed):
    """T (J_2(a) + J_2(b)) T^-1 + x T A_1 T^-1 rounded to floats: T with
    entries p/q, |p| <= 3 and 1 <= q <= 13, from random.Random(2000 + seed)
    and redrawn until invertible, (a, b) = rng.sample(range(-3, 4), 2) and
    A_1 with entries in -2..2."""
    rng = random.Random(2000 + seed)
    while True:
        T = [[F(rng.randint(-3, 3), rng.randint(1, 13)) for _ in range(4)] for _ in range(4)]
        try:
            Ti = inverse(T)
        except Inconsistent:
            continue
        break
    a, b = rng.sample(range(-3, 4), 2)
    J = [[F(0)] * 4 for _ in range(4)]
    J[0][0] = J[1][1] = F(a)
    J[2][2] = J[3][3] = F(b)
    J[0][1] = J[2][3] = F(1)
    A1 = [[F(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
    A0, A1 = (mat_mul(mat_mul(T, M), Ti) for M in (J, A1))
    return MatrixFamily.make(
        [[(float(A0[i][j]), float(A1[i][j])) for j in range(4)] for i in range(4)]
    )


def test_gevec_convergence_on_float_rounded_conjugates():
    """Rounded to floats, the conjugates' exact charpoly may split the
    double eigenvalues a and b into nearby roots, or leave an irreducible
    factor; each primary component is read exactly, and they add up to 4.
    gevec ends in a report, or in too few kept ray points where two
    branches meet: never in a missing eigenvalue or a failed contour."""
    for seed in range(35):
        try:
            gevec_convergence(_rounded_conjugate(seed))
        except ClusterAmbiguous as exc:
            assert "isolated ray points" in str(exc), seed
