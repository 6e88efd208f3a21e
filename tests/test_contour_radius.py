"""The contour radius at the geometric mean of cluster and gap, against
the midpoint radius it replaced, on seeded semisimple families and Kato
block sums."""

import random

import numpy as np
import pytest

from torfan import perturbation
from torfan.errors import ClusterAmbiguous
from torfan.exact_algebra import spectral_order
from torfan.perturbation import (
    MatrixFamily,
    default_ray,
    derivative_spectrum,
    semisimple_convergence_check,
    total_projection_limit_check,
)

SEEDS = (1, 2)
SIZES = ((4, 2), (12, 4), (24, 3))  # (n, multiplicity of 0)
BLOCKS = (2, 3, 4)


def midpoint_radius(spectrum, lam, m):
    """The former rule: halfway between the cluster and the rest, with
    the same ambiguity test and whole-spectrum case."""
    dists = sorted(np.abs(spectrum - lam))
    inner = dists[m - 1]
    if m == len(dists):
        return float(inner) + 1.0
    outer = dists[m]
    if outer < 2 * inner + 1e-14:
        raise ClusterAmbiguous("gap closed")
    return float(inner + outer) / 2


# -- seeded families (the constructions of the benchmark's
# spectral-families workload) ------------------------------------------


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _conjugator(rng, n):
    """Integer S and its integer inverse: a permutation times a sparse
    unit upper triangular matrix."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n):
        i, j = sorted(rng.sample(range(n), 2))
        U[i][j] = rng.choice((-1, 1))
    Uinv = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            Uinv[i][j] = -sum(U[i][k] * Uinv[k][j] for k in range(i + 1, j + 1))
    perm = list(range(n))
    rng.shuffle(perm)
    Pm = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
    return _matmul(Pm, U), _matmul(Uinv, [list(c) for c in zip(*Pm)])


def _family(S, Sinv, A0, A1):
    C0 = _matmul(_matmul(S, A0), Sinv)
    C1 = _matmul(_matmul(S, A1), Sinv)
    n = len(S)
    return MatrixFamily.make([[(C0[i][j], C1[i][j]) for j in range(n)] for i in range(n)])


def semisimple_family(rng, n, m):
    """S (D + x B) S^-1 with D = diag(0 (m times), rest) and the first m
    rows of B diagonal: the branches through 0 are x * B[i][i].  Returns
    the family and those derivatives."""
    rest = rng.sample([d for d in range(-3 * n, 3 * n + 1) if abs(d) >= 3], n - m)
    derivs = rng.sample([-4, -1, 1, 4], m)
    D = [[0] * n for _ in range(n)]
    for i, d in enumerate(rest):
        D[m + i][m + i] = d
    B = [[rng.choice((-1, 0, 1)) if i >= m else 0 for j in range(n)] for i in range(n)]
    for i in range(m):
        B[i][i] = derivs[i]
    S, Sinv = _conjugator(rng, n)
    return _family(S, Sinv, D, B), derivs


def kato_sum(rng, blocks):
    """Permuted direct sum of Kato blocks [[l + c x, 1], [0, l]]; returns
    the family and the shifts l."""
    n = 2 * blocks
    shifts = rng.sample(range(-6, 7), blocks)
    A0 = [[0] * n for _ in range(n)]
    A1 = [[0] * n for _ in range(n)]
    for b, l in enumerate(shifts):
        A0[2 * b][2 * b] = A0[2 * b + 1][2 * b + 1] = l
        A0[2 * b][2 * b + 1] = 1
        A1[2 * b][2 * b] = rng.choice((1, 2, 3))
    perm = list(range(n))
    rng.shuffle(perm)
    Pm = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
    return _family(Pm, [list(c) for c in zip(*Pm)], A0, A1), shifts


def _cases():
    for seed in SEEDS:
        rng = random.Random(seed)
        for n, m in SIZES:
            yield "semisimple", semisimple_family(rng, n, m)
        for blocks in BLOCKS:
            yield "kato", kato_sum(rng, blocks)


def _run(kind, data, rule, calls):
    """Every check on one case under one radius rule, then the contour
    projection of each checked cluster at every ray point (the checks
    read their projections from eig); `calls` collects the Projector of
    each eigenprojection call."""
    fam, extra = data
    clusters = [(0, len(extra))] if kind == "semisimple" else [(l, 2) for l in extra]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(perturbation, "_cluster_radius", rule)
        project = perturbation.eigenprojection

        def recording(A, lam, radius):
            calls.append(project(A, lam, radius))
            return calls[-1]

        mp.setattr(perturbation, "eigenprojection", recording)
        for lam, m in clusters:
            for x in default_ray():
                A = fam(x)
                recording(A, lam, rule(np.linalg.eigvals(A), lam, m))
        if kind == "semisimple":
            return {
                "total": [total_projection_limit_check(fam, 0)],
                "derivatives": derivative_spectrum(fam, 0),
                "semisimple": semisimple_convergence_check(fam, 0),
            }
        return {"total": [total_projection_limit_check(fam, l) for l in extra]}


@pytest.fixture(scope="module")
def runs():
    out = []
    for kind, data in _cases():
        geometric, midpoint = [], []
        got = _run(kind, data, perturbation._cluster_radius, geometric)
        want = _run(kind, data, midpoint_radius, midpoint)
        out.append((kind, data, got, want, geometric, midpoint))
    return out


def _close(a, b, rtol=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    return np.linalg.norm(a - b, 2) <= rtol * max(1.0, float(np.linalg.norm(b, 2)))


def test_geometric_radius_matches_midpoint_oracle(runs):
    for kind, (fam, extra), got, want, geometric, midpoint in runs:
        assert geometric and len(geometric) == len(midpoint)
        for P, Q in zip(geometric, midpoint):
            assert _close(P.matrix, Q.matrix)
        for g, w in zip(got["total"], want["total"]):
            assert g.ok and w.ok and g.ray == w.ray
            assert np.array_equal(g.limit, w.limit)
            # ||P(x)||_2 <= ||limit||_2 + error: the scale of each projection
            scale = float(np.linalg.norm(w.limit, 2))
            for k, error in enumerate(w.errors):
                assert abs(g.errors[k] - error) <= 1e-12 * max(1.0, scale + error)
            assert g.slope == w.slope
        if kind == "semisimple":
            # Kato's reduction reads no contour: the derivatives are exact
            # under either rule
            assert got["derivatives"] == want["derivatives"] == spectral_order(extra)
            assert got["semisimple"].ok and want["semisimple"].ok


def test_derivative_spectrum_order_is_exact_order():
    """Kato's reduction gives the designed derivatives exactly, so their
    order is that of the exact values, including within each pair d, -d."""
    for seed in range(1, 6):
        rng = random.Random(seed)
        for n, m in SIZES:
            fam, derivs = semisimple_family(rng, n, m)
            assert derivative_spectrum(fam, 0) == spectral_order(derivs), (seed, n, m)
