"""Holomorphic matrix families and their spectral perturbation theory:
contour-integral eigenprojections, eigenvalue tracking along a ray,
total projections and their limits, reduced derivative spectra, the
Grassmannian distance, and convergence of (generalized) eigenvector
spans."""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    ClusterAmbiguous,
    ClusteringAmbiguous,
    ContourHitsSpectrum,
    DerivativesCollide,
    DimensionMismatch,
    IdempotencyFailed,
    NotSemisimple,
)
from .exact_algebra import (
    charpoly,
    factor_rational_poly,
    identity,
    inverse,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_vec,
    match_nearest,
    rref,
    spectral_order,
    to_numpy,
    transpose,
)
from .exact_algebra.linalg import _kernel_chain

__all__ = [
    "MatrixFamily",
    "EigenPath",
    "Projector",
    "Subspace",
    "default_ray",
    "eigenprojection",
    "track_eigenvalues",
    "total_projection_limit_check",
    "derivative_spectrum",
    "subspace_distance",
    "semisimple_convergence_check",
    "gevec_convergence",
    "exact_jordan_blocks",
]

CONTOUR_NODES = 256
_STACK = 16  # resolvents inverted per np.linalg.inv call


def default_ray():
    """Positive real sample ray 0.1 * 0.5**k, k = 0..19, decreasing."""
    return [0.1 * 0.5 ** k for k in range(20)]


@dataclass(frozen=True)
class MatrixFamily:
    """Square matrix whose entries are polynomials in a real parameter
    x, stored as ascending complex coefficient lists."""

    size: int
    entries: tuple  # entries[i][j] = tuple of coefficients (c0, c1, ...)
    # coeffs[d][i][j] = coefficient of x^d, zero-padded to the top degree
    coeffs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        top = max([len(cell) for row in self.entries for cell in row] + [1])
        coeffs = np.zeros((top, self.size, self.size), dtype=complex)
        for i, row in enumerate(self.entries):
            for j, cell in enumerate(row):
                coeffs[: len(cell), i, j] = cell
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def make(entries):
        n = len(entries)
        rows = []
        for row in entries:
            if len(row) != n:
                raise ValueError("matrix family must be square")
            cells = []
            for cell in row:
                if isinstance(cell, (int, float, complex, Fraction)):
                    cell = (cell,)
                cells.append(tuple(complex(c) for c in cell))
            rows.append(tuple(cells))
        return MatrixFamily(n, tuple(rows))

    def __call__(self, x):
        A = np.zeros((self.size, self.size), dtype=complex)
        for c in self.coeffs[::-1]:
            A = A * x + c
        return A

    def constant_term_rational(self):
        """A(0) as an exact rational matrix, or None when any constant
        coefficient has an imaginary part."""
        rows = []
        for i in range(self.size):
            row = []
            for j in range(self.size):
                c = self.entries[i][j][0] if self.entries[i][j] else 0j
                if abs(c.imag) > 0:
                    return None
                row.append(Fraction(c.real))
            rows.append(row)
        return rows


@dataclass
class EigenPath:
    samples: list  # (x, eigenvalue)
    matched: bool = True


@dataclass
class Projector:
    matrix: np.ndarray
    idempotency_defect: float
    nodes: int  # quadrature nodes used
    difference: float  # final ||P_N - P_{N/2}||_F; inf after one level


@dataclass(frozen=True)
class Subspace:
    orthonormal_basis: np.ndarray  # columns
    dimension: int

    @staticmethod
    def from_vectors(vectors):
        """Orthonormalize the columns of an array; a 1-D array is one
        vector."""
        M = vectors.reshape(-1, 1) if vectors.ndim == 1 else vectors
        q, r = np.linalg.qr(M.astype(complex))
        keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, float(np.abs(r).max()))
        q = q[:, : len(keep)][:, keep]
        return Subspace(q, q.shape[1])

    def projector(self):
        return self.orthonormal_basis @ self.orthonormal_basis.conj().T


def subspace_distance(U, V):
    """Operator norm of the projector difference: the sine of the
    largest principal angle."""
    if U.dimension != V.dimension:
        raise DimensionMismatch(f"{U.dimension} vs {V.dimension}")
    return float(np.linalg.norm(U.projector() - V.projector(), 2))


# -- contour projections ----------------------------------------------


def eigenprojection(A, lam, radius, nodes=CONTOUR_NODES, spectrum=None):
    """(1/2 pi i) times the contour integral of the resolvent around a
    circle about lam, by trapezoid quadrature with nested doubling.

    The first level has 16 nodes at theta = 2 pi k / 16; each later level
    adds the N midpoints theta = 2 pi (k + 1/2) / N of the N nodes so
    far, so no resolvent is evaluated twice.  Quadrature stops once
    ||P_N - P_{N/2}||_F <= 1e-13 max(1, ||P_N||_F), or at the cap
    `nodes` (the largest 16 * 2^k not above it), where P is the plain
    trapezoid sum over those nodes.  Every evaluated node is checked
    against the spectrum, and the result must be idempotent to 1e-8 in
    the 2-norm.  A caller that already holds the eigenvalues of A hands
    them in as `spectrum`; otherwise they are computed here."""
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    spectrum = np.linalg.eigvals(A) if spectrum is None else np.asarray(spectrum)
    stack = np.empty((_STACK, n, n), dtype=complex)
    diag = np.arange(n)
    total = np.zeros((n, n), dtype=complex)  # sum of weight * resolvent
    thetas = 2 * np.pi * np.arange(min(16, nodes)) / min(16, nodes)
    used, P, difference = 0, None, float("inf")
    while True:
        for start in range(0, len(thetas), _STACK):
            w = radius * np.exp(1j * thetas[start:start + _STACK])
            z = lam + w
            gaps = np.abs(z[:, None] - spectrum[None, :])
            k, j = np.unravel_index(np.argmin(gaps), gaps.shape)
            if gaps[k, j] < 1e-12:
                raise ContourHitsSpectrum(
                    f"node {z[k]} is {gaps[k, j]:.3e} from eigenvalue "
                    f"{spectrum[j]} (threshold 1e-12)"
                )
            M = stack[: len(z)]
            M[:] = -A
            M[:, diag, diag] += z[:, None]
            total += np.tensordot(w, np.linalg.inv(M), axes=1)
        used += len(thetas)
        previous, P = P, total / used
        if previous is not None:
            difference = float(np.linalg.norm(P - previous))
            if difference <= 1e-13 * max(1.0, float(np.linalg.norm(P))):
                break
        if 2 * used > nodes:
            break
        thetas = 2 * np.pi * (np.arange(used) + 0.5) / used
    defect = float(np.linalg.norm(P @ P - P, 2))
    bound = 1e-8 * max(1.0, float(np.linalg.norm(P, 2)))
    if defect > bound:
        raise IdempotencyFailed(
            f"defect {defect:.3e} exceeds {bound:.3e} after {used} nodes"
        )
    return Projector(P, defect, used, difference)


# -- eigenvalue tracking ----------------------------------------------


def track_eigenvalues(fam, ray=None):
    """Spectra along the ray, greedily matched by nearest neighbor;
    a path is flagged unmatched when two candidates nearly tie."""
    ray = list(ray) if ray is not None else default_ray()
    # descending modulus: the largest branches are matched first
    first = sorted(
        np.linalg.eigvals(fam(ray[0])), key=lambda z: (-abs(z), np.angle(z))
    )
    paths = [EigenPath([(ray[0], lam)]) for lam in first]
    for x in ray[1:]:
        w = list(np.linalg.eigvals(fam(x)))
        prev = [path.samples[-1][1] for path in paths]
        for path, (i, d, runner_up) in zip(paths, match_nearest(prev, w)):
            if runner_up - d < 1e-9:
                path.matched = False
            path.samples.append((x, w[i]))
    return paths


# -- exact spectral data of A(0) --------------------------------------


def _generalized_projection_exact(N):
    """Exact projection onto the generalized eigenspace of a rational
    eigenvalue lam along the complementary invariant subspace, from the
    exact shift N = A0 - lam I, with the algebraic multiplicity s of
    lam (0 when lam is not an eigenvalue)."""
    n = len(N)
    kernels, P, pivots = _kernel_chain(N)
    K = kernels[-1]
    # the pivot columns of N^p span its column space, the complementary
    # invariant subspace
    R = [[P[i][j] for i in range(n)] for j in pivots]
    C = transpose(K + R)
    s = len(K)
    return mat_mul([row[:s] for row in C], inverse(C)[:s]), s


def exact_jordan_blocks(A0, lam):
    """Jordan chains of a rational matrix at a rational eigenvalue:
    list of (eigenvector, chain vectors bottom-up) per block, chains
    sorted by descending length."""
    N = mat_sub(A0, mat_scale(identity(len(A0)), Fraction(lam)))
    kernels, _, _ = _kernel_chain(N)
    p = len(kernels) - 1
    chains = []
    carried = []
    for k in range(p, 0, -1):
        span = [list(v) for v in kernels[k - 1]] + [list(v) for v in carried]
        new_tops = _complete_basis(span, kernels[k])
        for v in new_tops:
            chain = [v]
            for _ in range(k - 1):
                chain.append(mat_vec(N, chain[-1]))
            chain.reverse()  # eigenvector first
            chains.append(chain)
        carried = [mat_vec(N, v) for v in carried + new_tops]
    chains.sort(key=len, reverse=True)
    return [(chain[0], chain) for chain in chains]


def _complete_basis(span, candidates):
    """Vectors from candidates extending the span, chosen greedily: the
    candidates at pivot columns of [span | candidates]."""
    _, pivots = rref(transpose([list(v) for v in span] + [list(v) for v in candidates]))
    return [list(candidates[c - len(span)]) for c in pivots if c >= len(span)]


def _exact_shift(fam, lam):
    """A(0) - lam I as an exact rational matrix, or None when A(0) or
    lam is not real (the numeric fallbacks handle those)."""
    A0 = fam.constant_term_rational()
    lam = complex(lam)
    if A0 is None or lam.imag or not np.isfinite(lam):
        return None
    return mat_sub(A0, mat_scale(identity(len(A0)), Fraction(lam.real)))


# -- total projections -------------------------------------------------


def _cluster_radius(spectrum, lam, m):
    """Contour radius about lam for the cluster of the m eigenvalues in
    `spectrum` nearest to lam: the geometric mean sqrt(inner * outer) of
    the cluster's farthest member's distance `inner` and the nearest
    outside eigenvalue's distance `outer`, with inner floored at
    1e-3 * outer (an exact cluster has inner = 0), or 1 beyond the
    cluster when it is the whole spectrum.  The trapezoid error on a
    circle of radius rho falls like (inner / rho)^N + (rho / outer)^N,
    which the geometric mean minimises.  Raises ClusterAmbiguous when
    outer < 2 * inner + 1e-14; m = 0 always raises."""
    dists = sorted(np.abs(spectrum - lam))
    inner = dists[m - 1]
    if m == len(dists):
        return float(inner) + 1.0
    outer = dists[m]
    if outer < 2 * inner + 1e-14:
        raise ClusterAmbiguous(
            f"gap between cluster ({inner:.3e}) and rest ({outer:.3e}) closed"
        )
    return float(np.sqrt(max(inner, 1e-3 * outer) * outer))


@dataclass
class TotalProjectionReport:
    ray: list
    norms: list
    errors: list
    bounded: bool
    converges: bool
    limit: np.ndarray

    @property
    def ok(self):
        return self.bounded and self.converges


def total_projection_limit_check(fam, lam, ray=None):
    """Total projection of the eigenvalue cluster converging to lam
    along the ray: boundedness and convergence to the exact
    generalized eigenprojection of A(0)."""
    ray = list(ray) if ray is not None else default_ray()
    N = _exact_shift(fam, lam)
    if N is not None:
        limit, m = _generalized_projection_exact(N)
        limit = to_numpy(limit)
    else:
        A0 = fam(0.0)
        w = np.linalg.eigvals(A0)
        m = int(np.sum(np.abs(w - lam) < 1e-8 * max(1.0, float(np.abs(w).max()))))
    if m == 0:
        raise ValueError(f"{lam} is not an eigenvalue of the family at 0")
    if N is None:
        limit = eigenprojection(A0, lam, _cluster_radius(w, lam, m), spectrum=w).matrix
    norms, errors = [], []
    for x in ray:
        A = fam(x)
        w = np.linalg.eigvals(A)
        P = eigenprojection(A, lam, _cluster_radius(w, lam, m), spectrum=w).matrix
        norms.append(float(np.linalg.norm(P, 2)))
        errors.append(float(np.linalg.norm(P - limit, 2)))
    bounded = max(norms) <= 2.0 * norms[-1] + 1e-6
    converges = errors[-1] <= max(10.0 * ray[-1], 1e-8) and all(
        errors[k + 1] <= errors[k] + 1e-9 for k in range(len(errors) - 1)
    )
    return TotalProjectionReport(ray, norms, errors, bounded, converges, limit)


# -- derivative spectrum ----------------------------------------------


def _check_semisimple(fam, lam):
    """(m, E): the geometric multiplicity m of lam in A(0) and an array
    E whose columns span the eigenspace.  Both are exact (E is the
    exact kernel of A(0) - lam, converted) when A(0) and lam are real;
    otherwise m comes from numeric ranks at tolerance 1e-8 and E from
    the eigenvectors of A(0) with eigenvalue within 1e-8 of lam.
    Raises NotSemisimple when lam carries a nontrivial Jordan block:
    exactly, when ker (A(0) - lam)^2 is larger than ker (A(0) - lam)."""
    N = _exact_shift(fam, lam)
    if N is not None:
        kernels, _, _ = _kernel_chain(N)
        if len(kernels) > 2:
            raise NotSemisimple(f"{lam} carries a nontrivial Jordan block")
        return len(kernels[-1]), to_numpy(kernels[-1]).T
    A0 = fam(0.0)
    N = A0 - lam * np.eye(A0.shape[0])
    r1 = np.linalg.matrix_rank(N, tol=1e-8)
    r2 = np.linalg.matrix_rank(N @ N, tol=1e-8)
    if r1 != r2:
        raise NotSemisimple(f"{lam} carries a nontrivial Jordan block")
    w0, v0 = np.linalg.eig(A0)
    return A0.shape[0] - r1, v0[:, np.abs(w0 - lam) < 1e-8]


def derivative_spectrum(fam, lam, ray=None):
    """First derivatives of the eigenvalue branches through a
    semisimple eigenvalue, via the reduced family
    (A(x) - lam) P_tot(x) / x, Richardson-extrapolated to 0."""
    ray = list(ray) if ray is not None else default_ray()
    m, _ = _check_semisimple(fam, lam)
    return _derivative_spectrum(fam, lam, ray, m)


def _derivative_spectrum(fam, lam, ray, m):
    """derivative_spectrum for a lam already checked semisimple, with
    geometric multiplicity m."""
    samples = []
    for x in ray:
        A = fam(x)
        w = np.linalg.eigvals(A)
        P = eigenprojection(A, lam, _cluster_radius(w, lam, m), spectrum=w).matrix
        u, s, _ = np.linalg.svd(P)
        Q = u[:, :m]
        B = Q.conj().T @ ((A - lam * np.eye(A.shape[0])) / x) @ Q
        samples.append(spectral_order(np.linalg.eigvals(B)))
    # match the last two samples and extrapolate (ray halves each step)
    prev, last = samples[-2], samples[-1]
    out = [2 * v - prev[i] for v, (i, _, _) in zip(last, match_nearest(last, prev))]
    # accurate to about 1e-8 (B divides by the last ray point): order by
    # the values at 1e-6, so that error cannot order a pair d, -d
    return spectral_order(out, key=lambda v: complex(round(v.real, 6), round(v.imag, 6)))


# -- semisimple eigenline convergence ---------------------------------


@dataclass
class SemisimpleReport:
    derivatives: list
    norms_bounded: bool
    cauchy: bool
    limit_distance: float

    @property
    def ok(self):
        return self.norms_bounded and self.cauchy and self.limit_distance <= 1e-3


def semisimple_convergence_check(fam, lam, ray=None):
    """Individual eigenprojections stay bounded and the eigenlines are
    Cauchy, with limits spanning the exact eigenspace of A(0)."""
    ray = list(ray) if ray is not None else default_ray()
    m, eigenspace = _check_semisimple(fam, lam)
    ders = _derivative_spectrum(fam, lam, ray, m)
    scale = max([abs(v) for v in ders] + [1.0])
    for i in range(len(ders)):
        for j in range(i + 1, len(ders)):
            if abs(ders[i] - ders[j]) < 1e-6 * scale:
                raise DerivativesCollide(f"{ders[i]} vs {ders[j]}")

    lines = {j: [] for j in range(m)}
    norms = {j: [] for j in range(m)}
    prev_members = None
    for x in ray:
        A = fam(x)
        w, v = np.linalg.eig(A)
        idx = np.argsort(np.abs(w - lam))[:m]
        members = spectral_order(idx, key=lambda i: w[i])
        if prev_members is not None:
            # keep branch identity by nearest previous eigenvalue
            matches = match_nearest(prev_members, [w[i] for i in members])
            members = [members[j] for j, _, _ in matches]
        prev_members = [w[i] for i in members]
        for j, i in enumerate(members):
            P = eigenprojection(A, w[i], _cluster_radius(w, w[i], 1), spectrum=w).matrix
            norms[j].append(float(np.linalg.norm(P, 2)))
            lines[j].append(Subspace.from_vectors(v[:, i] / np.linalg.norm(v[:, i])))

    norms_bounded = all(max(ns) <= 2.0 * ns[-1] + 1e-6 for ns in norms.values())
    cauchy = True
    for j in range(m):
        dists = [
            subspace_distance(lines[j][k], lines[j][k + 1])
            for k in range(len(ray) - 1)
        ]
        if dists and (dists[-1] > 1e-4 or any(
            dists[k + 1] > dists[k] + 1e-6 for k in range(len(dists) - 1)
        )):
            cauchy = False
    limits = np.column_stack(
        [lines[j][-1].orthonormal_basis[:, 0] for j in range(m)]
    )
    span = Subspace.from_vectors(limits)
    limit_distance = subspace_distance(span, Subspace.from_vectors(eigenspace))
    return SemisimpleReport(ders, norms_bounded, cauchy, limit_distance)


# -- generalized eigenvector convergence ------------------------------


@dataclass
class GevecCluster:
    size: int
    block_size: int
    eigenvalues: list          # at the smallest ray point
    span_distances: list       # per ray point, to the exact block span
    line_distances: list       # per ray point, max line distance to the
                               # limiting eigenvector line
    decreasing: bool = field(default=False)

    @property
    def final_distance(self):
        return self.span_distances[-1]


@dataclass
class GevecReport:
    clusters: list

    @property
    def ok(self):
        return all(
            c.size == c.block_size and c.decreasing and c.final_distance <= 1e-3
            for c in self.clusters
        )


def _canonical_eigenbasis(A, prev_groups):
    """Eigenpairs of A with degenerate-eigenvalue groups replaced by a
    deterministic basis: the kernel's principal vectors against the
    previous ray point's group subspace."""
    w, v = np.linalg.eig(A)
    n = A.shape[0]
    scale = max(1.0, float(np.abs(w).max()))
    sv = np.linalg.svd(v / np.linalg.norm(v, axis=0), compute_uv=False)
    if sv[-1] < 1e-8:
        raise ClusteringAmbiguous("family is numerically defective on the ray")
    order = sorted(range(n), key=lambda i: (-abs(w[i]), np.angle(w[i])))
    groups = []
    for i in order:
        if groups and abs(w[i] - w[groups[-1][0]]) <= 1e-10 * scale:
            groups[-1].append(i)
        else:
            groups.append([i])
    pairs = []
    new_groups = []
    for g in groups:
        lam = w[g[0]]
        if len(g) == 1:
            vec = v[:, g[0]] / np.linalg.norm(v[:, g[0]])
            pairs.append((lam, vec))
            new_groups.append((lam, vec.reshape(-1, 1)))
            continue
        # orthonormal kernel basis of A - lam
        _, s, vh = np.linalg.svd(A - lam * np.eye(n))
        Q = vh.conj().T[:, -len(g):]
        ref = None
        if prev_groups:
            ref = min(
                prev_groups,
                key=lambda t: abs(t[0] - lam)
                if t[1].shape[1] == len(g)
                else float("inf"),
            )
            ref = ref[1] if ref[1].shape[1] == len(g) else None
        if ref is not None:
            U, _, _ = np.linalg.svd(Q.conj().T @ ref)
            Q = Q @ U
        for c in range(Q.shape[1]):
            pairs.append((lam, Q[:, c]))
        new_groups.append((lam, Q))
    return pairs, new_groups


def gevec_convergence(fam, ray=None):
    """Cluster the eigenvector lines by their projective limits; per
    cluster, Gram-Schmidt in descending eigenvalue-modulus order and
    measure the span's Grassmannian distance to the matching exact
    Jordan-block subspace of A(0)."""
    ray = list(ray) if ray is not None else default_ray()
    per_point = []
    prev_groups = None
    for x in ray:
        pairs, prev_groups = _canonical_eigenbasis(fam(x), prev_groups)
        per_point.append(pairs)

    count = len(per_point[0])
    if any(len(p) != count for p in per_point):
        raise ClusteringAmbiguous("variable eigenvector count along the ray")

    # match lines across ray points by nearest line distance
    tracks = [[vec] for _, vec in per_point[0]]
    lams = [[lam] for lam, _ in per_point[0]]
    for pairs in per_point[1:]:
        matches = match_nearest(
            [track[-1] for track in tracks],
            [vec for _, vec in pairs],
            dist=_line_distance,
        )
        for t, (best, _, _) in enumerate(matches):
            tracks[t].append(pairs[best][1])
            lams[t].append(pairs[best][0])

    # cluster by line limits at the smallest ray point.  The line
    # distance is a metric, so two lines within 1e-4 of a third are
    # within 2e-4 of each other: below 1e-4 or in the band that raises.
    # Past the checks every cluster is a clique, and labelling each line
    # with its last earlier neighbour names the cluster's first member.
    final = [track[-1] for track in tracks]
    label = list(range(count))
    for i in range(count):
        for j in range(i + 1, count):
            d = _line_distance(final[i], final[j])
            if d < 1e-4:
                label[j] = label[i]
            elif d < 1e-3:
                raise ClusteringAmbiguous(
                    f"line distance {d:.3e} in the ambiguity band"
                )

    clusters = {}
    for i in range(count):
        clusters.setdefault(label[i], []).append(i)

    # exact Jordan blocks of A(0)
    A0r = fam.constant_term_rational()
    if A0r is None:
        raise ValueError("exact block data needs a real rational constant term")
    blocks = []
    for p, _ in factor_rational_poly(charpoly(A0r)):
        if p.degree() > 1:
            raise ValueError("exact block data needs rational eigenvalues at 0")
        for _, chain in exact_jordan_blocks(A0r, -p.coeff((0,))):
            # the chain starts with the eigenvector
            span = to_numpy(chain).T
            blocks.append(
                (Subspace.from_vectors(span[:, 0]), Subspace.from_vectors(span))
            )

    out = []
    used_blocks = set()
    for members in clusters.values():
        # limit line of the cluster
        limit_line = Subspace.from_vectors(final[members[0]])
        usable = [
            b
            for b in range(len(blocks))
            if b not in used_blocks and blocks[b][1].dimension == len(members)
        ]
        if not usable:
            raise ClusteringAmbiguous("no Jordan block matches a cluster size")
        b = min(usable, key=lambda b: subspace_distance(limit_line, blocks[b][0]))
        used_blocks.add(b)
        block_span = blocks[b][1]

        span_distances = []
        line_distances = []
        for k in range(len(ray)):
            ordered = sorted(
                members, key=lambda i: -abs(lams[i][k])
            )
            vecs = np.column_stack([tracks[i][k] for i in ordered])
            q, _ = np.linalg.qr(vecs)
            span = Subspace(q[:, : len(members)], len(members))
            span_distances.append(subspace_distance(span, block_span))
            line_distances.append(
                max(
                    _line_distance(tracks[i][k], final[i]) for i in members
                )
            )
        decreasing = all(
            span_distances[k + 1] <= span_distances[k] + 1e-9
            for k in range(len(ray) - 1)
        )
        out.append(
            GevecCluster(
                size=len(members),
                block_size=block_span.dimension,
                eigenvalues=[lams[i][-1] for i in members],
                span_distances=span_distances,
                line_distances=line_distances,
                decreasing=decreasing,
            )
        )
    return GevecReport(out)


def _line_distance(u, v):
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    overlap = abs(np.vdot(u, v))
    return float(np.sqrt(max(0.0, 1.0 - min(1.0, overlap) ** 2)))
