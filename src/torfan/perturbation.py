"""Holomorphic matrix families and their spectral perturbation theory:
total projections of eigenvalue clusters and pole exponents, read as
V_c (V^-1)_c from the eigen-decomposition A = V diag(w) V^-1, with a
fixed-node trapezoid contour only where V is numerically singular or
too ill-conditioned; eigenvalue tracking along a ray; the gap
||V - U (U^H V)||_2 between subspaces; and four continuity checks at an
eigenvalue of A(0) (total-projection limits, Kato's reduction process,
semisimple eigenline limits and eigenline-cluster limits), which read a
real A(0) exactly, by the primary components of its charpoly's factors:
the first three through one reader, _reduction, with the roots of each
factor from the per-factor root reader of exact_roots."""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    ClusterAmbiguous,
    ContourHitsSpectrum,
    DerivativesCollide,
    DimensionMismatch,
    IdempotencyFailed,
    NotSemisimple,
)
from .exact_algebra import (
    charpoly,
    factor_rational_poly,
    inverse,
    mat_mul,
    match_nearest,
    nullspace,
    spectral_order,
    to_numpy,
    transpose,
)
from .exact_algebra.linalg import (
    _clear,
    _factor_roots,
    _int_poly_at,
    _kernel_chain,
    _poly_from_coeffs,
)

__all__ = [
    "MatrixFamily",
    "EigenPath",
    "Projector",
    "Subspace",
    "default_ray",
    "eigenprojection",
    "track_eigenvalues",
    "total_projection_limit_check",
    "pole_exponent",
    "derivative_spectrum",
    "subspace_distance",
    "semisimple_convergence_check",
    "gevec_convergence",
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
        # at least two levels, so coeffs[1] is A_1 even for a constant family
        top = max([len(cell) for row in self.entries for cell in row] + [2])
        coeffs = np.zeros((top, self.size, self.size), dtype=complex)
        for i, row in enumerate(self.entries):
            for j, cell in enumerate(row):
                coeffs[: len(cell), i, j] = cell
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def make(entries):
        n = len(entries)
        if not n:
            raise ValueError("matrix family needs at least one row")
        rows = []
        for row in entries:
            if len(row) != n:
                raise ValueError("matrix family must be square")
            cells = []
            for cell in row:
                if isinstance(cell, (int, float, complex, Fraction)):
                    cell = (cell,)
                cells.append(tuple(complex(c) for c in cell))
            # for |x| <= 1 the row sums of coefficient moduli bound
            # ||A(x)||_inf, and so every entry and eigenvalue modulus; twice
            # that must stay finite, so the distance of two eigenvalues does
            # hypot, not abs: complex.__abs__ raises OverflowError where the
            # modulus of finite parts overflows, hypot returns inf
            if math.isinf(2 * sum(math.hypot(c.real, c.imag) for cell in cells for c in cell)):
                raise ValueError("a row's coefficient moduli sum beyond half the float range")
            rows.append(tuple(cells))
        return MatrixFamily(n, tuple(rows))

    def __call__(self, x):
        A = np.zeros((self.size, self.size), dtype=complex)
        for c in self.coeffs[::-1]:
            A = A * x + c
        return A

    def rational_coefficient(self, d):
        """The x^d coefficient (d <= 1) as an exact rational matrix, or
        None when any entry has an imaginary part."""
        C = self.coeffs[d]
        if C.imag.any():
            return None
        return [[Fraction(c) for c in row] for row in C.real.tolist()]


@dataclass
class EigenPath:
    samples: list  # (x, eigenvalue)
    matched: bool = True


@dataclass
class Projector:
    matrix: np.ndarray
    idempotency_defect: float


@dataclass(frozen=True)
class Subspace:
    orthonormal_basis: np.ndarray  # columns
    dimension: int

    @staticmethod
    def from_vectors(vectors):
        """Orthonormalize the columns of a matrix, an array or an exact
        list of rows; a 1-D array is one vector."""
        M = np.asarray(vectors, dtype=complex)
        q, r = np.linalg.qr(M.reshape(-1, 1) if M.ndim == 1 else M)
        keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, float(np.abs(r).max()))
        q = q[:, : len(keep)][:, keep]
        return Subspace(q, q.shape[1])


def _gap(U, V):
    """||V - U (U^H V)||_2 for an orthonormal basis U: the part of V off
    span(U).  For an orthonormal basis V of equal dimension it is the
    gap ||P_U - P_V||_2 between their spans (Kato, IV §2.1), the sine of
    the largest principal angle.  Stacks of bases (3-D arrays, broadcast
    as by matmul) give an array of gaps."""
    gap = np.linalg.norm(V - U @ (U.conj().swapaxes(-1, -2) @ V), 2, axis=(-2, -1))
    return gap if gap.ndim else float(gap)


def subspace_distance(U, V):
    """The gap between two subspaces of equal dimension, from their
    orthonormal bases: the sine of the largest principal angle, 0 for
    two 0-dimensional subspaces."""
    if U.dimension != V.dimension:
        raise DimensionMismatch(f"{U.dimension} vs {V.dimension}")
    if not U.dimension:
        return 0.0
    return _gap(U.orthonormal_basis, V.orthonormal_basis)


# -- contour projections ----------------------------------------------


def eigenprojection(A, lam, radius):
    """(1/2 pi i) times the contour integral of the resolvent around the
    circle of `radius` about lam, by the trapezoid rule on the fixed nodes
    lam + radius e^(2 pi i k / CONTOUR_NODES), whose error on a circle
    falls geometrically in the node count.  Every node must lie 1e-12 or
    more from the eigenvalues of A, checked before any resolvent; these
    are inverted _STACK nodes at a time, so at most _STACK n x n inverses
    are held.  The result must be idempotent to 1e-8 in the 2-norm."""
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    spectrum = np.linalg.eigvals(A)
    w = radius * np.exp(2j * np.pi * np.arange(CONTOUR_NODES) / CONTOUR_NODES)
    z = lam + w
    gaps = np.abs(z[:, None] - spectrum[None, :])
    k, j = np.unravel_index(np.argmin(gaps), gaps.shape)
    if gaps[k, j] < 1e-12:
        raise ContourHitsSpectrum(
            f"node {z[k]} is {gaps[k, j]:.3e} from eigenvalue "
            f"{spectrum[j]} (threshold 1e-12)"
        )
    stack = np.empty((_STACK, n, n), dtype=complex)
    diag = np.arange(n)
    P = np.zeros(n * n, dtype=complex)
    for start in range(0, CONTOUR_NODES, _STACK):
        stack[:] = -A
        stack[:, diag, diag] += z[start:start + _STACK, None]
        P += w[start:start + _STACK] @ np.linalg.inv(stack).reshape(_STACK, -1)
    P = P.reshape(n, n) / CONTOUR_NODES
    defect = float(np.linalg.norm(P @ P - P, 2))
    bound = 1e-8 * max(1.0, float(np.linalg.norm(P, 2)))
    if defect > bound:
        raise IdempotencyFailed(
            f"defect {defect:.3e} exceeds {bound:.3e} after {CONTOUR_NODES} nodes"
        )
    return Projector(P, defect)


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


# -- generalized eigenspaces of A(0) ---------------------------------


def _primary(A0r, p):
    """_kernel_chain of an integer multiple of p(A0r) (_int_poly_at): for a
    factor p^k of A0r's charpoly over Q, its last kernel spans the primary
    component ker p(A0r)^k, and there are two kernels when p is semisimple."""
    return _kernel_chain(_int_poly_at(*_clear(A0r), p))


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
    # two roots: the product overflows once outer passes about 4e155
    return float(np.sqrt(max(inner, 1e-3 * outer)) * np.sqrt(outer))


def _eigen_decomposition(A):
    """(w, V, V^-1) with A = V diag(w) V^-1, from one eig and one inv;
    V^-1 is None when V is numerically singular (matrix_rank < n), where
    the eigenvectors do not span."""
    w, V = np.linalg.eig(A)
    return w, V, None if np.linalg.matrix_rank(V) < len(w) else np.linalg.inv(V)


def _total_projection(A, decomposition, lam, m):
    """Total projection of A onto the m eigenvalues nearest to lam: the
    sum V_c (V^-1)_c of the projectors v y^H / (y^H v) of the cluster c
    (Kato, I §5), read from A's eigen-decomposition (w, V, V^-1) of
    _eigen_decomposition.  The rules of the contour hold: ClusterAmbiguous
    from _cluster_radius, and ContourHitsSpectrum when the circle of that
    radius comes within 1e-12 of an eigenvalue.  P^2 - P = V_c ((V^-1)_c
    V_c - I) (V^-1)_c, and the closed form's error is of the size of the
    m x m residual ||(V^-1)_c V_c - I||, about eps cond(V); it stands
    only while that residual stays within 1e-12, near the contour's own
    accuracy.  When V is numerically singular, or so ill-conditioned that
    the residual exceeds that bound (a near-Jordan cluster), the contour
    projects the cluster."""
    w, V, Vinv = decomposition
    radius = _cluster_radius(w, lam, m)
    dists = np.abs(w - lam)
    j = int(np.argmin(np.abs(dists - radius)))
    if abs(dists[j] - radius) < 1e-12:
        raise ContourHitsSpectrum(
            f"circle of radius {radius:.3e} about {lam} is "
            f"{abs(dists[j] - radius):.3e} from eigenvalue {w[j]} (threshold 1e-12)"
        )
    if Vinv is not None:
        c = np.argsort(dists)[:m]
        Vc, Wc = V[:, c], Vinv[c]
        if np.linalg.norm(Wc @ Vc - np.eye(m)) <= 1e-12:
            return Vc @ Wc
    return eigenprojection(A, lam, radius).matrix


def _loglog_slope(xs, ys):
    """Least-squares slope of log y against log x over the last six
    points: k for y ~ x^k; a 2-D ys gives a list, a slope per row, in one fit."""
    return np.polyfit(np.log(xs[-6:]), np.log(np.asarray(ys)[..., -6:]).T, 1)[0].tolist()


def _ray_tail(ray, read):
    """(xs, values): read(x) at the points of the ray (default_ray() when
    None) after its last point where read raises ClusterAmbiguous, walked
    from the end; fewer than six points left raise ClusterAmbiguous."""
    kept, reason = [], "the ray ends"
    for x in reversed(default_ray() if ray is None else list(ray)):
        try:
            kept.append((x, read(x)))
        except ClusterAmbiguous as exc:
            reason = f"at x = {x}: {exc}"
            break
    if len(kept) < 6:
        raise ClusterAmbiguous(f"{len(kept)} isolated ray points, fewer than six ({reason})")
    return [list(t) for t in zip(*reversed(kept))]


def _eigenlines(A, lam=None, m=None):
    """(w, V) of np.linalg.eig(A), unit columns, given lam only the m nearest
    (_cluster_radius); ClusterAmbiguous where V's smallest singular value < 1e-8."""
    w, V = np.linalg.eig(A)
    if lam is not None:
        _cluster_radius(w, lam, m)
        c = np.argsort(np.abs(w - lam))[:m]
        w, V = w[c], V[:, c]
    V = V / np.linalg.norm(V, axis=0)
    if np.linalg.svd(V, compute_uv=False)[-1] < 1e-8:
        raise ClusterAmbiguous("eigenvectors are dependent: two branches met")
    return w, V


def _ray_residual(ray, error, scale, exact):
    """(xs, errors, slope, ok) of a continuity check on _ray_tail(ray,
    error).  slope (_loglog_slope) is None once the last error is within
    1e-12 * max(1, scale), the closed form's accuracy.  ok is Kato's
    theorem when its hypothesis was decided exactly, else the slope's:
    O(x) gives >= 1, no convergence <= 0."""
    xs, errors = _ray_tail(ray, error)
    slope = None if errors[-1] <= 1e-12 * max(1.0, scale) else _loglog_slope(xs, errors)
    return xs, errors, slope, exact or slope is None or slope >= 0.5


@dataclass
class TotalProjectionReport:
    ray: list  # the kept tail of the sample ray
    errors: list  # ||P(x) - K L||_2 per kept ray point
    slope: object  # log-log slope of the errors, None at the floor
    ok: bool
    limit: np.ndarray


def _reduction(fam, lam):
    """(K, L, semisimple): the columns of K span the generalized eigenspace
    of A(0) at lam, the rows L are dual to them (L K = I, and K L is the
    total projection), and semisimple says whether A(0) is diagonalizable
    there.  Exact where the chain of X - lam (_primary) at a finite real lam
    of a real A(0) finds a kernel: K spans ker N^p, L is _dual_basis(K, N^p)
    and semisimple means p = 1, N = A(0) - lam.  Else K is an orthonormal
    basis of the range of the total projection P of the m eigenvalues
    nearest lam and L = K^H P: m and semisimple are the factor's of A(0)'s
    charpoly over Q with a root (_factor_roots) within a relative 1e-8 of
    lam; for a complex A(0), m counts eig(A(0)) there and semisimple means
    rank(A(0) - lam) = n - m at 1e-8.  ValueError when m = 0: lam is not an
    eigenvalue."""
    A0r = fam.rational_coefficient(0)
    z = complex(lam)
    if A0r is not None and not z.imag and np.isfinite(z):
        X_lam = _poly_from_coeffs([-(lam if isinstance(lam, Fraction) else Fraction(z.real)), 1])
        kernels, P, _ = _primary(A0r, X_lam)
        if len(kernels) > 1:
            K = transpose(kernels[-1])
            return K, _dual_basis(K, P), len(kernels) == 2
    A0 = fam(0.0)
    eig0 = _eigen_decomposition(A0)
    w = eig0[0]
    if A0r is None:
        m = int(np.sum(np.abs(w - lam) < 1e-8 * max(1.0, float(np.abs(w).max()))))
    else:
        factors = factor_rational_poly(charpoly(A0r))
        roots = [(r, p, k) for p, k in factors for r in _factor_roots(p)]
        tol = 1e-8 * max([1.0] + [abs(r) for r, _, _ in roots])
        p, m = next(((p, k) for r, p, k in roots if abs(r - lam) < tol), (None, 0))
    if not m:
        raise ValueError(f"{lam} is not an eigenvalue of the family at 0")
    semisimple = (len(_primary(A0r, p)[0]) == 2 if A0r is not None else
                  np.linalg.matrix_rank(A0 - lam * np.eye(len(w)), tol=1e-8) == len(w) - m)
    P = _total_projection(A0, eig0, lam, m)
    K = np.linalg.svd(P)[0][:, :m]
    return K, K.conj().T @ P, semisimple


def _dual_basis(K, P):
    """The rows L dual to the exact columns K of ker P, P = N^p the last
    power of a kernel chain (_kernel_chain): L = (Y K)^-1 Y, the rows of Y
    spanning the left kernel of P, which annihilates the range of N^p, the
    invariant complement; so L K = I and K L is the projection along that
    complement.  Only Y K, s x s, is inverted."""
    Y = nullspace(transpose(P))
    return mat_mul(inverse(mat_mul(Y, K)), Y)


def total_projection_limit_check(fam, lam, ray=None):
    """The total projection P(x) of the lam-group is holomorphic while
    the group stays isolated (Kato, II §1.4): it tends to K L, exact
    where _reduction is.  The residual ||P(x) - K L||_2 (_ray_residual)
    decides the verdict only where K L is numeric.  Each P(x) is read from
    the eigen-decomposition (_total_projection)."""
    K, L, _ = _reduction(fam, lam)
    exact, m = isinstance(L, list), len(L)
    limit = to_numpy(mat_mul(K, L)) if exact else K @ L

    def error(x):
        A = fam(x)
        P = _total_projection(A, _eigen_decomposition(A), lam, m)
        return float(np.linalg.norm(P - limit, 2))

    scale = float(np.linalg.norm(limit, 2))
    return TotalProjectionReport(*_ray_residual(ray, error, scale, exact), limit)


def pole_exponent(fam, path):
    """_loglog_slope of ||P(x)||_2 over the last six samples of a
    tracked branch (an EigenPath), P the total projection
    (_total_projection) of the eigenvalues within 1e-12 of it: -k for a
    pole of order k.  None when the cluster cannot be resolved: its gap
    has closed (ClusterAmbiguous), or the contour about it meets the
    spectrum (ContourHitsSpectrum) or is not idempotent (IdempotencyFailed)."""
    xs, norms = [], []
    for x, lam in path.samples[-6:]:
        A = fam(x)
        eig = _eigen_decomposition(A)
        m = int(np.sum(np.abs(eig[0] - lam) <= 1e-12))
        try:
            P = _total_projection(A, eig, lam, m)
        except (ClusterAmbiguous, ContourHitsSpectrum, IdempotencyFailed):
            return None
        xs.append(x)
        norms.append(np.linalg.norm(P, 2))
    return _loglog_slope(xs, norms)


# -- derivative spectrum ----------------------------------------------


def _reduced_derivatives(fam, lam):
    """(K, L, values, distinct): K and L from _reduction(fam, lam), the
    eigenvalues of L A_1 K in spectral_order and whether they are pairwise
    distinct; NotSemisimple when lam carries a nontrivial Jordan block.
    With K, L and A_1 exact the values are the roots (_factor_roots) of the
    irreducible factors of its charpoly and distinct means squarefree; else
    numeric, at a relative 1e-6."""
    K, L, semisimple = _reduction(fam, lam)
    if not semisimple:
        raise NotSemisimple(f"{lam} carries a nontrivial Jordan block")
    A1 = fam.rational_coefficient(1)
    if isinstance(L, list) and A1 is not None:
        factors = factor_rational_poly(charpoly(mat_mul(mat_mul(L, A1), K)))
        values = [r for p, mult in factors for r in _factor_roots(p) * mult]
        return K, L, spectral_order(values), all(mult == 1 for _, mult in factors)
    B = np.asarray(L, dtype=complex) @ fam.coeffs[1] @ np.asarray(K, dtype=complex)
    values = spectral_order(np.linalg.eigvals(B))
    scale = max([abs(v) for v in values] + [1.0])
    gaps = [abs(a - b) for i, a in enumerate(values) for b in values[i + 1:]]
    return K, L, values, all(g >= 1e-6 * scale for g in gaps)


def derivative_spectrum(fam, lam, ray=None):
    """First derivatives of the eigenvalue branches through a semisimple
    eigenvalue lam of A(0) by Kato's reduction process (Perturbation
    Theory for Linear Operators, II 2.3): the eigenvalues of the m x m
    matrix L A_1 K (_reduced_derivatives), with A_1 the x^1 coefficient.
    Exact when K, L and A_1 are: at a rational eigenvalue of a real A(0),
    with A_1 real.  `ray` is no longer read."""
    return _reduced_derivatives(fam, lam)[2]


# -- semisimple eigenline convergence ---------------------------------


@dataclass
class SemisimpleReport:
    derivatives: list
    ray: list  # the kept tail of the sample ray
    errors: list  # largest gap from a branch's eigenline to span(K)
    slope: object  # log-log slope of the errors, None at the floor
    ok: bool


def semisimple_convergence_check(fam, lam, ray=None):
    """Through a semisimple lam whose reduced matrix L A_1 K has distinct
    eigenvalues the branches are holomorphic (Kato, II §2.3): where K and
    L are exact the check holds once _reduced_derivatives finds the reduced
    charpoly squarefree (else DerivativesCollide).  The residual is the
    largest gap from an eigenline of lam's cluster to span(K); a ray point
    fails where _eigenlines(A(x), lam, m) raises, the other lines unread."""
    K, L, ders, distinct = _reduced_derivatives(fam, lam)
    if not distinct:
        raise DerivativesCollide(f"first-order derivatives {ders} repeat")
    m = len(ders)
    Q = Subspace.from_vectors(K).orthonormal_basis

    def error(x):
        lines = _eigenlines(fam(x), lam, m)[1]
        return float(np.linalg.norm(lines - Q @ (Q.conj().T @ lines), axis=0).max())

    return SemisimpleReport(ders, *_ray_residual(ray, error, 1.0, isinstance(L, list)))


# -- generalized eigenvector convergence ------------------------------


@dataclass
class GevecCluster:
    size: int
    residuals: list  # per ray point, of the span against A(0) (gevec_convergence)
    decreasing: bool

    @property
    def final_distance(self):
        return self.residuals[-1]

    @property
    def block_size(self):  # equals size by construction; `kato` still reports it
        return self.size


@dataclass
class GevecReport:
    clusters: list

    @property
    def ok(self):
        return all(c.decreasing and c.final_distance <= 1e-3 for c in self.clusters)


def _canonical_eigenbasis(w, v, prev):
    """The lines of one ray point as columns, from _eigenlines' (w, v): a
    group of eigenvalues equal to a relative 1e-10 takes an orthonormal
    basis Q of its eigenspace, in which eig's vectors are arbitrary.
    Column j continues prev's, the previous point's: each line of prev in
    turn goes to the nearest group with room (ties to the lowest index),
    and a group of two or more turns Q onto the lines P it was given by
    orthogonal Procrustes (Schönemann 1966): Q U V^H, U S V^H = Q^H P."""
    scale = max(1.0, float(np.abs(w).max()))
    groups = []
    for i in sorted(range(len(w)), key=lambda i: (-abs(w[i]), np.angle(w[i]))):
        if groups and abs(w[i] - w[groups[-1][0]]) <= 1e-10 * scale:
            groups[-1].append(i)
        else:
            groups.append([i])
    bases = [v[:, g] if len(g) == 1 else np.linalg.qr(v[:, g])[0] for g in groups]
    if prev is None:
        return np.hstack(bases)
    # gaps[k][j]: the part of previous line j off the span of group k
    gaps = [np.linalg.norm(prev - Q @ (Q.conj().T @ prev), axis=0) for Q in bases]
    given = [[] for _ in bases]
    for j in range(len(w)):
        k = min((gaps[g][j], g) for g, Q in enumerate(bases) if len(given[g]) < Q.shape[1])[1]
        given[k].append(j)
    lines = np.empty(v.shape, np.result_type(v, prev))
    for Q, js in zip(bases, given):
        if len(js) > 1:
            U, _, Vh = np.linalg.svd(Q.conj().T @ prev[:, js])
            Q = Q @ U @ Vh
        lines[:, js] = Q
    return lines


def gevec_convergence(fam, ray=None):
    """Cluster the eigenvector lines by their limits and, per cluster and
    ray point, take the residual of its span against A(0).  The lines are
    read on _ray_tail by _eigenlines, aligned by _canonical_eigenbasis.
    The lines of a Puiseux cycle of k <= n branches close their gaps like
    x^(1/k), lines with distinct limits at slope 0: two lines share a
    limit when the _loglog_slope of their gap exceeds 1/(2n), and the
    clusters are the connected classes.  A cycle's span at an eigenvalue
    lam tends to a k-dimensional N-invariant subspace of ker N^p,
    N = A(0) - lam, which A_1 picks (Lidskii; Moro, Burke and Overton
    1997), inside the primary component K = ker p(A(0))^k of lam's factor
    p^k in A(0)'s charpoly over Q (_primary; they add up to n).  The
    residual is the larger of the gap from an orthonormal basis Q of the
    span to the K nearest the final line and ||N Q - Q (Q^H N Q)||_2, with
    N = A(0) - (mean of p's roots) scaled to norm <= 1 so as not to magnify
    the round-off of near-parallel lines.  ValueError, before any ray point, unless A(0) is real."""
    A0r = fam.rational_coefficient(0)
    if A0r is None:
        raise ValueError("exact block data needs a real rational constant term")
    xs, eigs = _ray_tail(ray, lambda x: _eigenlines(fam(x)))
    points = []
    for w, v in eigs:
        points.append(_canonical_eigenbasis(w, v, points[-1] if points else None))
    lines = np.array(points).transpose(2, 0, 1)  # (line, ray point, coordinate)

    # every pair's gaps at the slope's six points in one batch, each at
    # least 1e-8 as a kept point's lines are independent to 1e-8, so its
    # log is finite; a label names the first line of its class
    i, j = np.triu_indices(fam.size, 1)
    gaps = _gap(lines[i, -6:, :, None], lines[j, -6:, :, None])
    share = np.array(_loglog_slope(xs, gaps)) > 0.5 / fam.size
    label = list(range(fam.size))
    for a, b in zip(i[share], j[share]):
        lo, hi = sorted((label[a], label[b]))
        label = [lo if k == hi else k for k in label]

    # per irreducible factor p of A(0)'s charpoly: the scaled shift N and an
    # orthonormal basis U of its primary component
    A0 = fam(0.0)
    spaces = []
    for p, _ in factor_rational_poly(charpoly(A0r)):
        U = Subspace.from_vectors(transpose(_primary(A0r, p)[0][-1])).orthonormal_basis
        N = A0 - float(p.coeff((p.degree() - 1,)) / -p.degree()) * np.eye(fam.size)
        spaces.append((N / max(1.0, float(np.linalg.norm(N, 2))), U))

    out = []
    for root in sorted(set(label)):
        members = [i for i in range(fam.size) if label[i] == root]
        N, U = min(spaces, key=lambda s: _gap(s[1], lines[members[0], -1, :, None]))
        # one orthonormal basis Q of the cluster's span per ray point
        Q = np.linalg.qr(lines[members].transpose(1, 2, 0))[0]
        # Q in the component U, and span(Q) invariant: N Q has no part off Q
        residuals = np.maximum(_gap(U, Q), _gap(Q, N @ Q)).tolist()
        decreasing = all(b <= a + 1e-9 for a, b in zip(residuals, residuals[1:]))
        out.append(GevecCluster(size=len(members), residuals=residuals, decreasing=decreasing))
    return GevecReport(out)
