"""Superpotentials from moment polytopes: Jacobian rings by
saturation, critical points via multiplication-matrix eigenvectors with
Newton polish, the mirror comparison (an explicit exact isomorphism
psi: x_i -> z^{e_i} from the quantum side onto the Jacobian ring),
barycentre landing (exact: a critical point exists iff Jac(W) != 0),
the positive critical point of convex fans, and generic separation of
critical values under perturbation."""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import exp, gcd

from ._feas import recession_ray
from .errors import (
    DegreeCapExceeded,
    HalfSpaceFan,
    MirrorMismatch,
    NewtonDiverged,
    SeparationFailed,
    ValidationError,
)
from .exact_algebra import (
    Ring,
    groebner_basis,
    quotient_algebra,
    rank,
    to_numpy,
)
from .exact_algebra.linalg import _clear_rows
from .polytope import barycentre

__all__ = [
    "Superpotential",
    "CriticalPoint",
    "JacAlgebra",
    "MirrorReport",
    "SeparationReport",
    "build_superpotential",
    "jacobian_ring",
    "critical_points",
    "is_morse",
    "mirror_check",
    "barycentre_landing_check",
    "galkin_point",
    "perturb_and_separate",
]

# Generators of a Jacobian ideal of higher total degree are refused.  In
# rank 2 the edge (-1, -k), and the shear of P^1 x P^1 by k, give degree
# 2k - 1.  Measured on a 2-core x86-64 host with Python 3.11: at the cap
# `critical` and `separate` on (-1, -500) take about 2.5 s; at degree
# 1599 jacobian_ring alone takes 3 s and `critical` 7 s, and `separate`
# on the shear by 10^5 did not finish in 100 s.
JACOBIAN_DEGREE_CAP = 1000


@dataclass(frozen=True)
class Superpotential:
    """One Laurent term per fan edge: t^{t_exponent} z^{edge}.

    ``jacobian_ring`` and ``critical_points`` take W at t = 1, where
    every coefficient is 1, unless the caller passes its own
    coefficients.  The t-exponents are kept as data; nothing reads them."""

    rank: int
    terms: tuple  # (edge tuple, t_exponent Fraction)

    def edges(self):
        return [e for e, _ in self.terms]


def _coefficients(W, coefficients):
    """The caller's coefficients as Fractions, else W's at t = 1."""
    if coefficients is None:
        return [Fraction(1)] * len(W.terms)
    return [Fraction(c) for c in coefficients]


@dataclass(frozen=True)
class CriticalPoint:
    coordinates: tuple  # nonzero complex numbers
    value: complex
    hessian_rank: int
    nondegenerate: bool


@dataclass
class JacAlgebra:
    """Quotient model of the Laurent Jacobian ideal in z_i and u = (z_1...z_n)^-1."""

    algebra: object

    @property
    def dimension(self):
        return self.algebra.dimension


def build_superpotential(P):
    """One term per polytope edge, with t-exponent the negated support
    number."""
    return Superpotential(
        P.rank, tuple((tuple(e), -Fraction(l)) for e, l in zip(P.edges, P.lambdas))
    )


def _laurent_ring(n):
    return Ring(tuple(f"z{i + 1}" for i in range(n)) + ("u",))


def _laurent_polynomial(ring, edges, coeffs):
    """The Laurent polynomial sum c_i z^{e_i} as a polynomial in z and
    the saturation variable u: z^e is written u^s z^{e+s} with
    s = max(0, -min e), the same class because u z_1...z_n = 1."""
    f = ring.zero()
    for e, c in zip(edges, coeffs):
        s = max(0, -min(e))
        f = f + ring.monomial(tuple(x + s for x in e) + (s,), c)
    return f


def jacobian_ring(W, coefficients=None):
    """Quotient by the logarithmic-derivative ideal z_j dW/dz_j,
    saturated by u with u z_1...z_n = 1.  W's coefficients are 1 (t = 1)
    unless given; u clears the negative exponents of the generators.
    DegreeCapExceeded, before any Buchberger step, when a generator's
    total degree exceeds JACOBIAN_DEGREE_CAP."""
    edges = W.edges()
    coeffs = _coefficients(W, coefficients)
    ring = _laurent_ring(W.rank)
    gens = [
        _laurent_polynomial(ring, edges, [c * e[j] for e, c in zip(edges, coeffs)])
        for j in range(W.rank)
    ]
    gens = [g for g in gens if g]
    gens.append(ring.monomial((1,) * (W.rank + 1)) - 1)
    degree = max(g.degree() for g in gens)
    if degree > JACOBIAN_DEGREE_CAP:
        raise DegreeCapExceeded(
            f"a Jacobian generator has total degree {degree}, above the cap {JACOBIAN_DEGREE_CAP}"
        )
    return JacAlgebra(quotient_algebra(groebner_basis(gens)))


# -- numeric Laurent evaluation ---------------------------------------
#
# These functions and galkin_point import numpy when called, so that
# the exact layers load it only on the way to a float matrix.


def _terms(E, c, z):
    """Term values c_i z^{e_i}, one per row of the exponent matrix E."""
    import numpy as np

    return c * np.prod(np.asarray(z, dtype=complex) ** E, axis=1)


def _log_gradient(E, c, z):
    """Vector of z_j dW/dz_j at z."""
    return E.T @ _terms(E, c, z)


def _hessian(E, c, z):
    """d2W/dz_j dz_k at z."""
    import numpy as np

    t = _terms(E, c, z)
    return ((E.T * t) @ E - np.diag(E.T @ t)) / np.outer(z, z)


def _newton_polish(E, c, z0):
    """Newton iteration on the logarithmic gradient from z0, at most 100
    steps, until ||dW/dz|| <= 1e-12."""
    import numpy as np

    z = np.array(z0, dtype=complex)
    for _ in range(100):
        t = _terms(E, c, z)
        g = E.T @ t
        if np.linalg.norm(g / z) <= 1e-12:  # g / z is dW/dz_j
            return z
        # Jacobian of the logarithmic gradient, then chain rule
        J = (E.T * t) @ E / z
        try:
            step = np.linalg.solve(J, g)
        except np.linalg.LinAlgError:
            raise NewtonDiverged("singular Newton system")
        z = z - step
        if not np.all(np.isfinite(z)) or np.any(np.abs(z) < 1e-14):
            raise NewtonDiverged("iterate left the torus")
    if np.linalg.norm(_log_gradient(E, c, z) / z) > 1e-12:
        raise NewtonDiverged("no convergence within the iteration budget")
    return z


def critical_points(W, seed=0, coefficients=None, jac=None):
    """Distinct critical points on the torus, read from simultaneous
    eigenvectors of the coordinate multiplication matrices and polished
    by Newton iteration; Hessian ranks from singular values. W's
    coefficients are 1 (t = 1) unless given; ``jac`` is the Jacobian
    ring of the same W and coefficients when the caller has it."""
    import numpy as np

    E = np.array(W.edges())
    c = np.array([complex(x) for x in _coefficients(W, coefficients)])
    J = jac if jac is not None else jacobian_ring(W, coefficients)
    A = J.algebra
    if A.dimension == 0:
        return []
    n = W.rank
    names = A.ring.names[:-1]
    mats = [to_numpy(A.mult_matrices[name]) for name in names]

    rng = random.Random(seed)
    vecs = None
    for _ in range(10):
        r = [rng.randint(1, 99) for _ in range(n)]
        M = sum(ri * Mi for ri, Mi in zip(r, mats))
        w, v = np.linalg.eig(M)
        gaps = [abs(a - b) for i, a in enumerate(w) for b in w[i + 1:]]
        vecs = v
        if not gaps or min(gaps) > 1e-6 * max(1.0, max(abs(x) for x in w)):
            break
    points = []
    for idx in range(vecs.shape[1]):
        v = vecs[:, idx]
        pivot = int(np.argmax(np.abs(v)))
        try:
            z0 = [complex((Mi @ v)[pivot] / v[pivot]) for Mi in mats]
            if any(abs(z) < 1e-12 for z in z0):
                continue
            z = _newton_polish(E, c, z0)
        except NewtonDiverged:
            continue
        if any(_close(z, p.coordinates) for p in points):
            continue
        H = _hessian(E, c, z)
        sv = np.linalg.svd(H, compute_uv=False)
        rank_H = int(np.sum(sv >= 1e-8 * max(sv[0], 1e-300))) if len(sv) else 0
        points.append(
            CriticalPoint(
                tuple(complex(x) for x in z),
                complex(_terms(E, c, z).sum()),
                rank_H,
                rank_H == n,
            )
        )
    return points


def is_morse(points, jac_dimension):
    """Whether W is Morse, judged from its critical points: every point
    is nondegenerate and they number dim Jac(W), so a point that the
    eigenvector step lost shows as a short count."""
    return all(p.nondegenerate for p in points) and len(points) == jac_dimension


def _close(z, w):
    return all(abs(complex(a) - complex(b)) <= 1e-8 * max(1.0, abs(b)) for a, b in zip(z, w))


# -- mirror comparison -------------------------------------------------


@dataclass
class MirrorReport:
    derivative_match: bool
    dimension_match: bool
    eigenvalue_match: bool

    @property
    def ok(self):
        return self.derivative_match and self.dimension_match and self.eigenvalue_match


def _sparse_columns(M):
    """Each column of M as a map from row to nonzero entry."""
    return [{i: a for i, a in enumerate(col) if a} for col in zip(*M)]


def _apply(M, v):
    """M v, with M's columns and v as maps from row to nonzero entry."""
    out = {}
    for j, c in v.items():
        for i, a in M[j].items():
            out[i] = out.get(i, 0) + a * c
    return {i: a for i, a in out.items() if a}


def _psi(Q, J, Z):
    """psi's sparse columns, x^b as Z_k x^(b - e_k) for the first k with b_k > 0."""
    memo = {}

    def column(b):
        if not any(b):
            return {J.basis.index((0,) * J.ring.nvars): Fraction(1)}
        if b not in memo:
            k = next(i for i, e in enumerate(b) if e)
            memo[b] = _apply(Z[k], column(b[:k] + (b[k] - 1,) + b[k + 1 :]))
        return memo[b]

    return [column(b) for b in Q.basis]


def mirror_check(fan, P, A, J, sh_algebra=None):
    """Compare the quantum side Q (``sh_algebra`` when given, else A)
    with the Jacobian ring J at t = 1; psi's column at Q's basis monomial
    x^b holds Z^b 1_J, Z_i the matrix of z^{e_i} on J and X_i that of x_i on Q.

    (b) psi X_i = Z_i psi for every i, so every relation of Q vanishes in J;
    (c) dim Q = dim J; (d) rank psi = dim J.  Then psi is an isomorphism
    of cyclic Q[x]-modules, hence of algebras, x_i -> z^{e_i}, and
    c1 = sum x_i is conjugate to W.  (b) and (d) fail unless (c) holds
    and J is a ring of Laurent polynomials in fan.rank variables.  (a),
    each primitive relation's monomial identity, holds by construction
    and is not checked, so P is not read."""
    quantum = sh_algebra if sh_algebra is not None else A
    dim_ok = quantum.dimension == J.dimension
    deriv_ok = eig_ok = False
    ring = J.algebra.ring
    if dim_ok and len(ring.names) == fan.rank + 1:
        monomials = [_laurent_polynomial(ring, [e], [1]) for e in fan.edges]
        Z = [_sparse_columns(J.algebra.operator(m)) for m in monomials]
        X = [_sparse_columns(quantum.mult_matrices[name]) for name in quantum.ring.names]
        psi = _psi(quantum, J.algebra, Z)
        deriv_ok = all(
            _apply(psi, x) == _apply(Zi, c) for Xi, Zi in zip(X, Z) for x, c in zip(Xi, psi)
        )
        eig_ok = rank([[c.get(i, 0) for c in psi] for i in range(J.dimension)]) == J.dimension
    report = MirrorReport(deriv_ok, dim_ok, eig_ok)
    if not report.ok:
        failing = [name.replace("_", " ") for name, ok in vars(report).items() if not ok]
        raise MirrorMismatch(", ".join(failing))
    return report


def barycentre_landing_check(P, lam_X):
    """Exact exponent identity <y, e_i> - lambda_i = 1/lam_X at the
    barycentre (``barycentre`` solves it exactly or raises Inconsistent),
    plus existence of a critical point on the torus of the
    unit-coefficient superpotential, which holds iff Jac(W) != 0."""
    barycentre(P, lam_X)
    return jacobian_ring(build_superpotential(P)).dimension > 0


def galkin_point(fan):
    """Positive real critical point by damped Newton minimization of
    the edge-exponential sum, at most 200 steps, to gradient norm 1e-10;
    raises HalfSpaceFan (with a certificate direction, a primitive
    integer vector) when the fan sits in a closed half-space."""
    cert = recession_ray([[-x for x in e] for e in fan.edges], fan.rank)
    if cert is not None:
        ints = _clear_rows([cert])[0]
        raise HalfSpaceFan(tuple(x // gcd(*ints) for x in ints))
    import numpy as np

    E = np.array(fan.edges, dtype=float)
    u = np.zeros(fan.rank)
    for _ in range(200):
        vals = np.exp(E @ u)
        grad = E.T @ vals
        if np.linalg.norm(grad) <= 1e-10:
            break
        H = E.T @ (vals[:, None] * E)
        step = np.linalg.solve(H, grad)
        t = 1.0
        g0 = vals.sum()
        while t > 1e-12 and np.exp(E @ (u - t * step)).sum() > g0:
            t /= 2
        u = u - t * step
    vals = np.exp(E @ u)
    if np.linalg.norm(E.T @ vals) > 1e-10:
        raise NewtonDiverged("minimization did not reach the gradient tolerance")
    return tuple(float(x) for x in u), float(vals.sum())


@dataclass
class SeparationReport:
    morse: bool
    min_gap: float
    min_abs_value: float
    values: list
    jac_dimension: int

    @property
    def ok(self):
        return self.morse and self.min_gap >= 1e-9 and self.min_abs_value > 1e-9


def perturb_and_separate(P, seed, radius=Fraction(1, 100)):
    """Perturb the support numbers with a seeded uniform draw, build
    the real-coefficient superpotential exp(-lambda'_i) z^{e_i}
    (rationalized for the exact quotient), and report on Morseness and
    the separation of the critical values."""
    if radius < 0:
        raise ValidationError(f"perturbation radius {radius} is negative")
    try:
        radius = float(radius)
    except OverflowError:
        raise ValidationError("perturbation radius is outside the range of a float")
    rng = random.Random(seed)
    lam_pert = [float(l) + rng.uniform(-radius, radius) for l in P.lambdas]
    try:  # each e^-lambda' must be a float, nonzero at denominator 10^8
        coeffs = [Fraction(exp(-lp)).limit_denominator(10 ** 8) for lp in lam_pert]
    except (OverflowError, ValueError):
        coeffs = [0]
    if 0 in coeffs:
        raise ValidationError(f"perturbation radius {radius:g} sends a coefficient out of range")
    W = build_superpotential(P)
    J = jacobian_ring(W, coefficients=coeffs)
    pts = critical_points(W, coefficients=coeffs, jac=J, seed=seed)
    values = [p.value for p in pts]
    gaps = [
        abs(a - b) for i, a in enumerate(values) for b in values[i + 1 :]
    ]
    report = SeparationReport(
        morse=is_morse(pts, J.dimension),
        min_gap=min(gaps) if gaps else float("inf"),
        min_abs_value=min((abs(v) for v in values), default=0.0),
        values=values,
        jac_dimension=J.dimension,
    )
    if radius > 0 and not report.ok:
        raise SeparationFailed(
            f"seed {seed} left degenerate or colliding values; retry with a new seed"
        )
    return lam_pert, report
