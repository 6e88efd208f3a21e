"""Superpotentials from moment polytopes: Jacobian rings by
saturation, critical points via multiplication-matrix eigenvectors with
Newton polish, mirror comparisons, root-of-unity family closure,
barycentre landing, the positive critical point of convex fans, and
generic separation of critical values under perturbation."""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import exp, gcd

import numpy as np

from ._feas import recession_ray
from .errors import (
    HalfSpaceFan,
    MirrorMismatch,
    NewtonDiverged,
    SeparationFailed,
)
from .exact_algebra import (
    Ring,
    charpoly,
    complex_eigen,
    groebner_basis,
    match_nearest,
    normal_form,
    quotient_algebra,
    to_numpy,
)
from .exact_algebra.linalg import _clear_rows
from .lattice_fan import batyrev_decompose, primitive_collections
from .polytope import barycentre
from .quantum_algebra import c1_operator

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
    "family_closure_check",
    "barycentre_landing_check",
    "galkin_point",
    "perturb_and_separate",
]


@dataclass(frozen=True)
class Superpotential:
    """One Laurent term per fan edge: t^{t_exponent} z^{edge}.

    ``jacobian_ring`` and ``critical_points`` take W at t = 1, where
    every coefficient is 1, unless the caller passes its own
    coefficients; the t-exponents serve the exact mirror comparison."""

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
    """Quotient model of the Laurent Jacobian ideal (variables z_i plus
    the saturation variable u) and the multiplication matrix of the
    superpotential itself."""

    algebra: object
    W_matrix: list

    @property
    def dimension(self):
        return self.algebra.dimension

    def eigenvalues(self):
        return complex_eigen(to_numpy(self.W_matrix))[0]


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
    saturated by u with u z_1...z_n = 1, and the matrix of W on it.
    W's coefficients are 1 (t = 1) unless given; u clears the negative
    exponents of both the generators and W."""
    edges = W.edges()
    coeffs = _coefficients(W, coefficients)
    ring = _laurent_ring(W.rank)
    gens = [
        _laurent_polynomial(ring, edges, [c * e[j] for e, c in zip(edges, coeffs)])
        for j in range(W.rank)
    ]
    gens = [g for g in gens if g]
    gens.append(ring.monomial((1,) * (W.rank + 1)) - 1)
    A = quotient_algebra(groebner_basis(gens))
    return JacAlgebra(A, A.operator(_laurent_polynomial(ring, edges, coeffs)))


# -- numeric Laurent evaluation ---------------------------------------


def _terms(E, c, z):
    """Term values c_i z^{e_i}, one per row of the exponent matrix E."""
    return c * np.prod(np.asarray(z, dtype=complex) ** E, axis=1)


def _log_gradient(E, c, z):
    """Vector of z_j dW/dz_j at z."""
    return E.T @ _terms(E, c, z)


def _hessian(E, c, z):
    """d2W/dz_j dz_k at z."""
    t = _terms(E, c, z)
    return ((E.T * t) @ E - np.diag(E.T @ t)) / np.outer(z, z)


def _newton_polish(E, c, z0):
    """Newton iteration on the logarithmic gradient from z0, at most 100
    steps, until ||dW/dz|| <= 1e-12."""
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
        order = np.argsort(-np.abs(w))
        gaps = [
            abs(w[order[i]] - w[order[j]])
            for i in range(len(w))
            for j in range(i + 1, len(w))
        ]
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
    monomial_identities: bool
    derivative_match: bool
    dimension_match: bool
    eigenvalue_match: bool
    worst_eigen_residual: float

    @property
    def ok(self):
        return (
            self.monomial_identities
            and self.derivative_match
            and self.dimension_match
            and self.eigenvalue_match
        )


def mirror_check(fan, P, A, J, sh_algebra=None):
    """Compare the quantum side with the Jacobian ring.

    (a) each quantum monomial relation maps to an exact Laurent
    monomial identity under x_i -> t^{-lambda_i} z^{e_i};
    (b) each linear relation sum_i e_ij x_i of the fan maps, under
    x_i -> z^{e_i} at t = 1, to zero in the Jacobian ring J;
    (c) dimensions agree (against the localized algebra when given);
    (d) nonzero first-Chern eigenvalues match the eigenvalues of
    multiplication by the superpotential: exactly, as the two
    characteristic polynomials with their powers of X divided out, and
    numerically, to 1e-8 of the largest modulus, which gives the worst
    residual.
    """
    lambdas = P.lambdas
    # (a): z-exponents match by the decomposition, t-exponents by the
    # curve-class area identity; verify both exactly.
    mono_ok = True
    for I in primitive_collections(fan):
        rel = batyrev_decompose(fan, I, lambdas=lambdas)
        lhs_z = [sum(fan.edges[i][j] for i in I) for j in range(fan.rank)]
        rhs_z = [
            sum(c * fan.edges[j][v] for j, c in zip(rel.J, rel.c))
            for v in range(fan.rank)
        ]
        lhs_t = -sum((lambdas[i] for i in I), Fraction(0))
        rhs_t = rel.curve_class.omega - sum(
            (c * lambdas[j] for j, c in zip(rel.J, rel.c)), Fraction(0)
        )
        if lhs_z != rhs_z or lhs_t != rhs_t:
            mono_ok = False
    # (b): the image of the j-th linear relation, cleared of negative
    # exponents by u, reduces to zero modulo J's Groebner basis; J must
    # be a ring of Laurent polynomials in fan.rank variables.
    ring = J.algebra.ring
    deriv_ok = len(ring.names) == fan.rank + 1 and all(
        not normal_form(
            _laurent_polynomial(ring, fan.edges, [e[j] for e in fan.edges]),
            J.algebra.groebner,
        )
        for j in range(fan.rank)
    )
    # (c)
    quantum = sh_algebra if sh_algebra is not None else A
    dim_ok = quantum.dimension == J.dimension
    # (d)
    c1 = c1_operator(quantum, P)
    eig_q = complex_eigen(to_numpy(c1))[0]
    eig_w = J.eigenvalues()
    scale = max([abs(v) for v in list(eig_q) + list(eig_w)] + [1.0])
    nz_q = [v for v in eig_q if abs(v) > 1e-8 * scale]
    nz_w = [v for v in eig_w if abs(v) > 1e-8 * scale]
    worst = float("inf") if len(nz_q) != len(nz_w) else 0.0
    eig_ok = len(nz_q) == len(nz_w)
    if eig_ok:
        # greedy nearest matching: sorting by magnitude is unstable when
        # distinct eigenvalues share the same modulus
        worst = max((d for _, d, _ in match_nearest(nz_q, nz_w)), default=0.0)
        eig_ok = worst <= 1e-8 * scale
    eig_ok = eig_ok and _nonzero_part(charpoly(c1)) == _nonzero_part(charpoly(J.W_matrix))
    report = MirrorReport(mono_ok, deriv_ok, dim_ok, eig_ok, worst)
    if not report.ok:
        failing = [
            name
            for name, ok in [
                ("monomial identities", mono_ok),
                ("derivative match", deriv_ok),
                ("dimension match", dim_ok),
                ("eigenvalue match", eig_ok),
            ]
            if not ok
        ]
        raise MirrorMismatch(", ".join(failing))
    return report


def _nonzero_part(p):
    """Terms of a univariate polynomial divided by its largest power of X:
    the factor that carries the nonzero roots."""
    low = min(m[0] for m in p.terms)
    return {(m[0] - low,): c for m, c in p.terms.items()}


def family_closure_check(values, lam_X):
    """True when the multiset of critical values is invariant under
    multiplication by the primitive lam_X-th root of unity, to 1e-8 of
    the largest modulus."""
    values = [complex(v) for v in values]
    zeta = np.exp(2j * np.pi / lam_X)
    scale = max([abs(v) for v in values] + [1.0])
    matches = match_nearest([zeta * v for v in values], values)
    return all(d <= 1e-8 * scale for _, d, _ in matches)


def barycentre_landing_check(P, lam_X):
    """Exact exponent identity <y, e_i> - lambda_i = 1/lam_X at the
    barycentre, plus existence of critical points of the unit-
    coefficient superpotential."""
    y = barycentre(P, lam_X)
    for e, l in zip(P.edges, P.lambdas):
        if sum(Fraction(a) * b for a, b in zip(e, y)) - l != Fraction(1, lam_X):
            return False
    pts = critical_points(build_superpotential(P))
    if not pts:
        return False
    E = np.array(P.edges)
    for p in pts:
        g = _log_gradient(E, np.ones(len(E)), p.coordinates)
        if np.linalg.norm(g) > 1e-8:
            return False
    return True


def galkin_point(fan):
    """Positive real critical point by damped Newton minimization of
    the edge-exponential sum, at most 200 steps, to gradient norm 1e-10;
    raises HalfSpaceFan (with a certificate direction, a primitive
    integer vector) when the fan sits in a closed half-space."""
    cert = recession_ray([[-x for x in e] for e in fan.edges], fan.rank)
    if cert is not None:
        ints = _clear_rows([cert])[0]
        raise HalfSpaceFan(tuple(x // gcd(*ints) for x in ints))
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
    rng = random.Random(seed)
    radius = float(radius)
    lam_pert = [float(l) + rng.uniform(-radius, radius) for l in P.lambdas]
    coeffs = [
        Fraction(exp(-lp)).limit_denominator(10 ** 8) for lp in lam_pert
    ]
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
