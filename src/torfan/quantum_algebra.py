"""Batyrev-style presentations of the quantum ring, localization
models of symplectic cohomology, first-Chern/symplectic-class
operators, the Novikov change-of-variable homomorphism, and two
spectral checks decided by exact characteristic-polynomial identities:
root-of-unity families, and eigenvalue transfer from base to total
space."""

from dataclasses import dataclass
from fractions import Fraction

from .errors import Inconsistent, NotMonotone, ValidationError
from .exact_algebra import (
    Polynomial,
    Ring,
    charpoly,
    groebner_basis,
    localize,
    mat_pow,
    mat_scale,
    normal_form,
    quotient_algebra,
)
from .exact_algebra.linalg import _kernel_chain
from .lattice_fan import batyrev_decompose, primitive_collections, validate_fan
from .polytope import fano_index

__all__ = [
    "Presentation",
    "EigenFamilyReport",
    "PhiMap",
    "qh_presentation",
    "sh_presentation",
    "symplectic_cohomology",
    "c1_operator",
    "omega_class",
    "omega_operator",
    "eigen_family_check",
    "phi_check",
    "eigenvalue_transfer_check",
]


@dataclass
class Presentation:
    """Quantum presentation with the Novikov variable T kept symbolic.

    ``ring`` orders the divisor variables first and T last; relations
    at T=1 live in ``ring_t1`` (divisor variables only).
    """

    variables: tuple
    ring: Ring
    ring_t1: Ring
    linear_relations: list
    qsr_relations: list
    lam_X: int

    def relations(self):
        return list(self.linear_relations) + list(self.qsr_relations)

    def relations_t1(self):
        """All relations with T specialized to 1."""
        out = []
        for f in self.relations():
            terms = {}
            for m, c in f.terms.items():
                key = m[:-1]
                terms[key] = terms.get(key, Fraction(0)) + c
            out.append(
                Polynomial(self.ring_t1, {m: c for m, c in terms.items() if c})
            )
        return out

    def relations_classical(self):
        """All relations with T specialized to 0."""
        out = []
        for f in self.relations():
            terms = {m[:-1]: c for m, c in f.terms.items() if m[-1] == 0}
            out.append(Polynomial(self.ring_t1, terms))
        return out


@dataclass
class EigenFamilyReport:
    d0: int
    g: Polynomial
    holds: bool


@dataclass
class PhiMap:
    """T_B^{lam_B} maps to T_E^{lam_E} times the k-th power of the
    fiber class."""

    k: int
    fiber_class: Polynomial  # in the E symbolic ring


def qh_presentation(fan, P):
    """Linear relations and quantum monomial relations of a smooth fan
    with its polytope, c1 >= 0 on every primitive collection; returns the
    presentation (T symbolic) and the quotient algebra at T=1."""
    report = validate_fan(fan)
    if not report.smooth:
        raise ValidationError("presentation requires a smooth fan")
    r = len(fan.edges)
    names = tuple(f"x{i + 1}" for i in range(r))
    ring = Ring(names + ("T",))
    ring_t1 = Ring(names)
    xs = [ring.var(i) for i in range(r)]
    T = ring.var(r)

    linear = []
    for j in range(fan.rank):
        rel = ring.zero()
        for i in range(r):
            if fan.edges[i][j]:
                rel = rel + fan.edges[i][j] * xs[i]
        linear.append(rel)

    qsr = []
    for I in sorted(primitive_collections(fan), key=sorted):
        rel = batyrev_decompose(fan, I)
        if rel.curve_class.c1 < 0:
            raise ValidationError(
                f"primitive collection {sorted(i + 1 for i in I)}"
                f" has c1 = {rel.curve_class.c1} < 0"
            )
        lhs = ring.one()
        for i in sorted(I):
            lhs = lhs * xs[i]
        rhs = T ** rel.curve_class.c1
        for j, cq in zip(rel.J, rel.c):
            rhs = rhs * xs[j] ** cq
        qsr.append(lhs - rhs)

    try:
        lam_X = fano_index(P)
    except Inconsistent:
        lam_X = None
    pres = Presentation(names, ring, ring_t1, linear, qsr, lam_X)
    A = quotient_algebra(groebner_basis(pres.relations_t1()))
    return pres, A


def sh_presentation(A, classes):
    """Iterated localization of a quantum quotient at the listed
    divisor-class polynomials (variables of A's ring)."""
    out = A
    for f in classes:
        out = localize(out, f)
    return out


def symplectic_cohomology(A):
    """SH* as the quantum quotient A localized at x_1⋯x_r, the product
    of the toric divisor classes."""
    return localize(A, A.ring.monomial((1,) * A.ring.nvars))


def _class_poly(ring, coefficients):
    out = ring.zero()
    for i, c in enumerate(coefficients):
        if c:
            out = out + Fraction(c) * ring.var(i)
    return out


def c1_operator(A, P):
    """Matrix of multiplication by the sum of the divisor classes."""
    return A.operator(_class_poly(A.ring, [1] * len(P.edges)))


def omega_class(A, P):
    """The symplectic class -sum(lambda_i x_i) in A's ring."""
    return _class_poly(A.ring, [-l for l in P.lambdas])


def omega_operator(A, P):
    """Matrix of multiplication by the symplectic class
    -sum(lambda_i x_i)."""
    return A.operator(omega_class(A, P))


def _nonzero_part(p):
    """(d0, p / X^d0) for the largest power X^d0 dividing the nonzero
    univariate polynomial p: the quotient carries the nonzero roots."""
    d0 = min(m[0] for m in p.terms)
    return d0, Polynomial(p.ring, {(m[0] - d0,): c for m, c in p.terms.items()})


def eigen_family_check(char, lam_X):
    """Whether chi(x) = x^{d0} g(x^{lam_X}) exactly, and the cofactor
    g; the signature of eigenvalues coming in root-of-unity families."""
    if not char.terms:
        raise ValueError("zero polynomial has no family pattern")
    d0, rest = _nonzero_part(char)
    holds = all(m[0] % lam_X == 0 for m in rest.terms)
    if holds:
        g = Polynomial(
            char.ring, {(m[0] // lam_X,): c for m, c in rest.terms.items()}
        )
    else:
        g = char.ring.zero()
    return EigenFamilyReport(d0, g, holds)


def _map_to_total_space(f, presB, presE, phi):
    """Image of a base relation under x_i -> x_i,
    T_B^{lam_B} -> T_E^{lam_E} * fiber_class^k."""
    ringE = presE.ring
    rB = len(presB.variables)
    TE = ringE.var(len(presE.variables))
    out = ringE.zero()
    for m, c in f.terms.items():
        cT = m[rB]
        if cT % presB.lam_X:
            raise ValueError(
                "base relation has a Novikov power outside the index lattice"
            )
        q = cT // presB.lam_X
        term = ringE.constant(c)
        for i in range(rB):
            if m[i]:
                term = term * ringE.var(i) ** m[i]
        if q:
            term = term * (TE ** presE.lam_X * phi.fiber_class ** phi.k) ** q
        out = out + term
    return out


def phi_check(presB, presE, phi):
    """True when every mapped base relation lies in the total-space
    ideal (normal form zero against its symbolic Gröbner basis)."""
    GE = groebner_basis(presE.relations())
    for f in presB.relations():
        if normal_form(_map_to_total_space(f, presB, presE, phi), GE):
            return False
    return True


def eigenvalue_transfer_check(omega_B, sh_omega_E, k, lam_B, qh_omega_E=None):
    """Check exactly that nonzero base eigenvalue families map onto
    total-space families: (mu_E)^(lam_B - k) = (-k)^k mu_B^lam_B, with
    multiplicities in the ratio lam_B : lam_E.  With p_B the charpoly of
    omega_B^lam_B with its power of X divided out and p_E the charpoly
    of omega_E^lam_E / (-k)^k, that is p_B^lam_E == p_E^lam_B.  Adds
    exact dimension bookkeeping when the total-space quantum operator is
    supplied."""
    k = int(k)
    if not 1 <= k <= lam_B - 1:
        raise NotMonotone(f"need 1 <= k <= {lam_B - 1}, got {k}")
    lam_E = lam_B - k
    p_B = _nonzero_part(charpoly(mat_pow(omega_B, lam_B)))[1]
    p_E = charpoly(mat_scale(mat_pow(sh_omega_E, lam_E), Fraction(1, (-k) ** k)))
    # p_B(0) != 0, so a zero eigenvalue left behind by localization fails
    if p_B ** lam_E != p_E ** lam_B:
        return False

    if qh_omega_E is not None:
        kernel = len(_kernel_chain(qh_omega_E)[0][-1])
        if len(qh_omega_E) != len(sh_omega_E) + kernel:
            return False
    return True
