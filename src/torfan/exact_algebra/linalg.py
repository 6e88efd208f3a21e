"""Exact rational linear algebra, exact roots of rational polynomials,
and the numeric eigensolver.

Rational matrices are row-major lists of lists of Fraction (or int).
Exact routines never approximate, and all of them eliminate with one
engine: the fraction-free Bareiss echelon ``_bareiss`` of an integer
matrix.  rank reads its length, ``_int_det`` its last pivot, and rref
back-substitutes over it; solve, nullspace and inverse read rref and
its pivots, and localize and the other exact generalized kernels read
the chain ker N ⊂ ker N^2 ⊂ ... of ``_kernel_chain``, one rref per
power.  :mod:`torfan.perturbation` reads the primary component
ker p(A)^k off the chain of p(A) and its dual off the left kernel of
the chain's last power, a nullspace.
charpoly, minpoly and jordan_profile clear their input to integers once
and run on Python ints; jordan_profile reads its factors off minpoly,
their multiplicities off traces by Newton's identities, and ranks p(M)^j
only below p's exponent in minpoly.  Both it and the primary components
take p(M), up to a factor, from ``_int_poly_at``.
:func:`exact_roots` reads the roots of a rational polynomial off its
exact factorization, a rational root as a Fraction and the others in
Python floats, by ``_factor_roots``, which :mod:`torfan.perturbation`
also reads.  The numeric entry points are :func:`to_numpy` and
:func:`complex_eigen`, whose results are residual-checked; they alone
import numpy, when first called.  Spectra are ordered by
:func:`spectral_order` and paired across samples by :func:`match_nearest`.
"""

from cmath import rect
from fractions import Fraction
from itertools import count
from math import atan2, gcd, lcm, tau

from ..errors import Inconsistent, NonConvergence
from .factor import factor_integer_poly
from .groebner import QuotientAlgebra
from .poly import Polynomial, Ring

_ZERO = Fraction(0)
_ONE = Fraction(1)

UNIVARIATE = Ring(("X",))


# -- matrix basics -----------------------------------------------------


def zero_matrix(rows, cols):
    return [[_ZERO] * cols for _ in range(rows)]


def identity(n):
    return [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, c):
    return [[a * c for a in row] for row in A]


def mat_mul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    out = zero_matrix(rows, cols)
    for i in range(rows):
        Ai = A[i]
        Oi = out[i]
        for k in range(inner):
            a = Ai[k]
            if a:
                Bk = B[k]
                for j in range(cols):
                    if Bk[j]:
                        Oi[j] += a * Bk[j]
    return out


def mat_pow(A, k):
    n = len(A)
    out = identity(n)
    base = [row[:] for row in A]
    while k:
        if k & 1:
            out = mat_mul(out, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return out


def transpose(A):
    return [list(col) for col in zip(*A)]


def to_numpy(A, dtype=complex):
    """Numeric copy of a matrix; the empty matrix gives shape (0, 0)."""
    import numpy as np

    if not A:
        return np.zeros((0, 0), dtype=dtype)
    return np.array([[dtype(x) for x in row] for row in A], dtype=dtype)


# -- elimination -------------------------------------------------------
#
# rank and rref clear each row to integers by the lcm of its own
# denominators; charpoly, minpoly and jordan_profile clear the whole
# matrix once by _clear, giving an integer B and a common denominator d
# with M = B / d, and _clear rejects a matrix that is not square.


def _clear(M):
    """(B, d): an integer matrix B and a positive integer d with M = B / d;
    raises ValueError unless M is square."""
    if any(len(row) != len(M) for row in M):
        raise ValueError("matrix is not square")
    d = lcm(*{x.denominator for row in M for x in row})
    return [[x.numerator * (d // x.denominator) for x in row] for row in M], d


def _clear_rows(A):
    """A with each row scaled to integers by the lcm of its denominators;
    the row space is unchanged."""
    rows = []
    for row in A:
        m = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (m // x.denominator) for x in row])
    return rows


def _bareiss(A):
    """Fraction-free forward elimination of an integer matrix (Bareiss,
    1968): every division by the previous pivot is exact.

    Returns the echelon rows, each (pivot column, pivot, entries right
    of the pivot), and the sign of the order in which their rows were
    taken.  The k-th pivot is the minor on the first k pivot rows and
    columns, so for a nonsingular square matrix the sign times the last
    pivot is the determinant."""
    rows = [row for row in A if any(row)]
    echelon, sign, prev, offset = [], 1, 1, 0
    while rows:
        # leftmost nonzero column; the entries left of it are all zero
        c = 0
        while not any(row[c] for row in rows):
            c += 1
        i = next(i for i, row in enumerate(rows) if row[c])
        if i % 2:
            sign = -sign
        top = rows.pop(i)
        p, tail = top[c], top[c + 1:]
        rows = [
            [(p * x - row[c] * y) // prev for x, y in zip(row[c + 1:], tail)]
            for row in rows
        ]
        rows = [row for row in rows if any(row)]
        echelon.append((offset + c, p, tail))
        prev, offset = p, offset + c + 1
    return echelon, sign


def _int_rank(A):
    """Rank of an integer matrix."""
    return len(_bareiss(A)[0])


def _int_det(A):
    """Determinant of a square integer matrix."""
    echelon, sign = _bareiss(A)
    if len(echelon) < len(A):
        return 0
    return sign * echelon[-1][1] if echelon else 1


def rank(A):
    """Rank of a rational matrix, from the echelon of its cleared rows."""
    return _int_rank(_clear_rows(A))


def rref(A):
    """Reduced row echelon form; returns (matrix, pivot column list).

    Back substitution over the Bareiss echelon of the row-cleared
    matrix, in integers: with d the last pivot, d times each reduced
    row is integral (its entries are minors over the pivot minor)."""
    cols = len(A[0]) if A else 0
    echelon, _ = _bareiss(_clear_rows(A))
    d = echelon[-1][1] if echelon else 1
    reduced = []  # (pivot column, d times the reduced row), bottom-up
    for c, p, tail in reversed(echelon):
        row = [0] * c + [p] + tail
        v = [d * x for x in row]
        for c2, w in reduced:
            x = row[c2]
            if x:
                v = [a - x * b for a, b in zip(v, w)]
        reduced.append((c, [a // p for a in v]))
    M = [[Fraction(x, d) if x else _ZERO for x in w] for _, w in reversed(reduced)]
    M += [[_ZERO] * cols for _ in range(len(A) - len(M))]
    return M, [c for c, _, _ in echelon]


def _kernel(M, pivots, cols):
    """Right-kernel basis read from a reduced row echelon form: one
    vector per free column, 1 there and 0 at the other free columns."""
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [_ZERO] * cols
        v[fc] = _ONE
        for r, pc in enumerate(pivots):
            v[pc] = -M[r][fc]
        basis.append(v)
    return basis


def _kernel_chain(N):
    """(kernels, P, pivots) for a square matrix N: the kernel bases of
    N^0, N^1, ..., N^p as read from rref, P = N^p and the pivot columns
    of rref(N^p), where p is the least power with rank N^(p+1) = rank N^p.

    By Fitting's lemma ker N^p = ker N^n, so the last basis and the
    pivots are those of N^n, and the columns of N^p at the pivots span
    the invariant complement of that kernel."""
    n = len(N)
    kernels, P, pivots, Q = [[]], identity(n), list(range(n)), N
    while True:
        R, rpivots = rref(Q)
        if len(rpivots) == len(pivots):
            return kernels, P, pivots
        kernels.append(_kernel(R, rpivots, n))
        P, pivots, Q = Q, rpivots, mat_mul(N, Q)


def solve(A, b):
    """One exact solution of A x = b (possibly overdetermined).

    Free variables are set to zero; raises Inconsistent when no
    solution exists.
    """
    cols = len(A[0]) if A else 0
    M, pivots = rref([A[i] + [b[i]] for i in range(len(A))])
    if cols in pivots:
        raise Inconsistent("system has no solution")
    x = [_ZERO] * cols
    for r, c in enumerate(pivots):
        x[c] = M[r][cols]
    return x


def nullspace(A):
    """Basis of the right kernel as a list of column vectors."""
    return _kernel(*rref(A), len(A[0]) if A else 0)


def inverse(A):
    n = len(A)
    M, pivots = rref([row + e for row, e in zip(A, identity(n))])
    if pivots != list(range(n)):
        raise Inconsistent("matrix is singular")
    return [row[n:] for row in M]


def _int_mul(A, B):
    """Product of integer matrices, skipping the zero entries of A."""
    cols = len(B[0]) if B else 0
    out = []
    for Ai in A:
        Oi = [0] * cols
        for a, Bk in zip(Ai, B):
            if a:
                Oi = [o + a * b for o, b in zip(Oi, Bk)]
        out.append(Oi)
    return out


def _int_poly_at(B, d, p):
    """L·d^e·p(B/d) for a monic p of degree e and L clearing its coefficients,
    by Horner's rule from L·B with q_j = L·d^(e-j)·p_j on the diagonal."""
    L, e = lcm(*(c.denominator for c in p.terms.values())), p.degree()
    P = [[L * x for x in row] for row in B]
    for j in range(e - 1, -1, -1):
        if j < e - 1:
            P = _int_mul(P, B)
        q = int(L * p.coeff((j,))) * d ** (e - j)
        for i in range(len(B)):
            P[i][i] += q
    return P


def _poly_from_coeffs(coeffs):
    """Univariate polynomial from ascending coefficients."""
    return Polynomial(
        UNIVARIATE, {(i,): Fraction(c) for i, c in enumerate(coeffs) if c}
    )


def charpoly(M):
    """Monic characteristic polynomial det(X·I − M), exact
    (Faddeev–LeVerrier iteration on the cleared integer matrix)."""
    B, d = _clear(M)
    n = len(B)
    coeffs = [0] * n + [1]
    N = [row[:] for row in B]
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                N[i][i] += c
            N = _int_mul(B, N)
        # exact: B has an integer characteristic polynomial
        c = -sum(N[i][i] for i in range(n)) // k
        coeffs[n - k] = c
    # det(X·I − B/d) = d^-n · det(dX·I − B)
    return _poly_from_coeffs([Fraction(c, d ** (n - k)) for k, c in enumerate(coeffs)])


def minpoly(M):
    """Monic minimal polynomial, from the first linear dependency among
    vec(B^0), vec(B^1), ...: each new power is reduced by fraction-free
    elimination against the rows kept so far."""
    B, d = _clear(M)
    n = len(B)
    # a kept row is vec(sum_j c_j B^j) followed by c_0, ..., c_n
    kept = []
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    # Cayley–Hamilton: the dependency appears by k = n
    for k in count():
        v = [x for row in P for x in row] + [int(j == k) for j in range(n + 1)]
        for p, row in kept:
            a = v[p]
            if a:
                b = row[p]
                g = gcd(a, b)
                a, b = a // g, b // g
                v = [b * x - a * y for x, y in zip(v, row)]
        pivot = next((i for i in range(n * n) if v[i]), None)
        if pivot is None:
            # sum_j c_j B^j = 0 with c_k != 0; rescale to M = B/d
            c = v[n * n:]
            return _poly_from_coeffs(
                [Fraction(c[j], c[k] * d ** (k - j)) for j in range(k + 1)]
            )
        g = gcd(*v)
        kept.append((pivot, [x // g for x in v]))
        P = _int_mul(B, P)


def char_min_poly(M):
    """(characteristic, minimal) polynomials of a square matrix."""
    return charpoly(M), minpoly(M)


# -- Jordan profiles ---------------------------------------------------


class JordanProfile:
    """Block structure per irreducible rational factor.

    ``entries`` is a list of (irreducible monic Polynomial in X,
    descending tuple of block sizes).
    """

    __slots__ = ("entries", "dimension")

    def __init__(self, entries, dimension):
        self.entries = list(entries)
        self.dimension = dimension

    def __repr__(self):
        parts = [f"({p.pretty()}): {sizes}" for p, sizes in self.entries]
        return "JordanProfile[" + "; ".join(parts) + "]"


def factor_rational_poly(p):
    """Irreducible monic factors of a univariate rational polynomial, as a
    list of (factor, multiplicity); a constant gives [].  The factors come
    in increasing degree, and factors of one degree in increasing order of
    their (exponent, coefficient) pairs listed from the constant term up.

    Exact over Q, by :func:`.factor.factor_integer_poly` on the cleared
    integer polynomial: Yun's squarefree decomposition, then Zassenhaus's
    modular factorization, Hensel lifting and recombination."""
    coeffs = [p.coeff((j,)) for j in range(p.degree() + 1)]
    if len(coeffs) < 2:
        return []
    L = lcm(*(c.denominator for c in coeffs))
    out = [
        (_poly_from_coeffs([Fraction(c, f[-1]) for c in f]), mult)
        for f, mult in factor_integer_poly([int(c * L) for c in coeffs])
    ]
    out.sort(key=lambda t: (t[0].degree(), sorted(t[0].terms.items())))
    return out


def _power_sums(p, count):
    """Power sums s_0, ..., s_(count-1) of the roots of a monic p by Newton's
    identities, s_j = -sum_i c_i·s_(j-i) with c_i the coefficient of X^(e-i)
    and j·c_j for the term i = j."""
    e = p.degree()
    c = [p.coeff((e - i,)) for i in range(e + 1)]
    s = [Fraction(e)]
    for j in range(1, count):
        s.append(-sum(c[i] * (s[j - i] if i < j else j) for i in range(1, min(j, e) + 1)))
    return s


def jordan_profile(M):
    """Exact Jordan block sizes per irreducible factor p of minpoly(M).

    p's exponent k in minpoly is its largest block.  Its multiplicity m in
    the charpoly solves sum_p m·s_(p,j) = tr(M^j), j < R = sum deg p, with
    s_(p,j) the power sums of p's roots (Newton's identities): a Vandermonde
    system summed over disjoint root sets, with one solution.  The sizes
    follow from the ranks of p(M)^j, computed for j < k only, since
    rank p(M)^k = n - deg p·m."""
    B, d = _clear(M)
    n = len(B)
    factors = factor_rational_poly(minpoly(M))
    R = sum(p.degree() for p, _ in factors)
    traces, P = [], [[int(i == j) for j in range(n)] for i in range(n)]
    for j in range(R):
        traces.append(Fraction(sum(P[i][i] for i in range(n)), d ** j))
        P = _int_mul(P, B) if j < R - 1 else None
    sums = [_power_sums(p, R) for p, _ in factors]
    mults = solve([list(row) for row in zip(*sums)], traces)
    if any(m.denominator != 1 or m < 1 for m in mults):
        raise AssertionError(f"charpoly multiplicities {mults} are not positive integers")
    entries = []
    for (p, k), m in zip(factors, mults):
        e = p.degree()
        ranks = [n]
        if k > 1:
            Pj = P = _int_poly_at(B, d, p)
            for j in range(1, k):
                if j > 1:
                    Pj = _int_mul(Pj, P)
                ranks.append(_int_rank(Pj))
        ranks.append(n - e * int(m))
        # the number of blocks of size >= j is (ranks[j-1] - ranks[j]) / e
        drops = [a - b for a, b in zip(ranks, ranks[1:])]
        if any(x % e for x in drops):
            raise AssertionError(f"rank drops {drops} of {p.pretty()} are not multiples of {e}")
        atleast = [x // e for x in drops] + [0]
        sizes = tuple(j for j in range(k, 0, -1) for _ in range(atleast[j - 1] - atleast[j]))
        entries.append((p, sizes))
    return JordanProfile(entries, n)


# -- localization ------------------------------------------------------


def localize(A, f):
    """Quotient of A by the generalized 0-eigenspace of multiplication
    by f; multiplication by f is invertible on the result.  A nilpotent
    f yields the zero algebra.  Each kernel vector is 1 at its own free
    index and 0 at the other free indices F, so on the pivots P the class
    of v is v_P - K_P·v_F, and M acts on the quotient as
    M[P,P] - K_P·M[F,P]."""
    kernels, _, pivots = _kernel_chain(A.operator(f))
    K = kernels[-1]
    if not K:
        return A
    free = sorted(set(range(A.dimension)) - set(pivots))
    KP = [[v[p] for v in K] for p in pivots]
    mult = {
        name: mat_sub(
            [[M[p][q] for q in pivots] for p in pivots],
            mat_mul(KP, [[M[j][q] for q in pivots] for j in free]),
        )
        for name, M in A.mult_matrices.items()
    }
    basis = [A.basis[j] for j in pivots]
    return QuotientAlgebra(A.ring, basis, mult, None)


# -- roots of rational polynomials ------------------------------------

ROOT_BACKWARD_ERROR = 1e-12


def _horner(c, z):
    """(N, D, b) for the ascending complex coefficients c of f at z: f(z)/f'(z)
    = N/D, and b = |f(z)| / sum |c_i|·|z|^i, the relative backward error.
    For |z| > 1 it reads g(x) = x^n·f(1/x) at x = 1/z, where f/f' =
    z·g/(n·g - x·g'), so that no power of z overflows."""
    big = abs(z) > 1
    x = 1 / z if big else z
    f = df = 0j
    s, ax = 0.0, abs(x)
    for a in c if big else reversed(c):
        df = df * x + f
        f = f * x + a
        s = s * ax + abs(a)
    if big:
        return z * f, (len(c) - 1) * f - x * df, abs(f) / s
    return f, df, abs(f) / s


def _aberth(c):
    """Roots of a squarefree polynomial with ascending complex coefficients c
    and c_0 != 0, by the Aberth–Ehrlich iteration (Aberth 1973; Bini 1996)
    from n points on the circle of radius |c_0/c_n|^(1/n), each corrected in
    turn by N / (D - N·sum_j 1/(z - z_j)), for at most 100 sweeps or until
    no correction exceeds 4 ulp of its root."""
    n = len(c) - 1
    r = abs(c[0] / c[-1]) ** (1 / n)
    zs = [rect(r, tau * k / n + 0.4) for k in range(n)]
    for _ in range(100):
        moved = False
        for i, z in enumerate(zs):
            N, D, _ = _horner(c, z)
            D -= N * sum(1 / (z - w) for w in zs if w != z)
            if N and D:
                step = N / D
                zs[i] = z - step
                moved = moved or abs(step) > 2 ** -50 * abs(z)
        if not moved:
            break
    return zs


def _factor_roots(f):
    """The roots of an irreducible monic rational polynomial f, which is
    squarefree: the Fraction -c0 when f is linear, else complex floats from
    ``_aberth``.  Raises NonConvergence when a root's relative backward error
    on f exceeds ROOT_BACKWARD_ERROR."""
    if f.degree() == 1:
        return [-f.coeff((0,))]
    c = [complex(f.coeff((j,))) for j in range(f.degree() + 1)]
    zs = _aberth(c)
    worst = max(_horner(c, z)[2] for z in zs)
    if worst > ROOT_BACKWARD_ERROR:
        raise NonConvergence(
            f"root backward error {worst:.3e} of {f.pretty()} exceeds {ROOT_BACKWARD_ERROR:.1e}"
        )
    return zs


def exact_roots(p):
    """Roots of a univariate rational polynomial, a rational one as a
    Fraction, each repeated by its multiplicity; a constant gives [].  The
    multiplicities come from :func:`factor_rational_poly`, the roots of each
    factor from ``_factor_roots``."""
    return [z for f, mult in factor_rational_poly(p) for z in _factor_roots(f) * mult]


# -- numeric eigensolver ----------------------------------------------


def complex_eigen(M):
    """Eigenvalues and eigenvectors of a complex matrix, with residual
    guarantee ||M v - lam v|| <= 1e-10 * ||M|| per returned pair."""
    import numpy as np

    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix is not square")
    if A.shape[0] == 0:
        return [], np.zeros((0, 0), dtype=complex)
    try:
        w, v = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NonConvergence(str(exc)) from exc
    scale = max(np.linalg.norm(A, 2), 1e-300)
    worst = 0.0
    for i in range(len(w)):
        res = np.linalg.norm(A @ v[:, i] - w[i] * v[:, i]) / np.linalg.norm(v[:, i])
        worst = max(worst, res / scale)
    if worst > 1e-10:
        raise NonConvergence(f"eigenpair residual {worst:.3e} exceeds 1.0e-10")
    return list(w), v


SPECTRAL_RTOL = 1e-9


def _argument(z):
    """Argument of z in [0, 2 pi); one within SPECTRAL_RTOL of 2 pi is 0."""
    a = atan2(z.imag, z.real) % tau
    return 0.0 if a >= tau * (1 - SPECTRAL_RTOL) else a


def spectral_order(items, key=None):
    """The items sorted by their complex values key(item) (the items
    themselves by default): by ascending modulus, where a modulus within
    a relative SPECTRAL_RTOL of the next smaller one counts as equal to
    it, then by ascending argument.  So values of one modulus, such as a
    root-of-unity family or -2 - 0j and -2 + 0j, are ordered by argument
    and not by the last bits of their moduli."""
    items = list(items)
    values = [complex(key(t) if key else t) for t in items]
    moduli = [abs(z) for z in values]
    level, group, previous = {}, 0, None
    for i in sorted(range(len(items)), key=moduli.__getitem__):
        if previous is not None and moduli[i] - previous > SPECTRAL_RTOL * moduli[i]:
            group += 1
        level[i], previous = group, moduli[i]
    order = sorted(range(len(items)), key=lambda i: (level[i], _argument(values[i])))
    return [items[i] for i in order]


def match_nearest(items, candidates):
    """Greedy nearest-neighbour matching of numbers: each item in turn
    takes the nearest candidate not yet taken, ties going to the lowest index.

    Returns one (index, distance, runner_up) per item, where runner_up
    is the distance to the next-nearest free candidate (inf when none is
    left).
    """
    free = list(range(len(candidates)))
    out = []
    for item in items:
        ranked = sorted((abs(item - candidates[i]), i) for i in free)
        d, i = ranked[0]
        free.remove(i)
        out.append((i, d, ranked[1][0] if len(ranked) > 1 else float("inf")))
    return out
