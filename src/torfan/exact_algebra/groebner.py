"""Buchberger's algorithm, normal forms, and finite quotient algebras.

Buchberger's algorithm and normal forms run fraction-free over ℤ
(Geddes, Czapor and Labahn 1992) on inputs cleared of denominators; a
basis element is kept as ``(lm, lc, tail)`` with integer coefficients,
content divided out and ``lc > 0``.  Each reduction step makes the
choice of the rational division algorithm (Cox, Little and O'Shea §2.3)
but multiplies through by ``lc / gcd(lc, c)`` instead of dividing.

Pending S-pairs sit in a heap keyed by the grevlex order of their lcm,
so each step takes the smallest lcm (the normal selection strategy) in
O(log n); ties are broken by the index pair.  The product and chain
criteria discard redundant pairs.  The final basis is minimalized,
reduced, and only then made monic with ``Fraction`` coefficients; a
reduced Gröbner basis is unique, so the output does not depend on the
order of the generators or of the pairs.
"""

import heapq
from fractions import Fraction
from math import gcd, lcm

from ..errors import InfiniteDimensional, RingMismatch
from .poly import Polynomial, grevlex_key, mono_div, mono_divides, mono_lcm, mono_mul


def _cleared(f):
    """f's coefficients times the lcm D of their denominators: (D, terms)."""
    D = lcm(*(c.denominator for c in f.terms.values()))
    return D, {m: c.numerator * (D // c.denominator) for m, c in f.terms.items()}


def _primitive(terms, lm):
    """Nonzero integer terms with leading monomial lm as (lm, lc, tail),
    content divided out and lc > 0."""
    g = gcd(*terms.values())
    if terms[lm] < 0:
        g = -g
    return lm, terms[lm] // g, [(m, c // g) for m, c in terms.items() if m != lm]


def _reduce(rest, basis):
    """Fully reduce the integer terms ``rest`` (consumed) by the triples of
    ``basis``: (out, k) with out / k the rational remainder of rest, its
    terms in decreasing grevlex order.  A max-heap of negated grevlex keys
    gives the leading monomial m; the first divisor in basis order whose
    lm divides m reduces it.  Cancelled terms stay in ``rest`` as zeros
    until popped.
    """
    heap = [(-sum(m),) + m[::-1] for m in rest]
    heapq.heapify(heap)
    out, k = {}, 1
    while heap:
        m = heapq.heappop(heap)[:0:-1]
        c = rest.pop(m)
        if not c:
            continue
        for lm, lc, tail in basis:
            if mono_divides(lm, m):
                break
        else:
            out[m] = c
            continue
        g = gcd(lc, c)
        s, c = lc // g, c // g
        if s != 1:
            k *= s
            for t in rest:
                rest[t] *= s
            for t in out:
                out[t] *= s
        u = mono_div(m, lm)
        for t, d in tail:
            t = mono_mul(t, u)
            if t in rest:
                rest[t] -= c * d
            else:
                rest[t] = -c * d
                heapq.heappush(heap, (-sum(t),) + t[::-1])
    return out, k


def normal_form(f, G):
    """Fully reduce f modulo the polynomials of G.

    The result contains no term divisible by a leading monomial of G,
    and differs from f by an element of the generated ideal.  G need not
    be a Gröbner basis: each leading term is reduced by the first
    generator whose leading monomial divides it.
    """
    gens = G.generators if isinstance(G, GroebnerBasis) else [g for g in G if g]
    for g in gens:
        if g.ring != f.ring:
            raise RingMismatch("polynomial outside the basis ring")
    D, terms = _cleared(f)
    basis = [_primitive(_cleared(g)[1], g.leading_monomial()) for g in gens]
    out, k = _reduce(terms, basis)
    return Polynomial(f.ring, {m: Fraction(c, D * k) for m, c in out.items()})


def _s_poly(a, b):
    """Integer S-polynomial of two triples, cross-multiplied by the
    cofactors of their leading coefficients (cancelled terms kept as 0)."""
    (la, ca, ta), (lb, cb, tb) = a, b
    L = mono_lcm(la, lb)
    g = gcd(ca, cb)
    sa, sb = cb // g, ca // g
    ua, ub = mono_div(L, la), mono_div(L, lb)
    out = {mono_mul(m, ua): sa * c for m, c in ta}
    for m, c in tb:
        t = mono_mul(m, ub)
        out[t] = out.get(t, 0) - sb * c
    return out


class GroebnerBasis:
    """A reduced Gröbner basis in grevlex order (monic generators)."""

    __slots__ = ("ring", "generators")

    def __init__(self, ring, generators):
        self.ring = ring
        self.generators = list(generators)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def __repr__(self):
        return f"GroebnerBasis({self.generators})"

    def __eq__(self, other):
        """Reduced bases of equal ideals coincide up to ordering."""
        return (
            isinstance(other, GroebnerBasis)
            and self.ring == other.ring
            and set(self.generators) == set(other.generators)
        )

    def leading_monomials(self):
        return [g.leading_monomial() for g in self.generators]


def groebner_basis(generators):
    """Buchberger's algorithm; returns the reduced monic basis."""
    gens = [g for g in generators if g]
    if not gens:
        ring = generators[0].ring if generators else None
        if ring is None:
            raise ValueError("cannot infer ring from an empty generator list")
        return GroebnerBasis(ring, [])
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatch("generators live in different rings")

    G = []
    for g in gens:
        out, _ = _reduce(_cleared(g)[1], G)
        if out:
            G.append(_primitive(out, next(iter(out))))

    lms = [g[0] for g in G]
    queue = []
    pairs = set()

    def push_pair(i, j):
        # (i, j) is unique, so the heap never compares the lcm itself
        lcm = mono_lcm(lms[i], lms[j])
        heapq.heappush(queue, (grevlex_key(lcm), i, j, lcm))
        pairs.add((i, j))

    for j in range(len(G)):
        for i in range(j):
            push_pair(i, j)

    while queue:
        _, i, j, lcm = heapq.heappop(queue)
        pairs.discard((i, j))
        # product criterion: coprime leading monomials reduce to zero
        if lcm == mono_mul(lms[i], lms[j]):
            continue
        # chain criterion: a third generator dividing the lcm whose two
        # pairs were already handled makes this pair redundant
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if mono_divides(lms[k], lcm):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a not in pairs and b not in pairs:
                    skip = True
                    break
        if skip:
            continue
        out, _ = _reduce(_s_poly(G[i], G[j]), G)
        if out:
            lm = next(iter(out))
            G.append(_primitive(out, lm))
            lms.append(lm)
            new = len(G) - 1
            for k in range(new):
                push_pair(k, new)

    # minimalize: drop generators whose leading monomial is divisible
    # by another surviving generator's leading monomial
    polys = []
    for i, g in enumerate(G):
        lm = lms[i]
        redundant = any(
            j != i
            and mono_divides(lms[j], lm)
            and (lms[j] != lm or j < i)
            for j in range(len(G))
        )
        if not redundant:
            polys.append(g)

    # fully reduce each survivor against the others, then make it monic
    reduced = []
    for i, (lm, lc, tail) in enumerate(polys):
        out, _ = _reduce({lm: lc, **dict(tail)}, polys[:i] + polys[i + 1 :])
        lc = out[lm]  # no other survivor's lm divides lm
        reduced.append(Polynomial(ring, {m: Fraction(c, lc) for m, c in out.items()}))
    reduced.sort(key=lambda g: grevlex_key(g.leading_monomial()))
    return GroebnerBasis(ring, reduced)


class QuotientAlgebra:
    """Finite-dimensional quotient by a zero-dimensional ideal.

    ``basis`` lists the standard monomials (or abstract labels for
    algebras obtained by localization); ``mult_matrices`` maps each ring
    variable name to the rational matrix of multiplication on the basis
    (columns = images of basis elements); :func:`quotient_algebra` reads
    them off the border of the reduced basis, with no polynomial reduction.
    """

    __slots__ = ("ring", "basis", "mult_matrices", "dimension", "groebner")

    def __init__(self, ring, basis, mult_matrices, groebner=None):
        self.ring = ring
        self.basis = list(basis)
        self.mult_matrices = mult_matrices
        self.dimension = len(self.basis)
        self.groebner = groebner

    def __repr__(self):
        return f"QuotientAlgebra(dim={self.dimension})"

    def operator(self, f):
        """Matrix of multiplication by the polynomial f; a monomial m with
        first variable x_k is X_k times m / x_k, memoized within the call."""
        from .linalg import mat_mul, zero_matrix

        n = self.dimension
        X = [self.mult_matrices[name] for name in self.ring.names]
        memo = {}

        def monomial(m):
            if m not in memo:
                k = next(i for i, e in enumerate(m) if e)
                rest = m[:k] + (m[k] - 1,) + m[k + 1 :]
                memo[m] = mat_mul(X[k], monomial(rest)) if any(rest) else X[k]
            return memo[m]

        out = zero_matrix(n, n)
        for m, c in f.terms.items():
            if not any(m):
                for i in range(n):
                    out[i][i] += c
                continue
            for row, src in zip(out, monomial(m)):
                for j, a in enumerate(src):
                    if a:
                        row[j] += c * a
        return out


def quotient_algebra(G):
    """Standard monomials and multiplication matrices for a quotient.

    G is reduced (as :func:`groebner_basis` returns).  The column of x_i
    on s is NF(x_i·s), filled over the border monomials b = x_i·s in
    increasing grevlex order: the negated tail of G's generator when b is
    its leading monomial, else sum_j c_j NF(x_k s_j) over the terms c_j s_j
    of NF(b / x_k), for an x_k with b / x_k non-standard, so an earlier
    border monomial (Faugère, Gianni, Lazard and Mora 1993).

    Raises InfiniteDimensional unless, for every variable, some leading
    monomial of G is a pure power of that variable.
    """
    ring = G.ring
    lms = G.leading_monomials()
    n = ring.nvars
    for i in range(n):
        if not any(all(e == 0 for j, e in enumerate(m) if j != i) and m[i] > 0 for m in lms):
            if not any(sum(m) == 0 for m in lms):
                raise InfiniteDimensional(
                    f"no leading monomial is a pure power of {ring.names[i]}"
                )
    if any(sum(m) == 0 for m in lms):
        # the ideal is the whole ring: zero algebra
        return QuotientAlgebra(ring, [], {name: [] for name in ring.names}, G)

    # standard monomials and the border, breadth-first from 1 (the
    # queue grows while it is read)
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    std, border = [], []
    queue = [(0,) * n]
    seen = set(queue)
    for m in queue:
        if any(mono_divides(lm, m) for lm in lms):
            border.append(m)
            continue
        std.append(m)
        for u in units:
            up = mono_mul(m, u)
            if up not in seen:
                seen.add(up)
                queue.append(up)
    std.sort(key=grevlex_key)
    border.sort(key=grevlex_key)
    index = {m: i for i, m in enumerate(std)}

    # normal forms as sparse maps from standard monomials to coefficients
    nf = {s: {s: Fraction(1)} for s in std}
    for g in G:
        lm = g.leading_monomial()
        nf[lm] = {m: -c for m, c in g.terms.items() if m != lm}
    for b in border:
        if b in nf:
            continue
        k = next(k for k in range(n) if b[k] and mono_div(b, units[k]) not in index)
        acc = {}
        for s, c in nf[mono_div(b, units[k])].items():
            for t, d in nf[mono_mul(s, units[k])].items():
                acc[t] = acc.get(t, 0) + c * d
        nf[b] = {t: v for t, v in acc.items() if v}

    dim = len(std)
    mult = {}
    for u, name in zip(units, ring.names):
        M = [[Fraction(0)] * dim for _ in range(dim)]
        for j, s in enumerate(std):
            for t, c in nf[mono_mul(s, u)].items():
                M[index[t]][j] = c
        mult[name] = M
    return QuotientAlgebra(ring, std, mult, G)
