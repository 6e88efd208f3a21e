"""Buchberger's algorithm, normal forms, and finite quotient algebras.

Pending S-pairs sit in a heap keyed by the grevlex order of their lcm,
so each step takes the smallest lcm (the normal selection strategy) in
O(log n); ties are broken by the index pair.  The product and chain
criteria discard redundant pairs.  The final basis is minimalized and
reduced with unit leading coefficients; a reduced Gröbner basis is
unique, so the output does not depend on the order of the generators or
of the pairs.
"""

import heapq
from fractions import Fraction

from ..errors import InfiniteDimensional, RingMismatch
from .poly import Polynomial, grevlex_key, mono_div, mono_divides, mono_lcm, mono_mul


def normal_form(f, G):
    """Fully reduce f modulo the polynomials of G.

    The result contains no term divisible by a leading monomial of G,
    and differs from f by an element of the generated ideal.
    """
    gens = G.generators if isinstance(G, GroebnerBasis) else [g for g in G if g]
    for g in gens:
        if g.ring != f.ring:
            raise RingMismatch("polynomial outside the basis ring")
    out = f.ring.zero()
    rest = f
    while rest:
        m = rest.leading_monomial()
        c = rest.terms[m]
        for g in gens:
            lm = g.leading_monomial()
            if mono_divides(lm, m):
                factor = Polynomial(f.ring, {mono_div(m, lm): c / g.leading_coeff()})
                rest = rest - factor * g
                break
        else:
            head = Polynomial(f.ring, {m: c})
            out = out + head
            rest = rest - head
    return out


def _s_poly(f, g):
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = mono_lcm(lf, lg)
    mf = Polynomial(f.ring, {mono_div(lcm, lf): Fraction(1) / f.leading_coeff()})
    mg = Polynomial(g.ring, {mono_div(lcm, lg): Fraction(1) / g.leading_coeff()})
    return mf * f - mg * g


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
        h = normal_form(g, G)
        if h:
            G.append(h.monic())

    lms = [g.leading_monomial() for g in G]
    queue = []
    pairs = set()

    def push_pair(i, j):
        heapq.heappush(queue, (grevlex_key(mono_lcm(lms[i], lms[j])), i, j))
        pairs.add((i, j))

    for j in range(len(G)):
        for i in range(j):
            push_pair(i, j)

    while queue:
        _, i, j = heapq.heappop(queue)
        pairs.discard((i, j))
        lmi, lmj = lms[i], lms[j]
        lcm = mono_lcm(lmi, lmj)
        # product criterion: coprime leading monomials reduce to zero
        if lcm == mono_mul(lmi, lmj):
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
        h = normal_form(_s_poly(G[i], G[j]), G)
        if h:
            h = h.monic()
            G.append(h)
            lms.append(h.leading_monomial())
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

    # fully reduce each survivor against the others
    reduced = []
    for i, g in enumerate(polys):
        others = polys[:i] + polys[i + 1 :]
        h = normal_form(g, others)
        if h:
            reduced.append(h.monic())
    reduced.sort(key=lambda g: grevlex_key(g.leading_monomial()))
    return GroebnerBasis(ring, reduced)


class QuotientAlgebra:
    """Finite-dimensional quotient by a zero-dimensional ideal.

    ``basis`` lists the standard monomials (or abstract labels for
    algebras obtained by localization); ``mult_matrices`` maps each ring
    variable name to the rational matrix of multiplication on the basis
    (columns = images of basis elements).
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
        """Matrix of multiplication by the polynomial f."""
        from .linalg import mat_add, mat_scale, mat_mul, identity, zero_matrix

        n = self.dimension
        out = zero_matrix(n, n)
        for m, c in f.terms.items():
            term = identity(n)
            for name, e in zip(self.ring.names, m):
                for _ in range(e):
                    term = mat_mul(self.mult_matrices[name], term)
            out = mat_add(out, mat_scale(term, c))
        return out


def quotient_algebra(G):
    """Standard monomials and multiplication matrices for a quotient.

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

    # enumerate standard monomials breadth-first from 1
    std = []
    seen = set()
    queue = [(0,) * n]
    while queue:
        m = queue.pop()
        if m in seen:
            continue
        seen.add(m)
        if any(mono_divides(lm, m) for lm in lms):
            continue
        std.append(m)
        for i in range(n):
            up = list(m)
            up[i] += 1
            queue.append(tuple(up))
    std.sort(key=grevlex_key)

    index = {m: i for i, m in enumerate(std)}
    dim = len(std)
    mult = {}
    for i, name in enumerate(ring.names):
        cols = []
        for m in std:
            up = list(m)
            up[i] += 1
            nf = normal_form(Polynomial(ring, {tuple(up): Fraction(1)}), G)
            col = [Fraction(0)] * dim
            for mm, c in nf.terms.items():
                col[index[mm]] = c
            cols.append(col)
        # transpose columns into a row-major matrix
        mult[name] = [[cols[j][r] for j in range(dim)] for r in range(dim)]
    return QuotientAlgebra(ring, std, mult, G)
