"""Multivariate polynomials with exact rational coefficients.

A :class:`Ring` is an ordered list of variable names; monomials are
exponent tuples ordered by graded reverse lexicographic order (grevlex)
with declaration-order priority.  Coefficients are ``fractions.Fraction``
(arbitrary-precision, always reduced, positive denominator), which is the
package's public rational scalar type throughout; Buchberger's algorithm
and normal forms in :mod:`.groebner` reduce over ℤ internally and hand
back ``Fraction`` polynomials.
"""

from fractions import Fraction

from ..errors import RingMismatch

_ZERO = Fraction(0)
_ONE = Fraction(1)


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    """True when a | b componentwise."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def mono_div(b, a):
    """b / a, assuming divisibility."""
    return tuple(y - x for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def grevlex_key(a):
    """Sort key realizing graded reverse lexicographic order.

    Keys compare like the monomials: first by total degree, then
    reverse-lexicographically (the monomial with the *smaller* exponent
    on the last differing variable is larger).
    """
    return (sum(a),) + tuple(-e for e in reversed(a))


class Ring:
    """An ordered tuple of variable names; compares by value."""

    __slots__ = ("names", "nvars")

    def __init__(self, names):
        self.names = tuple(names)
        self.nvars = len(self.names)

    def __eq__(self, other):
        return isinstance(other, Ring) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Ring({', '.join(self.names)})"

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.constant(_ONE)

    def constant(self, c):
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, i):
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): _ONE})

    def monomial(self, exponents, coeff=1):
        c = Fraction(coeff)
        if c == 0:
            return self.zero()
        return Polynomial(self, {tuple(exponents): c})


class Polynomial:
    """Immutable sparse polynomial: monomial tuple -> nonzero Fraction.

    The ``terms`` dict must not be mutated once the polynomial is built:
    the leading monomial is cached on first use, and every operation
    returns a new polynomial instead.
    """

    __slots__ = ("ring", "terms", "_lm")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms
        self._lm = None

    # -- basic protocol ------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.ring == other.ring and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == self.ring.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, _ZERO) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return self.ring.zero()
            return Polynomial(self.ring, {m: v * c for m, v in self.terms.items()})
        self._check(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = terms.get(m, _ZERO) + c1 * c2
                if s:
                    terms[m] = s
                else:
                    terms.pop(m, None)
        return Polynomial(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- structure -----------------------------------------------------

    def leading_monomial(self):
        if self._lm is None:
            self._lm = max(self.terms, key=grevlex_key)
        return self._lm

    def leading_coeff(self):
        return self.terms[self.leading_monomial()]

    def monic(self):
        if not self.terms:
            return self
        c = self.leading_coeff()
        if c == 1:
            return self
        return self * (_ONE / c)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def coeff(self, exponents):
        return self.terms.get(tuple(exponents), _ZERO)

    def sorted_terms(self):
        """Terms in decreasing grevlex order."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    # -- display -------------------------------------------------------

    def __repr__(self):
        return self.pretty()

    def pretty(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = []
            for name, e in zip(self.ring.names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out
