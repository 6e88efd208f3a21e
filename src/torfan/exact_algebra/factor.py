"""Exact factorization of univariate integer polynomials into irreducibles.

A polynomial is a list of ints, constant term first, with a nonzero last
entry.  :func:`factor_integer_poly` runs Yun's squarefree decomposition
(Yun, 1976) on the primitive part and factors each squarefree part by
Zassenhaus's algorithm (Zassenhaus, 1969; Cohen, *A Course in
Computational Algebraic Number Theory*, §3.5): distinct-degree and
Cantor–Zassenhaus equal-degree factorization modulo a small prime,
quadratic Hensel lifting of the modular factors past the Mignotte bound,
and recombination of their subsets by exact trial division over ℤ.
Every step is exact, and the seeded splitting affects only running time.
"""

import random
from itertools import combinations
from math import gcd, isqrt

_GOOD_PRIMES = 3  # modular factorizations compared per squarefree part


def _trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _primitive(f):
    c = gcd(*f)
    return [x // c for x in f] if f[-1] > 0 else [-x // c for x in f]


def _derivative(f):
    return [i * c for i, c in enumerate(f)][1:]


def _mul(f, g, m=0):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _trim([x % m for x in out] if m else out)


def _add(f, g, m=0):
    out = [a + b for a, b in zip(f, g)] + f[len(g):] + g[len(f):]
    return _trim([x % m for x in out] if m else out)


def _sub(f, g, m=0):
    return _add(f, [-b for b in g], m)


def _divmod(f, g, m=0):
    """Quotient and remainder of f by g, over ℤ/m (m prime, or g monic)
    or, when m is 0, over ℤ; None when a division over ℤ is not exact."""
    r, q = list(f), [0] * max(len(f) - len(g) + 1, 0)
    inv = pow(g[-1], -1, m) if m else None
    for k in range(len(q) - 1, -1, -1):
        c = r[k + len(g) - 1]
        if m:
            c = c * inv % m
        elif c % g[-1]:
            return None
        else:
            c //= g[-1]
        q[k] = c
        if c:
            for j, b in enumerate(g):
                r[k + j] -= c * b
    r = [x % m for x in r] if m else r
    return _trim(q), _trim(r[: len(g) - 1])


def _monic(f, m):
    inv = pow(f[-1], -1, m)
    return [x * inv % m for x in f]


def _gcd(f, g, p=0):
    """Monic gcd over F_p, or the primitive gcd over ℤ (primitive PRS)."""
    while g:
        if p:
            f, g = g, _divmod(f, g, p)[1]
        else:
            r = list(f)  # pseudo-remainder of f by g
            while len(r) >= len(g):
                r = _sub([g[-1] * x for x in r], [0] * (len(r) - len(g)) + [r[-1] * x for x in g])
            f, g = g, _primitive(r) if r else r
    return _monic(f, p) if p else _primitive(f)


def _powmod(f, e, g, p):
    out, f = [1], _divmod(f, g, p)[1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, f, p), g, p)[1]
        e >>= 1
        if e:
            f = _divmod(_mul(f, f, p), g, p)[1]
    return out


def _yun(f):
    """(squarefree part, multiplicity) of a primitive f, by Yun's
    algorithm over ℤ: every division is exact because the gcds are
    primitive."""
    out = []
    a = _gcd(f, _derivative(f))
    b, c = _divmod(f, a)[0], _divmod(_derivative(f), a)[0]
    i = 1
    while len(b) > 1:
        d = _sub(c, _derivative(b))
        a = _gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b, c = _divmod(b, a)[0], _divmod(d, a)[0]
        i += 1
    return out


def _distinct_degree(f, p):
    """(product of the degree-d irreducible factors, d) of a monic
    squarefree f over F_p."""
    out, h, d = [], [0, 1], 0
    while 2 * (d + 1) < len(f):
        d += 1
        h = _powmod(h, p, f, p)
        g = _gcd(f, _sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(f, d, p, rng):
    """Monic irreducible factors of f over F_p, all of degree d, by
    Cantor–Zassenhaus splitting (p odd)."""
    if len(f) == d + 1:
        return [f]
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(f) - 1)])
        if len(a) < 2:
            continue
        g = _gcd(f, _sub(_powmod(a, (p ** d - 1) // 2, f, p), [1], p), p)
        if 1 < len(g) < len(f):
            return _equal_degree(g, d, p, rng) + _equal_degree(_divmod(f, g, p)[0], d, p, rng)


def _primes():
    n = 3
    while True:
        if all(n % q for q in range(3, isqrt(n) + 1, 2)):
            yield n
        n += 2


def _modular_factorization(f):
    """(factor count, p, distinct-degree parts of f mod p) for the p
    with fewest factors among the first _GOOD_PRIMES odd primes that keep
    f squarefree and its degree; a count of 1 ends the search."""
    best, tried = None, 0
    for p in _primes():
        if f[-1] % p == 0:
            continue
        fp = _monic([x % p for x in f], p)
        if len(_gcd(fp, _sub(_derivative(fp), [], p), p)) > 1:
            continue
        parts = _distinct_degree(fp, p)
        count = sum((len(g) - 1) // d for g, d in parts)
        if best is None or count < best[0]:
            best = (count, p, parts)
        tried += 1
        if count == 1 or tried == _GOOD_PRIMES:
            return best


def _hensel_lift(f, g, h, p, m):
    """(g*, h*) with f ≡ g*·h* (mod m = p^(2^j)), h* monic, from
    f ≡ g·h (mod p) with h monic and coprime to g, by quadratic Hensel
    lifting (von zur Gathen and Gerhard, Algorithm 15.10)."""
    # s·g + t·h ≡ 1 (mod p) by the extended Euclidean algorithm
    r0, r1, s0, s1, t0, t1 = g, h, [1], [], [], [1]
    while len(r1) > 1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1, p), p)
        t0, t1 = t1, _sub(t0, _mul(q, t1, p), p)
    inv = pow(r1[0], -1, p)
    s, t = [x * inv % p for x in s1], [x * inv % p for x in t1]
    q = p
    while q < m:
        q *= q
        e = _sub(f, _mul(g, h), q)
        a, b = _divmod(_mul(s, e, q), h, q)
        g = _add(g, _add(_mul(t, e), _mul(a, g)), q)
        h = _add(h, b, q)
        c = _sub(_add(_mul(s, g), _mul(t, h)), [1], q)
        a, b = _divmod(_mul(s, c, q), h, q)
        s, t = _sub(s, b, q), _sub(t, _add(_mul(t, c), _mul(a, g)), q)
    return g, h


def _zassenhaus(f, rng):
    """Irreducible factors of a primitive squarefree f of degree >= 2."""
    count, p, parts = _modular_factorization(f)
    if count == 1:
        return [f]
    modular = [h for g, d in parts for h in _equal_degree(g, d, p, rng)]
    lc = f[-1]
    # lc times a monic factor of f has integer coefficients below
    # lc·2^n·|f|_2 (Mignotte); m exceeds twice that, so the symmetric
    # residue of lc times a product of lifted factors is that polynomial
    bound = 2 * lc * 2 ** (len(f) - 1) * (isqrt(sum(c * c for c in f)) + 1)
    m = p
    while m <= bound:
        m *= m
    # split off one modular factor at a time; the cofactor, known
    # modulo m, is the next target
    lifted, target = [], f
    for i, h in enumerate(modular[:-1]):
        g = [lc % p]
        for other in modular[i + 1:]:
            g = _mul(g, other, p)
        target, h = _hensel_lift(target, g, h, p, m)
        lifted.append(h)
    lifted.append(_monic(target, m))
    out, size = [], 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            g = [f[-1]]
            for i in subset:
                g = _mul(g, lifted[i], m)
            g = _primitive([x - m if 2 * x > m else x for x in g])
            if g[0] and f[0] % g[0]:
                continue
            q = _divmod(f, g)
            if q is not None and not q[1]:
                out.append(g)
                f = q[0]
                lifted = [h for i, h in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return out + [f]


def factor_integer_poly(f):
    """(irreducible factor, multiplicity) pairs of a nonconstant integer
    polynomial f.  Each factor is primitive with a positive leading
    coefficient, and their product is f up to its content and sign."""
    rng = random.Random(0)
    return [
        (g, k)
        for part, k in _yun(_primitive(f))
        for g in (_zassenhaus(part, rng) if len(part) > 2 else [part])
    ]
