"""Exact linear feasibility by Fourier–Motzkin elimination.

Systems are lists of constraints ``(a, b)`` meaning ``a · u >= b`` with
rational data.  Desk-scale only: the doubling blow-up of elimination is
acceptable for the handful of variables and constraints that fan and
polytope checks produce.  Strict constraints are encoded by callers via
homogeneous scaling (``> 0`` as ``>= 1``).
"""

from fractions import Fraction

_ZERO = Fraction(0)


def _dot(a, u):
    return sum((x * y for x, y in zip(a, u)), _ZERO)


def feasible_point(ineqs, nvars):
    """A rational point satisfying every a·u >= b, or None."""
    ineqs = [([Fraction(x) for x in a], Fraction(b)) for a, b in ineqs]
    if nvars == 0:
        return [] if all(b <= 0 for _, b in ineqs) else None
    lowers, uppers, rest = [], [], []
    j = nvars - 1
    for a, b in ineqs:
        c = a[j]
        if c > 0:
            lowers.append(([x / c for x in a[:j]], b / c))
        elif c < 0:
            uppers.append(([x / c for x in a[:j]], b / c))
        else:
            rest.append((a[:j], b))
    combined = list(rest)
    for la, lb in lowers:
        for ua, ub in uppers:
            # lb - la·u <= u_j <= ub - ua·u  forces (la-ua)·u >= lb-ub
            combined.append(([x - y for x, y in zip(la, ua)], lb - ub))
    point = feasible_point(combined, nvars - 1)
    if point is None:
        return None
    lo = max((lb - _dot(la, point) for la, lb in lowers), default=None)
    hi = min((ub - _dot(ua, point) for ua, ub in uppers), default=None)
    if lo is None and hi is None:
        val = _ZERO
    elif hi is None:
        val = lo
    elif lo is None:
        val = hi
    else:
        val = (lo + hi) / 2
    return point + [val]


def recession_ray(rows, nvars):
    """A nonzero u with a·u >= 0 for every row a, or None: one search
    per signed coordinate bound u_j >= 1, then -u_j >= 1, for j in order."""
    for j in range(nvars):
        for sign in (1, -1):
            unit = [0] * nvars
            unit[j] = sign
            u = feasible_point([(a, 0) for a in rows] + [(unit, 1)], nvars)
            if u is not None:
                return u
    return None


def equality(a, b):
    """Encode a·u == b as a pair of opposite inequalities."""
    return [(list(a), Fraction(b)), ([-x for x in a], -Fraction(b))]
