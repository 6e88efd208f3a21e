"""Moment polytopes {y : <y, e_i> >= lambda_i}: vertex enumeration,
reflexivity, monotone normalization, barycentres, and facet chops."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from ._feas import feasible_point, recession_ray
from .errors import (
    ChopTooDeep,
    DivisibilityFails,
    EmptyPolytope,
    Inconsistent,
    Unbounded,
    ValidationError,
)
from .exact_algebra import rref, solve

__all__ = [
    "MomentPolytope",
    "VertexSet",
    "vertices",
    "check_reflexive",
    "normalize_monotone",
    "barycentre",
    "chop",
    "is_bounded",
    "fano_index",
]


@dataclass(frozen=True)
class MomentPolytope:
    rank: int
    edges: tuple    # inward facet normals, primitive integer tuples
    lambdas: tuple  # support numbers, Fractions

    @staticmethod
    def make(rank, edges, lambdas):
        edges = tuple(tuple(int(x) for x in e) for e in edges)
        lambdas = tuple(Fraction(l) for l in lambdas)
        if len(edges) != len(lambdas):
            raise ValidationError("one support number per edge required")
        for e in edges:
            if len(e) != rank:
                raise ValidationError(f"edge {e} has wrong length")
            if gcd(*e) != 1:
                raise ValidationError(f"edge {e} is not primitive")
        return MomentPolytope(rank, edges, lambdas)


@dataclass(frozen=True)
class VertexSet:
    vertices: tuple   # tuples of Fractions
    incidence: tuple  # per vertex, frozenset of tight facet indices


def _contains(P, y):
    return all(
        sum(Fraction(a) * b for a, b in zip(e, y)) >= l
        for e, l in zip(P.edges, P.lambdas)
    )


def _feasible(P):
    ineqs = [(list(e), l) for e, l in zip(P.edges, P.lambdas)]
    return feasible_point(ineqs, P.rank) is not None


def vertices(P):
    """All 0-dimensional faces, by intersecting facet n-subsets."""
    n = P.rank
    pts = []
    seen = set()
    for subset in combinations(range(len(P.edges)), n):
        # the facets meet in one point when [edges | lambdas] has the
        # pivots 0..n-1; the point is then its last column
        M, pivots = rref([list(P.edges[i]) + [P.lambdas[i]] for i in subset])
        if pivots != list(range(n)):
            continue
        y = tuple(row[n] for row in M)
        if y in seen or not _contains(P, y):
            continue
        seen.add(y)
        tight = frozenset(
            i
            for i, (e, l) in enumerate(zip(P.edges, P.lambdas))
            if sum(Fraction(a) * b for a, b in zip(e, y)) == l
        )
        pts.append((y, tight))
    if not pts and not _feasible(P):
        raise EmptyPolytope("half-space system is infeasible")
    pts.sort(key=lambda t: t[0])
    return VertexSet(tuple(p for p, _ in pts), tuple(t for _, t in pts))


def is_bounded(P):
    """True when the recession cone {<y,e_i> >= 0} is trivial."""
    return recession_ray(P.edges, P.rank) is None


def check_reflexive(P):
    """Every support number -1 and every vertex integral.  Then 0 is the
    only interior lattice point: an integer y with <y, e_i> > -1 has
    <y, e_i> >= 0 for all i, so y is in the recession cone, {0} here."""
    if not is_bounded(P):
        raise Unbounded("reflexivity needs a bounded polytope")
    if any(l != -1 for l in P.lambdas):
        return False
    V = vertices(P)
    return all(c.denominator == 1 for v in V.vertices for c in v)


def normalize_monotone(P, v):
    """Translate a reflexive polytope by a vertex and divide by the
    largest integer keeping the data integral; returns the normalized
    polytope and that integer (the Fano index)."""
    v = tuple(Fraction(x) for x in v)
    shifted = [
        l - sum(Fraction(a) * b for a, b in zip(e, v))
        for e, l in zip(P.edges, P.lambdas)
    ]
    V = vertices(P)
    translated = [[x - y for x, y in zip(vert, v)] for vert in V.vertices]
    values = list(shifted) + [x for vert in translated for x in vert]
    if any(x.denominator != 1 for x in values):
        raise DivisibilityFails("translated data is not integral")
    d = 0
    for x in values:
        d = gcd(d, int(x))
    d = d or 1
    lambdas = tuple(l / d for l in shifted)
    return MomentPolytope(P.rank, P.edges, lambdas), d


def barycentre(P, fano_index):
    """The unique y with <y, e_i> = lambda_i + 1/fano_index for all i."""
    rows = [[Fraction(x) for x in e] for e in P.edges]
    rhs = [l + Fraction(1, fano_index) for l in P.lambdas]
    y = solve(rows, rhs)  # raises Inconsistent when the system is overdetermined
    return tuple(y)


def fano_index(P):
    """Solve for the index from the barycentre equation: find y and a
    common gap g with <y,e_i> - lambda_i = g; returns 1/g as a positive
    integer."""
    n = P.rank
    rows = [[Fraction(x) for x in e] + [Fraction(-1)] for e in P.edges]
    # unknowns u = (y, g) with <y, e_i> - g = lambda_i
    sol = solve(rows, list(P.lambdas))
    g = sol[n]
    if g <= 0 or (1 / g).denominator != 1:
        raise Inconsistent(f"barycentre gap {g} is not a reciprocal integer")
    return int(1 / g)


def chop(P, I, epsilon):
    """Intersect with <y, e0> >= lambda0 for e0 the sum of the facets
    in I and lambda0 their support sum plus epsilon.  Every vertex off
    the chopped face must satisfy <e0, v> > lambda0 strictly: one on the
    new hyperplane would shrink a facet, so ChopTooDeep."""
    I = sorted(set(I))
    epsilon = Fraction(epsilon)
    if not I or epsilon <= 0:
        raise ValidationError("need a nonempty index set and epsilon > 0")
    e0 = tuple(sum(P.edges[i][j] for i in I) for j in range(P.rank))
    lambda0 = epsilon + sum((P.lambdas[i] for i in I), Fraction(0))
    V = vertices(P)
    for vert, tight in zip(V.vertices, V.incidence):
        if set(I) <= tight:
            continue
        height = sum(Fraction(a) * b for a, b in zip(e0, vert))
        if height <= lambda0:
            fate = "removed" if height < lambda0 else "on the new facet"
            raise ChopTooDeep(
                f"vertex ({', '.join(map(str, vert))}) away from the chopped face is {fate}"
            )
    return MomentPolytope.make(P.rank, P.edges + (e0,), P.lambdas + (lambda0,))
