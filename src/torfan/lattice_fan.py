"""Fans of smooth toric varieties: validation, primitive collections,
decompositions of edge sums, and curve classes from edge relations.

A fan stores primitive integer edges and the index sets of its maximal
cones (0-based); lower-dimensional cones are the subsets of those.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from ._feas import equality, feasible_point
from .errors import (
    Inconsistent,
    NoConeContains,
    OverlappingCones,
    RelationFails,
    ValidationError,
)
from .exact_algebra import rank, solve

__all__ = [
    "Fan",
    "FanReport",
    "CurveClass",
    "PrimitiveRelation",
    "validate_fan",
    "primitive_collections",
    "batyrev_decompose",
    "relation_class",
]


@dataclass(frozen=True)
class Fan:
    rank: int
    edges: tuple          # tuple of integer tuples, each of length rank
    max_cones: tuple      # tuple of sorted index tuples

    @staticmethod
    def make(rank, edges, max_cones):
        return Fan(
            rank,
            tuple(tuple(int(x) for x in e) for e in edges),
            tuple(tuple(sorted(int(i) for i in c)) for c in max_cones),
        )


@dataclass(frozen=True)
class FanReport:
    smooth: bool
    complete: bool
    notes: tuple = ()


@dataclass(frozen=True)
class CurveClass:
    intersections: tuple  # one integer per edge
    c1: int
    omega: object = None  # Fraction when support numbers were supplied

    @staticmethod
    def make(intersections, lambdas=None):
        inter = tuple(int(x) for x in intersections)
        omega = None
        if lambdas is not None:
            omega = -sum(
                (Fraction(l) * n for l, n in zip(lambdas, inter)), Fraction(0)
            )
        return CurveClass(inter, sum(inter), omega)


@dataclass(frozen=True)
class PrimitiveRelation:
    I: frozenset
    J: tuple
    c: tuple              # positive integers, parallel to J
    curve_class: CurveClass


def _is_primitive_vector(e):
    g = 0
    for x in e:
        g = gcd(g, x)
    return g == 1


def _check_structure(fan):
    n = fan.rank
    for e in fan.edges:
        if len(e) != n:
            raise ValidationError(f"edge {e} has wrong length")
        if not _is_primitive_vector(e):
            raise ValidationError(f"edge {e} is not primitive")
    for cone in fan.max_cones:
        if any(i < 0 or i >= len(fan.edges) for i in cone):
            raise ValidationError(f"cone {cone} indexes a missing edge")
        if len(set(cone)) != len(cone):
            raise ValidationError(f"cone {cone} repeats an edge")


def _max_minor_gcd(rows, n):
    """gcd of all d x d minors of the d x n integer matrix (d rows)."""
    d = len(rows)
    g = 0
    for cols in combinations(range(n), d):
        sub = [[rows[i][j] for j in cols] for i in range(d)]
        g = gcd(g, _int_det(sub))
        if g == 1:
            return 1
    return abs(g)


def _int_det(M):
    """Integer determinant by fraction-free expansion (small sizes)."""
    n = len(M)
    if n == 0:
        return 1
    if n == 1:
        return M[0][0]
    det = 0
    for j in range(n):
        if M[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in M[1:]]
            det += (-1) ** j * M[0][j] * _int_det(minor)
    return det


def _cones_meet_in_face(fan, ca, cb):
    """Exact separating-functional test that two simplicial cones
    intersect exactly in the cone of their common edges."""
    common = sorted(set(ca) & set(cb))
    only_a = [i for i in ca if i not in common]
    only_b = [i for i in cb if i not in common]
    if not only_a or not only_b:
        return True  # one is a face of the other
    ineqs = []
    for i in common:
        ineqs.extend(equality(fan.edges[i], 0))
    for i in only_a:
        ineqs.append((list(fan.edges[i]), 1))
    for i in only_b:
        ineqs.append(([-x for x in fan.edges[i]], 1))
    return feasible_point(ineqs, fan.rank) is not None


def validate_fan(fan):
    """Smoothness, completeness, and pairwise-face checks.

    Raises OverlappingCones when two maximal cones intersect in a
    non-face; otherwise returns a FanReport.
    """
    _check_structure(fan)
    n = fan.rank
    notes = []

    smooth = True
    for cone in fan.max_cones:
        rows = [list(fan.edges[i]) for i in cone]
        if rank(rows) != len(cone):
            raise ValidationError(f"cone {cone} is not simplicial (dependent edges)")
        if _max_minor_gcd(rows, n) != 1:
            smooth = False
            notes.append(f"cone {cone} does not extend to a lattice basis")

    for a in range(len(fan.max_cones)):
        for b in range(a + 1, len(fan.max_cones)):
            if not _cones_meet_in_face(fan, fan.max_cones[a], fan.max_cones[b]):
                raise OverlappingCones(
                    f"cones {fan.max_cones[a]} and {fan.max_cones[b]} overlap"
                )

    covered = set().union(*map(set, fan.max_cones)) if fan.max_cones else set()
    if covered != set(range(len(fan.edges))):
        notes.append("some edges belong to no maximal cone")

    complete = _is_complete(fan)
    if not complete:
        notes.append("support is a proper subset of the ambient space")
    return FanReport(smooth, complete, tuple(notes))


def _is_complete(fan):
    """Ridge-pairing completeness: pure full-dimensional, every ridge
    shared by exactly two maximal cones, connected through ridges."""
    n = fan.rank
    if not fan.max_cones:
        return False
    if any(len(c) != n for c in fan.max_cones):
        return False
    ridge_count = {}
    for idx, cone in enumerate(fan.max_cones):
        for ridge in combinations(cone, n - 1):
            ridge_count.setdefault(frozenset(ridge), []).append(idx)
    if any(len(v) != 2 for v in ridge_count.values()):
        return False
    # connectivity through shared ridges
    adj = {i: set() for i in range(len(fan.max_cones))}
    for pair in ridge_count.values():
        adj[pair[0]].add(pair[1])
        adj[pair[1]].add(pair[0])
    seen, stack = {0}, [0]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(fan.max_cones)


def _is_face(fan, subset):
    return any(subset <= set(c) for c in fan.max_cones)


def primitive_collections(fan):
    """All minimal index sets spanning no cone of the fan."""
    r = len(fan.edges)
    found = []
    for size in range(1, r + 1):
        for combo in combinations(range(r), size):
            s = set(combo)
            if _is_face(fan, s):
                continue
            if any(set(f) <= s for f in found):
                continue
            if all(_is_face(fan, s - {i}) for i in s):
                found.append(frozenset(s))
    return set(found)


def batyrev_decompose(fan, I, lambdas=None):
    """Express the sum of the edges of a primitive collection in the
    unique cone containing it, returning the induced curve class."""
    I = frozenset(I)
    v = [Fraction(sum(fan.edges[i][j] for i in I)) for j in range(fan.rank)]
    for cone in fan.max_cones:
        cols = [[Fraction(fan.edges[i][j]) for i in cone] for j in range(fan.rank)]
        try:
            coeffs = solve(cols, v)
        except Inconsistent:
            continue
        # the cone is simplicial: check residual of the full system
        residual = [
            sum(c * col for c, col in zip(coeffs, row)) - rhs
            for row, rhs in zip(cols, v)
        ]
        if any(residual):
            continue
        if any(c < 0 for c in coeffs):
            continue
        J, c = [], []
        for idx, coeff in zip(cone, coeffs):
            if coeff:
                if coeff.denominator != 1:
                    raise AssertionError(
                        "non-integral cone coefficients on a smooth fan"
                    )
                J.append(idx)
                c.append(int(coeff))
        if I & set(J):
            raise AssertionError("decomposition support meets the collection")
        intersections = [0] * len(fan.edges)
        for i in I:
            intersections[i] += 1
        for j, cq in zip(J, c):
            intersections[j] -= cq
        cls = CurveClass.make(intersections, lambdas)
        return PrimitiveRelation(I, tuple(J), tuple(c), cls)
    raise NoConeContains(f"edge sum of {sorted(I)} lies in no cone")


def relation_class(fan, coefficients, lambdas):
    """Curve class of an exact linear relation among the edges."""
    coefficients = [int(x) for x in coefficients]
    if len(coefficients) != len(fan.edges):
        raise RelationFails("one coefficient per edge required")
    for j in range(fan.rank):
        if sum(n * fan.edges[i][j] for i, n in enumerate(coefficients)):
            raise RelationFails("coefficients do not annihilate the edges")
    return CurveClass.make(coefficients, lambdas)
