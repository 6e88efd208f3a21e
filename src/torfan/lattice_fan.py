"""Fans of smooth toric varieties: validation, primitive collections,
decompositions of edge sums, and the curve classes of primitive relations.

A fan stores primitive integer edges and the index sets of its maximal
cones (0-based); lower-dimensional cones are the subsets of those, and
primitive collections are the minimal non-faces of that face set.
"""

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from ._feas import equality, feasible_point
from .errors import (
    Inconsistent,
    NoConeContains,
    OverlappingCones,
    ValidationError,
)
from .exact_algebra import rank, solve
from .exact_algebra.linalg import _int_det

__all__ = [
    "Fan",
    "FanReport",
    "CurveClass",
    "PrimitiveRelation",
    "validate_fan",
    "primitive_collections",
    "batyrev_decompose",
    "edge_names",
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

    @staticmethod
    def make(intersections):
        inter = tuple(int(x) for x in intersections)
        return CurveClass(inter, sum(inter))


@dataclass(frozen=True)
class PrimitiveRelation:
    I: frozenset
    J: tuple
    c: tuple              # positive integers, parallel to J
    curve_class: CurveClass


def edge_names(fan, I):
    """The edges indexed by I as vectors, "(1, 0), (-1, 0)": the fan
    indexes its edges from 0 and documents from 1, so messages name
    edges by what they are."""
    return ", ".join(f"({', '.join(map(str, fan.edges[i]))})" for i in I)


def _check_structure(fan):
    n = fan.rank
    for e in fan.edges:
        if len(e) != n:
            raise ValidationError(f"edge {e} has wrong length")
        if gcd(*e) != 1:
            raise ValidationError(f"edge {e} is not primitive")
    for cone in fan.max_cones:
        if any(i < 0 or i >= len(fan.edges) for i in cone):
            raise ValidationError(f"cone {cone} indexes a missing edge")
        if len(set(cone)) != len(cone):
            raise ValidationError(f"cone [{edge_names(fan, cone)}] repeats an edge")
    for ca, cb in combinations(fan.max_cones, 2):
        if set(ca) <= set(cb) or set(cb) <= set(ca):
            raise ValidationError(
                f"maximal cones [{edge_names(fan, ca)}] and [{edge_names(fan, cb)}]"
                " are equal or nested"
            )


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


def _cones_meet_in_face(fan, ca, cb):
    """Exact separating-functional test that two simplicial cones, neither
    a face of the other, intersect exactly in the cone of their common
    edges."""
    a, b = set(ca), set(cb)
    ineqs = [q for i in a & b for q in equality(fan.edges[i], 0)]
    ineqs += [(list(fan.edges[i]), 1) for i in a - b]
    ineqs += [([-x for x in fan.edges[i]], 1) for i in b - a]
    return feasible_point(ineqs, fan.rank) is not None


def _coordinates(fan, cone, v):
    """Coefficients of the vector v on the edges of the cone, from one
    exact solve, or None when v is off the span of those edges."""
    cols = [[fan.edges[i][j] for i in cone] for j in range(fan.rank)]
    try:
        return solve(cols, v)
    except Inconsistent:
        return None


def validate_fan(fan):
    """Smoothness, completeness, and pairwise-face checks.

    Raises OverlappingCones when two maximal cones intersect in a
    non-face; otherwise returns a FanReport.

    Two full-dimensional cones on a common ridge meet in it exactly when
    their other edges lie on opposite sides of it.  A pure fan whose
    every ridge lies in exactly two cones, on opposite sides, covers the
    sphere of rays with a constant multiplicity d (Ewald, Combinatorial
    Convexity and Algebraic Geometry, ch. V); d = 1 exactly when the edge
    sum of the first cone, interior to it, lies in one closed maximal cone
    (a limit of generic rays puts it in d of them).  Otherwise the pairs
    that share no ridge are checked by exact Fourier–Motzkin elimination.
    """
    _check_structure(fan)
    n = fan.rank
    notes = []

    smooth = True
    dets = {}  # index of each full-dimensional cone -> its determinant
    for a, cone in enumerate(fan.max_cones):
        rows = [fan.edges[i] for i in cone]
        if len(cone) == n:
            det = dets[a] = _int_det(rows)
            simplicial, unimodular = det != 0, abs(det) == 1
        else:
            simplicial = rank(rows) == len(cone)
            unimodular = simplicial and _max_minor_gcd(rows, n) == 1
        if not simplicial:
            raise ValidationError(
                f"cone [{edge_names(fan, cone)}] is not simplicial (dependent edges)"
            )
        if not unimodular:
            smooth = False
            notes.append(f"cone [{edge_names(fan, cone)}] does not extend to a lattice basis")

    # Cones list their edges in index order, so a ridge is one tuple in
    # every cone on it.  The side of the ridge on which the cone's k-th
    # edge lies is the sign of det(ridge rows, k-th row), which is the
    # cone's det times (-1)^(n-1-k).
    ridges = {}
    for a, det in dets.items():
        cone = fan.max_cones[a]
        for k in range(n):
            side = (det > 0) == ((n - 1 - k) % 2 == 0)
            ridges.setdefault(cone[:k] + cone[k + 1:], []).append((a, side))
    for sides in ridges.values():
        seen = {}
        for a, side in sides:
            if side in seen:
                raise OverlappingCones(
                    f"cones [{edge_names(fan, fan.max_cones[seen[side]])}] and"
                    f" [{edge_names(fan, fan.max_cones[a])}] lie on the same side"
                    " of their common ridge"
                )
            seen[side] = a

    complete = (
        len(dets) == len(fan.max_cones) > 0
        and all(len(sides) == 2 for sides in ridges.values())
    )
    if complete:
        first = fan.max_cones[0]
        v = [sum(fan.edges[i][j] for i in first) for j in range(n)]
        holding = [c for c in fan.max_cones if all(x >= 0 for x in _coordinates(fan, c, v))]
        if len(holding) != 1:
            raise OverlappingCones(
                f"the ray {tuple(v)} through the interior of cone"
                f" [{edge_names(fan, first)}] lies in {len(holding)} maximal cones: "
                + ", ".join(f"[{edge_names(fan, c)}]" for c in holding)
            )
    else:
        adjacent = {frozenset(a for a, _ in sides) for sides in ridges.values()}
        for a, b in combinations(range(len(fan.max_cones)), 2):
            ca, cb = fan.max_cones[a], fan.max_cones[b]
            if frozenset((a, b)) not in adjacent and not _cones_meet_in_face(fan, ca, cb):
                raise OverlappingCones(
                    f"cones [{edge_names(fan, ca)}] and [{edge_names(fan, cb)}] overlap"
                )

    covered = set().union(*map(set, fan.max_cones)) if fan.max_cones else set()
    if covered != set(range(len(fan.edges))):
        notes.append("some edges belong to no maximal cone")

    if not complete:
        notes.append("support is a proper subset of the ambient space")
    return FanReport(smooth, complete, tuple(notes))


def primitive_collections(fan):
    """All minimal index sets spanning no cone of the fan: the non-faces
    S whose every facet S - {i} is a face (a smaller non-face inside S
    would make some facet one).  S - {max S} is a face, so each S is read
    off the face set as a face F plus an edge beyond max F."""
    faces = {
        frozenset(s)
        for cone in fan.max_cones
        for k in range(len(cone) + 1)
        for s in combinations(cone, k)
    }
    found = set()
    for face in faces:
        for i in range(max(face, default=-1) + 1, len(fan.edges)):
            s = face | {i}
            if s not in faces and all(s - {j} in faces for j in face):
                found.add(s)
    return found


def batyrev_decompose(fan, I):
    """Express the sum of the edges of a primitive collection in the
    unique cone containing it, returning the induced curve class."""
    I = frozenset(I)
    v = [sum(fan.edges[i][j] for i in I) for j in range(fan.rank)]
    for cone in fan.max_cones:
        coeffs = _coordinates(fan, cone, v)
        if coeffs is None or any(c < 0 for c in coeffs):
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
        return PrimitiveRelation(I, tuple(J), tuple(c), CurveClass.make(intersections))
    raise NoConeContains(f"the sum of edges {edge_names(fan, sorted(I))} lies in no cone")
