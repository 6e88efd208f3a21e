"""Unit tests for moment-polytope geometry."""

from fractions import Fraction
from itertools import product
from math import ceil, floor

import pytest

from conftest import product_of_lines, projective_space, reflexive_blowup

from torfan.errors import (
    ChopTooDeep,
    DivisibilityFails,
    EmptyPolytope,
    Inconsistent,
    Unbounded,
)
from torfan.polytope import (
    MomentPolytope,
    barycentre,
    check_reflexive,
    chop,
    fano_index,
    is_bounded,
    normalize_monotone,
    vertices,
)

F = Fraction


def reflexive_simplex():
    return MomentPolytope.make(2, [(1, 0), (0, 1), (-1, -1)], [-1, -1, -1])


def test_vertices_of_triangle(p2):
    _, P = p2
    V = vertices(P)
    assert V.vertices == ((F(0), F(0)), (F(0), F(1)), (F(1), F(0)))
    assert all(len(t) == 2 for t in V.incidence)


def test_empty_polytope():
    P = MomentPolytope.make(1, [(1,), (-1,)], [1, 0])
    with pytest.raises(EmptyPolytope):
        vertices(P)


def test_boundedness():
    quadrant = MomentPolytope.make(2, [(1, 0), (0, 1)], [0, 0])
    assert not is_bounded(quadrant)
    with pytest.raises(Unbounded):
        check_reflexive(quadrant)


def test_reflexive_square():
    Q = MomentPolytope.make(
        2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [-1, -1, -1, -1]
    )
    assert check_reflexive(Q)


def test_reflexive_fails_on_wrong_support():
    assert not check_reflexive(
        MomentPolytope.make(2, [(1, 0), (0, 1), (-1, -1)], [0, 0, -1])
    )


def _interior_lattice_points(P):
    """Integer points strictly inside the bounded polytope P, scanned
    over the bounding box of its vertices."""
    coords = list(zip(*vertices(P).vertices))
    box = product(*(range(ceil(min(c)), floor(max(c)) + 1) for c in coords))
    return [
        y
        for y in box
        if all(sum(a * b for a, b in zip(e, y)) > l for e, l in zip(P.edges, P.lambdas))
    ]


def _reflexive_by_scan(P):
    """Reflexivity as first defined: every support number -1, integral
    vertices, and 0 the only interior lattice point."""
    return (
        all(l == -1 for l in P.lambdas)
        and all(c.denominator == 1 for v in vertices(P).vertices for c in v)
        and _interior_lattice_points(P) == [(0,) * P.rank]
    )


def _cube(m):
    edges = [tuple(s * int(i == j) for j in range(m)) for i in range(m) for s in (1, -1)]
    return MomentPolytope.make(m, edges, [-1] * (2 * m))


SCAN_CASES = (
    [(f"reflexive P{m}", reflexive_blowup(m, 0)[1], True) for m in (2, 3, 4)]
    + [("square", _cube(2), True), ("cube", _cube(3), True)]
    + [
        (f"reflexive P{m} blown up at {k}", reflexive_blowup(m, k)[1], True)
        for m, k in ((2, 1), (2, 2), (2, 3), (3, 1))
    ]
    + [(f"P{m}", projective_space(m)[1], False) for m in (2, 3, 4)]
    + [(f"P1^{k}", product_of_lines(k)[1], False) for k in (2, 3)]
    + [
        # every support number -1, but a vertex at (-3/5, -1/5)
        (
            "fractional triangle",
            MomentPolytope.make(2, [(1, 2), (2, -1), (-1, -1)], [-1] * 3),
            False,
        ),
        # the vertex on the first two facets is (-1, -1, 3/2)
        (
            "fractional simplex",
            MomentPolytope.make(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -2)], [-1] * 4),
            False,
        ),
    ]
)


@pytest.mark.parametrize("P,reflexive", [pytest.param(P, r, id=n) for n, P, r in SCAN_CASES])
def test_check_reflexive_matches_the_lattice_scan(P, reflexive):
    assert check_reflexive(P) == _reflexive_by_scan(P) == reflexive
    # with every support number -1 the origin is the only interior
    # lattice point, whether or not the vertices are integral
    if all(l == -1 for l in P.lambdas):
        assert _interior_lattice_points(P) == [(0,) * P.rank]


def test_normalize_monotone_simplex():
    P = reflexive_simplex()
    v = (F(-1), F(-1))  # a vertex
    Pn, d = normalize_monotone(P, v)
    assert d == 3
    assert fano_index(Pn) == 3


def test_normalize_monotone_divisibility_failure():
    P = reflexive_simplex()
    with pytest.raises(DivisibilityFails):
        normalize_monotone(P, (F(1, 2), F(0)))


def test_barycentre_and_fano_index(p2):
    _, P = p2
    assert fano_index(P) == 3
    assert barycentre(P, 3) == (F(1, 3), F(1, 3))


def test_fano_index_inconsistent():
    P = MomentPolytope.make(
        2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [0, -1, 0, -2]
    )
    with pytest.raises(Inconsistent):
        fano_index(P)


def test_chop_adds_vertex(p2):
    _, P = p2
    chopped = chop(P, [0, 1], F(1, 2))
    assert len(vertices(chopped).vertices) == 4


def test_chop_too_deep(p2):
    _, P = p2
    with pytest.raises(ChopTooDeep):
        chop(P, [0, 1], F(3))


def test_chop_onto_a_vertex_is_too_deep(p1xp1):
    # the unit square chopped at the corner (0, 0) to depth 1: the line
    # y1 + y2 = 1 passes through (1, 0) and (0, 1), so two facets would
    # shrink to points and the pentagon would be a triangle
    _, P = p1xp1
    with pytest.raises(ChopTooDeep, match=r"vertex \(0, 1\) .* is on the new facet"):
        chop(P, [0, 2], F(1))
    assert len(vertices(chop(P, [0, 2], F(1, 2))).vertices) == 5
