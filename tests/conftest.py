"""Shared example constructions for the test suite."""

import pytest

from torfan.exact_algebra import groebner_basis, normal_form
from torfan.lattice_fan import Fan
from torfan.polytope import MomentPolytope


def projective_space(m):
    """Fan and monotone moment polytope of m-dimensional projective
    space (index m+1)."""
    edges = [tuple(1 if j == i else 0 for j in range(m)) for i in range(m)]
    edges.append((-1,) * m)
    cones = [tuple(j for j in range(m + 1) if j != i) for i in range(m + 1)]
    fan = Fan.make(m, edges, cones)
    P = MomentPolytope.make(m, edges, [0] * m + [-1])
    return fan, P


def product_of_lines(k=2):
    """Fan and monotone moment polytope of the product of k lines
    (index 2)."""
    edges, cones = [], [()]
    for i in range(k):
        unit = tuple(1 if j == i else 0 for j in range(k))
        edges += [unit, tuple(-x for x in unit)]
        cones = [c + (2 * i + s,) for c in cones for s in (0, 1)]
    fan = Fan.make(k, edges, cones)
    P = MomentPolytope.make(k, edges, [0, -1] * k)
    return fan, P


def ideal_equal(gens_a, gens_b):
    """Exact ideal equality via mutual normal-form membership."""
    Ga = groebner_basis(list(gens_a))
    Gb = groebner_basis(list(gens_b))
    return all(not normal_form(f, Gb).terms for f in gens_a) and all(
        not normal_form(f, Ga).terms for f in gens_b
    )


@pytest.fixture
def p2():
    return projective_space(2)


@pytest.fixture
def p1xp1():
    return product_of_lines()
