"""Shared example constructions for the test suite."""

from fractions import Fraction

import pytest

from torfan.bundle_blowup import blowup_point, nlb_from_k
from torfan.exact_algebra import Polynomial, Ring, charpoly, groebner_basis, normal_form
from torfan.lattice_fan import Fan
from torfan.polytope import MomentPolytope
from torfan.quantum_algebra import omega_operator, qh_presentation


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


def reflexive_blowup(m, points):
    """Reflexive P^m (every support number -1) blown up at ``points``
    torus-fixed points, each in a cone of the original edges."""
    edges = [tuple(int(i == j) for j in range(m)) for i in range(m)] + [(-1,) * m]
    cones = [tuple(j for j in range(m + 1) if j != i) for i in range(m + 1)]
    fan, P = Fan.make(m, edges, cones), MomentPolytope.make(m, edges, [-1] * (m + 1))
    for _ in range(points):
        cone = next(i for i, c in enumerate(fan.max_cones) if max(c) <= m)
        fan, P = blowup_point(fan, P, cone)
    return fan, P


def oracle_ladder():
    """(name, fan, polytope) for a subset of the benchmark ladder."""
    out = [(f"P{m}", *projective_space(m)) for m in (2, 3, 4)]
    out += [(f"P1^{k}", *product_of_lines(k)) for k in (2, 3)]
    for m, k in ((2, 1), (3, 2)):
        fan, P, _ = nlb_from_k(*projective_space(m), k)
        out.append((f"O(-{k})->P{m}", fan, P))
    out.append(("Bl2P2", *reflexive_blowup(2, 2)))
    out.append(("Bl1P3", *reflexive_blowup(3, 1)))
    return out


def four_variable_generators():
    """A zero-dimensional ideal in four variables whose quotient has
    dimension 54."""
    ring = Ring(("x", "y", "z", "w"))
    x, y, z, w = (ring.var(i) for i in range(4))
    return [x ** 3 + y ** 2 - z * w, y ** 3 - x * z + w ** 2, z ** 3 - x * y * w - 1, w ** 2 - x - y - z]


def random_poly(rng, ring, degree, terms):
    """A sum of ``terms`` seeded terms of degree at most ``degree``."""
    out = ring.zero()
    for _ in range(terms):
        m = [0] * ring.nvars
        for _ in range(rng.randint(0, degree)):
            m[rng.randrange(ring.nvars)] += 1
        out = out + ring.monomial(m, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return out


def random_ideal_generators(rng, ring, extra):
    """A pure power of each variable plus lower terms, so the ideal is
    zero-dimensional; half of the time without constant terms, so the
    origin is a point of the variety.  ``extra`` random generators
    mostly make it the whole ring."""
    origin = rng.random() < 0.5
    gens = []
    for i in range(ring.nvars):
        a = rng.randint(1, 3)
        g = ring.var(i) ** a + random_poly(rng, ring, a - 1, 3)
        gens.append(Polynomial(ring, {m: c for m, c in g.terms.items() if any(m) or not origin}))
    gens += [random_poly(rng, ring, 2, 3) for _ in range(extra)]
    return gens


def ladder_omega_operators():
    """(name, matrix of omega on QH) over the benchmark's toric ladder:
    P^2..P^8, (P^1)^2..(P^1)^5, O(-k) -> P^m for 1 <= k <= m <= 4, and
    reflexive P^2 blown up at 1-3 points and P^3 at one."""
    cases = [(f"P{m}", projective_space(m)) for m in range(2, 9)]
    cases += [(f"P1^{k}", product_of_lines(k)) for k in range(2, 6)]
    for m in range(1, 5):
        for k in range(1, m + 1):
            cases.append((f"O(-{k})->P{m}", nlb_from_k(*projective_space(m), k)[:2]))
    for m, points in ((2, 1), (2, 2), (2, 3), (3, 1)):
        fan, P = projective_space(m)
        P = MomentPolytope.make(m, fan.edges, [-1] * (m + 1))
        for _ in range(points):
            fan, P = blowup_point(fan, P, next(i for i, c in enumerate(fan.max_cones) if max(c) <= m))
        cases.append((f"Bl{points}P{m}", (fan, P)))
    return [(name, omega_operator(qh_presentation(fan, P)[1], P)) for name, (fan, P) in cases]


def ladder_omega_charpolys():
    """(name, characteristic polynomial of omega on QH) over the ladder
    of ladder_omega_operators."""
    return [(name, charpoly(M)) for name, M in ladder_omega_operators()]


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
