"""The fraction-free Buchberger engine against the rational one.

``_normal_form``, ``_s_poly`` and ``_groebner_basis`` below are the
division algorithm and Buchberger loop in ``Fraction`` arithmetic that
``groebner`` ran before it reduced over ℤ.  They make the same choice of
term and divisor at every step, so ``groebner_basis`` and
``normal_form`` must return the same generators, in the same order, with
the same ``Fraction`` terms in the same order.
"""

import heapq
import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import four_variable_generators, oracle_ladder, random_ideal_generators, random_poly
from torfan import superpotential
from torfan.exact_algebra import GroebnerBasis, Polynomial, Ring, groebner, groebner_basis, normal_form
from torfan.exact_algebra.poly import grevlex_key, mono_div, mono_divides, mono_lcm, mono_mul
from torfan.quantum_algebra import qh_presentation
from torfan.superpotential import build_superpotential, jacobian_ring

F = Fraction


# -- reference: the rational division algorithm and Buchberger loop ----------


def _normal_form(f, G):
    gens = G.generators if isinstance(G, GroebnerBasis) else [g for g in G if g]
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


def _groebner_basis(generators):
    gens = [g for g in generators if g]
    G = []
    for g in gens:
        h = _normal_form(g, G)
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
        if lcm == mono_mul(lmi, lmj):
            continue
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
        h = _normal_form(_s_poly(G[i], G[j]), G)
        if h:
            h = h.monic()
            G.append(h)
            lms.append(h.leading_monomial())
            new = len(G) - 1
            for k in range(new):
                push_pair(k, new)

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

    reduced = []
    for i, g in enumerate(polys):
        others = polys[:i] + polys[i + 1 :]
        h = _normal_form(g, others)
        if h:
            reduced.append(h.monic())
    reduced.sort(key=lambda g: grevlex_key(g.leading_monomial()))
    return reduced


# -- cases ---------------------------------------------------------------------


class _Captured(Exception):
    pass


def _capture(gens):
    raise _Captured(list(gens))


def _jacobian_generators(P, coefficients=None):
    """The generator list that jacobian_ring hands to groebner_basis."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(superpotential, "groebner_basis", _capture)
        try:
            jacobian_ring(build_superpotential(P), coefficients)
        except _Captured as exc:
            return exc.args[0]
    raise AssertionError("jacobian_ring built no Groebner basis")


def _int_coefficients(p):
    """p times 6 with plain int coefficients (random_poly's denominators
    are at most 3)."""
    return Polynomial(p.ring, {m: int(c * 6) for m, c in p.terms.items()})


@pytest.fixture(scope="module")
def ideals():
    """(label, generator list): QH relations and Jacobian generators of
    the ladder, Jacobian generators with seeded rational coefficients
    (denominators up to 10^8), the four-variable ideal and 40 seeded
    random ideals."""
    out = []
    ladder = oracle_ladder()
    for name, fan, P in ladder:
        pres, _ = qh_presentation(fan, P)
        out.append((f"QH {name}", pres.relations_t1()))
        out.append((f"Jac {name}", _jacobian_generators(P)))
    rng = random.Random(20261019)
    for name, fan, P in ladder:
        coeffs = [F(rng.uniform(0.1, 3)).limit_denominator(10 ** 8) for _ in P.edges]
        out.append((f"Jac {name} seeded", _jacobian_generators(P, coeffs)))
    out.append(("four-variable", four_variable_generators()))
    for case in range(40):
        ring = Ring(("a", "b", "c")[: 2 + case % 2])
        out.append((f"random {case}", random_ideal_generators(rng, ring, int(case % 8 == 0))))
    return out


def _items(polys):
    return [[(m, c, type(c)) for m, c in p.terms.items()] for p in polys]


# -- tests ---------------------------------------------------------------------


def test_groebner_basis_matches_the_rational_loop(ideals):
    whole_ring = 0
    for label, gens in ideals:
        G = groebner_basis(gens)
        assert _items(G.generators) == _items(_groebner_basis(gens)), label
        whole_ring += G.leading_monomials() == [(0,) * G.ring.nvars]
    assert len(ideals) == 9 * 3 + 1 + 40
    assert whole_ring >= 1  # some random ideal is the whole ring


def _divisor_lists(rng, ring, gens):
    """Lists that need not be Groebner bases: the generators themselves,
    seeded lists with non-unit and negative leading coefficients, and one
    with plain int coefficients."""
    lists = [gens]
    for _ in range(2):
        lists.append([random_poly(rng, ring, 3, 3) for _ in range(rng.randint(1, 4))])
    lists.append([_int_coefficients(random_poly(rng, ring, 2, 3)) for _ in range(3)])
    return lists


def test_normal_form_matches_the_rational_division_algorithm(ideals):
    rng = random.Random(7)
    seen = {"int divisor": 0, "int f": 0, "negative lc": 0, "non-unit lc": 0}
    for label, gens in ideals:
        ring = gens[0].ring
        G = groebner_basis(gens)
        fs = [random_poly(rng, ring, 4, 6) for _ in range(3)]
        fs += [ring.zero(), ring.constant(F(-5, 2)), ring.constant(7)]
        # the rational loop divides int by int into a float, so plain int
        # coefficients appear on one side of each pair only
        for divisors in [G, *_divisor_lists(rng, ring, gens)]:
            int_divisor = any(type(c) is int for g in divisors for c in g.terms.values())
            lcs = [g.leading_coeff() for g in divisors if g]
            seen["int divisor"] += int_divisor
            seen["negative lc"] += any(c < 0 for c in lcs)
            seen["non-unit lc"] += any(abs(c) != 1 for c in lcs)
            cases = fs if int_divisor else fs + [_int_coefficients(f) for f in fs[:3]]
            seen["int f"] += not int_divisor
            for f in cases:
                assert _items([normal_form(f, divisors)]) == _items([_normal_form(f, divisors)]), label
    assert all(seen.values()), seen


def test_basis_elements_are_primitive_with_positive_leading_coefficient(ideals, monkeypatch):
    # one integer form per basis element; the remainders do not depend on
    # it, so only the triples handed to the reduction loop show it
    checked = []
    reduce = groebner._reduce

    def checking(rest, basis):
        for lm, lc, tail in basis:
            assert lc > 0 and gcd(lc, *(c for _, c in tail)) == 1
            checked.append(lc)
        return reduce(rest, basis)

    monkeypatch.setattr(groebner, "_reduce", checking)
    for label, gens in ideals:
        groebner_basis(gens)
    assert any(lc > 1 for lc in checked)


ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__")


def test_groebner_basis_does_no_polynomial_arithmetic(ideals, monkeypatch):
    rng = random.Random(11)
    cases = ideals[::4]
    fs = [random_poly(rng, gens[0].ring, 4, 6) for _, gens in cases]
    expected = [
        (_items(_groebner_basis(gens)), _items([_normal_form(f, gens)]))
        for (_, gens), f in zip(cases, fs)
    ]

    def refuse(*args):
        raise AssertionError("Polynomial arithmetic")

    for name in ARITHMETIC:
        monkeypatch.setattr(Polynomial, name, refuse)
    for (label, gens), f, (basis, nf) in zip(cases, fs, expected):
        assert _items(groebner_basis(gens).generators) == basis, label
        assert _items([normal_form(f, gens)]) == nf, label
