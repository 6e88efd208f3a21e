"""Unit tests for fan validation, primitive collections, and cone
decompositions."""

import random
from itertools import combinations
from math import atan2, gcd

import pytest

from conftest import projective_space
from torfan._feas import equality, feasible_point
from torfan.bundle_blowup import blowup_point, nlb_from_k
from torfan.errors import NoConeContains, OverlappingCones, ValidationError
from torfan.exact_algebra import rank
from torfan.lattice_fan import (
    Fan,
    batyrev_decompose,
    primitive_collections,
    validate_fan,
)
from torfan.polytope import MomentPolytope


def test_projective_plane_validates(p2):
    fan, _ = p2
    report = validate_fan(fan)
    assert report.smooth and report.complete


def test_primitive_collections_projective_plane(p2):
    fan, _ = p2
    assert set(primitive_collections(fan)) == {frozenset({0, 1, 2})}


def test_primitive_collections_product(p1xp1):
    fan, _ = p1xp1
    assert sorted(sorted(I) for I in primitive_collections(fan)) == [
        [0, 1],
        [2, 3],
    ]


def test_non_primitive_edge_rejected():
    fan = Fan.make(2, [(2, 4), (0, 1)], [(0, 1)])
    with pytest.raises(ValidationError):
        validate_fan(fan)


def test_overlapping_cones_detected():
    fan = Fan.make(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)])
    with pytest.raises(OverlappingCones):
        validate_fan(fan)


def test_non_smooth_cone_reported():
    fan = Fan.make(2, [(1, 0), (1, 2)], [(0, 1)])
    assert not validate_fan(fan).smooth


def test_incomplete_fan_reported():
    fan = Fan.make(2, [(1, 0), (0, 1)], [(0, 1)])
    assert not validate_fan(fan).complete


def test_batyrev_decompose_product(p1xp1):
    fan, P = p1xp1
    rel = batyrev_decompose(fan, frozenset({0, 1}), lambdas=P.lambdas)
    assert rel.c == ()
    assert rel.curve_class.c1 == 2


def test_batyrev_blowup_relation():
    # blow-up of the affine plane: edges e1, e2, e1 + e2
    fan = Fan.make(2, [(1, 0), (0, 1), (1, 1)], [(0, 2), (1, 2)])
    rel = batyrev_decompose(fan, frozenset({0, 1}))
    assert sorted(zip(rel.J, rel.c)) == [(2, 1)]
    assert rel.curve_class.c1 == 2 - 1


def test_no_cone_contains():
    # incomplete fan: the sum of the collection points into the gap
    fan = Fan.make(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)])
    with pytest.raises(NoConeContains):
        batyrev_decompose(fan, frozenset({0, 2}))


def test_duplicate_maximal_cone_rejected():
    # (0, 2) and (2, 0) are the same cone
    fan = Fan.make(
        2, [(-5, -4), (-5, -2), (1, -3), (-1, 2)], [(0, 2), (1, 3), (2, 0), (3, 1)]
    )
    with pytest.raises(ValidationError, match="nested"):
        validate_fan(fan)


def test_nested_maximal_cone_rejected():
    fan = Fan.make(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0), (1,)])
    with pytest.raises(ValidationError, match="nested"):
        validate_fan(fan)


def test_pentagram_covers_twice():
    # five rays, each joined to the next but one: every ray lies in two
    # cones, on opposite sides, and only the generic ray shows that the
    # cones wind twice round the circle
    fan = Fan.make(
        2,
        [(1, 0), (1, 2), (-1, 1), (-1, -1), (1, -2)],
        [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)],
    )
    with pytest.raises(OverlappingCones, match="lies in 2 maximal cones"):
        validate_fan(fan)


def test_complete_fan_with_cones_on_one_side_of_a_ridge():
    # every ray lies in two cones, but (1, 0) and (1, 1) are both on the
    # right of the ray (0, 1) that their cones share
    fan = Fan.make(
        2, [(1, 0), (0, 1), (1, 1), (-1, -2)], [(0, 1), (1, 2), (2, 3), (3, 0)]
    )
    with pytest.raises(OverlappingCones, match="same side"):
        validate_fan(fan)


def test_rank_one_complete_fan():
    report = validate_fan(Fan.make(1, [(1,), (-1,)], [(0,), (1,)]))
    assert report.smooth and report.complete and report.notes == ()


# -- agreement with pairwise Fourier–Motzkin on random fans --------------


def _oracle(fan):
    """The verdict of the pairwise check: "invalid" for a non-simplicial
    or nested maximal cone, "overlap" when some two maximal cones admit no
    separating functional vanishing on their common edges, else "ok"."""
    cones = [set(c) for c in fan.max_cones]
    if any(rank([fan.edges[i] for i in c]) < len(c) for c in cones):
        return "invalid"
    if any(a <= b or b <= a for a, b in combinations(cones, 2)):
        return "invalid"
    for a, b in combinations(cones, 2):
        ineqs = [q for i in a & b for q in equality(fan.edges[i], 0)]
        ineqs += [(list(fan.edges[i]), 1) for i in a - b]
        ineqs += [([-x for x in fan.edges[i]], 1) for i in b - a]
        if feasible_point(ineqs, fan.rank) is None:
            return "overlap"
    return "ok"


def _verdict(fan):
    try:
        validate_fan(fan)
    except OverlappingCones:
        return "overlap"
    except ValidationError:
        return "invalid"
    return "ok"


def _circle_fan(rng):
    """Rays sorted by angle, each joined to the one w places on (w = 1, 2
    or 3 windings when the steps stay below a half turn)."""
    rays = set()
    m = rng.randint(3, 8)
    while len(rays) < m:
        x, y = rng.randint(-4, 4), rng.randint(-4, 4)
        if gcd(x, y) == 1:
            rays.add((x, y))
    rays = sorted(rays, key=lambda r: atan2(r[1], r[0]))
    w = rng.randint(1, min(3, m - 1))
    return Fan.make(2, rays, [(i, (i + w) % m) for i in range(m)])


def _times_line(fan):
    """The product of a fan with the fan of the projective line."""
    n, r = fan.rank, len(fan.edges)
    edges = [e + (0,) for e in fan.edges] + [(0,) * n + (1,), (0,) * n + (-1,)]
    return Fan.make(n + 1, edges, [c + (i,) for c in fan.max_cones for i in (r, r + 1)])


def _lines(k):
    fan = Fan.make(1, [(1,), (-1,)], [(0,), (1,)])
    for _ in range(k - 1):
        fan = _times_line(fan)
    return fan


def _ladder():
    fans = [projective_space(m)[0] for m in range(2, 9)]
    fans += [_lines(k) for k in (2, 3, 4)]
    fans += [nlb_from_k(*projective_space(m), k)[0] for m in (1, 2, 3) for k in range(1, m + 1)]
    for m, points in ((2, 3), (3, 1)):
        fan, _ = projective_space(m)
        P = MomentPolytope.make(m, fan.edges, [-1] * (m + 1))
        for _ in range(points):
            cone = next(i for i, c in enumerate(fan.max_cones) if max(c) <= m)
            fan, P = blowup_point(fan, P, cone)
        fans.append(fan)
    return fans


def _mutate(rng, fan):
    """Put another edge into one cone in place of one of its own, move one
    edge by up to two steps in two coordinates, or drop a cone."""
    edges, cones = [list(e) for e in fan.edges], [list(c) for c in fan.max_cones]
    kind = rng.choice(("swap", "perturb", "drop"))
    if kind == "swap":
        cone = rng.choice(cones)
        cone[rng.randrange(len(cone))] = rng.choice(
            [i for i in range(len(edges)) if i not in cone] or cone
        )
    elif kind == "perturb":
        e = rng.choice(edges)
        for j in rng.sample(range(fan.rank), min(2, fan.rank)):
            e[j] += rng.randint(-2, 2)
        g = gcd(*e)
        if g == 0:
            return fan
        e[:] = [x // g for x in e]
    else:
        cones.pop(rng.randrange(len(cones)))
    return Fan.make(fan.rank, edges, cones)


def test_verdicts_agree_with_pairwise_fourier_motzkin():
    rng = random.Random(6)
    fans = [_circle_fan(rng) for _ in range(150)]
    fans += [_mutate(rng, f) for f in fans[:100]]
    fans += [_times_line(f) for f in fans[:30]]
    for fan in _ladder():
        fans.append(fan)
        for _ in range(6 if fan.rank <= 3 else 2):
            fans += [_mutate(rng, fan), _mutate(rng, _mutate(rng, fan))]
    verdicts = [_oracle(fan) for fan in fans]
    assert [_verdict(fan) for fan in fans] == verdicts
    assert {"ok", "overlap", "invalid"} <= set(verdicts)
