"""Unit tests for fan validation, primitive collections, and cone
decompositions."""

import pytest

from torfan.errors import NoConeContains, OverlappingCones, ValidationError
from torfan.lattice_fan import (
    Fan,
    batyrev_decompose,
    primitive_collections,
    validate_fan,
)


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
    assert rel.c == [] or all(c == 0 for c in rel.c)
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
