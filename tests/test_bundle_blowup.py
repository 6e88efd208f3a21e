"""Unit tests for line-bundle total spaces and blow-up surgery."""

import inspect
import warnings
from fractions import Fraction

import pytest

from conftest import projective_space
from torfan.bundle_blowup import (
    LineBundleSpec,
    blowup_face,
    blowup_point,
    line_bundle_fan,
    monotone_epsilon,
    nlb_from_k,
)
from torfan.errors import NotAFace, NotMonotone
from torfan.lattice_fan import validate_fan
from torfan.polytope import fano_index, vertices

F = Fraction


def test_line_bundle_fan_shape(p2):
    fan, _ = p2
    spec = LineBundleSpec((0, 0, -1))
    fan_E = line_bundle_fan(fan, spec)
    assert fan_E.rank == 3
    assert fan_E.edges[-1] == (0, 0, 1)
    assert fan_E.edges[2] == (-1, -1, 1)
    assert all(len(c) == 3 for c in fan_E.max_cones)
    assert validate_fan(fan_E).smooth


def test_nlb_from_k(p2):
    fan, P = p2
    fan_E, P_E, spec = nlb_from_k(fan, P, 1)
    assert spec.n == (0, 0, -1)
    assert (spec.lam_B, spec.lam_E) == (3, 2)
    assert P_E.lambdas == P.lambdas + (F(0),)
    assert fano_index(P_E) == 2


def test_nlb_twist_bounds(p2):
    fan, P = p2
    for k in (0, 3, 5):
        with pytest.raises(NotMonotone):
            nlb_from_k(fan, P, k)


def test_blowup_point(p2):
    fan, P = p2
    # cone spanned by e1, e2; shallow chop keeps all old vertices but one
    new_fan, new_P = blowup_point(fan, P, 2, epsilon=F(1, 2))
    assert len(new_fan.edges) == 4
    report = validate_fan(new_fan)
    assert report.smooth and report.complete
    assert len(vertices(new_P).vertices) == 4


def test_blowup_point_reflexive_monotone_depth():
    fan, _ = projective_space(2)
    from torfan.polytope import MomentPolytope

    P = MomentPolytope.make(2, fan.edges, [-1, -1, -1])
    new_fan, new_P = blowup_point(fan, P, 2)  # default monotone epsilon 1
    assert len(vertices(new_P).vertices) == 4


def test_blowup_face():
    fan, P = projective_space(3)
    # depth 1 would reach the far vertices of the unit simplex and collapse
    # the polytope to a segment: half of it keeps them strictly inside
    new_fan, new_P = blowup_face(fan, P, [0, 1], epsilon=F(1, 2))
    assert len(new_fan.edges) == 5
    assert validate_fan(new_fan).smooth
    assert new_fan.edges[-1] == (1, 1, 0)


def test_blowup_point_of_a_ray_is_not_a_face():
    # a point blow-up is a face blow-up, and a ray of P^1 is no face
    with pytest.raises(NotAFace):
        blowup_point(*projective_space(1), 0)


def test_blowup_face_rejects_non_face(p1xp1):
    fan, P = p1xp1
    with pytest.raises(NotAFace):
        blowup_face(fan, P, [0, 1])  # opposite facets span no cone


def test_monotone_epsilon_warning():
    fan, _ = projective_space(2)
    from torfan.polytope import MomentPolytope

    P = MomentPolytope.make(2, fan.edges, [-1, -1, -1])
    assert monotone_epsilon((0, 1)) == 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        blowup_point(fan, P, 2, epsilon=F(1, 2))
    assert any("monotone" in str(w.message) for w in caught)


def test_monotone_epsilon_warning_points_at_the_caller():
    """Through either entry point, the warning names this file and the
    line of the call, not a line inside the library."""
    fan, _ = projective_space(2)
    from torfan.polytope import MomentPolytope

    P = MomentPolytope.make(2, fan.edges, [-1, -1, -1])
    for blow_up, where in ((blowup_point, 2), (blowup_face, fan.max_cones[2])):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = inspect.currentframe().f_lineno + 1
            blow_up(fan, P, where, epsilon=F(1, 2))
        assert [(w.filename, w.lineno) for w in caught] == [(__file__, line)], blow_up.__name__
