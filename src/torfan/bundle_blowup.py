"""Fan and polytope surgery: total spaces of line bundles over toric
bases, monotone negative line bundles, and blow-ups at fixed points or
along faces."""

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotAFace, NotMonotone
from .lattice_fan import Fan, edge_names
from .polytope import MomentPolytope, chop, fano_index

__all__ = [
    "LineBundleSpec",
    "line_bundle_fan",
    "nlb_from_k",
    "blowup_point",
    "blowup_face",
    "monotone_epsilon",
]


@dataclass(frozen=True)
class LineBundleSpec:
    """Twist data n_i of a line bundle over a toric base; when built
    from an integer k, n_i = k * lambda_i of the monotone base and the
    total space has index lam_E = lam_B - k."""

    n: tuple
    k: int = None
    lam_B: int = None
    lam_E: int = None


def line_bundle_fan(fan_B, spec):
    """Fan of the total space: base edges lifted to (b_i, -n_i) plus
    the fiber edge (0,...,0,1); one maximal cone per base cone."""
    n = fan_B.rank
    edges = [tuple(e) + (-int(ni),) for e, ni in zip(fan_B.edges, spec.n)]
    fiber = (0,) * n + (1,)
    edges.append(fiber)
    fiber_idx = len(edges) - 1
    cones = [tuple(c) + (fiber_idx,) for c in fan_B.max_cones]
    return Fan.make(n + 1, edges, cones)


def nlb_from_k(fan_B, P_B, k):
    """Monotone negative line bundle of twist k over a monotone base.

    Returns (fan, polytope, spec) with polytope support numbers
    (lambda_B, 0) and index lam_E = lam_B - k.  The twist class is
    -(k/lam_B) sum x_i by construction: n_i + k/lam_B = k <y0, b_i>
    for the barycentre y0 that ``fano_index`` solves.
    """
    k = int(k)
    lam_B = fano_index(P_B)
    if not 1 <= k <= lam_B - 1:
        raise NotMonotone(f"need 1 <= k <= {lam_B - 1}, got {k}")
    if any(l.denominator != 1 for l in P_B.lambdas):
        raise NotMonotone("base support numbers must be integers")
    n_twist = tuple(k * int(l) for l in P_B.lambdas)
    spec = LineBundleSpec(n_twist, k, lam_B, lam_B - k)
    fan_E = line_bundle_fan(fan_B, spec)
    P_E = MomentPolytope.make(
        P_B.rank + 1, fan_E.edges, tuple(P_B.lambdas) + (Fraction(0),)
    )
    return fan_E, P_E, spec


def monotone_epsilon(I):
    """Chop depth keeping the blow-up monotone in the reflexive
    normalization (all support numbers -1)."""
    return len(I) - 1


def blowup_point(fan, P, cone_index, epsilon=None):
    """Blow up the fixed point of a full-dimensional maximal cone: the
    face blow-up along that cone."""
    cone = fan.max_cones[cone_index]
    if len(cone) != fan.rank:
        raise NotAFace("point blow-up needs a full-dimensional cone")
    return _blowup(fan, P, cone, epsilon)


def blowup_face(fan, P, I, epsilon=None):
    """Blow up along the toric subvariety of a codimension-|I| face:
    append the edge sum of I, star-subdivide every maximal cone
    containing I, and chop the polytope accordingly."""
    return _blowup(fan, P, I, epsilon)


def _blowup(fan, P, I, epsilon):
    """The face blow-up behind both public entry points.  Each calls it
    directly, so its warning for a non-monotone epsilon on a reflexive
    polytope (stacklevel 3) points at their caller's line."""
    I = sorted(set(I))
    if len(I) < 2:
        raise NotAFace("face blow-up needs at least two facets")
    if not any(set(I) <= set(c) for c in fan.max_cones):
        raise NotAFace(f"edges {edge_names(fan, I)} span no cone of the fan")
    if epsilon is None:
        epsilon = monotone_epsilon(I)
    if all(l == -1 for l in P.lambdas) and epsilon != monotone_epsilon(I):
        warnings.warn(
            f"epsilon {epsilon} is not the monotone value {monotone_epsilon(I)}",
            stacklevel=3,
        )
    new_fan = _star_subdivide(fan, set(I))
    new_P = chop(P, I, epsilon)
    return new_fan, new_P


def _star_subdivide(fan, I):
    """Append e0 = sum of the edges of I and star-subdivide every
    maximal cone containing I."""
    e0 = tuple(sum(fan.edges[i][j] for i in I) for j in range(fan.rank))
    edges = fan.edges + (e0,)
    new_idx = len(fan.edges)
    cones = []
    for cone in fan.max_cones:
        if I <= set(cone):
            for i in I:
                cones.append(tuple(j for j in cone if j != i) + (new_idx,))
        else:
            cones.append(cone)
    return Fan.make(fan.rank, edges, cones)
