"""Exception hierarchy shared by all torfan modules."""


class TorfanError(Exception):
    """Base class for domain errors raised by torfan."""


class RingMismatch(TorfanError):
    """Polynomials from different rings were combined."""


class InfiniteDimensional(TorfanError):
    """A quotient ring is not finite-dimensional over the rationals."""


class NonConvergence(TorfanError):
    """A numeric eigensolve or iteration failed to converge."""


class OverlappingCones(TorfanError):
    """Two fan cones intersect in a set that is not a common face."""


class NoConeContains(TorfanError):
    """A lattice vector lies in no cone of the fan."""


class EmptyPolytope(TorfanError):
    """The half-space system has no solution."""


class Unbounded(TorfanError):
    """Operation requires a bounded polytope."""


class DivisibilityFails(TorfanError):
    """Translated polytope cannot be divided into integral data."""


class Inconsistent(TorfanError):
    """An overdetermined linear system has no solution."""


class ChopTooDeep(TorfanError):
    """A polytope chop removes a vertex away from the chopped face."""


class NotMonotone(TorfanError):
    """Line-bundle twist k is outside the monotone range."""


class NotAFace(TorfanError):
    """Index set does not span a face of the fan."""


class MirrorMismatch(TorfanError):
    """A clause of the mirror comparison failed."""


class HalfSpaceFan(TorfanError):
    """Fan edges lie in a closed half-space; the positive critical
    point does not exist (certificate direction attached)."""

    def __init__(self, certificate):
        super().__init__(f"fan contained in half-space, certificate {certificate}")
        self.certificate = certificate


class SeparationFailed(TorfanError):
    """Perturbed critical values failed a separation check; retry with
    a different seed."""


class NewtonDiverged(TorfanError):
    """Newton polishing of a critical point diverged."""


class ToleranceExceeded(TorfanError):
    """A numeric cross-check exceeded its tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ContourHitsSpectrum(TorfanError):
    """A quadrature node on the contour is too close to an eigenvalue."""


class IdempotencyFailed(TorfanError):
    """A contour-integral projector is not numerically idempotent."""


class ClusterAmbiguous(TorfanError):
    """Eigenvalue cluster membership changes along the sample ray."""


class NotSemisimple(TorfanError):
    """Eigenvalue has a nontrivial Jordan block where semisimplicity
    is required."""


class DerivativesCollide(TorfanError):
    """First-order eigenvalue derivatives are not pairwise distinct: the
    eigenvalues of Kato's reduced matrix repeat.  Exact on real families
    (its charpoly is not squarefree); at a relative 1e-6 on complex
    ones."""


class ClusteringAmbiguous(TorfanError):
    """Eigenvector lines cannot be unambiguously clustered by limits."""


class DimensionMismatch(TorfanError):
    """Subspaces of different dimensions were compared."""


class ParseError(TorfanError):
    """Input document is not syntactically valid."""


class ValidationError(TorfanError):
    """Input document parsed but violates a structural invariant."""
