"""Typed errors raised by the engine.

Every contract violation raises one of these instead of a bare
ValueError so callers (and the CLI report layer) can tell a failed
mathematical check apart from a misuse of the API.
"""


class EngineError(Exception):
    """Base class for all engine errors."""


class RingMismatch(EngineError):
    """Operands live over different coefficient rings."""


class NotInvertible(EngineError):
    """Element has no inverse in its ring (zero, or zero constant term)."""


class ArityMismatch(EngineError):
    """Operation received the wrong number of arguments or slots."""


class IndexOutOfRange(EngineError):
    """Generator / coordinate / frame index outside the declared range."""


class RankMismatch(EngineError):
    """Tensor operands have incompatible ranks."""


class BadPositions(EngineError):
    """Leg-embedding positions are not distinct and in range."""


class NonCommutingLegs(EngineError):
    """Exponential twist requested for a bivector whose legs do not commute."""


class WrongRing(EngineError):
    """Operation needs the truncated-series ring (or the rational ring)."""


class CocycleViolation(EngineError):
    """Twist fails the 2-cocycle or normalization condition."""


class BetaNotInvertible(EngineError):
    """Gauge element of a twisted antipode admits no series inverse."""


class UnknownModule(EngineError):
    """Braiding asked for a value outside the modules the engine knows."""


class GradeMismatch(EngineError):
    """Graded operands have incompatible grades."""


class NotInFrameSpan(EngineError):
    """A derivation could not be expressed over the declared frame."""


class UnsupportedFrameBraiding(EngineError):
    """Frame braiding matrix is not the plain flip on the frame span."""


class FramePairingSingular(EngineError):
    """Frame/coframe pairing matrix is not invertible."""


class BracketIncompatible(EngineError):
    """Generator action does not respect the Lie bracket on a coordinate."""


class MetricCheckFailed(EngineError):
    """Candidate metric violates symmetry, equivariance or linearity."""


class InverseWitnessInvalid(EngineError):
    """Stored inverse matrix does not invert the metric two-sidedly."""


class NotTangent(EngineError):
    """Derivation or twist leg does not preserve the submanifold ideal."""


class NoBlockSplit(EngineError):
    """Metric does not block-decompose over the tangent/normal split."""


class AxiomOneUnwitnessed(EngineError):
    """A kernel derivation admits no ideal-coefficient decomposition."""


class MissingSection(EngineError):
    """Scenario file lacks a section the requested suite needs."""


class SchemaError(EngineError):
    """Scenario file violates the documented schema."""


class UnknownName(EngineError):
    """Scenario refers to a generator / coordinate / frame name not declared."""


class JacobiViolation(EngineError):
    """Structure constants violate antisymmetry or the Jacobi identity."""
