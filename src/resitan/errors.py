"""Exception types shared across the package."""


class ResitanError(Exception):
    """Base class for all library-specific errors."""


class HypothesisViolation(ResitanError, ValueError):
    """An input fails a hypothesis required by the identity being checked."""


class NonRealSymbol(ResitanError, ValueError):
    """A power residue symbol whose value modulo p is neither +1 nor -1."""


class NotRepresentable(HypothesisViolation):
    """p has no representation p = x^2 + d*y^2 in positive integers."""


class BranchViolation(HypothesisViolation):
    """p falls outside the congruence branch a check supports."""


class PoleProximity(ResitanError, ValueError):
    """A tangent argument is too close to a pole of tan."""
