"""Exception hierarchy for the planebranch kernel and CLI.

Every failure mode has its own class so the CLI can map them to stable
exit codes: parse errors (2), violated preconditions (3), insufficient
working precision (4), unmet inference hypotheses (5) and internal
cross-check failures (6).
"""


class PlaneBranchError(Exception):
    """Base class for all domain errors raised by this package."""


# -- precondition violations (CLI exit code 3) -------------------------------

class InvalidArgument(PlaneBranchError, ValueError):
    """An argument outside a function's domain, such as a negative exponent
    or a non-positive truncation; also a ValueError for callers that catch
    that."""


class TagMismatch(PlaneBranchError):
    """Two series with different variable tags were combined."""


class ConstantTermNotOne(PlaneBranchError):
    """n-th root of a series whose constant term is not exactly 1."""


class InvalidParameterChange(PlaneBranchError):
    """Reparametrization by a series whose order is not exactly 1."""


class NeedsTruncation(PlaneBranchError):
    """An exactly known input whose result is an infinite series."""


class NonPolynomialInput(PlaneBranchError):
    """An exact polynomial series was required but a truncated one given."""


class NotWeierstrass(PlaneBranchError):
    """Polynomial is not monic in y with f(0, y) a pure power of y."""


class NotIrreducible(PlaneBranchError):
    """Newton polygon data shows more than one branch through the origin."""


class NonRationalCoefficient(PlaneBranchError):
    """A required root is not a rational number (coefficients stay in Q)."""


class NotPrimitive(PlaneBranchError):
    """Parametrization exponents share a common divisor with n."""


class NotTransversal(PlaneBranchError):
    """The order of the y-component does not exceed n (x = 0 not transversal)."""


class NotSingular(PlaneBranchError):
    """Multiplicity-1 input: a smooth branch has no characteristic data."""


class NotRemovable(PlaneBranchError):
    """Requested elimination at an exponent j with j + n outside <n, m>."""


class DegenerateMove(PlaneBranchError):
    """Elimination move with no effect (a = 0 and b <= 1)."""


class WrongEquisingularityClass(PlaneBranchError):
    """Branch does not belong to the expected class K(n1, m1)."""


class BranchesEqual(PlaneBranchError):
    """Intersection of a branch with itself is infinite."""


class ThetaOutOfRange(PlaneBranchError):
    """Contact order below 1 passed to the contact/intersection formula."""


class NotRealizable(PlaneBranchError):
    """No contact order gives the intersection: it is below n times the other multiplicity."""


class NonIntegralResult(PlaneBranchError):
    """An inferred invariant n' * lambda / n failed to be an integer."""


class NotAnInvariant(PlaneBranchError):
    """A claimed Zariski invariant that no branch of the class can have."""


class AmbiguousEvidence(PlaneBranchError):
    """Inference needs exactly one of a contact order and an intersection."""


class NotMonic(PlaneBranchError):
    """h-adic expansion requires a divisor monic in y."""


class WitnessMismatch(PlaneBranchError):
    """Intersection with the supplied witness curve has the wrong value."""


class ZeroLeadingC(PlaneBranchError):
    """Decomposition found coefficient 0 at the distinguished monomial."""


class BranchFileError(PlaneBranchError):
    """Malformed branch description file (CLI exit code 2)."""


# -- insufficient precision (CLI exit code 4) --------------------------------

class PrecisionExhausted(PlaneBranchError):
    """Truncation bound reached before the result could be certified."""

    def __init__(self, message: str, needed: int | None = None):
        super().__init__(message)
        self.needed = needed


# -- unmet hypothesis (CLI exit code 5) --------------------------------------

class HypothesisNotMet(PlaneBranchError):
    """Strict inequality required by an inference rule does not hold."""


# -- internal consistency (CLI exit code 6) ----------------------------------

class CrossCheckFailed(PlaneBranchError):
    """An internal consistency verification failed; must never happen."""
