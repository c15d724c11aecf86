"""Exception types shared across the library."""


class HardyInterpError(Exception):
    """Base class for all library-specific failures."""


class InvalidMatrix(HardyInterpError):
    """Input matrix is not Hermitian within tolerance, or is malformed."""


class InvalidRadius(HardyInterpError):
    """Grid radius outside the open interval (0, 1)."""


class InfeasibleConstraints(HardyInterpError):
    """Affine constraint system has no solution within tolerance."""


class NotConverged(HardyInterpError):
    """Iteration budget exhausted; carries the best solution found so far."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class NotNormalized(HardyInterpError):
    """Model-space vector used as a kernel parameter is not unit-norm."""


class NotLogIntegrable(HardyInterpError):
    """Boundary modulus samples are negative or not finite, or the modulus
    is not a trigonometric polynomial with an exact outer factor."""


class KernelMismatch(HardyInterpError):
    """Kernel variant inconsistent with the problem's algebra."""


class InfeasibleProblem(HardyInterpError):
    """Interpolation data admits no solution at the requested norm bound."""


class DuplicateNodes(HardyInterpError):
    """Coincident interpolation nodes where distinct ones are required."""


class InconsistentNodes(HardyInterpError):
    """Duplicate nodes carry contradictory direction/target data."""


class DegenerateBoundaryData(HardyInterpError):
    """Target on the norm boundary with remaining data not constant."""


class HypothesisInsufficientAtScale(HardyInterpError):
    """Corona hypothesis fails to produce a contractive solution at the
    chosen truncation; carries the failing certificate."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ProblemFileError(HardyInterpError):
    """Problem file cannot be parsed; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
