"""Exception types shared across the package."""


class MindegError(Exception):
    """Base class for all package-specific errors."""


class InadmissibleRankError(MindegError, ValueError):
    """Requested a simple type outside the admissible rank range."""


class MixedRootSystemError(MindegError, ValueError):
    """Operands belong to different root systems."""


class InvalidParabolicError(MindegError, ValueError):
    """Delta_P names a simple-root index outside 1..rank, or is malformed."""


class InvalidDegreeError(MindegError, ValueError):
    """A degree has the wrong number of coordinates, a non-integer, or a negative one."""


class InvalidVectorError(MindegError, ValueError):
    """A coefficient vector has the wrong number of entries for its root system,
    or a sparse vector or matrix is not in its canonical form."""


class NotApplicableError(MindegError):
    """A check's precondition does not hold for this input."""


class NotMinimalDegreeError(MindegError, ValueError):
    """The degree is not a minimal degree, but the operation requires one."""


class UniquenessViolationError(MindegError, RuntimeError):
    """An object asserted to be unique is missing or not unique."""


class LiftingNotUniqueError(MindegError, RuntimeError):
    """More than one full-flag minimal degree matches the Weyl element."""


class RankTooLargeError(MindegError, ValueError):
    """Exhaustive enumeration requested above its supported rank."""


class ExceptionalCaseError(MindegError):
    """The unique excluded triple, where the checked bound provably fails."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ResourceGuardError(MindegError, ValueError):
    """A request exceeds a resource guard: the root count, the sweep row budget
    or the full-flag degree cap."""


class InvalidConfigError(MindegError, ValueError):
    """A run setting is out of range, e.g. a worker count below 1."""


class ConsistencyError(MindegError, RuntimeError):
    """An internal cross-check failed; indicates a defect, never recoverable."""
