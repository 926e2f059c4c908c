"""Exception types shared across the package."""


class QsmError(Exception):
    """Base class for all qsm errors."""


class DimensionMismatch(QsmError):
    """Two operators that should share a dimension do not."""


class NotPositiveSemidefinite(QsmError):
    """An operator required to be PSD has an eigenvalue below tolerance."""

    def __init__(self, message: str, eigenvalue: float):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class InvalidVector(QsmError):
    """A state vector is zero or non-finite."""


class InvalidRank(QsmError):
    """A requested rank is outside [1, dim]."""


class InvalidParameter(QsmError):
    """A map or sampler parameter is out of its admissible range."""


class NumericalBreakdown(QsmError):
    """A quantity violated a bound that holds mathematically."""


class InvalidConfiguration(QsmError):
    """Inputs do not satisfy the documented preconditions of a construction."""


class ZeroCenter(QsmError):
    """An operation requiring a nonzero center received (numerically) zero."""


class NotTraceZero(QsmError):
    """An operator required to be trace-zero is not."""


class InvalidPool(QsmError):
    """An orthocomplement pool is empty or unusable."""


class DomainError(QsmError):
    """A map was evaluated outside its declared domain, or left it."""


class NotIsometryEvidence(QsmError):
    """A probe result is incompatible with the map being an isometry."""

    def __init__(self, message: str, purity_defect: float, probe: str):
        super().__init__(message)
        self.purity_defect = purity_defect
        self.probe = probe


class NotImplementable(QsmError):
    """No unitary/antiunitary conjugation reproduces the oracle within tolerance."""

    def __init__(self, message: str, residual: float, probe: str = ""):
        super().__init__(message)
        self.residual = residual
        self.probe = probe
