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


class InvalidPool(QsmError):
    """An orthocomplement pool is empty or unusable."""


class DomainError(QsmError):
    """A map was evaluated outside its declared domain, or left it."""


class NotImplementable(QsmError):
    """No unitary/antiunitary conjugation reproduces the oracle within
    tolerance.  ``probe`` names the probe or check that rejected the oracle,
    and ``evidence`` holds the number behind the rejection under its report
    key: ``purity_defect`` for a probe image that is not pure, ``residual``
    for every other rejection."""

    def __init__(self, message: str, probe: str, **evidence: float):
        super().__init__(message)
        self.probe = probe
        self.evidence = {key: float(value) for key, value in evidence.items()}
