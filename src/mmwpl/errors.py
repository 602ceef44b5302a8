"""Exception hierarchy shared across the package.

Three error classes cover the failure surface: bad or unusable input data,
arguments outside a model's domain, and numerically ill-posed fits. The CLI
maps them onto distinct exit codes.
"""


class UsageError(ValueError):
    """Malformed command-line request: unknown preset, model, or selector."""


class DataError(ValueError):
    """Invalid, empty, or unparseable measurement data."""


class DomainError(ValueError):
    """Argument outside a model's valid domain (d < 1 m, f <= 0, ...)."""


class NumericalError(ArithmeticError):
    """Fit is numerically ill-posed for the data given."""


class SingularDesignError(NumericalError):
    """Least-squares design is singular: one column is (numerically) a
    linear combination of the others.

    ``regressor`` names the offending column when it can be identified
    (for example "frequency" when every sample shares one frequency).
    """

    def __init__(self, message: str, regressor: str | None = None):
        super().__init__(message)
        self.regressor = regressor
