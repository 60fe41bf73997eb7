"""Exception types shared across the package, mapped to CLI exit codes."""


class OtfsLabError(Exception):
    """Base class for all package errors."""


class DomainError(OtfsLabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(OtfsLabError, ValueError):
    """A configuration is inconsistent or unsupported.  CLI exit code 2."""


class CapacityError(OtfsLabError, RuntimeError):
    """A requested computation exceeds a hard resource cap.  CLI exit code 3."""

    def __init__(self, required: int, allowed: int, what: str = "hypotheses"):
        self.required = required
        self.allowed = allowed
        super().__init__(f"{what}: required {required} exceeds allowed {allowed}")


class NumericError(OtfsLabError, RuntimeError):
    """A numerical routine failed to converge.  CLI exit code 4.

    Carries the best available estimate and its error bound.
    """

    def __init__(self, message: str, estimate: float = float("nan"),
                 error_bound: float = float("inf")):
        self.estimate = estimate
        self.error_bound = error_bound
        super().__init__(f"{message} (best estimate {estimate:.6e}, "
                         f"error bound {error_bound:.3e})")

