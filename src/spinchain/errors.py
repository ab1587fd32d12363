"""Exception types shared across the package."""


class SpinChainError(Exception):
    """Base class for package-specific errors."""


class ConfigError(SpinChainError):
    """A run configuration failed validation."""


class CapacityError(SpinChainError):
    """A requested computation exceeds a configured size guard."""


class NumericalConsistencyError(SpinChainError):
    """A numerical invariant was violated beyond roundoff tolerance."""
