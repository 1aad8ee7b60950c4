"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A parameter violates its documented bounds (bad m0/m/t/seed/...)."""


class EnumerationBoundError(ConfigurationError):
    """State too large for exhaustive attachment enumeration."""


class VerificationError(RuntimeError):
    """An exact check (rational equality) failed."""
