"""Exception hierarchy shared by all evograft modules.

The CLI maps these onto its exit-code contract:
    ConfigError -> 2;
    DataError, ValidationError, AclError -> 3;
    InvariantError -> 4.
The `evograft` package exports all six classes.
"""


class EvograftError(Exception):
    """Base class for all evograft errors."""


class ConfigError(EvograftError):
    """Invalid configuration or usage (bad field, unknown task, empty candidate set)."""


class DataError(EvograftError):
    """Malformed external data: dataset files, checkpoints, headers, checksums."""


class ValidationError(EvograftError):
    """A value violates a domain contract (non-finite params, bad shapes, bad labels)."""


class InvariantError(EvograftError):
    """An internal invariant that should be unrepresentable was violated, or a caller
    broke a function's contract (such as a backward pass on a path with nothing to train)."""


class AclError(EvograftError):
    """A knowledge-access policy would be violated by the attempted reuse."""
