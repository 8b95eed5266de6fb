"""The package's errors: one root, `LLEError`, and one subclass per kind. `lle`
prints one as a single line and exits with its kind's `exit_code`; any other
exception is a bug and stays a traceback."""


class LLEError(Exception):
    """Root of every error the package raises on purpose; each kind sets `exit_code`."""


class ConfigError(LLEError, ValueError):
    """A config, coefficients file or argument that cannot run; names the key."""

    exit_code = 3


class ConvergenceError(LLEError, RuntimeError):
    """A solver or the coefficient fit diverged at run time."""

    exit_code = 4


class FormatError(LLEError, ValueError):
    """An array file that cannot be read or is malformed; names the path or byte offset."""

    exit_code = 5
