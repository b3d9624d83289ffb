"""Shared exception types."""


class InputError(ValueError):
    """An operation received structurally invalid input."""


class SizeCapError(ValueError):
    """An exact computation would exceed its desk-scale cap."""


class InternalError(RuntimeError):
    """A soundness check failed: a bug in the package, never an answer."""


class ParseError(ValueError):
    """A text input could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
