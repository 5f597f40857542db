"""Exception types shared across the package."""


class VisipolyError(Exception):
    """Base class for errors raised by this package."""


class ParameterError(VisipolyError, ValueError):
    """An argument lies outside the domain an operation supports."""


class FormatError(VisipolyError, ValueError):
    """Malformed textual input: graph6 records, edge lists, class specs."""

    def __init__(self, message, line=None, offset=None):
        detail = message
        if offset is not None:
            detail = f"{detail} (byte offset {offset})"
        if line is not None:
            detail = f"line {line}: {detail}"
        super().__init__(detail)
        self.message = message
        self.line = line
        self.offset = offset

    def at_line(self, line) -> "FormatError":
        """This error on input line ``line``, with the same message and byte offset."""
        return FormatError(self.message, line=line, offset=self.offset)


class GuardrailError(VisipolyError):
    """An input exceeds the size guardrail of an exponential-time routine."""
