"""Exception types shared across the toolkit, and the integer reader of the
line-based formats."""


class NmlkitError(Exception):
    """Base class for toolkit errors."""


class ParseError(NmlkitError):
    """Raised on malformed input text; carries a position when known."""

    def __init__(self, message, position=None, line=None):
        self.position = position
        self.line = line
        where = ""
        if line is not None:
            where = f" (line {line})"
        elif position is not None:
            where = f" (at position {position})"
        super().__init__(message + where)


class ResourceLimitError(NmlkitError):
    """Raised when an operation would exceed a configured cap."""


def parse_ints(fields: list[str]) -> list[int]:
    """``fields`` read as integers; a ParseError, without a line, otherwise."""
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise ParseError(f"expected integers, got {' '.join(fields)!r}") from None
