from __future__ import annotations


class MapfError(Exception):
    """Base class for package errors."""


class ParseError(MapfError):
    """Malformed input file. Carries the 1-based line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class PreconditionError(MapfError):
    """An operation was called outside its contract."""


class ResourceLimitError(MapfError):
    """A search or computation exceeded its configured guard. Carries the
    number of states the search had kept (0 when no search ran)."""

    def __init__(self, message: str, states: int = 0) -> None:
        super().__init__(message)
        self.states = states
