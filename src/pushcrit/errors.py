"""Exception types shared across the toolkit."""

from __future__ import annotations


class PushcritError(Exception):
    """Base class for all toolkit errors."""


class InvalidPushSetError(PushcritError):
    """A push set names a vertex outside the graph."""


class IncompatibleInputError(PushcritError):
    """Two graphs that must share vertices / underlying edges do not."""


class StructuralViolationError(PushcritError):
    """An operation would create a loop, digon or parallel arc."""


class GraphParseError(PushcritError):
    """Malformed graph text; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UndefinedInputError(PushcritError):
    """The operation is undefined for this input (e.g. empty graph)."""


class UnclassifiableGraphError(PushcritError):
    """The graph has no chain decomposition; names the offending vertices."""

    def __init__(self, message: str, vertices: tuple[int, ...] = ()):
        self.vertices = vertices
        super().__init__(message)


class ConfigError(PushcritError):
    """A parameter is outside the supported range."""


class FixtureIntegrityError(PushcritError):
    """A builtin graph failed one of its transcription gates."""


class UnknownFixtureError(PushcritError, KeyError):
    """A fixture name outside the builtin set; still a KeyError for lookups."""

    __str__ = PushcritError.__str__  # the message, not KeyError's repr of it


class UnknownSuiteError(PushcritError, KeyError):
    """A verify-paper suite name outside the known set; still a KeyError."""

    __str__ = PushcritError.__str__


class SelfCheckError(PushcritError):
    """A result failed the library's own check before it was returned: a
    fault in the library, not in its input."""


class ResourceBudgetError(PushcritError):
    """A search or enumeration ran out of its node / wall-time budget.

    Only ``find_critical``'s wall-time budget sets ``partial``, to the
    records merged so far, and only the homomorphism search's node budget
    sets ``nodes``, to the nodes explored.  No resume cursor is passed.
    """

    def __init__(self, message: str, partial=None, nodes: int | None = None):
        self.partial = partial
        self.nodes = nodes
        super().__init__(message)
