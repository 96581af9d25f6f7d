"""Exception types shared across the package."""

from __future__ import annotations


class CqdaError(Exception):
    """Base class for all errors raised by this package."""


class QuerySyntaxError(CqdaError):
    """Malformed query text; carries the 1-based line and column."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class SelfJoinError(QuerySyntaxError):
    """A relation symbol occurs in more than one atom."""


class RepeatedVariableError(QuerySyntaxError):
    """A variable occurs twice in the argument list of a single atom."""


class DatabaseFormatError(CqdaError):
    """A database document violates its schema."""


class UnknownRelationError(CqdaError):
    """A query mentions a relation symbol the database does not define."""


class ArityMismatchError(CqdaError):
    """Atom argument count differs from the stored relation arity."""


class OutOfRangeError(CqdaError):
    """Requested answer index k lies outside 1..count."""


class ArgumentError(CqdaError, ValueError):
    """An index or window bound that is no ``int``, or a tuple off the universe or the domain."""


class UncoverableError(CqdaError):
    """No subset of the edge family covers the requested vertex set."""


class VertexNotFoundError(CqdaError):
    """A vertex operation named a vertex absent from the hypergraph."""


class BudgetExceededError(CqdaError):
    """An exhaustive search would exceed the configured state budget."""


class NotAPrefixError(CqdaError):
    """A partial assignment does not bind a prefix of the access order."""


class NotFreeConnexError(CqdaError):
    """The free variables are not a contiguous leading block of the order."""


class TooLargeError(CqdaError):
    """Materialising this relation would exceed the configured bound."""


class RankOutOfDomainError(CqdaError):
    """Decoded bits denote an integer with no matching domain value."""
