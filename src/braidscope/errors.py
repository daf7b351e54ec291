"""Exception hierarchy shared by the whole package.

The CLI maps these onto exit codes: ParseError -> 1,
PreconditionError -> 2, ResourceLimitError -> 3, InvariantError -> 4.
"""

from __future__ import annotations


class BraidscopeError(Exception):
    """Base class for all package errors."""


class ParseError(BraidscopeError):
    """Malformed input file or token stream."""


class PreconditionError(BraidscopeError):
    """An operation was called outside its contract."""


class ResourceLimitError(BraidscopeError):
    """An enumeration exceeded a configured cap."""


class InvariantError(BraidscopeError):
    """An internal consistency check failed: a computed result contradicts
    itself, which points to a bug rather than to bad input.  Raised
    explicitly, so the checks also run under ``python -O``."""


class IllegalMoveError(PreconditionError):
    """A word contains a move that cannot be replayed.

    Carries the index of the offending letter and the reason, one of
    ``"origin unoccupied"`` / ``"target occupied"`` / ``"unknown edge"``.
    """

    def __init__(self, index: int, reason: str):
        super().__init__(f"illegal move at index {index}: {reason}")
        self.index = index
        self.reason = reason
