"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "CarlitzError",
    "ParseError",
    "PrecisionError",
    "TailError",
    "CharacterError",
    "InvariantError",
]


class CarlitzError(Exception):
    """Base class for all library-specific errors."""


class ParseError(CarlitzError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class PrecisionError(CarlitzError):
    """A coefficient or value was requested beyond certified precision.

    ``needed`` reports the precision that would have sufficed, when known.
    """

    def __init__(self, message: str, needed: int | None = None) -> None:
        if needed is not None:
            message = f"{message} (needs precision >= {needed})"
        super().__init__(message)
        self.needed = needed


class TailError(CarlitzError):
    """A truncated sum failed to stabilize inside the requested window."""


class CharacterError(CarlitzError):
    """Character data is inconsistent or does not cover the group."""


class InvariantError(CarlitzError, AssertionError):
    """An internal identity the library checks on its own results failed:
    a bug, not bad input.  An explicit raise, so ``python -O`` keeps it; an
    ``AssertionError`` too, so handlers of failed assertions still see it."""
