"""Checks shared by the hand-rolled JSON artifact schemas.

Every schema module (faults, resilience, serving, streaming, telemetry)
validates its own payload layout with these.  A failed check raises
``ValueError`` whose message starts ``"<kind> schema violation: "``.
"""

from __future__ import annotations

from numbers import Real


def is_number(value: object) -> bool:
    """A real number that is not a bool (JSON ``true`` is not a number)."""
    return isinstance(value, Real) and not isinstance(value, bool)


class SchemaChecks:
    """The shared checks, bound to one artifact ``kind`` for the message prefix."""

    def __init__(self, kind: str):
        self.kind = kind

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            raise ValueError(f"{self.kind} schema violation: {message}")

    def number(
        self,
        value: object,
        message: str,
        low: float | None = None,
        high: float | None = None,
    ) -> None:
        """A number, optionally bounded; a bound failure appends the bound."""
        self.require(is_number(value), message)
        if low is not None:
            self.require(value >= low, f"{message} (must be >= {low})")
        if high is not None:
            self.require(value <= high, f"{message} (must be <= {high})")

    def count(self, value: object, message: str) -> None:
        """A non-negative int that is not a bool."""
        self.require(
            isinstance(value, int) and not isinstance(value, bool) and value >= 0, message
        )
