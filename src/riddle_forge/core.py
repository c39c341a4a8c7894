"""Shared value types: exact rationals, unit-tagged quantities, and the
tagged union over the five puzzle payloads.

Everything here is an immutable value; instances may be shared freely
between threads.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Any

from .errors import InvalidInstance

# All solver arithmetic is exact.  Fraction already guarantees lowest terms
# with a positive denominator, which is exactly the invariant we need.
Rational = Fraction


def _exact(value: int | Fraction, what: str) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise InvalidInstance(f"{what} must be exact (int or Fraction), not float")
    return Fraction(value)


def _normalize_counts(
    raw: "Mapping[str, int] | Iterable[tuple[str, int]]", what: str
) -> tuple[tuple[str, int], ...]:
    pairs = tuple(raw.items()) if isinstance(raw, Mapping) else tuple(raw)
    seen = set()
    for label, count in pairs:
        if not isinstance(label, str) or not label:
            raise InvalidInstance(f"{what}: color labels must be nonempty strings")
        if label in seen:
            raise InvalidInstance(f"{what}: duplicate color '{label}'")
        seen.add(label)
        if not isinstance(count, int) or count < 0:
            raise InvalidInstance(f"{what}: count for '{label}' must be an integer >= 0")
    return pairs


class Unit(Enum):
    COUNT = "count"
    MINUTES = "min"


@dataclass(frozen=True)
class Quantity:
    """A nonnegative magnitude tagged with its unit.

    Time is always stored in minutes (the parser folds hours in on the way
    through).  ``label`` keeps the bare word that followed a count in the
    source text ("cats", "mice", ...); it carries no semantic weight.
    """

    magnitude: Rational
    unit: Unit
    label: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "magnitude", _exact(self.magnitude, "magnitude"))
        # A Fraction's denominator is positive: its sign is its numerator's.
        if self.magnitude.numerator < 0:
            raise InvalidInstance(f"quantity magnitude must be >= 0, got {self.magnitude}")
        if self.unit is Unit.MINUTES and self.label is not None:
            raise InvalidInstance("time quantities carry a unit, not a label")

    @classmethod
    def count(cls, magnitude: int | Fraction, label: str | None = None) -> "Quantity":
        return cls(_exact(magnitude, "count"), Unit.COUNT, label)

    @classmethod
    def minutes(cls, magnitude: int | Fraction) -> "Quantity":
        return cls(_exact(magnitude, "minutes"), Unit.MINUTES)

    @classmethod
    def hours(cls, magnitude: int | Fraction) -> "Quantity":
        return cls(_exact(magnitude, "hours") * 60, Unit.MINUTES)


class PuzzleKind(Enum):
    RATE = "rate"
    WEIGHING = "weighing"
    PIGEONHOLE = "pigeonhole"
    TRANSFER = "transfer"
    STATION = "station"


@dataclass(frozen=True)
class PuzzleSpec:
    """Tagged union over the five puzzle payload types.

    Payload classes declare their tag through a ``puzzle_kind`` class
    attribute; the constructor refuses a payload whose tag does not match.
    """

    kind: PuzzleKind
    payload: Any
    label: str | None = None

    def __post_init__(self) -> None:
        declared = getattr(type(self.payload), "puzzle_kind", None)
        if declared is not self.kind:
            raise InvalidInstance(
                f"payload {type(self.payload).__name__} does not match kind '{self.kind.value}'"
            )


def puzzle(payload: Any, label: str | None = None) -> PuzzleSpec:
    """Wrap a payload in a PuzzleSpec, deriving the kind tag from its type."""
    declared = getattr(type(payload), "puzzle_kind", None)
    if declared is None:
        raise InvalidInstance(f"{type(payload).__name__} is not a puzzle payload")
    return PuzzleSpec(declared, payload, label)
