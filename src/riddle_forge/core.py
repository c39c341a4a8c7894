"""Shared value types: exact rationals, unit-tagged quantities, and the
puzzle spec that wraps any of the five puzzle payloads.

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


def _is_int(value: object) -> bool:
    """An int that is not a bool: ``True`` would serialize as a word, not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


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
        if not _is_int(count) or count < 0:
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


@dataclass(frozen=True)
class PuzzleSpec:
    """One puzzle: a payload of one of the five puzzle types, and a label.

    Payload classes name their kind through a ``puzzle_kind`` class
    attribute; the constructor refuses a payload that has none.
    """

    payload: Any
    label: str | None = None

    def __post_init__(self) -> None:
        if not hasattr(type(self.payload), "puzzle_kind"):
            raise InvalidInstance(f"{type(self.payload).__name__} is not a puzzle payload")

    @property
    def kind(self) -> str:
        return type(self.payload).puzzle_kind
