"""Shared value types: exact rationals (``Fraction``, always in lowest terms
with a positive denominator), labelled counts, and the puzzle spec that wraps
any of the five puzzle payloads.  A time is a ``Fraction`` of minutes.

Every puzzle value is a ``Value``: a ``__slots__`` class whose ``__init__``
checks its arguments before it sets its fields, so values can be shared
freely between threads.  No class is generated at import time: that
machinery (and the ``inspect`` module it loads) was half of the import time
every CLI run pays; see README, "Everything is an immutable value".
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from typing import Any

from .errors import InvalidInstance


def _exact(value: int | Fraction, what: str) -> Fraction:
    if type(value) is Fraction:
        return value
    if not isinstance(value, (int, Fraction)):
        kind = type(value).__name__
        raise InvalidInstance(f"must be exact (int or Fraction), not {kind}", what,
                              kind="type_mismatch")
    return Fraction(value)


def _is_int(value: object) -> bool:
    """An int that is not a bool: ``True`` would serialize as a word, not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _positive_int(value: object, argument: str) -> int:
    """``value``, refused unless it is an int of at least 1."""
    if not _is_int(value):
        kind = type(value).__name__
        raise InvalidInstance(f"must be an integer, not {kind}", argument, kind="type_mismatch")
    if value < 1:
        raise InvalidInstance(f"must be at least 1, got {value}", argument, kind="negative_count")
    return value


def _positive(value: int | Fraction, argument: str) -> Fraction:
    """``value`` as a Fraction, refused unless it is exact and above 0."""
    value = _exact(value, argument)
    # A Fraction's denominator is positive: its sign is its numerator's.
    if value.numerator <= 0:
        raise InvalidInstance(f"must be strictly positive, got {value}", argument,
                              kind="negative_count")
    return value


def _normalize_counts(
    raw: "Mapping[str, int] | Iterable[tuple[str, int]]", argument: str, nonempty: bool
) -> tuple[tuple[str, int], ...]:
    """The (color, count) pairs of ``raw``, a mapping or an iterable of
    2-tuples: distinct nonempty names, whole counts >= 0 and, if
    ``nonempty``, at least one color."""
    if type(raw) is tuple:  # as the parser passes it: no Mapping (ABC) check
        pairs = raw
    elif isinstance(raw, Mapping):
        pairs = tuple(raw.items())
    elif isinstance(raw, Iterable):
        pairs = tuple(raw)
    else:
        raise InvalidInstance(f"must be a mapping or an iterable of (color, count) pairs, "
                              f"not {type(raw).__name__}", argument, kind="type_mismatch")
    if nonempty and not pairs:
        raise InvalidInstance("needs at least one color", argument, kind="type_mismatch")
    seen = set()
    for index, pair in enumerate(pairs):
        if type(pair) is not tuple or len(pair) != 2:
            raise InvalidInstance(f"needs (color, count) pairs, got {pair!r}",
                                  argument, index, "type_mismatch")
        label, count = pair
        if not isinstance(label, str) or not label:
            raise InvalidInstance(
                "needs color names that are nonempty strings", argument, index, "type_mismatch"
            )
        if label in seen:
            raise InvalidInstance(f"names color '{label}' twice", argument, index, "duplicate_key")
        seen.add(label)
        if not _is_int(count) or count < 0:
            raise InvalidInstance(f"needs a whole count >= 0 for color '{label}', got {count!r}",
                                  argument, index, "negative_count")
    return pairs


_set = object.__setattr__  # how an __init__ sets a field of its own value


class Value:
    """Immutable value: its fields are named, in order, by ``_fields``.

    Equality and hash go by exact type and fields; the repr is the keyword
    constructor call; fields cannot be assigned or deleted; a pickle or copy
    calls the constructor (and its checks) again.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Quantity(Value):
    """A strictly positive count, and the bare word that followed it in the
    source text ("cats", "mice", ...), if any; the word carries no semantic
    weight.
    """

    __slots__ = _fields = ("magnitude", "label")

    def __init__(self, magnitude: int | Fraction, label: str | None = None) -> None:
        magnitude = _positive(magnitude, "magnitude")
        if label is not None and not isinstance(label, str):
            raise InvalidInstance(f"quantity label must be a string, not {type(label).__name__}")
        _set(self, "magnitude", magnitude)
        _set(self, "label", label)


class PuzzleSpec(Value):
    """One puzzle: a payload of one of the five puzzle types, and a label.

    Payload classes name their kind through a ``puzzle_kind`` class
    attribute; the constructor refuses a payload that has none.
    """

    __slots__ = _fields = ("payload", "label")

    def __init__(self, payload: Any, label: str | None = None) -> None:
        if not hasattr(type(payload), "puzzle_kind"):
            raise InvalidInstance(f"{type(payload).__name__} is not a puzzle payload")
        if label is not None and not isinstance(label, str):
            raise InvalidInstance(f"puzzle label must be a string, not {type(label).__name__}")
        _set(self, "payload", payload)
        _set(self, "label", label)

    @property
    def kind(self) -> str:
        return type(self.payload).puzzle_kind
