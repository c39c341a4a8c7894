"""Work-rate solver.

Three quantities (work done, subjects doing it, time taken) are linked by
the invariant ratio k = work / (subjects * time): double the subjects and
the same work takes half the time, and so on.  Solving a word problem means
reading k off the known scenario and isolating the one unknown.  A
``RateScenario`` works its k out once, when it is built (so anew on a copy
or pickle), and ``rate_constant`` reads it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import Quantity, Value, _exact, _positive, _set
from .errors import InvalidInstance


# The attribute names of a RateScenario's and a RateQuery's three quantities.
_FIELDS = ("work", "subjects", "time")
# The block reader of each field.
_READERS = {"work": "count", "subjects": "count", "time": "time"}


def _by_field(values: "RateScenario | RateQuery") -> dict[str, Quantity | Fraction | None]:
    return {field: getattr(values, field) for field in _FIELDS}


def _not_a_quantity(field: str) -> InvalidInstance:
    """The refusal of a work or subjects that is not a (strictly positive) ``Quantity``."""
    return InvalidInstance("must be a Quantity", field, kind="type_mismatch")


def _ratio(top: Fraction, a: Fraction, b: Fraction) -> Fraction:
    """top / (a * b), built as one Fraction: two operators would build two."""
    return Fraction(top.numerator * a.denominator * b.denominator,
                    top.denominator * a.numerator * b.numerator)


class RateScenario(Value):
    """A complete (work, subjects, time) triple, all strictly positive; the
    time is in minutes.  ``k`` is its rate constant."""

    # ``k`` is worked out, not a field.
    _fields = ("work", "subjects", "time")
    __slots__ = (*_fields, "k")

    def __init__(self, work: Quantity, subjects: Quantity, time: int | Fraction) -> None:
        if not isinstance(work, Quantity):
            raise _not_a_quantity("work")
        if not isinstance(subjects, Quantity):
            raise _not_a_quantity("subjects")
        time = _positive(time, "time")
        _set(self, "work", work)
        _set(self, "subjects", subjects)
        _set(self, "time", time)
        _set(self, "k", _ratio(work.magnitude, subjects.magnitude, time))


def rate_constant(scenario: RateScenario) -> Fraction:
    """The invariant ratio work / (subjects * time), exactly."""
    return scenario.k


class RateQuery(Value):
    """A known scenario plus two given quantities; solve for the third.

    The unknown is the one field left as None; the other two must be
    strictly positive: a count is a ``Quantity``, a time an ``int`` or
    ``Fraction`` of minutes.  ``target`` is the name of the field left
    out: "work", "subjects" or "time".
    """

    # ``target`` is worked out, not a field.
    _fields = ("known", "work", "subjects", "time")
    __slots__ = (*_fields, "target")
    puzzle_kind = "rate"
    # For each field a find clause may target, the other two, sorted: the
    # keys its where-clause gives, in reading order.
    find_targets = {target: tuple(sorted(set(_FIELDS) - {target})) for target in _FIELDS}

    def __init__(self, known: RateScenario, work: Quantity | None = None,
                 subjects: Quantity | None = None, time: int | Fraction | None = None) -> None:
        if not isinstance(known, RateScenario):
            raise InvalidInstance("known must be a RateScenario")
        if (work is None) + (subjects is None) + (time is None) != 1:
            raise InvalidInstance("exactly one of work, subjects and time must be left out")
        if not (work is None or isinstance(work, Quantity)):
            raise _not_a_quantity("work")
        if not (subjects is None or isinstance(subjects, Quantity)):
            raise _not_a_quantity("subjects")
        if time is not None:
            time = _positive(time, "time")
        _set(self, "known", known)
        _set(self, "work", work)
        _set(self, "subjects", subjects)
        _set(self, "time", time)
        _set(self, "target",
             "work" if work is None else "subjects" if subjects is None else "time")

    @classmethod
    def from_block(cls, block) -> "RateQuery | None":
        """``work = 6; subjects = 6; time = 6 min; find subjects where ...``."""
        work, subjects, time = block.take(*_FIELDS)
        work, subjects, time = block.count(work), block.count(subjects), block.time(time)
        given = block.find(cls.find_targets, _READERS)
        if given is None or work is None or subjects is None or time is None:
            return None
        # The readers refused every bad value.
        return cls(RateScenario(work, subjects, time), **given)

    def block_items(self) -> list[tuple[str, object]]:
        given = [(field, q) for field, q in _by_field(self).items() if q is not None]
        return [*_by_field(self.known).items(), ("find", (self.target, given))]


def solve_rate(query: RateQuery) -> Fraction:
    """The unique unknown making the query's scenario share the known k."""
    k = query.known.k
    if query.target == "work":
        return k * query.subjects.magnitude * query.time
    if query.target == "subjects":
        return _ratio(query.work.magnitude, k, query.time)
    return _ratio(query.work.magnitude, k, query.subjects.magnitude)


def ceil_subjects(value: Fraction) -> int:
    """Smallest whole subject count covering an exact rational answer."""
    value = _exact(value, "subject count")
    if value <= 0:
        raise InvalidInstance("subject count must be positive")
    return math.ceil(value)
