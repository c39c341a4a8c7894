"""Work-rate solver.

Three quantities (work done, subjects doing it, time taken) are linked by
the invariant ratio k = work / (subjects * time): double the subjects and
the same work takes half the time, and so on.  Solving a word problem means
reading k off the known scenario and isolating the one unknown.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import Quantity, Value, _exact, _positive, _set
from .errors import InvalidInstance


# The attribute names of a RateScenario's and a RateQuery's three quantities.
_FIELDS = ("work", "subjects", "time")


def _by_field(values: "RateScenario | RateQuery") -> dict[str, Quantity | Fraction | None]:
    return {field: getattr(values, field) for field in _FIELDS}


def _checked(field: str, value: object) -> Quantity | Fraction:
    """A count field's ``Quantity`` (strictly positive already), or the time
    as a strictly positive ``Fraction`` of minutes."""
    if field == "time":
        return _positive(value, "time")
    if not isinstance(value, Quantity):
        raise InvalidInstance("must be a Quantity", field, kind="type_mismatch")
    return value


class RateScenario(Value):
    """A complete (work, subjects, time) triple, all strictly positive; the
    time is in minutes."""

    __slots__ = _fields = ("work", "subjects", "time")

    def __init__(self, work: Quantity, subjects: Quantity, time: int | Fraction) -> None:
        checked = list(map(_checked, _FIELDS, (work, subjects, time)))
        for field, value in zip(_FIELDS, checked):
            _set(self, field, value)


def rate_constant(scenario: RateScenario) -> Fraction:
    """The invariant ratio work / (subjects * time), exactly."""
    return scenario.work.magnitude / (scenario.subjects.magnitude * scenario.time)


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

    def __init__(self, known: RateScenario, work: Quantity | None = None,
                 subjects: Quantity | None = None, time: int | Fraction | None = None) -> None:
        if not isinstance(known, RateScenario):
            raise InvalidInstance("known must be a RateScenario")
        given = (work, subjects, time)
        left_out = [field for field, value in zip(_FIELDS, given) if value is None]
        if len(left_out) != 1:
            raise InvalidInstance("exactly one of work, subjects and time must be left out")
        checked = [value if value is None else _checked(field, value)
                   for field, value in zip(_FIELDS, given)]
        _set(self, "known", known)
        for field, value in zip(_FIELDS, checked):
            _set(self, field, value)
        _set(self, "target", left_out[0])

    @classmethod
    def from_block(cls, block) -> "RateQuery | None":
        """``work = 6; subjects = 6; time = 6 min; find subjects where ...``."""
        readers = {"work": block.count, "subjects": block.count, "time": block.time}
        known = [read(assign) for read, assign in zip(readers.values(), block.take(*readers))]
        given = block.find(readers)
        if given is None or None in known:
            return None
        return cls(RateScenario(*known), **given)  # the readers refused every bad value

    def block_items(self) -> list[tuple[str, object]]:
        given = [(field, q) for field, q in _by_field(self).items() if q is not None]
        return [*_by_field(self.known).items(), ("find", (self.target, given))]


def solve_rate(query: RateQuery) -> Fraction:
    """The unique unknown making the query's scenario share the known k."""
    k = rate_constant(query.known)
    if query.target == "work":
        return k * query.subjects.magnitude * query.time
    if query.target == "subjects":
        return query.work.magnitude / (k * query.time)
    return query.work.magnitude / (k * query.subjects.magnitude)


def completed_scenario(query: RateQuery, solution: Fraction) -> RateScenario:
    """The query's scenario with the solved value plugged back in."""
    values = _by_field(query)
    values[query.target] = solution if query.target == "time" else Quantity(solution)
    return RateScenario(**values)


def ceil_subjects(value: Fraction) -> int:
    """Smallest whole subject count covering an exact rational answer."""
    value = _exact(value, "subject count")
    if value <= 0:
        raise InvalidInstance("subject count must be positive")
    return math.ceil(value)
