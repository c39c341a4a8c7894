"""Work-rate solver.

Three quantities (work done, subjects doing it, time taken) are linked by
the invariant ratio k = work / (subjects * time): double the subjects and
the same work takes half the time, and so on.  Solving a word problem means
reading k off the known scenario and isolating the one unknown.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import Quantity, Unit, Value, _exact, _set
from .errors import InvalidInstance


# The attribute names of a RateScenario's and a RateQuery's three quantities.
_FIELDS = ("work", "subjects", "time")


def _by_field(values: "RateScenario | RateQuery") -> dict[str, Quantity | None]:
    return {field: getattr(values, field) for field in _FIELDS}


def _check_unit(quantity: Quantity, name: str, unit: Unit) -> None:
    """A ``Quantity`` is strictly positive, so only its unit needs checking."""
    if not isinstance(quantity, Quantity) or quantity.unit is not unit:
        raise InvalidInstance(f"{name} must be a {unit.value} quantity")


class RateScenario(Value):
    """A complete (work, subjects, time) triple, all strictly positive."""

    __slots__ = _fields = ("work", "subjects", "time")

    def __init__(self, work: Quantity, subjects: Quantity, time: Quantity) -> None:
        _check_unit(work, "work", Unit.COUNT)
        _check_unit(subjects, "subjects", Unit.COUNT)
        _check_unit(time, "time", Unit.MINUTES)
        _set(self, "work", work)
        _set(self, "subjects", subjects)
        _set(self, "time", time)


def rate_constant(scenario: RateScenario) -> Fraction:
    """The invariant ratio work / (subjects * time), exactly."""
    return scenario.work.magnitude / (
        scenario.subjects.magnitude * scenario.time.magnitude
    )


class RateQuery(Value):
    """A known scenario plus two given quantities; solve for the third.

    The unknown is the one field left as None; the other two must be
    strictly positive and carry the right unit.  ``target`` is the name of
    the field left out: "work", "subjects" or "time".
    """

    # ``target`` is worked out, not a field.
    _fields = ("known", "work", "subjects", "time")
    __slots__ = (*_fields, "target")
    puzzle_kind = "rate"

    def __init__(self, known: RateScenario, work: Quantity | None = None,
                 subjects: Quantity | None = None, time: Quantity | None = None) -> None:
        if not isinstance(known, RateScenario):
            raise InvalidInstance("known must be a RateScenario")
        by_field = dict(zip(_FIELDS, (work, subjects, time)))
        left_out = [field for field, quantity in by_field.items() if quantity is None]
        if len(left_out) != 1:
            raise InvalidInstance("exactly one of work, subjects and time must be left out")
        for field, quantity in by_field.items():
            if quantity is not None:
                _check_unit(quantity, field, Unit.MINUTES if field == "time" else Unit.COUNT)
        _set(self, "known", known)
        _set(self, "work", work)
        _set(self, "subjects", subjects)
        _set(self, "time", time)
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
        return k * query.subjects.magnitude * query.time.magnitude
    if query.target == "subjects":
        return query.work.magnitude / (k * query.time.magnitude)
    return query.work.magnitude / (k * query.subjects.magnitude)


def completed_scenario(query: RateQuery, solution: Fraction) -> RateScenario:
    """The query's scenario with the solved value plugged back in."""
    values = _by_field(query)
    unit = Unit.MINUTES if query.target == "time" else Unit.COUNT
    values[query.target] = Quantity(solution, unit)
    return RateScenario(**values)


def ceil_subjects(value: Fraction) -> int:
    """Smallest whole subject count covering an exact rational answer."""
    value = _exact(value, "subject count")
    if value <= 0:
        raise InvalidInstance("subject count must be positive")
    return math.ceil(value)
