"""Work-rate solver.

Three quantities (work done, subjects doing it, time taken) are linked by
the invariant ratio k = work / (subjects * time): double the subjects and
the same work takes half the time, and so on.  Solving a word problem means
reading k off the known scenario and isolating the one unknown.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from fractions import Fraction

from .core import Quantity, Unit, Value, _set
from .errors import InvalidInstance


class RateField(Enum):
    """A field's value is also its attribute's name in RateScenario and RateQuery."""

    WORK = "work"
    SUBJECTS = "subjects"
    TIME = "time"


_FIELDS = tuple(RateField)
_field_values = operator.attrgetter(*(field.value for field in _FIELDS))


def _by_field(values: "RateScenario | RateQuery") -> dict[RateField, Quantity | None]:
    return dict(zip(_FIELDS, _field_values(values)))


def _check_positive(quantity: Quantity, name: str, unit: Unit) -> None:
    if quantity.unit is not unit:
        raise InvalidInstance(f"{name} must be a {unit.value} quantity")
    if quantity.magnitude.numerator <= 0:  # the denominator is positive
        raise InvalidInstance(f"{name} must be strictly positive")


class RateScenario(Value):
    """A complete (work, subjects, time) triple, all strictly positive."""

    __slots__ = _fields = ("work", "subjects", "time")

    def __init__(self, work: Quantity, subjects: Quantity, time: Quantity) -> None:
        _check_positive(work, "work", Unit.COUNT)
        _check_positive(subjects, "subjects", Unit.COUNT)
        _check_positive(time, "time", Unit.MINUTES)
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

    The field named by ``target`` must be None, the other two must be
    present, strictly positive, and carry the right unit.
    """

    __slots__ = _fields = ("known", "target", "work", "subjects", "time")
    puzzle_kind = "rate"

    def __init__(self, known: RateScenario, target: RateField, work: Quantity | None = None,
                 subjects: Quantity | None = None, time: Quantity | None = None) -> None:
        by_field = dict(zip(_FIELDS, (work, subjects, time)))
        if by_field[target] is not None:
            raise InvalidInstance(f"target '{target.value}' must not also be given")
        for field, quantity in by_field.items():
            if field is target:
                continue
            if quantity is None:
                raise InvalidInstance(f"missing given quantity '{field.value}'")
            unit = Unit.MINUTES if field is RateField.TIME else Unit.COUNT
            _check_positive(quantity, field.value, unit)
        _set(self, "known", known)
        _set(self, "target", target)
        _set(self, "work", work)
        _set(self, "subjects", subjects)
        _set(self, "time", time)

    @classmethod
    def from_block(cls, block) -> "RateQuery | None":
        """``work = 6; subjects = 6; time = 6 min; find subjects where ...``."""
        readers = {"work": block.count, "subjects": block.count, "time": block.time}
        known = [read(assign) for read, assign in zip(readers.values(), block.take(*readers))]
        found = block.find(readers)
        if found is None or None in known:
            return None
        target, given = found
        return block.make(cls, RateScenario(*known), RateField(target), **given)

    def block_items(self) -> list[tuple[str, object]]:
        known = [(field.value, q) for field, q in _by_field(self.known).items()]
        given = [(field.value, q) for field, q in _by_field(self).items() if q is not None]
        return known + [("find", (self.target.value, given))]


def solve_rate(query: RateQuery) -> Fraction:
    """The unique unknown making the query's scenario share the known k."""
    k = rate_constant(query.known)
    if query.target is RateField.WORK:
        return k * query.subjects.magnitude * query.time.magnitude
    if query.target is RateField.SUBJECTS:
        return query.work.magnitude / (k * query.time.magnitude)
    return query.work.magnitude / (k * query.subjects.magnitude)


def completed_scenario(query: RateQuery, solution: Fraction) -> RateScenario:
    """The query's scenario with the solved value plugged back in."""
    values = _by_field(query)
    unit = Unit.MINUTES if query.target is RateField.TIME else Unit.COUNT
    values[query.target] = Quantity(solution, unit)
    return RateScenario(**{field.value: q for field, q in values.items()})


def ceil_subjects(value: Fraction) -> int:
    """Smallest whole subject count covering an exact rational answer."""
    if value <= 0:
        raise InvalidInstance("subject count must be positive")
    return math.ceil(value)
