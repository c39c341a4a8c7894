"""Core value types: quantities and the puzzle union."""

from fractions import Fraction

import pytest

from riddle_forge import (
    InvalidInstance,
    PuzzleKind,
    PuzzleSpec,
    Quantity,
    Unit,
    WeighingInstance,
    puzzle,
)


def test_quantity_units():
    assert Quantity.hours(2).magnitude == 120
    assert Quantity.hours(Fraction(1, 2)) == Quantity.minutes(30)
    assert Quantity.count(6, "mice").label == "mice"


def test_quantity_rejects_bad_values():
    with pytest.raises(InvalidInstance):
        Quantity.count(-1)
    with pytest.raises(InvalidInstance):
        Quantity(Fraction(3), Unit.MINUTES, label="mice")
    with pytest.raises(InvalidInstance):
        Quantity.count(0.5)  # floats are not exact


def test_puzzle_spec_tag_must_match_payload():
    inst = WeighingInstance(13)
    spec = PuzzleSpec(PuzzleKind.WEIGHING, inst)
    assert spec.payload.n_objects == 13
    with pytest.raises(InvalidInstance):
        PuzzleSpec(PuzzleKind.RATE, inst)
    assert puzzle(inst).kind is PuzzleKind.WEIGHING
    with pytest.raises(InvalidInstance):
        puzzle("not a payload")
