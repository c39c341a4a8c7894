"""Core value types: quantities and the puzzle union."""

import ast
import io
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest

from riddle_forge import (
    DrawnIsMoved,
    InvalidInstance,
    PigeonholeInstance,
    PuzzleSpec,
    Quantity,
    RateScenario,
    TransferInstance,
    Unit,
    WeighingInstance,
)
from riddle_forge.core import _exact


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


@pytest.mark.parametrize(
    "build",
    [
        lambda: Quantity(Fraction(-1, 3), Unit.COUNT),
        lambda: Quantity(-1, Unit.COUNT),
        lambda: Quantity(0.5, Unit.COUNT),
        lambda: RateScenario(
            Quantity(Fraction(0), Unit.COUNT), Quantity.count(1), Quantity.minutes(1)
        ),
    ],
    ids=["negative-fraction", "negative-int", "float", "zero-fraction-rate"],
)
def test_constructors_check_direct_callers(build):
    with pytest.raises(InvalidInstance):
        build()


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize(
    "build",
    [
        lambda flag: WeighingInstance(flag),
        lambda flag: PigeonholeInstance((("red", 3),), required=flag),
        lambda flag: TransferInstance((("red", 2),), (), moved=flag, query=DrawnIsMoved()),
        lambda flag: PigeonholeInstance((("red", flag),), required=1),
    ],
    ids=["weighing-objects", "pigeonhole-required", "transfer-moved", "color-count"],
)
def test_integer_counts_refuse_bools(build, flag):
    # True is an int to isinstance, but it would serialize as the word True.
    with pytest.raises(InvalidInstance):
        build(flag)


def test_exact_keeps_a_fraction():
    value = _exact(Fraction(3, 4), "magnitude")
    assert type(value) is Fraction and value == Fraction(3, 4)


def test_puzzle_spec_tag_must_match_payload():
    inst = WeighingInstance(13)
    spec = PuzzleSpec(inst)
    assert spec.payload.n_objects == 13
    assert spec.kind == "weighing"
    with pytest.raises(InvalidInstance):
        PuzzleSpec("not a payload")


def test_package_source_has_no_floats():
    """Every value is exact: no float literal, and the name ``float`` only
    where ``core._exact`` refuses one."""
    package = Path(__file__).resolve().parent.parent / "src" / "riddle_forge"
    sources = sorted(package.glob("*.py"))
    assert sources
    float_literals, float_names = [], []
    for path in sources:
        text = path.read_text(encoding="utf-8")
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            where = (path.name, tok.line.strip())
            if tok.type == tokenize.NUMBER and type(ast.literal_eval(tok.string)) is not int:
                float_literals.append(where)  # a float, or a complex
            elif tok.type == tokenize.NAME and tok.string == "float":
                float_names.append(where)
    assert float_literals == []
    assert float_names == [("core.py", "if isinstance(value, float):")]
