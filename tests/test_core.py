"""Core value types: quantities and the puzzle union."""

import ast
import copy
import io
import pickle
import tokenize
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from riddle_forge import (
    InvalidInstance,
    Leaf,
    ParseError,
    ParseErrorKind,
    PigeonholeInstance,
    PuzzleSpec,
    Quantity,
    RateQuery,
    RateScenario,
    SourceSpan,
    StationInstance,
    TransferInstance,
    Weigh,
    WeighingInstance,
    build_strategy,
    guarantee_draws_formula,
    parse_puzzles,
    rate_constant,
    serialize_puzzle,
    station_walk_simulate,
    transfer_formula_survey,
    transfer_probability_formula,
)
from riddle_forge.core import _exact


def test_quantity_units():
    # A count keeps its word; a time is a Fraction of minutes, hours folded in as read.
    assert Quantity(6, "mice").label == "mice"
    assert type(Quantity(6).magnitude) is Fraction
    source = ("puzzle rate { work = 1; subjects = 1; time = 1/4 h; "
              "find work where subjects = 2, time = 1 }")
    (spec,) = parse_puzzles(source)
    assert spec.payload.known.time == 15 and spec.payload.time == 1
    text = serialize_puzzle(spec)
    assert text == source.replace("1/4 h", "15 min").replace("time = 1 }", "time = 1 min }")
    assert parse_puzzles(text) == [spec]


def test_quantity_rejects_bad_values():
    with pytest.raises(InvalidInstance):
        Quantity(-1)
    float_message = r"^magnitude must be exact \(int or Fraction\), not float$"
    with pytest.raises(InvalidInstance, match=float_message):
        Quantity(0.5)


_KNOWN = RateScenario(Quantity(6, "mice"), Quantity(6), 6)
_KNOWN_REPR = (
    "RateScenario(work=Quantity(magnitude=Fraction(6, 1), label='mice'), "
    "subjects=Quantity(magnitude=Fraction(6, 1), label=None), time=Fraction(6, 1))"
)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Quantity(Fraction(-1, 3)),
        lambda: Quantity(-1),
        lambda: Quantity(0.5),
        lambda: RateScenario(Quantity(Fraction(0)), Quantity(1), 1),
        lambda: PigeonholeInstance((("", 1),), 1),
        lambda: PigeonholeInstance(((3, 1),), 1),
        lambda: RateScenario(Quantity(1), Quantity(1), "1 min"),
        lambda: Quantity("abc"),
        lambda: Quantity(None),
        lambda: Quantity(Decimal("1.5")),
        lambda: StationInstance("20", "10"),
        lambda: station_walk_simulate("a", 1, 1, 1),
        lambda: RateScenario(Quantity(1), Quantity(1), 0.5),
        lambda: RateScenario(Quantity(1), Quantity(1), Quantity(1)),
        lambda: RateQuery(_KNOWN, Quantity(1), None, 0),
        lambda: RateScenario(2, Quantity(1), 1),
        lambda: RateScenario(Quantity(1), None, 1),
        lambda: RateScenario(Quantity(1), Quantity(1), -1),
        lambda: RateQuery(None, Quantity(1), Quantity(1)),
        lambda: RateQuery(_KNOWN, Quantity(1), Quantity(1), 1),
        lambda: RateQuery(_KNOWN, Quantity(1)),
        lambda: RateQuery(_KNOWN),
        lambda: RateQuery(_KNOWN, 2, None, 1),
        lambda: RateQuery(_KNOWN, None, Fraction(2), 1),
        lambda: RateQuery(_KNOWN, Quantity(1), None, Fraction(-1, 3)),
        lambda: RateQuery(_KNOWN, Quantity(1), None, 0.5),
        lambda: RateQuery(_KNOWN, Quantity(1), None, Quantity(1)),
        lambda: RateScenario(2, 3, 0),
        lambda: RateQuery(_KNOWN, 2, None, 0.5),
        lambda: PigeonholeInstance("ab", 2),
        lambda: PigeonholeInstance(5, 2),
        lambda: PigeonholeInstance((("a", 1, 2),), 2),
        lambda: PigeonholeInstance(None, 2),
        lambda: TransferInstance("ab", (), 1, "moved"),
        lambda: TransferInstance((("a", 1),), 5, 1, "moved"),
        lambda: TransferInstance((("a", 1),), (("b", 1, 2),), 1, "moved"),
        lambda: TransferInstance(None, (), 1, "moved"),
    ],
    ids=[
        "negative-fraction", "negative-int", "float", "zero-fraction-rate",
        "empty-color-label", "non-string-color-label",
        "string-unit", "string-magnitude", "none-magnitude", "decimal-magnitude",
        "string-station", "string-simulation", "float-time", "quantity-time", "zero-time-query",
        "int-work", "none-subjects", "negative-time", "known-not-a-scenario",
        "none-left-out", "two-left-out", "three-left-out", "int-work-query",
        "fraction-subjects-query", "negative-time-query", "float-time-query",
        "quantity-time-query", "two-bad-scenario-arguments", "two-bad-query-arguments",
        "string-colors", "int-colors", "color-triple", "none-colors", "string-container",
        "int-container", "container-triple", "none-container",
    ],
)
def test_constructors_check_direct_callers(build):
    with pytest.raises(InvalidInstance):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: TransferInstance((("red", 1),), (), 1, None),
        lambda: TransferInstance((("red", 1),), (), 1, 5),
        lambda: PuzzleSpec(WeighingInstance(3), label=5),
        lambda: Quantity(3, 7),
        lambda: PuzzleSpec(WeighingInstance(3), label=b"stamps"),
    ],
    ids=["color-none", "color-int", "spec-label-int", "quantity-label-int", "spec-label-bytes"],
)
def test_words_must_be_strings(build):
    # A non-string word cannot be written as DSL text that reads back as the same spec.
    with pytest.raises(InvalidInstance, match="must be a string"):
        build()


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize(
    "build",
    [
        lambda flag: WeighingInstance(flag),
        lambda flag: PigeonholeInstance((("red", 3),), required=flag),
        lambda flag: TransferInstance((("red", 2),), (), moved=flag, query="moved"),
        lambda flag: PigeonholeInstance((("red", flag),), required=1),
    ],
    ids=["weighing-objects", "pigeonhole-required", "transfer-moved", "color-count"],
)
def test_integer_counts_refuse_bools(build, flag):
    # True is an int to isinstance, but it would serialize as the word True.
    with pytest.raises(InvalidInstance):
        build(flag)


# Each value rule, stated once in a constructor or core helper: the refused
# argument, the refused color's index, and the message.  The DSL reader
# reports the same rule as "key '<key>'" and the rest of the message.
@pytest.mark.parametrize(
    "build, argument, index, message",
    [
        (lambda: Quantity(0), "magnitude", None,
         "magnitude must be strictly positive, got 0"),
        (lambda: RateScenario(Quantity(1), Quantity(1), Fraction(-1, 2)), "time", None,
         "time must be strictly positive, got -1/2"),
        (lambda: RateQuery(_KNOWN, Quantity(1), None, 0), "time", None,
         "time must be strictly positive, got 0"),
        (lambda: RateScenario(Quantity(1), Quantity(1), 0.5), "time", None,
         "time must be exact (int or Fraction), not float"),
        (lambda: RateQuery(_KNOWN, Quantity(1), None, Quantity(5)), "time", None,
         "time must be exact (int or Fraction), not Quantity"),
        (lambda: RateScenario(Quantity(1), 2, 1), "subjects", None,
         "subjects must be a Quantity"),
        (lambda: RateScenario(2, Quantity(1), 1), "work", None, "work must be a Quantity"),
        (lambda: RateScenario(Quantity(1), Quantity(1), Quantity(1)), "time", None,
         "time must be exact (int or Fraction), not Quantity"),
        (lambda: RateQuery(_KNOWN, 2, None, 1), "work", None, "work must be a Quantity"),
        (lambda: RateQuery(_KNOWN, None, Fraction(2), 1), "subjects", None,
         "subjects must be a Quantity"),
        (lambda: RateQuery(_KNOWN, Quantity(1), None, 0.5), "time", None,
         "time must be exact (int or Fraction), not float"),
        (lambda: RateQuery("known", Quantity(1), None, 1), None, None,
         "known must be a RateScenario"),
        (lambda: RateQuery(_KNOWN, Quantity(1), Quantity(1), 1), None, None,
         "exactly one of work, subjects and time must be left out"),
        (lambda: RateQuery(_KNOWN, Quantity(1)), None, None,
         "exactly one of work, subjects and time must be left out"),
        (lambda: RateQuery(_KNOWN), None, None,
         "exactly one of work, subjects and time must be left out"),
        # Two bad arguments: the first in field order is refused.
        (lambda: RateScenario(2, 3, 0), "work", None, "work must be a Quantity"),
        (lambda: RateScenario(Quantity(1), 3, 0.5), "subjects", None,
         "subjects must be a Quantity"),
        (lambda: RateQuery(None, 2, 3, 4), None, None, "known must be a RateScenario"),
        (lambda: RateQuery(_KNOWN, 2, 3, 4), None, None,
         "exactly one of work, subjects and time must be left out"),
        (lambda: RateQuery(_KNOWN, 2, None, 0.5), "work", None, "work must be a Quantity"),
        (lambda: RateQuery(_KNOWN, None, 3, -1), "subjects", None,
         "subjects must be a Quantity"),
        (lambda: WeighingInstance(0), "n_objects", None, "n_objects must be at least 1, got 0"),
        (lambda: PigeonholeInstance((("a", 1),), -2), "required", None,
         "required must be at least 1, got -2"),
        (lambda: TransferInstance((("a", 1),), (), 0, "moved"), "moved", None,
         "moved must be at least 1, got 0"),
        (lambda: guarantee_draws_formula(0, 2), "n_colors", None,
         "n_colors must be at least 1, got 0"),
        (lambda: transfer_probability_formula(1, 0), "d", None, "d must be at least 1, got 0"),
        (lambda: list(transfer_formula_survey(0, 1)), "max_n", None,
         "max_n must be at least 1, got 0"),
        (lambda: PigeonholeInstance((("a", 1), ("b", 1), ("a", 2)), 2), "color_counts", 2,
         "color_counts names color 'a' twice"),
        (lambda: TransferInstance((("a", 1),), (("b", 2), ("c", -1)), 1, "moved"),
         "container_b", 1, "container_b needs a whole count >= 0 for color 'c', got -1"),
        (lambda: PigeonholeInstance((), 2), "color_counts", None,
         "color_counts needs at least one color"),
        (lambda: TransferInstance((), (("a", 1),), 1, "moved"), "container_a", None,
         "container_a needs at least one color"),
        (lambda: TransferInstance((("a", 2),), (), 3, "moved"), "moved", None,
         "moved must not exceed the 2 objects in container_a, got 3"),
        (lambda: StationInstance(5, Fraction(-1, 2)), "saved_minutes", None,
         "saved_minutes must be strictly positive, got -1/2"),
        (lambda: StationInstance(5, 11), "saved_minutes", None,
         "saved_minutes cannot exceed twice early_minutes; "
         "the meeting scenario would be inconsistent"),
        (lambda: PigeonholeInstance("ab", 2), "color_counts", 0,
         "color_counts needs (color, count) pairs, got 'a'"),
        (lambda: PigeonholeInstance(5, 2), "color_counts", None,
         "color_counts must be a mapping or an iterable of (color, count) pairs, not int"),
        (lambda: PigeonholeInstance((("a", 1), ("b", 1, 2)), 2), "color_counts", 1,
         "color_counts needs (color, count) pairs, got ('b', 1, 2)"),
        (lambda: PigeonholeInstance(None, 2), "color_counts", None,
         "color_counts must be a mapping or an iterable of (color, count) pairs, "
         "not NoneType"),
        (lambda: TransferInstance((("a", 1),), [["b", 1]], 1, "moved"), "container_b", 0,
         "container_b needs (color, count) pairs, got ['b', 1]"),
        (lambda: TransferInstance(5, (), 1, "moved"), "container_a", None,
         "container_a must be a mapping or an iterable of (color, count) pairs, not int"),
    ],
    ids=["zero-count", "negative-time", "zero-time-query", "float-time", "quantity-time",
         "int-subjects", "int-work", "quantity-time-scenario", "int-work-query",
         "fraction-subjects-query", "float-time-query", "known-not-a-scenario",
         "none-left-out", "two-left-out", "three-left-out", "work-before-subjects-and-time",
         "subjects-before-time", "known-before-the-rest", "left-out-count-before-work",
         "work-before-time-query", "subjects-before-time-query", "zero-objects",
         "negative-required", "zero-moved",
         "zero-colors", "zero-d", "zero-survey-bound", "repeated-color", "negative-color-count",
         "no-colors", "empty-container-a", "moved-past-container", "negative-saved",
         "saved-past-twice-early", "string-colors", "int-colors", "color-triple",
         "none-colors", "list-pair", "int-container"],
)
def test_each_rule_names_the_refused_argument(build, argument, index, message):
    with pytest.raises(InvalidInstance) as info:
        build()
    assert (info.value.argument, info.value.index, str(info.value)) == (argument, index, message)


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
    """Every value is exact: no float literal and no use of the name ``float``
    (``core._exact`` refuses every number that is not an int or a Fraction)."""
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
    assert float_names == []


_TREE = build_strategy(WeighingInstance(13))


# (class, constructor arguments, the repr the former dataclass code gave).
_VALUES = [
    (Quantity, (Fraction(3, 2), "cats"), "Quantity(magnitude=Fraction(3, 2), label='cats')"),
    (PuzzleSpec, (WeighingInstance(13), "coins"),
     "PuzzleSpec(payload=WeighingInstance(n_objects=13), label='coins')"),
    (RateScenario, (_KNOWN.work, _KNOWN.subjects, _KNOWN.time), _KNOWN_REPR),
    (RateQuery, (_KNOWN, Quantity(100), None, 100),
     f"RateQuery(known={_KNOWN_REPR}, work=Quantity(magnitude=Fraction(100, 1), label=None), "
     "subjects=None, time=Fraction(100, 1))"),
    (WeighingInstance, (13,), "WeighingInstance(n_objects=13)"),
    (Leaf, (3,), "Leaf(identified=3)"),
    (Weigh, (_TREE.on_left_heavy, _TREE.on_right_heavy, _TREE.on_balance),
     "Weigh(on_left_heavy=Weigh(on_left_heavy=Leaf(identified=0), "
     "on_right_heavy=Leaf(identified=1), on_balance=Weigh(on_left_heavy=Leaf(identified=2), "
     "on_right_heavy=Leaf(identified=3), on_balance=None)), "
     "on_right_heavy=Weigh(on_left_heavy=Leaf(identified=4), "
     "on_right_heavy=Leaf(identified=5), on_balance=Weigh(on_left_heavy=Leaf(identified=6), "
     "on_right_heavy=Leaf(identified=7), on_balance=None)), "
     "on_balance=Weigh(on_left_heavy=Weigh(on_left_heavy=Leaf(identified=8), "
     "on_right_heavy=Leaf(identified=9), on_balance=None), "
     "on_right_heavy=Weigh(on_left_heavy=Leaf(identified=10), "
     "on_right_heavy=Leaf(identified=11), on_balance=None), on_balance=Leaf(identified=12)))"),
    (PigeonholeInstance, ((("blue", 10), ("red", 8)), 2),
     "PigeonholeInstance(color_counts=(('blue', 10), ('red', 8)), required=2)"),
    (TransferInstance, ((("red", 3), ("blue", 1)), (("blue", 2),), 2, "red"),
     "TransferInstance(container_a=(('red', 3), ('blue', 1)), container_b=(('blue', 2),), "
     "moved=2, query='red')"),
    (StationInstance, (Fraction(20), Fraction(15)),
     "StationInstance(early_minutes=Fraction(20, 1), saved_minutes=Fraction(15, 1))"),
    (SourceSpan, (1, 2, 3), "SourceSpan(line=1, column=2, length=3)"),
    (ParseError, (SourceSpan(1, 2, 3), ParseErrorKind.SYNTAX, "expected '='"),
     "ParseError(span=SourceSpan(line=1, column=2, length=3), "
     "kind=<ParseErrorKind.SYNTAX: 'syntax'>, message=\"expected '='\")"),
]


@pytest.mark.parametrize("cls, args, expected_repr", _VALUES, ids=[c.__name__ for c, *_ in _VALUES])
def test_value_contract(cls, args, expected_repr):
    value, twin = cls(*args), cls(*args)
    assert value == twin and hash(value) == hash(twin)
    # Same fields, another class: never equal, either way round.
    other = type(f"Other{cls.__name__}", (cls,), {"__slots__": ()})(*args)
    assert value != other and other != value
    for name in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == twin
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(copied) is cls and copied == value
        if cls is Weigh:
            assert copied.suspects == value.suspects == tuple(range(13))
        if cls is RateQuery:
            assert copied.target == value.target == "subjects"
        if cls is RateScenario:
            # The rate constant is worked out anew, not carried over as a field.
            assert rate_constant(copied) == rate_constant(value) == Fraction(1, 6)
    assert repr(value) == expected_repr
