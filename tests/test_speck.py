"""Puzzle DSL: golden parses, precise error spans, round-trip properties."""

import copy
import functools
import json
import pickle
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riddle_forge.speck as speck
from riddle_forge import (
    InvalidInstance,
    ParseErrorKind,
    ParseFailure,
    PigeonholeInstance,
    PuzzleSpec,
    Quantity,
    RateQuery,
    RateScenario,
    StationInstance,
    TransferInstance,
    WeighingInstance,
    parse_puzzles,
    serialize_puzzle,
)
from riddle_forge.core import Value, _positive_int, _set
from specgen import random_spec

RATE_LINE = (
    "puzzle rate { work = 6 mice; subjects = 6 cats; time = 6 min; "
    "find subjects where work = 100, time = 50 min }"
)


def errors_of(source):
    with pytest.raises(ParseFailure) as info:
        parse_puzzles(source)
    return info.value.errors


def test_parses_the_documented_rate_block():
    specs = parse_puzzles(RATE_LINE)
    expected = RateQuery(
        known=RateScenario(
            work=Quantity(6, "mice"),
            subjects=Quantity(6, "cats"),
            time=6,
        ),
        work=Quantity(100),
        time=50,
    )
    assert specs == [PuzzleSpec(expected)]


def test_parse_failure_survives_copy_and_pickle():
    # The message is the errors joined; a copy or a pickle keeps both.
    with pytest.raises(ParseFailure) as info:
        parse_puzzles("puzzle weighing { objects = 0 }\nx\n")
    failure = info.value
    message = ("1:29: negative_count: key 'objects' must be at least 1, got 0; "
               "2:1: syntax: expected 'puzzle', found 'x'")
    assert str(failure) == message
    assert [str(error) for error in failure.errors] == message.split("; ")
    for copied in (copy.copy(failure), pickle.loads(pickle.dumps(failure))):
        assert type(copied) is ParseFailure
        assert copied.errors == failure.errors
        assert str(copied) == message


def test_empty_input_yields_empty_list():
    assert parse_puzzles("") == []
    assert parse_puzzles("\n\n# just a comment\n") == []


def test_negative_count_error_at_the_literal_span():
    (error,) = errors_of("puzzle weighing { objects = -3 }")
    assert error.kind is ParseErrorKind.NEGATIVE_COUNT
    assert (error.span.line, error.span.column, error.span.length) == (1, 29, 2)


def test_unknown_kind_error_at_the_kind_span():
    (error,) = errors_of("puzzle frobnicate { objects = 3 }")
    assert error.kind is ParseErrorKind.UNKNOWN_KIND
    assert (error.span.line, error.span.column, error.span.length) == (1, 8, 10)
    assert error.message == (
        "unknown puzzle kind 'frobnicate'; expected one of "
        "rate, weighing, pigeonhole, transfer, station"
    )


def test_duplicate_key_error_at_the_second_key():
    (error,) = errors_of("puzzle weighing { objects = 3; objects = 4 }")
    assert error.kind is ParseErrorKind.DUPLICATE_KEY
    assert (error.span.line, error.span.column, error.span.length) == (1, 32, 7)
    # A block that a syntax error aborts, or of no known kind, reports only that error.
    (error,) = errors_of("puzzle weighing { objects = 3; objects = 4; = }")
    assert error.kind is ParseErrorKind.SYNTAX
    (error,) = errors_of("puzzle frobnicate { objects = 3; objects = 4 }")
    assert error.kind is ParseErrorKind.UNKNOWN_KIND


def test_missing_key_and_type_mismatch_and_bad_unit():
    (error,) = errors_of("puzzle weighing { }")
    assert error.kind is ParseErrorKind.MISSING_KEY

    (error,) = errors_of("puzzle weighing { objects = (a: 1) }")
    assert error.kind is ParseErrorKind.TYPE_MISMATCH

    (error,) = errors_of("puzzle weighing { objects = 3 h }")
    assert error.kind is ParseErrorKind.BAD_UNIT

    (error,) = errors_of("puzzle station { early = 5 bogus; saved = 2 min }")
    assert error.kind is ParseErrorKind.BAD_UNIT
    assert "bogus" in error.message


def test_syntax_errors_name_the_offender():
    (error,) = errors_of("puzzle weighing { objects = }")
    assert error.kind is ParseErrorKind.SYNTAX
    assert "'}'" in error.message

    (error,) = errors_of("puzzle weighing { objects = 5/0 }")
    assert error.kind is ParseErrorKind.SYNTAX

    (error,) = errors_of("stuff\npuzzle weighing { objects = 3 }\n")
    assert error.kind is ParseErrorKind.SYNTAX
    assert "'puzzle'" in error.message
    assert error.span.line == 1

    # '²' passes str.isdigit() but is no DSL digit.
    (error,) = errors_of("puzzle weighing { objects = ² }")
    assert error.kind is ParseErrorKind.SYNTAX
    assert "'²'" in error.message
    assert (error.span.column, error.span.length) == (29, 1)

    # Past the interpreter's int-max-str-digits limit; the message stays short.
    (error,) = errors_of("puzzle weighing { objects = " + "7" * 5000 + " }")
    assert error.kind is ParseErrorKind.SYNTAX
    assert "5000" in error.message
    assert len(error.message) < 100
    assert (error.span.column, error.span.length) == (29, 5000)

    # Identifiers are ASCII, as the serializer writes them.
    (error,) = errors_of("puzzle weighing { label = café; objects = 3 }")
    assert str(error) == "1:30: syntax: expected a statement, found 'é'"
    (error,) = errors_of(
        "puzzle pigeonhole { counts = (rojo: 2, ñu: 3); required = 2 }"
    )
    assert str(error) == "1:40: syntax: expected a color name, found 'ñ'"


@pytest.mark.parametrize(
    "source, span",
    [
        # A tab and a carriage return are one character each.
        ("puzzle weighing {\r\n\tobjects = 0\r\n}", (2, 12, 1)),
        ("# inventory\npuzzle weighing { objects = 3 h }\n", (2, 31, 1)),
        # End of input with no trailing newline: a zero-length span after it.
        ("puzzle weighing { objects = 3 ", (1, 31, 0)),
        # A p/q value spans from p to q.
        ("puzzle weighing { objects = 7/2 }", (1, 29, 3)),
        ("puzzle weighing { objects = 10 / 4 }", (1, 29, 6)),
    ],
)
def test_error_span_is_exact(source, span):
    (error,) = errors_of(source)
    assert (error.span.line, error.span.column, error.span.length) == span


def test_error_span_deep_in_a_long_file():
    block = "puzzle weighing { objects = %d }\n"
    source = (block % 3) * 4999 + block % 0
    (error,) = errors_of(source)
    assert (error.span.line, error.span.column, error.span.length) == (5000, 29, 1)


_FRAGMENTS = [
    "puzzle", " weighing", " pigeonhole", " station", "{", "}", "(", ")", "=", ":",
    ",", ";", "/", " objects", " counts", " early", " label", "3", "-2", "0", " min",
    " h", "\n", "\r\n", "\r", "\t", " ", "#note", "é", "²", "\x0b",
]


@settings(max_examples=300)
@given(st.one_of(st.text(), st.lists(st.sampled_from(_FRAGMENTS)).map("".join)))
def test_error_spans_stay_inside_their_line(source):
    try:
        parse_puzzles(source)
    except ParseFailure as failure:
        lines = source.split("\n")  # not splitlines: '\r' and '\x0b' end no line
        for error in failure.errors:
            line, column, length = error.span.line, error.span.column, error.span.length
            assert 1 <= line <= source.count("\n") + 1
            assert column >= 1
            # An "end of line" error covers the line's own newline character.
            newline = 1 if line < len(lines) else 0
            assert column - 1 + length <= len(lines[line - 1]) + newline


def test_recovery_collects_errors_from_every_block():
    source = (
        "puzzle weighing { objects = -3 }\n"
        "puzzle weighing { objects = 9 }\n"
        "puzzle frobnicate { }\n"
    )
    errors = errors_of(source)
    assert [e.kind for e in errors] == [
        ParseErrorKind.NEGATIVE_COUNT,
        ParseErrorKind.UNKNOWN_KIND,
    ]
    assert [e.span.line for e in errors] == [1, 3]


# One row per syntax error that aborts a block, in the order the parser
# raises them.  Each source goes on past the error so that recovery resuming
# one token early or late changes the error list: mostly a '}' that recovery
# must skip, then a stray 'x' that it must report.
@pytest.mark.parametrize(
    "source, expected",
    [
        ("} } x }", ["1:1: syntax: expected 'puzzle', found '}'",
                     "1:5: syntax: expected 'puzzle', found 'x'"]),
        ("puzzle } x }", ["1:8: syntax: expected a puzzle kind, found '}'",
                          "1:10: syntax: expected 'puzzle', found 'x'"]),
        ("puzzle weighing } x }", ["1:17: syntax: expected '{', found '}'",
                                   "1:19: syntax: expected 'puzzle', found 'x'"]),
        ("puzzle weighing { objects = 3\n", ["2:1: syntax: unterminated block: expected '}'"]),
        ("puzzle weighing { objects } x }", ["1:27: syntax: expected '=', found '}'",
                                             "1:29: syntax: expected 'puzzle', found 'x'"]),
        ("puzzle weighing { objects = } objects = 0 }",
         ["1:29: syntax: expected a value, found '}'",
          "1:31: syntax: expected 'puzzle', found 'objects'"]),
        ("puzzle weighing { objects = 1/} x }",
         ["1:31: syntax: expected a denominator, found '}'",
          "1:33: syntax: expected 'puzzle', found 'x'"]),
        ("puzzle weighing { objects = 1/0 } x",
         ["1:31: syntax: denominator must not be zero",
          "1:35: syntax: expected 'puzzle', found 'x'"]),
        ("puzzle weighing { objects = 1/-2 } x",
         ["1:31: syntax: denominator must be positive",
          "1:36: syntax: expected 'puzzle', found 'x'"]),
        ("puzzle pigeonhole { counts = (} x }",
         ["1:31: syntax: expected a color name, found '}'",
          "1:33: syntax: expected 'puzzle', found 'x'"]),
        ("puzzle pigeonhole { counts = (a } x }",
         ["1:33: syntax: expected ':', found '}'",
          "1:35: syntax: expected 'puzzle', found 'x'"]),
        ("puzzle pigeonhole { counts = (a: } x }",
         ["1:34: syntax: expected a count, found '}'",
          "1:36: syntax: expected 'puzzle', found 'x'"]),
        ("puzzle pigeonhole { counts = (a: 1/2) } x",
         ["1:35: syntax: color counts must be integers",
          "1:41: syntax: expected 'puzzle', found 'x'"]),
        ("puzzle pigeonhole { counts = (a: 1 } x }",
         ["1:36: syntax: expected ')', found '}'",
          "1:38: syntax: expected 'puzzle', found 'x'"]),
        ("puzzle rate { find } x }", ["1:20: syntax: expected a field to find, found '}'",
                                      "1:22: syntax: expected 'puzzle', found 'x'"]),
        ("puzzle rate { find work } x }", ["1:25: syntax: expected 'where', found '}'",
                                           "1:27: syntax: expected 'puzzle', found 'x'"]),
        ("puzzle rate { find work where } x }",
         ["1:31: syntax: expected a key, found '}'",
          "1:33: syntax: expected 'puzzle', found 'x'"]),
    ],
)
def test_each_syntax_error_resumes_where_it_should(source, expected):
    assert [str(e) for e in errors_of(source)] == expected


# Within one block: duplicate keys, then a misplaced 'find', then the label,
# then the kind's missing keys, then its values in the order the kind reads
# them (a where-clause's in sorted key order), then the constructor's first
# refusal, made only once every value has its type, then leftover keys.  A
# count (a Quantity) or time is built (and refused) as it is read.  Each
# error is (str(error), span length).
@pytest.mark.parametrize(
    "source, expected",
    [
        (
            "puzzle weighing { extra = 1; find work where time = 1; label = 3; label = x }",
            [
                ("1:67: duplicate_key: duplicate key 'label'", 5),
                ("1:30: syntax: 'find' is only meaningful in rate puzzles, not weighing", 4),
                ("1:64: type_mismatch: key 'label' expects a word, found a number", 1),
                ("1:8: missing_key: weighing puzzle is missing key 'objects'", 8),
                ("1:19: syntax: unexpected key 'extra' in a weighing puzzle", 5),
            ],
        ),
        (
            "puzzle weighing { objects = 1/2; extra = 2 }",
            [
                ("1:29: type_mismatch: key 'objects' expects an integer, got 1/2", 3),
                ("1:34: syntax: unexpected key 'extra' in a weighing puzzle", 5),
            ],
        ),
        (  # 'required' is missing, so the color list goes unchecked
            "puzzle pigeonhole { zzz = 1; counts = (a: -1, a: 2); find x where y = 1 }",
            [
                ("1:54: syntax: 'find' is only meaningful in rate puzzles, not pigeonhole", 4),
                ("1:8: missing_key: pigeonhole puzzle is missing key 'required'", 10),
                ("1:21: syntax: unexpected key 'zzz' in a pigeonhole puzzle", 3),
            ],
        ),
        (  # values are missing or mistyped, so 'moved = 0' goes unchecked
            "puzzle transfer { junk = 1; query = 3; moved = 0; container_b = 5 }",
            [
                ("1:8: missing_key: transfer puzzle is missing key 'container_a'", 8),
                ("1:65: type_mismatch: key 'container_b' expects a color list like "
                 "(blue: 2, red: 3), found a number", 1),
                ("1:37: type_mismatch: key 'query' expects a word, found a number", 1),
                ("1:19: syntax: unexpected key 'junk' in a transfer puzzle", 4),
            ],
        ),
        (  # the refusal is at the 'moved' value
            "puzzle transfer { container_a = (r: 2); container_b = (); moved = 3; "
            "query = moved; x = 1 }",
            [
                ("1:67: syntax: key 'moved' must not exceed the 2 objects in container_a, "
                 "got 3", 1),
                ("1:85: syntax: unexpected key 'x' in a transfer puzzle", 1),
            ],
        ),
        (
            "puzzle station { x = 1; saved = 5 bogus; early = -1 min }",
            [
                ("1:50: negative_count: key 'early' must be strictly positive, got -1", 2),
                ("1:35: bad_unit: unknown time unit 'bogus' for key 'saved'; "
                 "expected 'min' or 'h'", 5),
                ("1:18: syntax: unexpected key 'x' in a station puzzle", 1),
            ],
        ),
        (
            "puzzle station { x = 1; saved = 3 h }",
            [
                ("1:8: missing_key: station puzzle is missing key 'early'", 7),
                ("1:18: syntax: unexpected key 'x' in a station puzzle", 1),
            ],
        ),
        (
            "puzzle station { early = 1; saved = 3; x = 1 }",
            [
                ("1:37: syntax: key 'saved' cannot exceed twice early_minutes; "
                 "the meeting scenario would be inconsistent", 1),
                ("1:40: syntax: unexpected key 'x' in a station puzzle", 1),
            ],
        ),
        (
            "puzzle rate { bogus = 1; subjects = 0; time = 2 h; "
            "find work where time = -1, zzz = 2, subjects = 1 h, zzz = 3 }",
            [
                ("1:8: missing_key: rate puzzle is missing key 'work'", 4),
                ("1:37: negative_count: key 'subjects' must be strictly positive, got 0", 1),
                ("1:79: syntax: unexpected key 'zzz' in where-clause; "
                 "expected subjects and time", 3),
                ("1:104: syntax: unexpected key 'zzz' in where-clause; "
                 "expected subjects and time", 3),
                ("1:101: bad_unit: key 'subjects' counts objects; "
                 "time unit 'h' is not allowed here", 1),
                ("1:75: negative_count: key 'time' must be strictly positive, got -1", 2),
                ("1:15: syntax: unexpected key 'bogus' in a rate puzzle", 5),
            ],
        ),
        (  # sorted order: the value error on 'subjects', then 'time' missing
            "puzzle rate { work = 1; subjects = 1; time = 1; find work where subjects = 0 }",
            [
                ("1:76: negative_count: key 'subjects' must be strictly positive, got 0", 1),
                ("1:49: missing_key: where-clause is missing key 'time'", 4),
            ],
        ),
        (  # sorted order, not source order: 'time' before 'work'
            "puzzle rate { work = 1; subjects = 1; time = 1; "
            "find subjects where work = 0, time = 0 min }",
            [
                ("1:86: negative_count: key 'time' must be strictly positive, got 0", 1),
                ("1:76: negative_count: key 'work' must be strictly positive, got 0", 1),
            ],
        ),
        (
            "puzzle rate { work = 1; subjects = 1; time = 1; find subjects where work = 1, "
            "time = 2; find work where subjects = 1, time = 2; x = 1 }",
            [
                ("1:89: duplicate_key: only one 'find' clause is allowed", 4),
                ("1:129: syntax: unexpected key 'x' in a rate puzzle", 1),
            ],
        ),
        (
            "puzzle rate { work = 0; time = 1; x = 1 }",
            [
                ("1:8: missing_key: rate puzzle is missing key 'subjects'", 4),
                ("1:22: negative_count: key 'work' must be strictly positive, got 0", 1),
                ("1:8: missing_key: rate puzzle needs a 'find' clause", 4),
                ("1:35: syntax: unexpected key 'x' in a rate puzzle", 1),
            ],
        ),
        (
            "puzzle rate { work = 1; subjects = 1; time = 1; find speed where work = 1 }",
            [("1:54: syntax: find target must be one of work, subjects, time; "
              "got 'speed'", 5)],
        ),
        (
            "puzzle pigeonhole { counts = (); required = 2 }",
            [("1:30: type_mismatch: key 'counts' needs at least one color", 1)],
        ),
        (
            "puzzle pigeonhole { counts = (a: 1/2); required = 2 }",
            [("1:35: syntax: color counts must be integers", 1)],
        ),
        (
            "puzzle rate { work = 1; subjects = 1; time = 1; "
            "find subjects where work = 1, work = 2, time = 1 }",
            [("1:79: duplicate_key: duplicate key 'work' in where-clause", 4)],
        ),
        (
            "puzzle weighing { label = (a: 1); objects = 3 }",
            [("1:27: type_mismatch: key 'label' expects a word, found a color list", 1)],
        ),
        (
            "puzzle station { early = (a: 1); saved = x }",
            [
                ("1:26: type_mismatch: key 'early' expects a number, "
                 "found a color list", 1),
                ("1:42: type_mismatch: key 'saved' expects a number, "
                 "found the word 'x'", 1),
            ],
        ),
        (  # one item a line: a refused count is placed at the count, a repeated
            # name at the name, whatever its count
            "puzzle pigeonhole { counts = (\n  a: 1,\n  b: -2,\n  a: 3\n); required = 2 }\n"
            "puzzle transfer { container_a = (\n  c: 1,\n  c: -1\n); container_b = (\n"
            "  d: -4\n); moved = 1; query = c }",
            [
                ("3:6: negative_count: key 'counts' needs a whole count >= 0 for color 'b', "
                 "got -2", 2),
                ("8:3: duplicate_key: key 'container_a' names color 'c' twice", 1),
            ],
        ),
    ],
)
def test_errors_within_a_block_come_in_a_fixed_order(source, expected):
    assert [(str(e), e.span.length) for e in errors_of(source)] == expected


class Toy(Value):
    """A kind known to ``speck`` only by its row in ``_PAYLOAD_TYPES``: the
    line y = x + offset, with x or y to find from the other.

    ``puzzle toy { offset = 2; find y where x = 3 }``
    """

    __slots__ = _fields = ("offset", "x", "y")
    puzzle_kind = "toy"
    find_targets = {"x": ("y",), "y": ("x",)}

    def __init__(self, offset: int, x: int | None = None, y: int | None = None) -> None:
        _set(self, "offset", _positive_int(offset, "offset"))
        if (x if y is None else y - offset) > 9:
            raise InvalidInstance("x must be at most 9", kind="negative_count")
        _set(self, "x", x)
        _set(self, "y", y)

    @classmethod
    def from_block(cls, block):
        (offset,) = block.take("offset")
        value = block.integer(offset)
        given = block.find(cls.find_targets, {"x": "integer", "y": "integer"})
        if value is None or given is None:
            return None
        return block.make(cls, value, given.get("x"), given.get("y"), at=(offset,))

    def block_items(self):
        target, given = ("y", "x") if self.y is None else ("x", "y")
        return [("offset", self.offset), ("find", (target, [(given, getattr(self, given))]))]


@pytest.fixture
def toy_kind(monkeypatch):
    monkeypatch.setitem(speck._PAYLOAD_TYPES, "toy", Toy)


def test_a_kind_is_known_by_its_table_row_alone(toy_kind):
    for source, expected in [
        ("puzzle toy { offset = 2; find y where x = 3 }", Toy(2, x=3)),
        ("puzzle toy { label = t; offset = 1; find x where y = 4 }", Toy(1, y=4)),
    ]:
        (spec,) = parse_puzzles(source)
        assert spec.payload == expected and spec.kind == "toy"
        assert serialize_puzzle(spec) == source
    # Its own find targets, and its own key table.
    errors = errors_of("puzzle toy { offset = 2; offset = 3; find z where x = 1 }")
    assert [str(e) for e in errors] == [
        "1:26: duplicate_key: duplicate key 'offset'",
        "1:43: syntax: find target must be one of x, y; got 'z'",
    ]
    # A kind without find targets names every kind that has them.
    (error,) = errors_of("puzzle weighing { objects = 3; find y where x = 1 }")
    assert error.message == "'find' is only meaningful in rate or toy puzzles, not weighing"


def test_a_toy_constructors_refusals_are_placed(toy_kind):
    # One that names its argument, at that argument's value.
    (error,) = errors_of("puzzle toy { offset = 0; find y where x = 1 }")
    assert str(error) == "1:23: negative_count: key 'offset' must be at least 1, got 0"
    # One that names none, at the kind keyword, worded as raised, under its kind.
    (error,) = errors_of("puzzle toy { offset = 1; find y where x = 10 }")
    assert error.kind is ParseErrorKind.NEGATIVE_COUNT
    assert (error.span.column, error.span.length) == (8, 3)
    assert error.message == "x must be at most 9"


def test_error_spans_stay_inside_the_offending_block():
    source = (
        "puzzle weighing { objects = 3 }\n"
        "puzzle pigeonhole {\n"
        "    counts = (a: -2)\n"
        "    required = 2\n"
        "}\n"
    )
    (error,) = errors_of(source)
    assert error.kind is ParseErrorKind.NEGATIVE_COUNT
    assert error.span.line == 3


def test_identical_input_gives_identical_errors():
    source = "puzzle weighing { objects = -3 }\npuzzle frobnicate { }\n"
    assert errors_of(source) == errors_of(source)


def test_hours_convert_at_parse_time():
    (spec,) = parse_puzzles(
        "puzzle rate { work = 150; subjects = 100; time = 1 h; "
        "find subjects where work = 60, time = 30 min }"
    )
    assert spec.payload.known.time == 60


def test_rationals_and_station_units():
    (spec,) = parse_puzzles("puzzle station { early = 31/2 min; saved = 1/4 h }")
    assert spec.payload == StationInstance(Fraction(31, 2), 15)


def test_multiline_colorlist_and_comments():
    source = """
# drawer inventory
puzzle pigeonhole {
    counts = (
        blue: 10,  # pairs doubled
        red: 8,
        black: 12
    )
    required = 2
}
"""
    (spec,) = parse_puzzles(source)
    assert spec.payload == PigeonholeInstance(
        (("blue", 10), ("red", 8), ("black", 12)), 2
    )


def test_transfer_queries():
    (spec,) = parse_puzzles(
        "puzzle transfer { container_a = (red: 2); container_b = (); "
        "moved = 1; query = moved }"
    )
    assert spec.payload.query == "moved"
    assert spec.payload.container_b == ()
    (spec,) = parse_puzzles(
        "puzzle transfer { container_a = (red: 2); container_b = (blue: 1); "
        "moved = 2; query = red }"
    )
    assert spec.payload.query == "red"


def test_transfer_moved_bounds_checked():
    errors = errors_of(
        "puzzle transfer { container_a = (red: 2); container_b = (); "
        "moved = 3; query = moved }"
    )
    assert errors[0].kind is ParseErrorKind.SYNTAX
    assert "container_a" in errors[0].message


def test_serialize_goldens():
    assert (
        serialize_puzzle(PuzzleSpec(WeighingInstance(13)))
        == "puzzle weighing { objects = 13 }"
    )
    buttons = PuzzleSpec(
        PigeonholeInstance(
            (("blue", 84), ("turquoise", 32), ("red", 28), ("green", 4)), 4
        )
    )
    assert serialize_puzzle(buttons) == (
        "puzzle pigeonhole { counts = (blue: 84, turquoise: 32, red: 28, "
        "green: 4); required = 4 }"
    )
    assert serialize_puzzle(PuzzleSpec(WeighingInstance(9), label="stamps")) == (
        "puzzle weighing { label = stamps; objects = 9 }"
    )


def test_serialize_rejects_unexpressible_labels():
    spec = PuzzleSpec(WeighingInstance(3), label="not a word")
    with pytest.raises(InvalidInstance) as info:
        serialize_puzzle(spec)
    assert str(info.value) == "label 'not a word' is not expressible in the DSL"


def _rate_with_work(work):
    known = RateScenario(work, Quantity(3), 4)
    return PuzzleSpec(RateQuery(known, work=Quantity(5), subjects=Quantity(6)))


@pytest.mark.parametrize(
    "spec, message",
    [
        (PuzzleSpec(PigeonholeInstance((("blue", 1), ("sky blue", 2)), 1)),
         "color 'sky blue' is not expressible in the DSL"),
        (PuzzleSpec(TransferInstance((("red", 2),), (), 1, "rojo-1")),
         "color 'rojo-1' is not expressible in the DSL"),
        (_rate_with_work(Quantity(2, "min")),
         "count label 'min' collides with a time unit"),
        (_rate_with_work(Quantity(2, "h")),
         "count label 'h' collides with a time unit"),
        (_rate_with_work(Quantity(2, "two words")),
         "label 'two words' is not expressible in the DSL"),
    ],
)
def test_serialize_refuses_what_the_dsl_cannot_express(spec, message):
    with pytest.raises(InvalidInstance) as info:
        serialize_puzzle(spec)
    assert str(info.value) == message


def test_round_trip_seeded_sample():
    rng = random.Random(20260811)
    for _ in range(300):
        spec = random_spec(rng)
        assert parse_puzzles(serialize_puzzle(spec)) == [spec]


@settings(max_examples=150)
@given(st.integers(0, 2**48))
def test_round_trip_property(seed):
    spec = random_spec(random.Random(seed))
    assert parse_puzzles(serialize_puzzle(spec)) == [spec]


def test_parse_accepts_every_kind_round_tripped_together():
    rng = random.Random(5)
    # A color may be named "moved"; the query word "moved" still asks for a moved object.
    moved_color = TransferInstance((("moved", 2),), (("moved", 1),), 1, "moved")
    specs = [random_spec(rng) for _ in range(25)] + [PuzzleSpec(moved_color)]
    source = "\n".join(serialize_puzzle(s) for s in specs)
    assert parse_puzzles(source) == specs


# ----------------------------------------------------------------------
# One token stream, lexed a chunk of whole lines at a time.  No token spans a
# newline and the parser never looks past its current token, so the outcome
# (the specs, or the errors with their spans) is the same at every chunk
# size, down to one line a chunk, where every block written on more than one
# line is read across chunks.

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def outcome(source):
    try:
        return [(spec.kind, spec.payload, spec.label) for spec in parse_puzzles(source)]
    except ParseFailure as failure:
        return [(str(error), error.span) for error in failure.errors]


def outcome_at_any_chunk_size(source, monkeypatch):
    """parse_puzzles' outcome, after checking it is the same with one line a chunk."""
    expected = outcome(source)
    with monkeypatch.context() as patch:
        patch.setattr(speck, "_CHUNK", 1)
        assert outcome(source) == expected
    return expected


def one_statement_a_line(source):
    return source.replace("; ", "\n")


@functools.lru_cache(maxsize=None)
def canonical_lines(count, seed):
    rng = random.Random(seed)
    return "".join(serialize_puzzle(random_spec(rng)) + "\n" for _ in range(count))


@pytest.mark.parametrize(
    "line",
    [
        "puzzle weighing { objects = 0 }",
        "puzzle weighing { objects = 3; objects = 4 }",
        "puzzle frobnicate { objects = 3 }",
        "puzzle rate { find = 3 }",
        "puzzle station { early = 3/0 min; saved = 1 min }",
        "puzzle station { early = 3/-4 min; saved = 1 min }",
        "puzzle station { early = 3/00 min; saved = 1 min }",
        "puzzle weighing { objects = " + "7" * 5000 + " }",
        "puzzle weighing { objects = ٣ }",
        "puzzle weighing { label = café; objects = 3 }",
        "puzzle weighing { objects = 3 }\r\n",
        "puzzle weighing { objects = 3 }; puzzle weighing { objects = 4 }",
        "puzzle rate { work = 6; subjects = 6; time = 6 min; "
        "find subjects where work = (red: 1), time = 5 min }",
        "puzzle transfer { container_a = (red: 1); container_b = (blue: 1); "
        "moved = 1; query = moved label = x }",
        # One line per value rule a constructor owns.
        "puzzle rate { work = 0; subjects = 1; time = 1 min; "
        "find work where subjects = 1, time = 1 min }",
        "puzzle station { early = 0 min; saved = 1 min }",
        "puzzle pigeonhole { counts = (a: 1, a: 2); required = 2 }",
        "puzzle pigeonhole { counts = (a: -1); required = 2 }",
        "puzzle pigeonhole { counts = (); required = 2 }",
        "puzzle transfer { container_a = (red: 1); container_b = (); moved = 2; query = moved }",
        # Shapes the statement readers step through token by token.
        "puzzle station { early = 31 / 2 min; saved = 1 min }",
        "puzzle pigeonhole { counts = (a:\n1, b: 2); required = 2 }",
        "puzzle pigeonhole { counts = (\n); required = 2 }",
        "puzzle weighing { objects = 1/2/3 }",
        "puzzle station { early = 1 / min; saved = 1 min }",
        "puzzle pigeonhole { counts = (a 1); required = 2 }",
        "puzzle pigeonhole { counts = (a: 1/2); required = 2 }",
    ],
    ids=[
        "zero-objects", "duplicate-key", "unknown-kind", "find-as-key", "zero-denominator",
        "negative-denominator", "zero-denominator-00", "5000-digits", "arabic-digit",
        "non-ascii-word", "crlf", "two-blocks-one-line", "colors-in-where", "no-separator",
        "zero-count", "zero-time", "repeated-color", "negative-color-count", "no-colors",
        "moved-past-container", "spaced-rational", "count-after-newline", "newline-only-list",
        "two-slashes", "unit-as-denominator", "no-colon", "rational-color-count",
    ],
)
def test_edge_lines_read_alike_at_any_chunk_size(monkeypatch, line):
    canonical = canonical_lines(200, 15)
    for source in (canonical + line + "\n" + canonical_lines(5, 16), canonical + line):
        for layout in (source, one_statement_a_line(source)):
            outcome_at_any_chunk_size(layout, monkeypatch)


@pytest.mark.parametrize(
    "lines",
    [
        ["# header\n", "A", "B"],
        ["\n", "A", "B"],
        ["\r\n", "A", "B"],
        ["A", "  # between \t\n", "B"],
        ["A", "B", "#"],
        ["A", " \t\r\n", "B"],
    ],
    ids=["leading-comment", "blank-line", "cr-only-line", "comment-between",
         "comment-at-end", "blanks-between"],
)
def test_blank_and_comment_layouts_read_alike_at_any_chunk_size(monkeypatch, lines):
    parts = {"A": canonical_lines(300, 17), "B": canonical_lines(300, 18)}
    for newline in ("", "\n"):
        source = "".join(parts.get(line, line) for line in lines)
        source = source.removesuffix("\n") + newline
        for layout in (source, one_statement_a_line(source)):
            assert len(outcome_at_any_chunk_size(layout, monkeypatch)) == 600


@pytest.mark.parametrize("name", ["bulk", "hard"])
def test_benchmark_inputs_read_alike_in_any_layout(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen

    rng = random.Random(1)
    source = gen.bulk_file(rng, 500) if name == "bulk" else gen.hard_file(rng)
    specs = outcome_at_any_chunk_size(source.text, monkeypatch)
    assert len(specs) == len(source.blocks)
    assert outcome_at_any_chunk_size(one_statement_a_line(source.text), monkeypatch) == specs


def test_mutated_sources_read_alike_at_any_chunk_size(monkeypatch):
    from test_cli import _mutate

    rng = random.Random(3)
    for _ in range(2000):
        outcome_at_any_chunk_size(_mutate(rng), monkeypatch)


def test_tokens_held_stay_bounded_on_a_long_file(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen

    colors = ",\n".join(f"c{i}: 1" for i in range(50_000))
    sources = {
        "bulk one statement a line": (
            one_statement_a_line(gen.bulk_file(random.Random(7), 20_000).text), 20_000
        ),
        "50,000 colors one a line": (
            f"puzzle pigeonhole {{\ncounts = (\n{colors}\n)\nrequired = 2\n}}\n", 1
        ),
        "20,000 stray lines": ("x = 1\n" * 20_000, None),
    }
    ranges, held, lex = [], [], speck._lex

    def recording(source, start, end):
        tokens = lex(source, start, end)
        ranges.append((start, end))
        held.append(len(tokens))
        return tokens

    monkeypatch.setattr(speck, "_lex", recording)
    for name, (source, blocks) in sources.items():
        ranges.clear()
        held.clear()
        if blocks is None:
            with pytest.raises(ParseFailure):
                parse_puzzles(source)
        else:
            assert len(parse_puzzles(source)) == blocks, name
        # The lexed ranges tile the source: each character is lexed once.
        starts, ends = [start for start, _ in ranges], [end for _, end in ranges]
        assert starts == [0] + ends[:-1] and ends[-1] == len(source), name
        # A chunk is about _CHUNK characters of whole lines, so the tokens
        # held at once stay far below the file's.
        assert len(ranges) > 1 and max(held) <= 2 * speck._CHUNK, name


def test_locating_an_error_holds_only_the_tokens_it_names(monkeypatch):
    source = "x = 1\n" * 20_000  # one stray token, then one skip to the end
    tracemalloc.start()
    try:
        with pytest.raises(ParseFailure) as info:
            parse_puzzles(source)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [str(error) for error in info.value.errors] == [
        "1:1: syntax: expected 'puzzle', found 'x'"
    ]
    assert peak < 2 << 20

    # Locating stops at the last token an error names: here the first of 80,000.
    pattern, located = speck._TOKEN_RE, []

    class CountingPattern:
        findall = pattern.findall  # the lexer's

        def finditer(self, *args):
            for match in pattern.finditer(*args):
                located.append(match)
                yield match

    monkeypatch.setattr(speck, "_TOKEN_RE", CountingPattern())
    with pytest.raises(ParseFailure) as again:
        parse_puzzles(source)
    assert again.value.errors == info.value.errors
    assert len(located) == 1

    # An error in the last chunk: locating starts at that chunk, at the same span.
    source = "puzzle weighing { objects = 3 }\n" * 2_000 + "puzzle weighing { objects = 0 }\n"
    expected = ["2001:29: negative_count: key 'objects' must be at least 1, got 0"]
    for chunk in (speck._CHUNK, 256):
        monkeypatch.setattr(speck, "_CHUNK", chunk)
        located.clear()
        with pytest.raises(ParseFailure) as at_end:
            parse_puzzles(source)
        assert [str(error) for error in at_end.value.errors] == expected
        assert at_end.value.errors[0].span.length == 1
    assert len(located) <= 2 * 256 < 16_000  # the file holds 8 tokens a line

    # An error in the first chunk and one in the last: locating walks those two
    # chunks, not the file between them.
    source = "puzzle weighing { objects = 0 }\n" + source
    monkeypatch.setattr(speck, "_CHUNK", 256)  # 8 lines of 32 characters
    expected = [
        "1:29: negative_count: key 'objects' must be at least 1, got 0",
        "2002:29: negative_count: key 'objects' must be at least 1, got 0",
    ]
    located.clear()
    with pytest.raises(ParseFailure) as at_both_ends:
        parse_puzzles(source)
    assert [str(error) for error in at_both_ends.value.errors] == expected
    assert [error.span.length for error in at_both_ends.value.errors] == [1, 1]
    assert len(located) <= 2 * 8 * 8  # two chunks of 8 lines of 8 tokens


def test_parser_diff_compare_fails_on_any_difference(tmp_path, capsys):
    import parser_diff

    ok, error = ["ok", 1, "a", "b"], ["error", [1, 1, 1, "syntax", "expected '='"]]
    moved = ["error", [1, 2, 1, "syntax", "expected '='"]]
    files = {}
    for name, outcomes in {"before": [ok, error], "same": [ok, error],
                           "moved": [ok, moved]}.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(outcomes), encoding="utf-8")
    assert parser_diff.main(["--compare", str(files["before"]), str(files["same"])]) == 0
    assert '"first_error_moved": 0' in capsys.readouterr().out
    assert parser_diff.main(["--compare", str(files["before"]), str(files["moved"])]) == 1
    assert '"first_error_moved": 1' in capsys.readouterr().out
