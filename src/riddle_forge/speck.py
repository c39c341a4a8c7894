"""Recursive-descent front end for the puzzle DSL (".speck" files).

A file holds any number of ``puzzle <kind> { ... }`` blocks.  Inside a
block, statements are ``key = value`` assignments or, for rate puzzles, a
``find <field> where key = value, key = value`` clause.  Statements are
separated by semicolons or newlines; ``#`` starts a comment running to the
end of the line.  Values are integers, rationals ``p/q``, optionally
followed by a unit or label word, parenthesised color lists
``(blue: 10, red: 8)``, or bare identifiers (used by ``query`` and
``label`` keys).

Errors carry precise source spans and a kind; parsing recovers at block
boundaries so one bad block does not hide errors in the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from fractions import Fraction
from typing import Union

from .classics import DrawnHasColor, DrawnIsMoved, StationInstance, TransferInstance
from .core import PuzzleKind, PuzzleSpec, Quantity, Unit
from .errors import InvalidInstance
from .pigeonhole import PigeonholeInstance
from .rate import RateField, RateQuery, RateScenario
from .weighing import WeighingInstance


@dataclass(frozen=True)
class SourceSpan:
    line: int  # 1-based
    column: int  # 1-based
    length: int


class ParseErrorKind(Enum):
    UNKNOWN_KIND = "unknown_kind"
    MISSING_KEY = "missing_key"
    DUPLICATE_KEY = "duplicate_key"
    TYPE_MISMATCH = "type_mismatch"
    BAD_UNIT = "bad_unit"
    # Also covers zero where a strictly positive count is required.
    NEGATIVE_COUNT = "negative_count"
    SYNTAX = "syntax"


@dataclass(frozen=True)
class ParseError:
    span: SourceSpan
    kind: ParseErrorKind
    message: str

    def __str__(self) -> str:
        return f"{self.span.line}:{self.span.column}: {self.kind.value}: {self.message}"


class ParseFailure(Exception):
    """Raised by parse_puzzles when the source contains any errors."""

    def __init__(self, errors: list[ParseError]):
        self.errors = list(errors)
        super().__init__("; ".join(str(e) for e in self.errors))


# ----------------------------------------------------------------------
# Lexer

class _Tok(Enum):
    IDENT = auto()
    NUMBER = auto()
    HUGE_NUMBER = auto()  # more digits than int() accepts
    PUNCT = auto()
    NEWLINE = auto()
    BAD = auto()
    EOF = auto()


@dataclass(frozen=True)
class _Token:
    type: _Tok
    text: str
    span: SourceSpan
    value: int = 0  # NUMBER only


_PUNCT = set("{}()=;,:/")
_DIGITS = set("0123456789")  # ASCII only: str.isdigit() also accepts '²'


def _lex(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col, i, n = 1, 1, 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            tokens.append(_Token(_Tok.NEWLINE, "\n", SourceSpan(line, col, 1)))
            i += 1
            line += 1
            col = 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == "#":
            while i < n and source[i] != "\n":
                i += 1
                col += 1
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token(_Tok.IDENT, source[i:j], SourceSpan(line, col, j - i)))
            col += j - i
            i = j
        elif ch in _DIGITS or (ch == "-" and i + 1 < n and source[i + 1] in _DIGITS):
            j = i + 1
            while j < n and source[j] in _DIGITS:
                j += 1
            text = source[i:j]
            span = SourceSpan(line, col, j - i)
            try:
                tokens.append(_Token(_Tok.NUMBER, text, span, value=int(text)))
            except ValueError:  # past the interpreter's int-max-str-digits limit
                tokens.append(_Token(_Tok.HUGE_NUMBER, text, span))
            col += j - i
            i = j
        elif ch in _PUNCT:
            tokens.append(_Token(_Tok.PUNCT, ch, SourceSpan(line, col, 1)))
            i += 1
            col += 1
        else:
            tokens.append(_Token(_Tok.BAD, ch, SourceSpan(line, col, 1)))
            i += 1
            col += 1
    tokens.append(_Token(_Tok.EOF, "", SourceSpan(line, col, 0)))
    return tokens


def _describe(tok: _Token) -> str:
    if tok.type is _Tok.EOF:
        return "end of input"
    if tok.type is _Tok.NEWLINE:
        return "end of line"
    if tok.type is _Tok.HUGE_NUMBER:
        return f"an integer literal too long to read ({tok.span.length} characters)"
    return f"'{tok.text}'"


# ----------------------------------------------------------------------
# Parsed value forms (parser-internal)

@dataclass(frozen=True)
class _NumberValue:
    value: Fraction
    span: SourceSpan
    word: str | None  # trailing unit-or-label word, if any
    word_span: SourceSpan | None


@dataclass(frozen=True)
class _ColorListValue:
    # (name, count, name_span, count_span) per item, declaration order
    items: tuple[tuple[str, int, SourceSpan, SourceSpan], ...]
    span: SourceSpan


@dataclass(frozen=True)
class _IdentValue:
    name: str
    span: SourceSpan


_Value = Union[_NumberValue, _ColorListValue, _IdentValue]


def _value_what(value: _Value) -> str:
    if isinstance(value, _NumberValue):
        return "a number"
    if isinstance(value, _ColorListValue):
        return "a color list"
    return f"the word '{value.name}'"


@dataclass(frozen=True)
class _Assign:
    key: str
    key_span: SourceSpan
    value: _Value


@dataclass(frozen=True)
class _Find:
    target: str
    target_span: SourceSpan
    clauses: tuple[_Assign, ...]
    span: SourceSpan  # span of the 'find' keyword


class _BlockError(Exception):
    """Internal: a syntax error that aborts the current block."""

    def __init__(self, error: ParseError):
        self.error = error


_KIND_NAMES = {kind.value for kind in PuzzleKind}
_TIME_UNITS = {"min": 1, "h": 60}


# ----------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.errors: list[ParseError] = []

    def _peek(self) -> _Token:
        return self.tokens[self.pos]

    def _advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.type is not _Tok.EOF:
            self.pos += 1
        return tok

    def _at_punct(self, text: str) -> bool:
        tok = self._peek()
        return tok.type is _Tok.PUNCT and tok.text == text

    def _skip_newlines(self) -> None:
        while self._peek().type is _Tok.NEWLINE:
            self._advance()

    def _skip_separators(self) -> None:
        while self._peek().type is _Tok.NEWLINE or self._at_punct(";"):
            self._advance()

    def _expect_punct(self, text: str) -> _Token:
        tok = self._peek()
        if not self._at_punct(text):
            raise _BlockError(
                ParseError(tok.span, ParseErrorKind.SYNTAX,
                           f"expected '{text}', found {_describe(tok)}")
            )
        return self._advance()

    def _expect(self, tok_type: _Tok, what: str) -> _Token:
        tok = self._peek()
        if tok.type is not tok_type:
            raise _BlockError(
                ParseError(tok.span, ParseErrorKind.SYNTAX,
                           f"expected {what}, found {_describe(tok)}")
            )
        return self._advance()

    # -- file / block structure ----------------------------------------

    def parse_file(self) -> list[PuzzleSpec]:
        specs: list[PuzzleSpec] = []
        while True:
            self._skip_separators()
            tok = self._peek()
            if tok.type is _Tok.EOF:
                return specs
            if tok.type is _Tok.IDENT and tok.text == "puzzle":
                try:
                    spec = self._parse_block()
                except _BlockError as abort:
                    self.errors.append(abort.error)
                    self._recover()
                else:
                    if spec is not None:
                        specs.append(spec)
            else:
                self.errors.append(
                    ParseError(tok.span, ParseErrorKind.SYNTAX,
                               f"expected 'puzzle', found {_describe(tok)}")
                )
                self._advance()
                self._recover()

    def _recover(self) -> None:
        """Skip forward to the next block boundary."""
        while True:
            tok = self._peek()
            if tok.type is _Tok.EOF:
                return
            if tok.type is _Tok.IDENT and tok.text == "puzzle":
                return
            if tok.type is _Tok.PUNCT and tok.text == "}":
                self._advance()
                return
            self._advance()

    def _parse_block(self) -> PuzzleSpec | None:
        self._advance()  # the 'puzzle' keyword
        kind_tok = self._expect(_Tok.IDENT, "a puzzle kind")
        self._skip_newlines()
        self._expect_punct("{")
        assigns: list[_Assign] = []
        finds: list[_Find] = []
        while True:
            self._skip_separators()
            tok = self._peek()
            if self._at_punct("}"):
                self._advance()
                break
            if tok.type is _Tok.EOF:
                raise _BlockError(
                    ParseError(tok.span, ParseErrorKind.SYNTAX,
                               "unterminated block: expected '}'")
                )
            if tok.type is _Tok.IDENT and tok.text == "find":
                finds.append(self._parse_find())
            elif tok.type is _Tok.IDENT:
                assigns.append(self._parse_assign())
            else:
                raise _BlockError(
                    ParseError(tok.span, ParseErrorKind.SYNTAX,
                               f"expected a statement, found {_describe(tok)}")
                )
        if kind_tok.text not in _KIND_NAMES:
            self.errors.append(
                ParseError(kind_tok.span, ParseErrorKind.UNKNOWN_KIND,
                           f"unknown puzzle kind '{kind_tok.text}'; expected one of "
                           "rate, weighing, pigeonhole, transfer, station")
            )
            return None
        return self._build(PuzzleKind(kind_tok.text), kind_tok, assigns, finds)

    def _parse_assign(self) -> _Assign:
        key_tok = self._advance()
        self._expect_punct("=")
        return _Assign(key_tok.text, key_tok.span, self._parse_value())

    def _parse_find(self) -> _Find:
        find_tok = self._advance()
        target_tok = self._expect(_Tok.IDENT, "a field to find")
        where_tok = self._expect(_Tok.IDENT, "'where'")
        if where_tok.text != "where":
            raise _BlockError(
                ParseError(where_tok.span, ParseErrorKind.SYNTAX,
                           f"expected 'where', found '{where_tok.text}'")
            )
        clauses: list[_Assign] = []
        while True:
            key_tok = self._expect(_Tok.IDENT, "a key")
            self._expect_punct("=")
            clauses.append(_Assign(key_tok.text, key_tok.span, self._parse_value()))
            if self._at_punct(","):
                self._advance()
                continue
            break
        return _Find(target_tok.text, target_tok.span, tuple(clauses), find_tok.span)

    # -- values ----------------------------------------------------------

    def _parse_value(self) -> _Value:
        tok = self._peek()
        if tok.type is _Tok.NUMBER:
            return self._parse_number_value()
        if self._at_punct("("):
            return self._parse_colorlist()
        if tok.type is _Tok.IDENT:
            self._advance()
            return _IdentValue(tok.text, tok.span)
        raise _BlockError(
            ParseError(tok.span, ParseErrorKind.SYNTAX,
                       f"expected a value, found {_describe(tok)}")
        )

    def _parse_number_value(self) -> _NumberValue:
        num_tok = self._advance()
        value = Fraction(num_tok.value)
        span = num_tok.span
        if self._at_punct("/"):
            self._advance()
            den_tok = self._expect(_Tok.NUMBER, "a denominator")
            if den_tok.value == 0:
                raise _BlockError(
                    ParseError(den_tok.span, ParseErrorKind.SYNTAX,
                               "denominator must not be zero")
                )
            if den_tok.value < 0:
                raise _BlockError(
                    ParseError(den_tok.span, ParseErrorKind.SYNTAX,
                               "denominator must be positive")
                )
            value = Fraction(num_tok.value, den_tok.value)
            if den_tok.span.line == num_tok.span.line:
                span = SourceSpan(
                    num_tok.span.line,
                    num_tok.span.column,
                    den_tok.span.column + den_tok.span.length - num_tok.span.column,
                )
        word = None
        word_span = None
        if self._peek().type is _Tok.IDENT:
            word_tok = self._advance()
            word, word_span = word_tok.text, word_tok.span
        return _NumberValue(value, span, word, word_span)

    def _parse_colorlist(self) -> _ColorListValue:
        open_tok = self._advance()
        self._skip_newlines()
        items: list[tuple[str, int, SourceSpan, SourceSpan]] = []
        if self._at_punct(")"):
            self._advance()
            return _ColorListValue((), open_tok.span)
        while True:
            self._skip_newlines()
            name_tok = self._expect(_Tok.IDENT, "a color name")
            self._expect_punct(":")
            self._skip_newlines()
            count_tok = self._expect(_Tok.NUMBER, "a count")
            if self._at_punct("/"):
                raise _BlockError(
                    ParseError(self._peek().span, ParseErrorKind.SYNTAX,
                               "color counts must be integers")
                )
            items.append((name_tok.text, count_tok.value, name_tok.span, count_tok.span))
            self._skip_newlines()
            if self._at_punct(","):
                self._advance()
                continue
            break
        self._expect_punct(")")
        return _ColorListValue(tuple(items), open_tok.span)

    # -- semantics: turn statements into payloads -------------------------

    def _build(
        self,
        kind: PuzzleKind,
        kind_tok: _Token,
        assigns: list[_Assign],
        finds: list[_Find],
    ) -> PuzzleSpec | None:
        errors: list[ParseError] = []
        table: dict[str, _Assign] = {}
        for assign in assigns:
            if assign.key in table:
                errors.append(
                    ParseError(assign.key_span, ParseErrorKind.DUPLICATE_KEY,
                               f"duplicate key '{assign.key}'")
                )
            else:
                table[assign.key] = assign
        if finds and kind is not PuzzleKind.RATE:
            errors.append(
                ParseError(finds[0].span, ParseErrorKind.SYNTAX,
                           f"'find' is only meaningful in rate puzzles, not {kind.value}")
            )

        label = None
        label_assign = table.pop("label", None)
        if label_assign is not None:
            label = self._as_ident(label_assign, errors)

        builders = {
            PuzzleKind.RATE: self._build_rate,
            PuzzleKind.WEIGHING: self._build_weighing,
            PuzzleKind.PIGEONHOLE: self._build_pigeonhole,
            PuzzleKind.TRANSFER: self._build_transfer,
            PuzzleKind.STATION: self._build_station,
        }
        payload = builders[kind](kind_tok, table, finds, errors)

        for assign in table.values():
            errors.append(
                ParseError(assign.key_span, ParseErrorKind.SYNTAX,
                           f"unexpected key '{assign.key}' in a {kind.value} puzzle")
            )
        if errors or payload is None:
            self.errors.extend(errors)
            return None
        return PuzzleSpec(kind, payload, label)

    def _take(
        self,
        table: dict[str, _Assign],
        key: str,
        kind_tok: _Token,
        kind_name: str,
        errors: list[ParseError],
    ) -> _Assign | None:
        assign = table.pop(key, None)
        if assign is None:
            errors.append(
                ParseError(kind_tok.span, ParseErrorKind.MISSING_KEY,
                           f"{kind_name} puzzle is missing key '{key}'")
            )
        return assign

    # value coercers; each appends an error and returns None on failure

    def _as_ident(self, assign: _Assign, errors: list[ParseError]) -> str | None:
        value = assign.value
        if not isinstance(value, _IdentValue):
            errors.append(
                ParseError(value.span, ParseErrorKind.TYPE_MISMATCH,
                           f"key '{assign.key}' expects a word, found {_value_what(value)}")
            )
            return None
        return value.name

    def _as_number(
        self, assign: _Assign, errors: list[ParseError], expects: str, counts: bool
    ) -> _NumberValue | None:
        """The assigned number; with ``counts``, one that carries no time unit."""
        value = assign.value
        if not isinstance(value, _NumberValue):
            errors.append(
                ParseError(value.span, ParseErrorKind.TYPE_MISMATCH,
                           f"key '{assign.key}' expects {expects}, found {_value_what(value)}")
            )
            return None
        if counts and value.word in _TIME_UNITS:
            errors.append(
                ParseError(value.word_span, ParseErrorKind.BAD_UNIT,
                           f"key '{assign.key}' counts objects; time unit "
                           f"'{value.word}' is not allowed here")
            )
            return None
        return value

    def _as_count_quantity(
        self, assign: _Assign, errors: list[ParseError]
    ) -> Quantity | None:
        value = self._as_number(assign, errors, "a number", counts=True)
        if value is None:
            return None
        if value.value <= 0:
            errors.append(
                ParseError(value.span, ParseErrorKind.NEGATIVE_COUNT,
                           f"key '{assign.key}' must be strictly positive, got {value.value}")
            )
            return None
        return Quantity(value.value, Unit.COUNT, value.word)

    def _as_time_quantity(
        self, assign: _Assign, errors: list[ParseError]
    ) -> Quantity | None:
        value = self._as_number(assign, errors, "a number", counts=False)
        if value is None:
            return None
        scale = 1
        if value.word is not None:
            if value.word not in _TIME_UNITS:
                errors.append(
                    ParseError(value.word_span, ParseErrorKind.BAD_UNIT,
                               f"unknown time unit '{value.word}' for key "
                               f"'{assign.key}'; expected 'min' or 'h'")
                )
                return None
            scale = _TIME_UNITS[value.word]
        magnitude = value.value * scale
        if magnitude <= 0:
            errors.append(
                ParseError(value.span, ParseErrorKind.NEGATIVE_COUNT,
                           f"key '{assign.key}' must be strictly positive, got {value.value}")
            )
            return None
        return Quantity(magnitude, Unit.MINUTES)

    def _as_int(
        self, assign: _Assign, errors: list[ParseError], minimum: int
    ) -> int | None:
        value = self._as_number(assign, errors, "an integer", counts=True)
        if value is None:
            return None
        if value.value.denominator != 1:
            errors.append(
                ParseError(value.span, ParseErrorKind.TYPE_MISMATCH,
                           f"key '{assign.key}' expects an integer, got {value.value}")
            )
            return None
        number = int(value.value)
        if number < minimum:
            errors.append(
                ParseError(value.span, ParseErrorKind.NEGATIVE_COUNT,
                           f"key '{assign.key}' must be at least {minimum}, got {number}")
            )
            return None
        return number

    def _as_colorlist(
        self, assign: _Assign, errors: list[ParseError], at_least_one: bool
    ) -> tuple[tuple[str, int], ...] | None:
        value = assign.value
        if not isinstance(value, _ColorListValue):
            errors.append(
                ParseError(value.span, ParseErrorKind.TYPE_MISMATCH,
                           f"key '{assign.key}' expects a color list like "
                           f"(blue: 2, red: 3), found {_value_what(value)}")
            )
            return None
        if at_least_one and not value.items:
            errors.append(
                ParseError(value.span, ParseErrorKind.TYPE_MISMATCH,
                           f"key '{assign.key}' needs at least one color")
            )
            return None
        seen: dict[str, SourceSpan] = {}
        ok = True
        for name, count, name_span, count_span in value.items:
            if name in seen:
                errors.append(
                    ParseError(name_span, ParseErrorKind.DUPLICATE_KEY,
                               f"duplicate color '{name}'")
                )
                ok = False
            seen[name] = name_span
            if count < 0:
                errors.append(
                    ParseError(count_span, ParseErrorKind.NEGATIVE_COUNT,
                               f"count for color '{name}' must be >= 0, got {count}")
                )
                ok = False
        if not ok:
            return None
        return tuple((name, count) for name, count, _, _ in value.items)

    # kind-specific builders

    def _build_rate(self, kind_tok, table, finds, errors):
        work = self._take(table, "work", kind_tok, "rate", errors)
        subjects = self._take(table, "subjects", kind_tok, "rate", errors)
        time = self._take(table, "time", kind_tok, "rate", errors)
        known_work = self._as_count_quantity(work, errors) if work else None
        known_subjects = self._as_count_quantity(subjects, errors) if subjects else None
        known_time = self._as_time_quantity(time, errors) if time else None

        if not finds:
            errors.append(
                ParseError(kind_tok.span, ParseErrorKind.MISSING_KEY,
                           "rate puzzle needs a 'find' clause")
            )
            return None
        if len(finds) > 1:
            errors.append(
                ParseError(finds[1].span, ParseErrorKind.DUPLICATE_KEY,
                           "only one 'find' clause is allowed")
            )
            return None
        find = finds[0]
        field_names = {f.value for f in RateField}
        if find.target not in field_names:
            errors.append(
                ParseError(find.target_span, ParseErrorKind.SYNTAX,
                           f"find target must be one of work, subjects, time; "
                           f"got '{find.target}'")
            )
            return None
        target = RateField(find.target)
        expected = field_names - {find.target}
        clause_table: dict[str, _Assign] = {}
        for clause in find.clauses:
            if clause.key in clause_table:
                errors.append(
                    ParseError(clause.key_span, ParseErrorKind.DUPLICATE_KEY,
                               f"duplicate key '{clause.key}' in where-clause")
                )
            elif clause.key not in expected:
                errors.append(
                    ParseError(clause.key_span, ParseErrorKind.SYNTAX,
                               f"unexpected key '{clause.key}' in where-clause; "
                               f"expected {' and '.join(sorted(expected))}")
                )
            else:
                clause_table[clause.key] = clause
        given: dict[str, Quantity | None] = {}
        for name in sorted(expected):
            clause = clause_table.get(name)
            if clause is None:
                errors.append(
                    ParseError(find.span, ParseErrorKind.MISSING_KEY,
                               f"where-clause is missing key '{name}'")
                )
                continue
            if name == "time":
                given[name] = self._as_time_quantity(clause, errors)
            else:
                given[name] = self._as_count_quantity(clause, errors)

        if errors:
            return None
        try:
            known = RateScenario(known_work, known_subjects, known_time)
            return RateQuery(
                known=known,
                target=target,
                work=given.get("work"),
                subjects=given.get("subjects"),
                time=given.get("time"),
            )
        except InvalidInstance as exc:
            errors.append(ParseError(kind_tok.span, ParseErrorKind.SYNTAX, str(exc)))
            return None

    def _build_weighing(self, kind_tok, table, finds, errors):
        objects = self._take(table, "objects", kind_tok, "weighing", errors)
        count = self._as_int(objects, errors, minimum=1) if objects else None
        if count is None:
            return None
        return WeighingInstance(count)

    def _build_pigeonhole(self, kind_tok, table, finds, errors):
        counts = self._take(table, "counts", kind_tok, "pigeonhole", errors)
        required = self._take(table, "required", kind_tok, "pigeonhole", errors)
        pairs = self._as_colorlist(counts, errors, at_least_one=True) if counts else None
        run = self._as_int(required, errors, minimum=1) if required else None
        if pairs is None or run is None:
            return None
        return PigeonholeInstance(pairs, run)

    def _build_transfer(self, kind_tok, table, finds, errors):
        a = self._take(table, "container_a", kind_tok, "transfer", errors)
        b = self._take(table, "container_b", kind_tok, "transfer", errors)
        moved = self._take(table, "moved", kind_tok, "transfer", errors)
        query = self._take(table, "query", kind_tok, "transfer", errors)
        pairs_a = self._as_colorlist(a, errors, at_least_one=True) if a else None
        pairs_b = self._as_colorlist(b, errors, at_least_one=False) if b else None
        count = self._as_int(moved, errors, minimum=1) if moved else None
        query_word = self._as_ident(query, errors) if query else None
        if None in (pairs_a, pairs_b, count, query_word):
            return None
        event = DrawnIsMoved() if query_word == "moved" else DrawnHasColor(query_word)
        try:
            return TransferInstance(pairs_a, pairs_b, count, event)
        except InvalidInstance as exc:
            errors.append(ParseError(moved.value.span, ParseErrorKind.SYNTAX, str(exc)))
            return None

    def _build_station(self, kind_tok, table, finds, errors):
        early = self._take(table, "early", kind_tok, "station", errors)
        saved = self._take(table, "saved", kind_tok, "station", errors)
        early_q = self._as_time_quantity(early, errors) if early else None
        saved_q = self._as_time_quantity(saved, errors) if saved else None
        if early_q is None or saved_q is None:
            return None
        try:
            return StationInstance(early_q.magnitude, saved_q.magnitude)
        except InvalidInstance as exc:
            errors.append(ParseError(kind_tok.span, ParseErrorKind.SYNTAX, str(exc)))
            return None


def parse_puzzles(source: str) -> list[PuzzleSpec]:
    """Parse a .speck source into puzzle specs.

    Returns every block, in order.  If anything is wrong, raises
    ParseFailure carrying every ParseError found (parsing resumes at the
    next block after an error).  An empty source yields an empty list.
    """
    parser = _Parser(_lex(source))
    specs = parser.parse_file()
    if parser.errors:
        raise ParseFailure(parser.errors)
    return specs


# ----------------------------------------------------------------------
# Serialization (canonical single-line form; parse(serialize(s)) == [s])

_IDENT_OK = r"[A-Za-z_][A-Za-z0-9_]*"


def _ident_or_raise(word: str, what: str) -> str:
    import re

    if not re.fullmatch(_IDENT_OK, word):
        raise InvalidInstance(f"{what} {word!r} is not expressible in the DSL")
    return word


def _quantity_text(quantity: Quantity) -> str:
    if quantity.unit is Unit.MINUTES:
        return f"{quantity.magnitude} min"
    if quantity.label is not None:
        word = _ident_or_raise(quantity.label, "label")
        if word in _TIME_UNITS:
            raise InvalidInstance(f"count label {word!r} collides with a time unit")
        return f"{quantity.magnitude} {word}"
    return str(quantity.magnitude)


def _colorlist_text(pairs: tuple[tuple[str, int], ...]) -> str:
    inner = ", ".join(
        f"{_ident_or_raise(name, 'color')}: {count}" for name, count in pairs
    )
    return f"({inner})"


def _rate_parts(query: RateQuery) -> list[str]:
    known = query.known
    parts = [
        f"work = {_quantity_text(known.work)}",
        f"subjects = {_quantity_text(known.subjects)}",
        f"time = {_quantity_text(known.time)}",
    ]
    clauses = ", ".join(
        f"{field.value} = {_quantity_text(quantity)}"
        for field, quantity in query.given().items()
    )
    parts.append(f"find {query.target.value} where {clauses}")
    return parts


def serialize_puzzle(spec: PuzzleSpec) -> str:
    """Canonical one-line text form of a puzzle spec."""
    parts: list[str] = []
    if spec.label is not None:
        parts.append(f"label = {_ident_or_raise(spec.label, 'label')}")
    payload = spec.payload
    if spec.kind is PuzzleKind.RATE:
        parts.extend(_rate_parts(payload))
    elif spec.kind is PuzzleKind.WEIGHING:
        parts.append(f"objects = {payload.n_objects}")
    elif spec.kind is PuzzleKind.PIGEONHOLE:
        parts.append(f"counts = {_colorlist_text(payload.color_counts)}")
        parts.append(f"required = {payload.required}")
    elif spec.kind is PuzzleKind.TRANSFER:
        parts.append(f"container_a = {_colorlist_text(payload.container_a)}")
        parts.append(f"container_b = {_colorlist_text(payload.container_b)}")
        parts.append(f"moved = {payload.moved}")
        if isinstance(payload.query, DrawnIsMoved):
            parts.append("query = moved")
        else:
            parts.append(f"query = {_ident_or_raise(payload.query.color, 'color')}")
    else:
        parts.append(f"early = {payload.early_minutes} min")
        parts.append(f"saved = {payload.saved_minutes} min")
    return f"puzzle {spec.kind.value} {{ " + "; ".join(parts) + " }"
