"""Recursive-descent front end for the puzzle DSL (".speck" files).

A file holds any number of ``puzzle <kind> { ... }`` blocks.  Inside a
block, statements are ``key = value`` assignments or, for rate puzzles, a
``find <field> where key = value, key = value`` clause.  Statements are
separated by semicolons or newlines; ``#`` starts a comment running to the
end of the line.  Values are integers, rationals ``p/q``, optionally
followed by a unit or label word, parenthesised color lists
``(blue: 10, red: 8)``, or bare identifiers (used by ``query`` and
``label`` keys).  Identifiers are ASCII: ``[A-Za-z_][A-Za-z0-9_]*``.

The lexer turns the source into a list of strings, each token its own
source text, from one compiled regular expression; comments are dropped
and the end of input is the empty string.  The parser tells a token's type
from its first character and reads a number's value only where it expects
one.  It carries ``(first, last)`` token-index pairs; only when there are
errors is the source scanned again for their offsets, lines and columns.

Errors carry precise source spans and a kind; parsing recovers at block
boundaries so one bad block does not hide errors in the next.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Union

from .classics import DrawnHasColor, DrawnIsMoved, StationInstance, TransferInstance
from .core import PuzzleKind, PuzzleSpec, Quantity, Unit
from .errors import InvalidInstance
from .pigeonhole import PigeonholeInstance
from .rate import RateField, RateQuery, RateScenario
from .weighing import WeighingInstance


@dataclass(frozen=True)
class SourceSpan:
    line: int  # 1-based
    column: int  # 1-based, one per character (a tab counts as one)
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

# Identifiers are ASCII, so every parsed word can be written back out.
_IDENT_PATTERN = r"[A-Za-z_][A-Za-z0-9_]*"

# Each match is one token: a comment (which _lex drops), an identifier, an
# integer literal (ASCII digits only: str.isdigit() also accepts '²') or
# any other single character but a blank.  A newline is a token.
_TOKEN_RE = re.compile(rf"\#[^\n]*|{_IDENT_PATTERN}|-?[0-9]+|[^ \t\r]")

_EOF = ""  # the token after the last one; every other token is nonempty
# The first characters of _IDENT_PATTERN, and of an integer literal.
_WORD_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_NUMBER_START = frozenset("-0123456789")

# (first, last) token indices of a source range.
_Span = tuple[int, int]
# (span, kind, message): a ParseError before its line and column are known.
_Error = tuple[_Span, ParseErrorKind, str]


def _lex(source: str) -> list[str]:
    tokens = _TOKEN_RE.findall(source)
    if "#" in source:
        tokens = [tok for tok in tokens if tok[0] != "#"]  # drop the comments, if any
    tokens.append(_EOF)
    return tokens


def _is_number(tok: str) -> bool:
    # A '-' with no digits after it is a token of its own.
    return tok[:1] in _NUMBER_START and tok != "-"


def _describe(tok: str) -> str:
    if tok == _EOF:
        return "end of input"
    if tok == "\n":
        return "end of line"
    if _is_number(tok):
        try:
            int(tok)
        except ValueError:  # past the interpreter's int-max-str-digits limit
            return f"an integer literal too long to read ({len(tok)} characters)"
    return f"'{tok}'"


def _locate(source: str, errors: list[_Error]) -> list[ParseError]:
    """Give each error its source range, line and column.

    The tokens are found again, with their offsets, by the lexer's own
    pattern; line and column come from one table of line starts.
    """
    bounds = [
        match.span() for match in _TOKEN_RE.finditer(source)
        if source[match.start()] != "#"
    ]
    bounds.append((len(source), len(source)))  # the end of input
    starts = [0]
    starts.extend(match.end() for match in re.finditer("\n", source))
    located = []
    for (first, last), kind, message in errors:
        offset = bounds[first][0]
        line = bisect_right(starts, offset)
        column = offset - starts[line - 1] + 1
        span = SourceSpan(line, column, bounds[last][1] - offset)
        located.append(ParseError(span, kind, message))
    return located


# ----------------------------------------------------------------------
# Parsed value forms (parser-internal)

class _NumberValue(NamedTuple):
    value: int | Fraction
    span: _Span
    word: str | None  # trailing unit-or-label word, if any
    word_span: _Span | None


class _ColorListValue(NamedTuple):
    # (name, count, name_span, count_span) per item, declaration order
    items: tuple[tuple[str, int, _Span, _Span], ...]
    span: _Span


class _IdentValue(NamedTuple):
    name: str
    span: _Span


_Value = Union[_NumberValue, _ColorListValue, _IdentValue]


def _value_what(value: _Value) -> str:
    if isinstance(value, _NumberValue):
        return "a number"
    if isinstance(value, _ColorListValue):
        return "a color list"
    return f"the word '{value.name}'"


class _Assign(NamedTuple):
    key: str
    key_span: _Span
    value: _Value


class _Find(NamedTuple):
    target: str
    target_span: _Span
    clauses: tuple[_Assign, ...]
    span: _Span  # span of the 'find' keyword


class _BlockError(Exception):
    """Internal: a syntax error that aborts the current block."""

    def __init__(self, span: _Span, message: str):
        self.error = (span, ParseErrorKind.SYNTAX, message)


_KINDS = {kind.value: kind for kind in PuzzleKind}
_RATE_FIELDS = {field.value for field in RateField}
_TIME_UNITS = {"min": 1, "h": 60}


# ----------------------------------------------------------------------
# Parser

class _Parser:
    """Reads the token list; a token is its own source text (see _lex)."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.errors: list[_Error] = []

    def _skip_newlines(self) -> None:
        while self.tokens[self.pos] == "\n":
            self.pos += 1

    def _skip_separators(self) -> None:
        while self.tokens[self.pos] in ("\n", ";"):
            self.pos += 1

    def _unexpected(self, what: str) -> _BlockError:
        """The error for finding the current token where ``what`` should be."""
        pos = self.pos
        return _BlockError((pos, pos), f"expected {what}, found {_describe(self.tokens[pos])}")

    def _expect(self, text: str, what: str) -> None:
        """Step past the punctuation ``text``."""
        if self.tokens[self.pos] != text:
            raise self._unexpected(what)
        self.pos += 1

    def _expect_word(self, what: str) -> int:
        pos = self.pos
        if self.tokens[pos][:1] not in _WORD_START:
            raise self._unexpected(what)
        self.pos = pos + 1
        return pos

    def _expect_int(self, what: str) -> tuple[int, int]:
        """Read an integer literal; its value and index."""
        pos = self.pos
        tok = self.tokens[pos]
        if _is_number(tok):
            try:
                value = int(tok)
            except ValueError:  # too long: _describe says so
                pass
            else:
                self.pos = pos + 1
                return value, pos
        raise self._unexpected(what)

    # -- file / block structure ----------------------------------------

    def parse_file(self) -> list[PuzzleSpec]:
        specs: list[PuzzleSpec] = []
        while True:
            self._skip_separators()
            tok = self.tokens[self.pos]
            if tok == _EOF:
                return specs
            if tok == "puzzle":
                try:
                    spec = self._parse_block()
                except _BlockError as abort:
                    self.errors.append(abort.error)
                    self._recover()
                else:
                    if spec is not None:
                        specs.append(spec)
            else:
                pos = self.pos
                self.pos += 1
                self.errors.append(
                    ((pos, pos), ParseErrorKind.SYNTAX,
                     f"expected 'puzzle', found {_describe(tok)}")
                )
                self._recover()

    def _recover(self) -> None:
        """Skip forward to the next block boundary."""
        while True:
            tok = self.tokens[self.pos]
            if tok == _EOF or tok == "puzzle":
                return
            self.pos += 1
            if tok == "}":
                return

    def _parse_block(self) -> PuzzleSpec | None:
        self.pos += 1  # the 'puzzle' keyword
        kind_at = self._expect_word("a puzzle kind")
        self._skip_newlines()
        self._expect("{", "'{'")
        assigns: list[_Assign] = []
        finds: list[_Find] = []
        while True:
            self._skip_separators()
            tok = self.tokens[self.pos]
            if tok == "}":
                self.pos += 1
                break
            if tok == _EOF:
                raise _BlockError((self.pos, self.pos), "unterminated block: expected '}'")
            if tok == "find":
                finds.append(self._parse_find())
            else:
                assigns.append(self._parse_assign("a statement"))
        kind_name = self.tokens[kind_at]
        kind_span = (kind_at, kind_at)
        kind = _KINDS.get(kind_name)
        if kind is None:
            self.errors.append(
                (kind_span, ParseErrorKind.UNKNOWN_KIND,
                 f"unknown puzzle kind '{kind_name}'; expected one of "
                 + ", ".join(_KINDS))
            )
            return None
        return self._build(kind, kind_span, assigns, finds)

    def _parse_assign(self, what: str) -> _Assign:
        key_at = self._expect_word(what)
        self._expect("=", "'='")
        return _Assign(self.tokens[key_at], (key_at, key_at), self._parse_value())

    def _parse_find(self) -> _Find:
        find_at = self.pos
        self.pos += 1  # the 'find' keyword
        target_at = self._expect_word("a field to find")
        if self.tokens[self.pos] != "where":
            raise self._unexpected("'where'")
        self.pos += 1
        clauses: list[_Assign] = []
        while True:
            clauses.append(self._parse_assign("a key"))
            if self.tokens[self.pos] == ",":
                self.pos += 1
                continue
            break
        return _Find(
            self.tokens[target_at], (target_at, target_at), tuple(clauses),
            (find_at, find_at),
        )

    # -- values ----------------------------------------------------------

    def _parse_value(self) -> _Value:
        pos = self.pos
        tok = self.tokens[pos]
        if tok[:1] in _WORD_START:
            self.pos = pos + 1
            return _IdentValue(tok, (pos, pos))
        if tok == "(":
            return self._parse_colorlist()
        if _is_number(tok):
            return self._parse_number_value()
        raise self._unexpected("a value")

    def _parse_number_value(self) -> _NumberValue:
        value: int | Fraction
        value, num_at = self._expect_int("a value")
        span = (num_at, num_at)
        if self.tokens[self.pos] == "/":
            self.pos += 1
            den, den_at = self._expect_int("a denominator")
            if den == 0:
                raise _BlockError((den_at, den_at), "denominator must not be zero")
            if den < 0:
                raise _BlockError((den_at, den_at), "denominator must be positive")
            value = Fraction(value, den)
            # p, '/' and q sit on one line: a newline between them is a token.
            span = (num_at, den_at)
        pos = self.pos
        word = self.tokens[pos]
        if word[:1] in _WORD_START:
            self.pos = pos + 1
            return _NumberValue(value, span, word, (pos, pos))
        return _NumberValue(value, span, None, None)

    def _parse_colorlist(self) -> _ColorListValue:
        open_at = self.pos
        self.pos += 1  # the '('
        span = (open_at, open_at)
        self._skip_newlines()
        items: list[tuple[str, int, _Span, _Span]] = []
        if self.tokens[self.pos] == ")":
            self.pos += 1
            return _ColorListValue((), span)
        while True:
            self._skip_newlines()
            name_at = self._expect_word("a color name")
            self._expect(":", "':'")
            self._skip_newlines()
            count, count_at = self._expect_int("a count")
            if self.tokens[self.pos] == "/":
                raise _BlockError((self.pos, self.pos), "color counts must be integers")
            items.append(
                (self.tokens[name_at], count, (name_at, name_at), (count_at, count_at))
            )
            self._skip_newlines()
            if self.tokens[self.pos] == ",":
                self.pos += 1
                continue
            break
        self._expect(")", "')'")
        return _ColorListValue(tuple(items), span)

    # -- semantics: turn statements into payloads -------------------------

    def _build(
        self,
        kind: PuzzleKind,
        kind_span: _Span,
        assigns: list[_Assign],
        finds: list[_Find],
    ) -> PuzzleSpec | None:
        errors: list[_Error] = []
        table: dict[str, _Assign] = {}
        for assign in assigns:
            if assign.key in table:
                errors.append(
                    (assign.key_span, ParseErrorKind.DUPLICATE_KEY,
                     f"duplicate key '{assign.key}'")
                )
            else:
                table[assign.key] = assign
        if finds and kind is not PuzzleKind.RATE:
            errors.append(
                (finds[0].span, ParseErrorKind.SYNTAX,
                 f"'find' is only meaningful in rate puzzles, not {kind.value}")
            )

        label = None
        label_assign = table.pop("label", None)
        if label_assign is not None:
            label = self._as_ident(label_assign, errors)

        build = getattr(self, f"_build_{kind.value}")  # one builder per kind
        payload = build(kind_span, table, finds, errors)

        for assign in table.values():
            errors.append(
                (assign.key_span, ParseErrorKind.SYNTAX,
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
        kind_span: _Span,
        kind_name: str,
        errors: list[_Error],
    ) -> _Assign | None:
        assign = table.pop(key, None)
        if assign is None:
            errors.append(
                (kind_span, ParseErrorKind.MISSING_KEY,
                 f"{kind_name} puzzle is missing key '{key}'")
            )
        return assign

    # value coercers; each appends an error and returns None on failure

    def _as_ident(self, assign: _Assign, errors: list[_Error]) -> str | None:
        value = assign.value
        if not isinstance(value, _IdentValue):
            errors.append(
                (value.span, ParseErrorKind.TYPE_MISMATCH,
                 f"key '{assign.key}' expects a word, found {_value_what(value)}")
            )
            return None
        return value.name

    def _as_number(
        self, assign: _Assign, errors: list[_Error], expects: str, counts: bool
    ) -> _NumberValue | None:
        """The assigned number; with ``counts``, one that carries no time unit."""
        value = assign.value
        if not isinstance(value, _NumberValue):
            errors.append(
                (value.span, ParseErrorKind.TYPE_MISMATCH,
                 f"key '{assign.key}' expects {expects}, found {_value_what(value)}")
            )
            return None
        if counts and value.word in _TIME_UNITS:
            errors.append(
                (value.word_span, ParseErrorKind.BAD_UNIT,
                 f"key '{assign.key}' counts objects; time unit "
                 f"'{value.word}' is not allowed here")
            )
            return None
        return value

    def _as_count_quantity(
        self, assign: _Assign, errors: list[_Error]
    ) -> Quantity | None:
        value = self._as_number(assign, errors, "a number", counts=True)
        if value is None:
            return None
        if value.value.numerator <= 0:  # an int's or a Fraction's sign
            errors.append(
                (value.span, ParseErrorKind.NEGATIVE_COUNT,
                 f"key '{assign.key}' must be strictly positive, got {value.value}")
            )
            return None
        return Quantity(value.value, Unit.COUNT, value.word)

    def _as_time_quantity(
        self, assign: _Assign, errors: list[_Error]
    ) -> Quantity | None:
        value = self._as_number(assign, errors, "a number", counts=False)
        if value is None:
            return None
        magnitude = value.value
        if value.word is not None:
            scale = _TIME_UNITS.get(value.word)
            if scale is None:
                errors.append(
                    (value.word_span, ParseErrorKind.BAD_UNIT,
                     f"unknown time unit '{value.word}' for key "
                     f"'{assign.key}'; expected 'min' or 'h'")
                )
                return None
            if scale != 1:
                magnitude *= scale
        if magnitude.numerator <= 0:
            errors.append(
                (value.span, ParseErrorKind.NEGATIVE_COUNT,
                 f"key '{assign.key}' must be strictly positive, got {value.value}")
            )
            return None
        return Quantity(magnitude, Unit.MINUTES)

    def _as_int(
        self, assign: _Assign, errors: list[_Error], minimum: int
    ) -> int | None:
        value = self._as_number(assign, errors, "an integer", counts=True)
        if value is None:
            return None
        if value.value.denominator != 1:
            errors.append(
                (value.span, ParseErrorKind.TYPE_MISMATCH,
                 f"key '{assign.key}' expects an integer, got {value.value}")
            )
            return None
        number = int(value.value)
        if number < minimum:
            errors.append(
                (value.span, ParseErrorKind.NEGATIVE_COUNT,
                 f"key '{assign.key}' must be at least {minimum}, got {number}")
            )
            return None
        return number

    def _as_colorlist(
        self, assign: _Assign, errors: list[_Error], at_least_one: bool
    ) -> tuple[tuple[str, int], ...] | None:
        value = assign.value
        if not isinstance(value, _ColorListValue):
            errors.append(
                (value.span, ParseErrorKind.TYPE_MISMATCH,
                 f"key '{assign.key}' expects a color list like "
                 f"(blue: 2, red: 3), found {_value_what(value)}")
            )
            return None
        if at_least_one and not value.items:
            errors.append(
                (value.span, ParseErrorKind.TYPE_MISMATCH,
                 f"key '{assign.key}' needs at least one color")
            )
            return None
        seen: dict[str, _Span] = {}
        ok = True
        for name, count, name_span, count_span in value.items:
            if name in seen:
                errors.append(
                    (name_span, ParseErrorKind.DUPLICATE_KEY,
                     f"duplicate color '{name}'")
                )
                ok = False
            seen[name] = name_span
            if count < 0:
                errors.append(
                    (count_span, ParseErrorKind.NEGATIVE_COUNT,
                     f"count for color '{name}' must be >= 0, got {count}")
                )
                ok = False
        if not ok:
            return None
        return tuple((name, count) for name, count, _, _ in value.items)

    # kind-specific builders

    def _build_rate(self, kind_span, table, finds, errors):
        work = self._take(table, "work", kind_span, "rate", errors)
        subjects = self._take(table, "subjects", kind_span, "rate", errors)
        time = self._take(table, "time", kind_span, "rate", errors)
        known_work = self._as_count_quantity(work, errors) if work else None
        known_subjects = self._as_count_quantity(subjects, errors) if subjects else None
        known_time = self._as_time_quantity(time, errors) if time else None

        if not finds:
            errors.append(
                (kind_span, ParseErrorKind.MISSING_KEY,
                 "rate puzzle needs a 'find' clause")
            )
            return None
        if len(finds) > 1:
            errors.append(
                (finds[1].span, ParseErrorKind.DUPLICATE_KEY,
                 "only one 'find' clause is allowed")
            )
            return None
        find = finds[0]
        if find.target not in _RATE_FIELDS:
            errors.append(
                (find.target_span, ParseErrorKind.SYNTAX,
                 f"find target must be one of work, subjects, time; "
                 f"got '{find.target}'")
            )
            return None
        target = RateField(find.target)
        expected = _RATE_FIELDS - {find.target}
        clause_table: dict[str, _Assign] = {}
        for clause in find.clauses:
            if clause.key in clause_table:
                errors.append(
                    (clause.key_span, ParseErrorKind.DUPLICATE_KEY,
                     f"duplicate key '{clause.key}' in where-clause")
                )
            elif clause.key not in expected:
                errors.append(
                    (clause.key_span, ParseErrorKind.SYNTAX,
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
                    (find.span, ParseErrorKind.MISSING_KEY,
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
            errors.append((kind_span, ParseErrorKind.SYNTAX, str(exc)))
            return None

    def _build_weighing(self, kind_span, table, finds, errors):
        objects = self._take(table, "objects", kind_span, "weighing", errors)
        count = self._as_int(objects, errors, minimum=1) if objects else None
        if count is None:
            return None
        return WeighingInstance(count)

    def _build_pigeonhole(self, kind_span, table, finds, errors):
        counts = self._take(table, "counts", kind_span, "pigeonhole", errors)
        required = self._take(table, "required", kind_span, "pigeonhole", errors)
        pairs = self._as_colorlist(counts, errors, at_least_one=True) if counts else None
        run = self._as_int(required, errors, minimum=1) if required else None
        if pairs is None or run is None:
            return None
        return PigeonholeInstance(pairs, run)

    def _build_transfer(self, kind_span, table, finds, errors):
        a = self._take(table, "container_a", kind_span, "transfer", errors)
        b = self._take(table, "container_b", kind_span, "transfer", errors)
        moved = self._take(table, "moved", kind_span, "transfer", errors)
        query = self._take(table, "query", kind_span, "transfer", errors)
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
            errors.append((moved.value.span, ParseErrorKind.SYNTAX, str(exc)))
            return None

    def _build_station(self, kind_span, table, finds, errors):
        early = self._take(table, "early", kind_span, "station", errors)
        saved = self._take(table, "saved", kind_span, "station", errors)
        early_q = self._as_time_quantity(early, errors) if early else None
        saved_q = self._as_time_quantity(saved, errors) if saved else None
        if early_q is None or saved_q is None:
            return None
        try:
            return StationInstance(early_q.magnitude, saved_q.magnitude)
        except InvalidInstance as exc:
            errors.append((kind_span, ParseErrorKind.SYNTAX, str(exc)))
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
        raise ParseFailure(_locate(source, parser.errors))
    return specs


# ----------------------------------------------------------------------
# Serialization (canonical single-line form; parse(serialize(s)) == [s])

_IDENT_RE = re.compile(_IDENT_PATTERN)


def _ident_or_raise(word: str, what: str) -> str:
    if not _IDENT_RE.fullmatch(word):
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
