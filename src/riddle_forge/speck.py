"""Recursive-descent front end for the puzzle DSL (".speck" files).

A file holds any number of ``puzzle <kind> { ... }`` blocks.  Inside a
block, statements are ``key = value`` assignments or, for rate puzzles, a
``find <field> where key = value, key = value`` clause.  Statements are
separated by semicolons or newlines; ``#`` starts a comment running to the
end of the line.  Values are integers, rationals ``p/q``, optionally
followed by a unit or label word, parenthesised color lists
``(blue: 10, red: 8)``, or bare identifiers (used by ``query`` and
``label`` keys).  Identifiers are ASCII: ``[A-Za-z_][A-Za-z0-9_]*``.

The lexer turns the source into strings, each token its own source text,
from one compiled regular expression; comments are dropped.  The parser
reads one stream of tokens: the source is lexed one chunk of whole lines at
a time, about ``_CHUNK`` characters, each character once, and the end of
input is the empty string.  No token spans a newline, so the chunks' tokens
are a whole-file lex's, and as the parser never looks past its current
token it holds one chunk's tokens at most.  It tells a token's type from its
first character and reads a number's value only where it expects one.  Each
reader is handed the current token and its index, and hands back the pair
it stopped at; a syntax error carries the pair to resume from.  The parser
carries ``(first, last)`` token-index pairs; only when there are errors is
the source scanned again for their offsets, lines and columns, from the
chunks that hold them.

Each ``key = value`` statement is one ``_Assign`` record that holds its
parsed value: an ``int`` or ``Fraction`` for a number (its trailing word, if
any, in ``word``), a ``str`` for a word, or a tuple of ``(name, count)``
pairs for a color list, the payloads' own form, with each pair's
``(name_span, count_span)`` apart in ``item_spans``.  The block's value
readers tell the three apart by the value's Python type.

Errors carry precise source spans and a kind; parsing recovers at block
boundaries so one bad block does not hide errors in the next.

Which keys a kind takes, and how its payload is written back, lives with
the kind's payload class (``from_block``, ``block_items``), as do the targets
a ``find`` clause may name (``find_targets``; a class without it takes no
``find``), and which values it accepts with its constructor.  The parser
builds each block's key table as it reads the statements; this module holds
the grammar, the value readers, which check only a value's type and unit,
and the value text.  It knows a kind only by its row in ``_PAYLOAD_TYPES``.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Iterator
from enum import Enum
from fractions import Fraction
from itertools import chain, repeat
from typing import NamedTuple

from .classics import StationInstance, TransferInstance
from .core import PuzzleSpec, Quantity, Value, _set
from .errors import InvalidInstance
from .pigeonhole import PigeonholeInstance
from .rate import RateQuery
from .weighing import WeighingInstance


class SourceSpan(Value):
    __slots__ = _fields = ("line", "column", "length")

    def __init__(self, line: int, column: int, length: int) -> None:
        _set(self, "line", line)  # 1-based
        _set(self, "column", column)  # 1-based, one per character (a tab counts as one)
        _set(self, "length", length)


class ParseErrorKind(Enum):
    UNKNOWN_KIND = "unknown_kind"
    MISSING_KEY = "missing_key"
    DUPLICATE_KEY = "duplicate_key"
    TYPE_MISMATCH = "type_mismatch"
    BAD_UNIT = "bad_unit"
    # Also covers zero where a strictly positive count is required.
    NEGATIVE_COUNT = "negative_count"
    SYNTAX = "syntax"


class ParseError(Value):
    __slots__ = _fields = ("span", "kind", "message")

    def __init__(self, span: SourceSpan, kind: ParseErrorKind, message: str) -> None:
        _set(self, "span", span)
        _set(self, "kind", kind)
        _set(self, "message", message)

    def __str__(self) -> str:
        return f"{self.span.line}:{self.span.column}: {self.kind.value}: {self.message}"


class ParseFailure(Exception):
    """Raised by parse_puzzles when the source contains any errors; its
    message joins them only when it is asked for."""

    def __init__(self, errors: list[ParseError]):
        self.errors = list(errors)
        super().__init__(self.errors)  # so a copy or a pickle is rebuilt from them

    def __str__(self) -> str:
        return "; ".join(map(str, self.errors))


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


# The characters lexed at a time; a chunk is carried on to the end of its line.
_CHUNK = 1 << 16


def _lex(source: str, start: int, end: int) -> list[str]:
    tokens = _TOKEN_RE.findall(source, start, end)
    if source.find("#", start, end) >= 0:
        tokens = [tok for tok in tokens if tok[0] != "#"]  # drop the comments, if any
    return tokens


def _chunks(
    source: str, starts: list[tuple[int, int]]
) -> Iterator[list[str] | Iterator[str]]:
    """The tokens of each chunk of whole lines in turn, then _EOF without end.

    Each chunk's (first token index, offset) is appended to ``starts`` as
    the chunk is lexed.
    """
    start = index = 0
    while start < len(source):
        end = source.find("\n", start + _CHUNK - 1) + 1 or len(source)
        tokens = _lex(source, start, end)
        starts.append((index, start))
        index += len(tokens)
        yield tokens
        start = end
    yield repeat(_EOF)


def _int(tok: str) -> int | None:
    """An integer literal's value; None for any other token, or one too long to read."""
    if tok[:1] in _NUMBER_START and tok != "-":  # a lone '-' is a token of its own
        try:
            return int(tok)
        except ValueError:  # past the interpreter's int-max-str-digits limit
            pass
    return None


def _describe(tok: str) -> str:
    if tok == _EOF:
        return "end of input"
    if tok == "\n":
        return "end of line"
    if tok[:1] in _NUMBER_START and tok != "-" and _int(tok) is None:
        return f"an integer literal too long to read ({len(tok)} characters)"
    return f"'{tok}'"


def _locate(
    source: str, errors: list[_Error], starts: list[tuple[int, int]]
) -> list[ParseError]:
    """Give each error its range, line and column.

    The lexer's own pattern finds the tokens the errors name again,
    counting lines as it goes.  It goes to each named token in turn: on from
    the one before, or from the start of the token's chunk (see
    ``_chunks``' ``starts``) if the one before is in an earlier chunk.  So
    it matches tokens only of the chunks that hold named tokens.  The index
    past the last token is the end of input, which is never matched, so an
    error there runs the pass out.
    """
    found = {}  # token index -> (start, end, line, column)
    index, line, line_start, matches = 0, 1, 0, _TOKEN_RE.finditer(source)
    for target in sorted({named for span, _, _ in errors for named in span}):
        first, offset = starts[bisect_right(starts, (target, len(source))) - 1]
        if index < first:
            line += source.count("\n", line_start, offset)  # a chunk starts a line
            index, line_start, matches = first, offset, _TOKEN_RE.finditer(source, offset)
        for match in matches:
            start = match.start()
            first_char = source[start]
            if first_char == "#":
                continue
            if index == target:
                found[index] = (start, match.end(), line, start - line_start + 1)
            index += 1
            if first_char == "\n":
                line, line_start = line + 1, start + 1
            if index > target:
                break
    end = len(source)
    eof = (end, end, line, end - line_start + 1)
    located = []
    for (first, last), kind, message in errors:
        start, _, line, column = found.get(first, eof)
        span = SourceSpan(line, column, found.get(last, eof)[1] - start)
        located.append(ParseError(span, kind, message))
    return located


# ----------------------------------------------------------------------
# Parsed statements (parser-internal)

class _Assign(NamedTuple):
    """A ``key = value`` statement, its value parsed (see the module docstring)."""

    key: str
    key_span: _Span
    value: int | Fraction | str | tuple[tuple[str, int], ...]
    span: _Span  # the value's
    word: str | None  # a number's trailing unit-or-label word, if any
    word_span: _Span | None
    item_spans: tuple[tuple[_Span, _Span], ...] | None  # a color list's (name, count) spans


# _record(_Assign, (all seven fields)) builds a statement in C; _Assign(...) runs Python code.
_record = tuple.__new__


def _value_what(value: object) -> str:
    if isinstance(value, str):
        return f"the word '{value}'"
    return "a color list" if isinstance(value, tuple) else "a number"


class _Find(NamedTuple):
    target: str
    target_span: _Span
    clauses: tuple[_Assign, ...]
    span: _Span  # span of the 'find' keyword


class _BlockError(Exception):
    """Internal: a syntax error that aborts the current block (or reports a stray
    token), and in ``resume`` the (index, token) pair to recover from."""

    def __init__(self, span: _Span, message: str, resume: tuple[int, str]):
        self.error = (span, ParseErrorKind.SYNTAX, message)
        self.resume = resume


def _unexpected(at: int, tok: str, what: str) -> _BlockError:
    """The error for finding ``tok``, at index ``at``, where ``what`` should be."""
    return _BlockError((at, at), f"expected {what}, found {_describe(tok)}", (at, tok))


# Kind name -> payload class.  Each class reads its own block
# (``from_block``), names its own statements (``block_items``) and, if it
# takes a ``find`` clause, the clause's targets (``find_targets``).
_PAYLOAD_TYPES = {
    payload_type.puzzle_kind: payload_type
    for payload_type in (
        RateQuery, WeighingInstance, PigeonholeInstance, TransferInstance, StationInstance
    )
}
_TIME_UNITS = {"min": 1, "h": 60}


# ----------------------------------------------------------------------
# Parser

class _Parser:
    """Reads the token stream of _chunks, one token at a time.

    Each step takes the next (index, token) pair from ``_next``; the index
    is file-wide.  A reader is handed the pair it starts at, steps through
    it in locals and hands back, with what it read, the pair it stopped at;
    a ``_BlockError`` carries the pair to recover from.  Never looking past
    its current token, the parser holds one chunk's tokens at most and
    reads each token once.
    """

    __slots__ = ("errors", "starts", "_next")

    def __init__(self, source: str):
        self.errors: list[_Error] = []
        self.starts: list[tuple[int, int]] = []  # see _chunks
        self._next = enumerate(chain.from_iterable(_chunks(source, self.starts))).__next__

    def parse_file(self) -> list[PuzzleSpec]:
        specs: list[PuzzleSpec] = []
        step = self._next
        at, tok = step()
        while True:
            while tok == "\n" or tok == ";":
                at, tok = step()
            if tok == _EOF:
                return specs
            try:
                if tok != "puzzle":  # recovery starts past the stray token
                    raise _BlockError((at, at), f"expected 'puzzle', found {_describe(tok)}",
                                      step())
                spec, at, tok = self._parse_block(*step())  # past 'puzzle'
            except _BlockError as abort:
                self.errors.append(abort.error)
                at, tok = self._recover(*abort.resume)
                continue
            if spec is not None:
                specs.append(spec)

    def _recover(self, at: int, tok: str) -> tuple[int, str]:
        """Skip forward from ``tok`` to the next block boundary; the pair there."""
        while tok != _EOF and tok != "puzzle":
            if tok == "}":
                return self._next()
            at, tok = self._next()
        return at, tok

    def _parse_block(self, at: int, tok: str) -> tuple[PuzzleSpec | None, int, str]:
        """Read a block from its kind word on."""
        step = self._next
        if tok[:1] not in _WORD_START:
            raise _unexpected(at, tok, "a puzzle kind")
        kind_name, kind_span = tok, (at, at)
        at, tok = step()
        while tok == "\n":
            at, tok = step()
        if tok != "{":
            raise _unexpected(at, tok, "'{'")
        at, tok = step()
        # The key table and its duplicate keys, reported only once the block is whole.
        table: dict[str, _Assign] = {}
        errors: list[_Error] = []
        finds: list[_Find] = []
        while True:
            while tok == "\n" or tok == ";":
                at, tok = step()
            if tok == "}":
                break
            if tok == _EOF:
                raise _BlockError((at, at), "unterminated block: expected '}'", (at, tok))
            if tok == "find":
                find, at, tok = self._parse_find(at, tok)
                finds.append(find)
            else:
                assign, at, tok = self._parse_assign(at, tok, "a statement")
                if table.setdefault(assign.key, assign) is not assign:
                    errors.append((assign.key_span, ParseErrorKind.DUPLICATE_KEY,
                                   f"duplicate key '{assign.key}'"))
        at, tok = step()
        payload_type = _PAYLOAD_TYPES.get(kind_name)
        if payload_type is None:
            self.errors.append(
                (kind_span, ParseErrorKind.UNKNOWN_KIND,
                 f"unknown puzzle kind '{kind_name}'; expected one of "
                 + ", ".join(_PAYLOAD_TYPES))
            )
            return None, at, tok
        block = _Block(kind_name, kind_span, table, finds, errors)
        spec = block.build(payload_type)
        self.errors.extend(block.errors)
        return spec, at, tok

    def _parse_assign(self, at: int, tok: str, what: str) -> tuple[_Assign, int, str]:
        """Read a ``key = value`` statement; ``what`` names the key in an error."""
        step = self._next
        if tok[:1] not in _WORD_START:
            raise _unexpected(at, tok, what)
        key, key_span = tok, (at, at)
        at, tok = step()
        if tok != "=":
            raise _unexpected(at, tok, "'='")
        at, tok = step()
        if tok[:1] in _WORD_START:
            return _record(_Assign, (key, key_span, tok, (at, at), None, None, None)), *step()
        if tok == "(":
            return self._parse_colorlist(at, tok, key, key_span)
        value: int | Fraction | None = _int(tok)
        if value is None:
            raise _unexpected(at, tok, "a value")
        span = (at, at)
        at, tok = step()
        if tok == "/":
            at, tok = step()
            den, den_at = _int(tok), at
            if den is None:
                raise _unexpected(at, tok, "a denominator")
            at, tok = step()
            if den <= 0:
                problem = "must not be zero" if den == 0 else "must be positive"
                raise _BlockError((den_at, den_at), f"denominator {problem}", (at, tok))
            value = Fraction(value, den)
            # p, '/' and q sit on one line: a newline between them is a token.
            span = (span[0], den_at)
        if tok[:1] in _WORD_START:
            return _record(_Assign, (key, key_span, value, span, tok, (at, at), None)), *step()
        return _record(_Assign, (key, key_span, value, span, None, None, None)), at, tok

    def _parse_find(self, at: int, tok: str) -> tuple[_Find, int, str]:
        """Read a ``find ... where ...`` clause from its keyword on."""
        step = self._next
        find_span = (at, at)
        at, tok = step()
        if tok[:1] not in _WORD_START:
            raise _unexpected(at, tok, "a field to find")
        target, target_span = tok, (at, at)
        at, tok = step()
        if tok != "where":
            raise _unexpected(at, tok, "'where'")
        clauses = []
        while True:
            clause, at, tok = self._parse_assign(*step(), "a key")  # past 'where' or ','
            clauses.append(clause)
            if tok != ",":
                return _Find(target, target_span, tuple(clauses), find_span), at, tok

    def _parse_colorlist(
        self, at: int, tok: str, key: str, key_span: _Span
    ) -> tuple[_Assign, int, str]:
        """Read the color list that ``key`` is given, from its '(' on."""
        step = self._next
        span = (at, at)
        at, tok = step()  # past the '('
        items: list[tuple[str, int]] = []
        spans: list[tuple[_Span, _Span]] = []
        while True:
            while tok == "\n":
                at, tok = step()
            if not items and tok == ")":
                break  # the empty list
            if tok[:1] not in _WORD_START:
                raise _unexpected(at, tok, "a color name")
            name, name_span = tok, (at, at)
            at, tok = step()
            if tok != ":":
                raise _unexpected(at, tok, "':'")
            at, tok = step()
            while tok == "\n":
                at, tok = step()
            count, count_span = _int(tok), (at, at)
            if count is None:
                raise _unexpected(at, tok, "a count")
            at, tok = step()
            if tok == "/":
                raise _BlockError((at, at), "color counts must be integers", (at, tok))
            items.append((name, count))
            spans.append((name_span, count_span))
            while tok == "\n":
                at, tok = step()
            if tok != ",":
                break
            at, tok = step()
        if tok != ")":
            raise _unexpected(at, tok, "')'")
        assign = _record(_Assign, (key, key_span, tuple(items), span, None, None, tuple(spans)))
        return assign, *step()


class _Block:
    """One block's statements, as a payload class's ``from_block`` reads them.

    The parser hands over the key table (each key's first statement) and
    the duplicate keys as the first ``errors``.  ``build`` makes the block's
    spec, or gives None with the reasons in ``errors``.  ``take`` claims keys
    from the table.  The readers ``word``, ``count``, ``time``, ``integer``
    and ``colors`` turn a statement into a value of the type its key takes,
    or report an error and give None, as they do when given None (a missing
    key, already reported).  ``find`` reads the ``find ... where ...``
    clause, given the targets of the kind's class.  Which values a kind accepts is
    its constructor's rule: ``make`` calls it and places its refusal.
    """

    __slots__ = ("kind", "kind_span", "table", "finds", "errors")

    def __init__(self, kind: str, kind_span: _Span, table: dict[str, _Assign],
                 finds: list[_Find], errors: list[_Error]):
        self.kind = kind
        self.kind_span = kind_span
        self.table = table
        self.finds = finds
        self.errors = errors

    def build(self, payload_type: type) -> PuzzleSpec | None:
        kind, errors, table = self.kind, self.errors, self.table
        if self.finds and not hasattr(payload_type, "find_targets"):
            takers = [name for name, cls in _PAYLOAD_TYPES.items() if hasattr(cls, "find_targets")]
            errors.append(
                (self.finds[0].span, ParseErrorKind.SYNTAX,
                 f"'find' is only meaningful in {' or '.join(takers)} puzzles, not {kind}")
            )

        label = self.word(table.pop("label", None))
        payload = payload_type.from_block(self)  # takes the keys the kind knows

        for assign in table.values():
            errors.append(
                (assign.key_span, ParseErrorKind.SYNTAX,
                 f"unexpected key '{assign.key}' in a {kind} puzzle")
            )
        if errors or payload is None:
            return None
        return PuzzleSpec(payload, label)

    def take(self, *keys: str) -> tuple[_Assign | None, ...]:
        """The statements assigning ``keys``; each missing one is an error."""
        table = self.table
        found = []
        for key in keys:
            assign = table.pop(key, None)
            if assign is None:
                self.errors.append(
                    (self.kind_span, ParseErrorKind.MISSING_KEY,
                     f"{self.kind} puzzle is missing key '{key}'")
                )
            found.append(assign)
        return tuple(found)

    def make(self, payload_type: type, *args, at: tuple[_Assign, ...] = ()):
        """``payload_type(*args)``, or None with its refusal reported.

        ``at`` holds the statements that gave the leading arguments, in
        ``payload_type._fields`` order.  A refusal of one of those is an
        error at its statement's value (at a refused color's name if it is
        repeated, else its count) that reads ``key '<key>' <problem>``; any
        other is an error at the kind keyword, worded as raised.
        """
        try:
            return payload_type(*args)
        except InvalidInstance as exc:
            kind, argument = ParseErrorKind(exc.kind), exc.argument
            fields = payload_type._fields[:len(at)]
            if argument not in fields:
                self.errors.append((self.kind_span, kind, str(exc)))
                return None
            assign = at[fields.index(argument)]
            span = assign.span
            if exc.index is not None:
                name_span, count_span = assign.item_spans[exc.index]
                span = name_span if kind is ParseErrorKind.DUPLICATE_KEY else count_span
            problem = str(exc)[len(argument):]  # "<argument> <problem>"
            self.errors.append((span, kind, f"key '{assign.key}'{problem}"))
            return None

    def find(self, where: dict[str, tuple[str, ...]], readers: dict[str, str]) -> dict | None:
        """The given values of the block's one ``find`` clause.

        Its target is a key of ``where``, which maps each target to the keys
        its where-clause gives, sorted; each is read, in that order, by the
        reader (a method of this class) that ``readers`` names for it.
        """
        finds, errors = self.finds, self.errors
        if not finds:
            errors.append(
                (self.kind_span, ParseErrorKind.MISSING_KEY,
                 f"{self.kind} puzzle needs a 'find' clause")
            )
            return None
        if len(finds) > 1:
            errors.append(
                (finds[1].span, ParseErrorKind.DUPLICATE_KEY,
                 "only one 'find' clause is allowed")
            )
            return None
        find = finds[0]
        expected = where.get(find.target)
        if expected is None:
            errors.append(
                (find.target_span, ParseErrorKind.SYNTAX,
                 f"find target must be one of {', '.join(where)}; "
                 f"got '{find.target}'")
            )
            return None
        before = len(errors)
        given: dict = {}  # each expected key's clause, then the value read from it
        for clause in find.clauses:
            if clause.key in given:
                errors.append(
                    (clause.key_span, ParseErrorKind.DUPLICATE_KEY,
                     f"duplicate key '{clause.key}' in where-clause")
                )
            elif clause.key not in expected:
                errors.append(
                    (clause.key_span, ParseErrorKind.SYNTAX,
                     f"unexpected key '{clause.key}' in where-clause; "
                     f"expected {' and '.join(expected)}")
                )
            else:
                given[clause.key] = clause
        for name in expected:
            clause = given.get(name)
            if clause is None:
                errors.append(
                    (find.span, ParseErrorKind.MISSING_KEY,
                     f"where-clause is missing key '{name}'")
                )
            else:
                given[name] = getattr(self, readers[name])(clause)
        return None if len(errors) > before else given

    # value readers

    def _mismatch(self, assign: _Assign, expects: str) -> None:
        """Report that the key wants ``expects``, not the value it was given."""
        self.errors.append(
            (assign.span, ParseErrorKind.TYPE_MISMATCH,
             f"key '{assign.key}' expects {expects}, found {_value_what(assign.value)}")
        )

    def word(self, assign: _Assign | None) -> str | None:
        if assign is None:
            return None
        if not isinstance(assign.value, str):
            return self._mismatch(assign, "a word")
        return assign.value

    def _number(
        self, assign: _Assign | None, expects: str, counts: bool
    ) -> int | Fraction | None:
        """The assigned number; with ``counts``, one that carries no time unit."""
        if assign is None:
            return None
        value = assign.value
        if isinstance(value, (str, tuple)):
            return self._mismatch(assign, expects)
        if counts and assign.word in _TIME_UNITS:
            self.errors.append(
                (assign.word_span, ParseErrorKind.BAD_UNIT,
                 f"key '{assign.key}' counts objects; time unit "
                 f"'{assign.word}' is not allowed here")
            )
            return None
        return value

    def count(self, assign: _Assign | None) -> Quantity | None:
        """A count, with its label word if it has one."""
        value = self._number(assign, "a number", counts=True)
        if value is None:
            return None
        return self.make(Quantity, value, assign.word, at=(assign,))

    def time(self, assign: _Assign | None) -> int | Fraction | None:
        """A time in minutes, above 0; a bare number is minutes."""
        value = self._number(assign, "a number", counts=False)
        if value is None:
            return None
        scale = 1
        if assign.word is not None:
            scale = _TIME_UNITS.get(assign.word)
            if scale is None:
                self.errors.append(
                    (assign.word_span, ParseErrorKind.BAD_UNIT,
                     f"unknown time unit '{assign.word}' for key "
                     f"'{assign.key}'; expected 'min' or 'h'")
                )
                return None
        # Checked before it is scaled, so that a refusal quotes the value as written;
        # the sign of a Fraction is its numerator's, and an int is its own numerator.
        if value.numerator <= 0:
            return self.make(Quantity, value, at=(assign,))  # refused, as a count would be
        return value if scale == 1 else value * scale

    def integer(self, assign: _Assign | None) -> int | None:
        """A whole number."""
        value = self._number(assign, "an integer", counts=True)
        if value is None:
            return None
        if value.denominator != 1:
            self.errors.append(
                (assign.span, ParseErrorKind.TYPE_MISMATCH,
                 f"key '{assign.key}' expects an integer, got {value}")
            )
            return None
        return int(value)

    def colors(self, assign: _Assign | None) -> tuple[tuple[str, int], ...] | None:
        if assign is None:
            return None
        if not isinstance(assign.value, tuple):
            return self._mismatch(assign, "a color list like (blue: 2, red: 3)")
        return assign.value


def parse_puzzles(source: str) -> list[PuzzleSpec]:
    """Parse a .speck source into puzzle specs.

    Returns every block, in order.  If anything is wrong, raises
    ParseFailure carrying every ParseError found (parsing resumes at the
    next block after an error).  An empty source yields an empty list.
    """
    parser = _Parser(source)
    specs = parser.parse_file()
    if parser.errors:
        raise ParseFailure(_locate(source, parser.errors, parser.starts))
    return specs


# ----------------------------------------------------------------------
# Serialization (canonical single-line form; parse(serialize(s)) == [s])

_IDENT_RE = re.compile(_IDENT_PATTERN)


def _ident_or_raise(word: str, what: str) -> str:
    if not _IDENT_RE.fullmatch(word):
        raise InvalidInstance(f"{what} {word!r} is not expressible in the DSL")
    return word


def _value_text(value: Quantity | Fraction | tuple | str | int) -> str:
    if isinstance(value, Fraction):  # a time
        return f"{value} min"
    if isinstance(value, Quantity):
        if value.label is None:
            return str(value.magnitude)
        word = _ident_or_raise(value.label, "label")
        if word in _TIME_UNITS:
            raise InvalidInstance(f"count label {word!r} collides with a time unit")
        return f"{value.magnitude} {word}"
    if isinstance(value, tuple):  # a color list
        inner = ", ".join(
            f"{_ident_or_raise(name, 'color')}: {count}" for name, count in value
        )
        return f"({inner})"
    if isinstance(value, str):
        return _ident_or_raise(value, "color")  # a word value names a color
    return str(value)


def _statement_text(key: str, value) -> str:
    if key == "find":  # the value is (target, where-clause items)
        target, clauses = value
        return f"find {target} where " + ", ".join(
            _statement_text(*clause) for clause in clauses
        )
    return f"{key} = {_value_text(value)}"


def serialize_puzzle(spec: PuzzleSpec) -> str:
    """Canonical one-line text form of a puzzle spec.

    The payload names its statements (``block_items``); they are written
    here as text.
    """
    parts: list[str] = []
    if spec.label is not None:
        parts.append(f"label = {_ident_or_raise(spec.label, 'label')}")
    parts.extend(_statement_text(*item) for item in spec.payload.block_items())
    return f"puzzle {spec.kind} {{ " + "; ".join(parts) + " }"
