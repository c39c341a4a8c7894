"""Parser differential: every source's parse outcome, as JSON, to compare two builds.

Print the outcomes of one checkout, with its own ``src`` first on the path:

    PYTHONPATH=src python tests/parser_diff.py > outcomes.json

The sources are the seeded batch the fuzz tests draw from (``_mutate`` in
``test_cli.py``, seed 1, 20,000 sources), then one source for each input
rule the payload constructors own.  Each outcome is ``["ok", blocks,
digest, text digest]``, the digests hashes of the specs' reprs and of
their ``serialize_puzzle`` text, or ``["error", [line, column, length,
kind, message], ...]``.  Compare two such files with

    PYTHONPATH=src python tests/parser_diff.py --compare before.json after.json

which counts the sources that move between ok and error, that parse to
specs with other reprs, or to other values (other text: serialization
round-trips, so a change to reprs alone moves only the first count), whose
first error changes span or kind, that report a (span, kind) pair the
first file does not, and whose errors change at all.  It exits 1 if any
count but ``sources`` is nonzero, else 0.
Pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_cli import _mutate  # noqa: E402  (after the path is set)

from riddle_forge import ParseFailure, parse_puzzles, serialize_puzzle  # noqa: E402

SEED, COUNT = 1, 20_000

# One source per rule, and the two-fault blocks whose reports a constructor
# that stops at its first refusal can shorten.
RULE_SOURCES = [
    "puzzle rate { work = 0; subjects = 1; time = 1 min; find work where subjects = 1, time = 1 }",
    "puzzle station { early = -1 h; saved = 1 min }",
    "puzzle station { early = 0 min; saved = 1/2 h }",
    "puzzle weighing { objects = 0 }",
    "puzzle pigeonhole { counts = (a: 1); required = -2 }",
    "puzzle transfer { container_a = (a: 1); container_b = (); moved = 0; query = a }",
    "puzzle pigeonhole { counts = (a: 1, b: 2, a: 3); required = 2 }",
    "puzzle transfer { container_a = (a: 1); container_b = (b: 2, c: -1); moved = 1; query = a }",
    "puzzle pigeonhole { counts = (); required = 2 }",
    "puzzle transfer { container_a = (); container_b = (a: 1); moved = 1; query = a }",
    "puzzle transfer { container_a = (a: 2); container_b = (); moved = 3; query = moved }",
    "puzzle station { early = 1; saved = 3 }",
    "puzzle pigeonhole { counts = (a: -1, a: 2); required = 2 }",
    "puzzle transfer { container_a = (); container_b = 5; moved = 0; query = a }",
]


def sources() -> list[str]:
    rng = random.Random(SEED)
    return [_mutate(rng) for _ in range(COUNT)] + RULE_SOURCES


def outcome(source: str) -> list:
    try:
        specs = parse_puzzles(source)
    except ParseFailure as failure:
        return ["error"] + [
            [e.span.line, e.span.column, e.span.length, e.kind.value, e.message]
            for e in failure.errors
        ]
    text = "\n".join(serialize_puzzle(spec) for spec in specs)
    return ["ok", len(specs), _digest(repr(specs)), _digest(text)]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()[:16]


def compare(before: list, after: list) -> dict[str, int]:
    counts = dict.fromkeys(
        ("sources", "status_moved", "specs_differ", "values_differ", "first_error_moved",
         "new_span_kind", "reports_changed"), 0)
    counts["sources"] = len(after)
    for old, new in zip(before, after, strict=True):
        if old[0] != new[0]:
            counts["status_moved"] += 1
        elif old[0] == "ok":
            counts["specs_differ"] += old[:3] != new[:3]
            counts["values_differ"] += old[3] != new[3]
        else:
            old_pairs = {tuple(e[:4]) for e in old[1:]}
            counts["first_error_moved"] += old[1][:4] != new[1][:4]
            counts["new_span_kind"] += any(tuple(e[:4]) not in old_pairs for e in new[1:])
            counts["reports_changed"] += old[1:] != new[1:]
    return counts


def main(argv: list[str]) -> int:
    if argv[:1] == ["--compare"] and len(argv) == 3:
        before, after = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv[1:])
        counts = compare(before, after)
        print(json.dumps(counts, indent=1))
        return 1 if any(count for name, count in counts.items() if name != "sources") else 0
    if argv:
        print("usage: parser_diff.py [--compare BEFORE AFTER]", file=sys.stderr)
        return 2
    outcomes = [json.dumps(outcome(source), ensure_ascii=True) for source in sources()]
    sys.stdout.write("[\n" + ",\n".join(outcomes) + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
