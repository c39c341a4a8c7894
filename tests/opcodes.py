"""Opcode counts, per module, to parse and to solve a fixed slice of the bulk file.

Wall-clock medians on a shared host move by several percent between runs,
so a small change to the parser or a report cannot be credited by timing
alone.  This script counts the bytecode instructions Python runs instead
(``sys.settrace`` with ``f_trace_opcodes``), which is the same on every run
of one interpreter version.  Run it from the repository root:

    PYTHONPATH=src python tests/opcodes.py

The input is the first 2,000 blocks of the benchmark's ``solve_bulk`` file
at seed 7 (``perfbench/gen.py``, which this script only imports).  It
counts two steps:

- ``parse``: ``parse_puzzles`` over those blocks;
- ``solve``: each block's report under ``solve --check --explain``, and its
  ``to_json`` text.

For each step it prints the total, then each module's count, largest first.
Work done in C (regular expressions, ``int`` arithmetic, ``str`` methods)
is not counted, and bytecode differs between Python versions, so compare
counts only from one version.  Pytest does not collect this file.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402  (after the path is set)

from riddle_forge import cli, parse_puzzles  # noqa: E402

BLOCKS = 2_000


def _counted(step, *args):
    """``step(*args)``'s result and the opcodes it ran, per module; this
    script's own frames are not counted."""
    counts: Counter[str] = Counter()
    own = globals()

    def local(frame, event, arg):
        if event == "opcode":
            counts[frame.f_globals.get("__name__")] += 1
        return local

    def call(frame, event, arg):
        if frame.f_globals is own:
            return None
        frame.f_trace_opcodes = True
        return local

    sys.settrace(call)
    try:
        result = step(*args)
    finally:
        sys.settrace(None)
    return result, counts


def _print(name: str, counts: Counter[str]) -> None:
    print(f"{name}: {sum(counts.values()):,}")
    for module, count in sorted(counts.items(), key=lambda item: (-item[1], str(item[0]))):
        print(f"  {module}: {count:,}")


def main() -> int:
    bulk = gen.bulk_file(random.Random("solve_bulk:7"), 20_000)
    text = "".join(bulk.text.splitlines(keepends=True)[:BLOCKS])
    args = cli.build_parser().parse_args(["solve", "--check", "--explain", "bulk.speck"])

    specs, parse_counts = _counted(parse_puzzles, text)

    def solve() -> None:
        for index, spec in enumerate(specs, 1):
            cli._solve_one(spec, spec.label or f"bulk#{index}", args).to_json()

    _, solve_counts = _counted(solve)
    _print("parse", parse_counts)
    _print("solve", solve_counts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
