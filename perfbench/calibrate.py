"""How fast the machine runs Python right now, from a fixed workload.

Usage: python3 perfbench/calibrate.py

Prints the seconds one fixed pure-Python workload took in this fresh
interpreter.  It never touches `riddle_forge`.

On a shared host the same CPU-bound child can take 1.5x longer when a
neighbour loads the core, for seconds or minutes at a time.  The runner
interleaves its samples with calibration children like this one, on the
same CPU and with the same environment, and scales every time it reports
by `UNIT_REF_S / mean calibration time`.  A time is thus reported in
reference seconds: seconds on a machine that runs this workload in
`UNIT_REF_S`.  A change to the program moves the samples and not the
calibration, so it shows in full; a slow spell of the machine moves both
and cancels.  Each calibration is a fresh process, as each sample is, so
the offset one process's memory layout gives is averaged away too.

The workload does the kind of work the CLI does: split and scan text,
build dicts, add `Fraction`s, and write JSON.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

UNIT_REF_S = 1.0  # the scale of reported times, not a measurement
ROWS = 60_000


def workload() -> int:
    """The fixed work; returns a checksum so no step can be skipped."""
    rows = []
    for i in range(ROWS):
        line = f"puzzle rate {{ label = w{i}; a = {i % 97}/{i % 13 + 1}; b = {i % 31} }}"
        words = line.replace(";", " ").split()
        num, den = words[8].split("/")
        rows.append({"label": words[5], "a": Fraction(int(num), int(den)), "b": int(words[11])})
    total = sum((row["a"] * row["b"] for row in rows), Fraction(0))
    text = json.dumps([{"label": row["label"], "a": str(row["a"])} for row in rows])
    return len(text) + total.numerator % 997


def main() -> None:
    started = time.perf_counter()
    workload()
    print(time.perf_counter() - started)


if __name__ == "__main__":
    main()
