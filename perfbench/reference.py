"""Reference answers and output checks, computed without `riddle_forge`.

Every expected value comes from the generator's parameters with
`Fraction` arithmetic and the textbook closed forms:

* rate: k = w/(s*t), then isolate the unknown;
* weighing: the smallest i with 3^i >= N (0 for N = 1);
* pigeonhole: sum(min(c, r - 1)) + 1, or infeasible when no count reaches r;
* transfer: (b_c + m*a_c/|A|)/(|B| + m), or m/(|B| + m) for `query = moved`;
* station: early - saved/2, with the kinematic check unverifiable
  (oracle null) when saved >= early.

Each check returns one outcome per item: OK, or WRONG when the program
answered, but not what the reference expects.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

OK, WRONG = "ok", "wrong"

STRATEGY_RENDER_LIMIT = 27  # the CLI prints a strategy tree up to this N
STATION_TOLERANCE = 1e-9


# ----------------------------------------------------------------------
# Closed forms

def rate_answer(params: dict) -> Fraction:
    work, subjects, time = params["known"]
    k = work / (subjects * time)
    given = params["given"]
    if params["target"] == "work":
        return k * given["subjects"] * given["time"]
    if params["target"] == "subjects":
        return given["work"] / (k * given["time"])
    return given["work"] / (k * given["subjects"])


def weighings(n: int) -> int:
    i = 0
    while 3 ** i < n:
        i += 1
    return i


def pigeonhole_formula(params: dict) -> int:
    return len(params["counts"]) * (params["required"] - 1) + 1


def pigeonhole_oracle(params: dict) -> int | None:
    """Guaranteed draws over the actual counts; None when infeasible."""
    counts = [count for _, count in params["counts"]]
    r = params["required"]
    if max(counts) < r:
        return None
    return sum(min(count, r - 1) for count in counts) + 1


def transfer_probability(params: dict) -> Fraction:
    a, b, m = dict(params["a"]), dict(params["b"]), params["moved"]
    size_a, size_b = sum(a.values()), sum(b.values())
    if params["query"] == "moved":
        return Fraction(m, size_b + m)
    color = params["query"]
    return (b.get(color, 0) + Fraction(m * a.get(color, 0), size_a)) / (size_b + m)


def transfer_formula(params: dict) -> Fraction | None:
    n = sum(count for _, count in params["a"])
    d = sum(count for _, count in params["b"])
    return Fraction(2 * n, n + d) if d >= 1 else None


def station_walked(params: dict) -> Fraction:
    return params["early"] - params["saved"] / 2


# ----------------------------------------------------------------------
# solve --format json

def expected_report(block, label: str, check: bool) -> dict:
    """answer/oracle/agreement the CLI should print for one block."""
    p = block.params
    expected: dict = {"label": label, "kind": block.kind}
    if block.kind == "rate":
        expected["answer"] = str(rate_answer(p))
        return expected  # rate has no oracle to report
    if block.kind == "weighing":
        expected["answer"] = str(weighings(p["objects"]))
        oracle, agreement = expected["answer"], True
    elif block.kind == "pigeonhole":
        formula, found = pigeonhole_formula(p), pigeonhole_oracle(p)
        expected["answer"] = str(formula)
        oracle = "infeasible" if found is None else str(found)
        agreement = found == formula
    elif block.kind == "transfer":
        formula = transfer_formula(p)
        expected["answer"] = "undefined" if formula is None else str(formula)
        probability = transfer_probability(p)
        oracle, agreement = str(probability), probability == formula
    else:
        expected["answer"] = str(station_walked(p))
        verifiable = p["saved"] < p["early"]
        oracle, agreement = (station_walked(p) if verifiable else None), (
            True if verifiable else None)
    if check:
        expected["oracle"], expected["agreement"] = oracle, agreement
    return expected


def _station_oracle_ok(shown, walked: Fraction) -> bool:
    if shown == str(walked):
        return True
    try:
        exact = float(walked)
        value = float(shown)
    except (TypeError, ValueError, OverflowError):
        return False
    return abs(value - exact) <= STATION_TOLERANCE + 1e-11 * abs(exact)


def _strategy_ok(tree, n: int, depth: int) -> bool:
    """The tree identifies every heavy object within exactly `depth` weighings."""
    if not isinstance(tree, dict) or tree.get("suspects") != list(range(n)):
        return False
    deepest = 0
    for heavy in range(n):
        node, used = tree, 0
        while "identified" not in node:
            left, right = node["left"], node["right"]
            suspects = set(node["suspects"])
            if (not left or len(left) != len(right) or set(left) & set(right)
                    or not set(left + right) <= suspects):
                return False
            used += 1
            if heavy in left:
                node = node["on_left_heavy"]
            elif heavy in right:
                node = node["on_right_heavy"]
            else:
                node = node["on_balance"]
            if node is None:
                return False
        if node["identified"] != heavy or node["suspects"] != [heavy]:
            return False
        deepest = max(deepest, used)
    return deepest == depth


_STALL = re.compile(r"longest stall \((\d+) draws\)")


def _report_ok(report, block, expected: dict, explain: bool) -> bool:
    if not isinstance(report, dict):
        return False
    for key, value in expected.items():
        if key == "oracle" and block.kind == "station" and value is not None:
            if not _station_oracle_ok(report.get("oracle"), value):
                return False
        elif report.get(key, "<absent>") != value:
            return False
    extra = set(report) - set(expected) - {"explanation", "strategy"}
    if extra:
        return False
    explanation = report.get("explanation")
    if explain != bool(explanation):
        return False
    if block.kind == "weighing" and explain and block.params["objects"] <= STRATEGY_RENDER_LIMIT:
        n = block.params["objects"]
        if not _strategy_ok(report.get("strategy"), n, weighings(n)):
            return False
    elif "strategy" in report:
        return False
    if block.kind == "pigeonhole" and explain and "oracle" in expected:
        oracle = pigeonhole_oracle(block.params)
        stalls = [int(m.group(1)) for line in explanation if (m := _STALL.match(line))]
        if stalls != ([] if oracle is None else [oracle - 1]):
            return False
    return True


def check_solve_json(
    stdout: str, blocks: list, stem: str, exit_code: int, check: bool, explain: bool
) -> list[str]:
    """Per-block outcomes for `solve [--check] [--explain] --format json`."""
    expected = [
        expected_report(block, block.label or f"{stem}#{index}", check)
        for index, block in enumerate(blocks, 1)
    ]
    want_exit = 2 if any(e.get("agreement") is False for e in expected) else 0
    try:
        reports = json.loads(stdout)
    except ValueError:
        return [WRONG] * len(blocks)
    if exit_code != want_exit or not isinstance(reports, list) or len(reports) != len(blocks):
        return [WRONG] * len(blocks)
    return [
        OK if _report_ok(report, block, exp, explain) else WRONG
        for report, block, exp in zip(reports, blocks, expected)
    ]


# ----------------------------------------------------------------------
# The checker checks itself against known answers

_CORPUS = [  # the bundled corpus file, transcribed
    ("rate", {"known": (6, 6, 6), "target": "subjects", "given": {"work": 100, "time": 50}}),
    ("rate", {"known": (150, 100, 60), "target": "subjects", "given": {"work": 60, "time": 30}}),
    ("rate", {"known": (40, 3, 120), "target": "subjects", "given": {"work": 100, "time": 30}}),
    ("weighing", {"objects": 13}),
    ("weighing", {"objects": 5}),
    ("weighing", {"objects": 9}),
    ("pigeonhole", {"counts": [("blue", 10), ("red", 8), ("black", 12)], "required": 2}),
    ("pigeonhole", {"counts": [("blue", 84), ("turquoise", 32), ("red", 28), ("green", 4)],
                    "required": 4}),
]


def self_test() -> None:
    """Raise RuntimeError unless the reference reproduces the documented figures."""
    answers = []
    for kind, params in _CORPUS:
        if kind == "rate":
            params = dict(params, known=tuple(Fraction(v) for v in params["known"]))
            answers.append(rate_answer(params))
        elif kind == "weighing":
            answers.append(weighings(params["objects"]))
        else:
            answers.append(pigeonhole_oracle(params))
    if answers != [12, 80, 30, 3, 2, 2, 4, 13]:
        raise RuntimeError(f"reference corpus answers are {answers}")
