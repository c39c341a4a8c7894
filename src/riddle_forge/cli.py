"""Command-line front end: solve puzzle files, run formula-vs-oracle sweeps.

Exit codes: 0 when everything solved (and, with --check, agreed); 1 on
parse, I/O or decoding errors, or an exact value too long to print; 2 on a
formula/oracle disagreement or bad sweep bounds.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

from .classics import (
    SURVEY_HEADER,
    StationInstance,
    TransferInstance,
    station_walk_formula,
    station_walk_simulate,
    survey_line,
    transfer_formula_survey,
    transfer_probability_enumerate,
    transfer_probability_formula,
)
from .core import PuzzleSpec
from .errors import Infeasible
from .pigeonhole import (
    PigeonholeInstance,
    adversarial_sequence,
    formula_applicable,
    guarantee_draws_formula,
    guarantee_draws_oracle,
)
from .rate import RateQuery, ceil_subjects, rate_constant, solve_rate
from .speck import ParseFailure, parse_puzzles
from .weighing import (
    WeighingInstance,
    build_strategy,
    min_weighings_formula,
    min_weighings_oracle,
    render_strategy,
    strategy_to_dict,
)

# Sweeps at these caps took 0.8 s and 1.7 s (Python 3.11, a 2-core Xeon host).
WEIGHING_ORACLE_LIMIT = 3 ** 12  # bounds --check and sweep
TRANSFER_SWEEP_LIMIT = 24
STRATEGY_RENDER_LIMIT = 27  # explain-mode trees get big fast beyond this
STALL_SHOWN = 30  # explain-mode draws of the longest stall


# json.dump's own string encoder (ensure_ascii) and constants.
_json_str = json.encoder.encode_basestring_ascii
_JSON_CONSTANTS = {True: "true", False: "false", None: "null"}


class SolveReport:
    """One solved puzzle, ready for text or JSON output."""

    __slots__ = ("label", "kind", "answer", "checked", "oracle", "agreement", "explanation",
                 "strategy")

    def __init__(self, label: str, kind: str, answer: str, checked: bool = False,
                 oracle: str | None = None, agreement: bool | None = None,
                 explanation: list[str] | None = None, strategy: str | None = None) -> None:
        self.label = label
        self.kind = kind
        self.answer = answer
        self.checked = checked
        self.oracle = oracle
        self.agreement = agreement
        self.explanation = [] if explanation is None else explanation  # one list per report
        self.strategy = strategy  # weighing only, explain mode: JSON text, indent=2

    def to_json(self) -> str:
        """This report as ``json.dump(reports, indent=2)`` writes a list item.

        Keys in order: label, kind, answer; oracle and agreement when
        checked; explanation when nonempty; strategy when present, its JSON
        text indented one level further.
        """
        text = _json_str
        parts = [
            f'  {{\n    "label": {text(self.label)},\n    "kind": {text(self.kind)},'
            f'\n    "answer": {text(self.answer)}'
        ]
        if self.checked:
            oracle = "null" if self.oracle is None else text(self.oracle)
            agreement = _JSON_CONSTANTS[self.agreement]
            parts.append(f',\n    "oracle": {oracle},\n    "agreement": {agreement}')
        if self.explanation:
            lines = ",\n      ".join(map(text, self.explanation))
            parts.append(f',\n    "explanation": [\n      {lines}\n    ]')
        if self.strategy is not None:
            parts.append(',\n    "strategy": ' + self.strategy.replace("\n", "\n    "))
        parts.append("\n  }")
        return "".join(parts)

    def to_text(self) -> str:
        lines = [f"{self.label} [{self.kind}] answer = {self.answer}"]
        if self.checked:
            verdict = {True: "yes", False: "NO", None: "n/a"}[self.agreement]
            oracle = "n/a" if self.oracle is None else self.oracle
            lines.append(f"  oracle = {oracle}  (agreement: {verdict})")
        lines.extend(f"  {line}" for line in self.explanation)
        return "\n".join(lines)


# Once per size in a solve run (cmd_solve clears it): indent= makes json.dumps slow.
@functools.lru_cache(maxsize=None)
def _strategy(n: int) -> tuple[tuple[str, ...], str]:
    """The n-object strategy's explanation lines and JSON text."""
    tree = build_strategy(WeighingInstance(n))
    lines = ("strategy:", *("  " + line for line in render_strategy(tree).splitlines()))
    return lines, json.dumps(strategy_to_dict(tree), indent=2)


def _solve_rate_report(label: str, query: RateQuery, args: argparse.Namespace) -> SolveReport:
    exact = solve_rate(query)
    shown = exact_text = str(exact)
    rounded = None
    if args.ceil_subjects and query.target == "subjects":
        rounded = ceil_subjects(exact)
        shown = str(rounded)
    report = SolveReport(label, query.puzzle_kind, shown)
    if args.explain:
        known = query.known
        k = str(rate_constant(known))
        report.explanation.append(
            f"rate constant: k = {known.work.magnitude}"
            f"/({known.subjects.magnitude}*{known.time}) = {k}"
        )
        w = "x" if query.work is None else query.work.magnitude
        s = "x" if query.subjects is None else query.subjects.magnitude
        t = "x" if query.time is None else query.time
        report.explanation.append(f"solve {w}/({s}*{t}) = {k}")
        # A time is a Fraction of minutes, with no label word.
        word = None if query.target == "time" else getattr(known, query.target).label
        suffix = f" {word}" if word else ""
        if rounded is not None and rounded != exact:
            report.explanation.append(f"x = {exact_text}{suffix}, rounded up to {shown} whole")
        else:
            report.explanation.append(f"x = {exact_text}{suffix}")
    return report


def _solve_weighing_report(
    label: str, inst: WeighingInstance, args: argparse.Namespace
) -> SolveReport:
    weighings = min_weighings_formula(inst)
    report = SolveReport(label, inst.puzzle_kind, str(weighings))
    if args.explain:
        n = inst.n_objects
        if n == 1:
            report.explanation.append("a single object is already identified")
        else:
            i = weighings - 1
            report.explanation.append(
                f"bracket between powers of three: 3^{i} < {n} <= 3^{i + 1}"
            )
            report.explanation.append(
                f"weighings needed: P = {i} + 1 = {weighings}"
            )
        if n <= STRATEGY_RENDER_LIMIT:
            lines, report.strategy = _strategy(n)
            report.explanation.extend(lines)
        else:
            report.explanation.append(
                f"strategy tree elided ({n} objects; render up to "
                f"{STRATEGY_RENDER_LIMIT})"
            )
    if args.check:
        report.checked = True
        if inst.n_objects > WEIGHING_ORACLE_LIMIT:
            report.explanation.append(
                f"minimax check skipped: {inst.n_objects} objects is over the "
                f"oracle's budget of {WEIGHING_ORACLE_LIMIT}"
            )
        else:
            oracle = min_weighings_oracle(inst)
            report.oracle = str(oracle)
            report.agreement = oracle == weighings
    return report


def _solve_pigeonhole_report(
    label: str, inst: PigeonholeInstance, args: argparse.Namespace
) -> SolveReport:
    n_colors = len(inst.color_counts)
    formula = guarantee_draws_formula(n_colors, inst.required)
    report = SolveReport(label, inst.puzzle_kind, str(formula))
    if args.explain:
        report.explanation.append(
            f"colors: {n_colors}, same-color run wanted: {inst.required}"
        )
        report.explanation.append(
            f"guaranteed draws: {n_colors}*({inst.required} - 1) + 1 = {formula}"
        )
    if args.check:
        report.checked = True
        try:
            oracle = guarantee_draws_oracle(inst)
        except Infeasible as exc:
            report.oracle = "infeasible"
            report.agreement = False
            report.explanation.append(f"oracle: {exc}")
        else:
            report.oracle = str(oracle)
            report.agreement = oracle == formula
            if not formula_applicable(inst):
                report.explanation.append(
                    "note: the closed formula assumes every color has at least "
                    "required - 1 objects; this instance does not"
                )
            if args.explain:
                stall = adversarial_sequence(inst, STALL_SHOWN)
                shown = ", ".join(stall) + (", ..." if oracle - 1 > STALL_SHOWN else "")
                report.explanation.append(f"longest stall ({oracle - 1} draws): {shown}")
    return report


def _solve_transfer_report(
    label: str, inst: TransferInstance, args: argparse.Namespace
) -> SolveReport:
    n = sum([count for _, count in inst.container_a])
    d = sum([count for _, count in inst.container_b])
    if d >= 1:
        formula = transfer_probability_formula(n, d)
        answer = str(formula)
    else:
        formula = None
        answer = "undefined"
    report = SolveReport(label, inst.puzzle_kind, answer)
    if args.explain:
        report.explanation.append(
            f"folklore formula 2n/(n+d) with n = {n} (source total), "
            f"d = {d} (destination total): {answer}"
        )
    if args.check:
        report.checked = True
        enumerated = transfer_probability_enumerate(inst)
        report.oracle = str(enumerated)
        report.agreement = formula is not None and enumerated == formula
        if not report.agreement:
            report.explanation.append(
                "formula and exact enumeration disagree here; "
                "run 'sweep transfer' for the full picture"
            )
    return report


def _solve_station_report(
    label: str, inst: StationInstance, args: argparse.Namespace
) -> SolveReport:
    walked = station_walk_formula(inst)
    shown = str(walked)
    report = SolveReport(label, inst.puzzle_kind, shown)
    x, y = inst.early_minutes, inst.saved_minutes
    if args.explain:
        report.explanation.append(f"walked = early - saved/2 = {x} - {y}/2 = {shown} min")
    if args.check:
        report.checked = True
        # y and x over a common denominator, as integers: a Fraction takes longer to build.
        y_part, x_part = y.numerator * x.denominator, x.numerator * y.denominator
        if y_part < x_part:
            # A parameter family realising (X, Y): car speed 1, walker speed
            # Y/(2X - Y) < 1 (one Fraction), distance X, beyond the meeting point.
            sim_walked, sim_saved = station_walk_simulate(
                distance=x, car_speed=1, walk_speed=Fraction(y_part, 2 * x_part - y_part),
                early_minutes=x
            )
            report.oracle = str(sim_walked)
            report.agreement = sim_walked == walked and sim_saved == y
        else:
            # saved >= early needs a walker at least as fast as the car,
            # outside the oracle's preconditions.
            report.explanation.append(
                "kinematic check skipped: it covers saved < early only "
                "(the car must be faster than the walker)"
            )
    return report


_REPORTS = {
    RateQuery: _solve_rate_report,
    WeighingInstance: _solve_weighing_report,
    PigeonholeInstance: _solve_pigeonhole_report,
    TransferInstance: _solve_transfer_report,
    StationInstance: _solve_station_report,
}


def _solve_one(spec: PuzzleSpec, label: str, args: argparse.Namespace) -> SolveReport:
    return _REPORTS[type(spec.payload)](label, spec.payload, args)


def _write_reports(reports: Iterable[SolveReport], fmt: str, handle: TextIO) -> None:
    if fmt == "json":
        # One report at a time, the bytes json.dump(..., indent=2) writes.
        separator = "[\n"
        for report in reports:
            handle.write(separator + report.to_json())
            separator = ",\n"
        handle.write("[]\n" if separator == "[\n" else "\n]\n")
        return
    for report in reports:
        handle.write(report.to_text() + "\n")


def _names_same_file(path: str, out: str) -> bool:
    """Whether writing ``out`` would overwrite the input ``path``: the same
    file, or, while ``out`` does not exist yet, the same resolved path."""
    if not os.path.exists(out):
        return os.path.realpath(path) == os.path.realpath(out)
    return os.path.isfile(out) and os.path.exists(path) and os.path.samefile(path, out)


def _read_source(path: str) -> str:
    """The text ``Path(path).read_text(encoding="utf-8-sig")`` gives, decoded in C.

    The BOM goes before decoding, so an error's position does not count it;
    a file that is only the start of a BOM reads as empty, as that codec
    reads it; and '\\r\\n' or a lone '\\r' becomes '\\n', as universal newlines do.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    bom = b"\xef\xbb\xbf"
    if data.startswith(bom) or bom.startswith(data):
        data = data[3:]
    text = data.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def cmd_solve(args: argparse.Namespace) -> int:
    """Solve every puzzle in the given files, writing each report as it is made."""
    _strategy.cache_clear()  # strategies are kept for one run only
    if args.out is not None:
        for path in args.paths:
            if _names_same_file(path, args.out):
                print(f"error: --out names the input file {path}", file=sys.stderr)
                return 1
    failed = disagreed = False

    def solved() -> Iterator[SolveReport]:
        nonlocal failed, disagreed
        for path in args.paths:
            try:
                text = _read_source(path)
            except (OSError, UnicodeDecodeError) as exc:
                print(f"error: {path}: {exc}", file=sys.stderr)
                failed = True
                continue
            try:
                specs = parse_puzzles(text)
            except ParseFailure as failure:
                for error in failure.errors:
                    print(f"{path}:{error}", file=sys.stderr)
                failed = True
                continue
            stem = Path(path).stem
            for index, spec in enumerate(specs, 1):
                label = spec.label or f"{stem}#{index}"
                try:
                    report = _solve_one(spec, label, args)
                except ValueError as exc:
                    # Only an exact value past int-to-str's digit limit is expected.
                    if "integer string conversion" not in str(exc):
                        raise
                    print(
                        f"error: {path}: {label}: exact value has more than "
                        f"{sys.get_int_max_str_digits()} digits, too long to print",
                        file=sys.stderr,
                    )
                    failed = True
                    continue
                disagreed = disagreed or report.agreement is False
                yield report

    # Opened before any input is read, so a bad path fails at once.
    with (
        contextlib.nullcontext(sys.stdout) if args.out is None
        else open(args.out, "w", encoding="utf-8", newline="\n")
    ) as handle:
        _write_reports(solved(), args.format, handle)
    return 1 if failed else 2 if disagreed else 0


# ----------------------------------------------------------------------
# Sweeps

def _sweep_weighing(max_objects: int) -> int:
    if max_objects < 1 or max_objects > WEIGHING_ORACLE_LIMIT:
        print(f"error: weighing sweep bound must be in [1, {WEIGHING_ORACLE_LIMIT}], "
              f"got {max_objects}", file=sys.stderr)
        return 2
    min_weighings_oracle(WeighingInstance(max_objects))  # one build; each row below is a lookup
    mismatched = 0
    first_mismatch = None
    for n in range(2, max_objects + 1):
        inst = WeighingInstance(n)
        formula = min_weighings_formula(inst)
        oracle = min_weighings_oracle(inst)
        if formula != oracle:
            mismatched += 1
            if first_mismatch is None:
                first_mismatch = f"first mismatch: N={n} formula={formula} oracle={oracle}"
    compared = max_objects - 1
    print(
        f"weighing sweep, N in [2, {max_objects}]: {compared} compared, "
        f"{compared - mismatched} matched, {mismatched} mismatched"
    )
    if first_mismatch is not None:
        print(first_mismatch)
        return 2
    return 0


def _sweep_transfer(max_n: int, max_d: int, out: str) -> int:
    if not (1 <= max_n <= TRANSFER_SWEEP_LIMIT) or not (1 <= max_d <= TRANSFER_SWEEP_LIMIT):
        print(f"error: transfer sweep bounds must be in [1, {TRANSFER_SWEEP_LIMIT}]",
              file=sys.stderr)
        return 2
    instances = matched = 0
    first_mismatch = None
    # Opened before the survey runs, so a bad path fails at once; rows are
    # written as they are made, so the report is never held in memory.
    with open(out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(SURVEY_HEADER)
        for row in transfer_formula_survey(max_n, max_d):
            handle.write(survey_line(*row))
            instances += 1
            _, enumerated, formula = row
            if enumerated == formula:
                matched += 1
            elif first_mismatch is None:
                first_mismatch = row
    print(
        f"transfer survey, n <= {max_n}, d <= {max_d}: {instances} instances, "
        f"{matched} matched, {instances - matched} mismatched (mismatches expected); "
        f"report written to {out}"
    )
    if first_mismatch is not None:
        # Every column but the match flag, each named by its header.
        named = zip(SURVEY_HEADER.split("\t")[:-1], survey_line(*first_mismatch).split("\t"))
        print("first mismatch: " + " ".join(f"{name}={value}" for name, value in named))
    return 0


# ----------------------------------------------------------------------
# argparse wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riddle-forge",
        description="Solve puzzle files and check the closed-form answers "
        "against oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve every puzzle in the given files")
    solve.add_argument("paths", nargs="+", metavar="FILE")
    solve.add_argument("--check", action="store_true",
                       help="also run the oracle for kinds that have one")
    solve.add_argument("--explain", action="store_true",
                       help="show the worked solution, formula instance included")
    solve.add_argument("--format", choices=("text", "json"), default="text")
    solve.add_argument("--ceil-subjects", action="store_true",
                       help="round fractional subject counts up to whole subjects")
    solve.add_argument("--out", help="write the report to a file instead of stdout")

    sweep = sub.add_parser("sweep", help="formula-vs-oracle verification sweeps")
    sweep_sub = sweep.add_subparsers(dest="sweep_kind", required=True)

    weighing = sweep_sub.add_parser("weighing")
    weighing.add_argument("--max", type=int, default=WEIGHING_ORACLE_LIMIT,
                          help=f"largest object count (default and cap: "
                          f"{WEIGHING_ORACLE_LIMIT})")

    transfer = sweep_sub.add_parser("transfer")
    transfer.add_argument("--max-n", type=int, default=4)
    transfer.add_argument("--max-d", type=int, default=4)
    transfer.add_argument("--out", default="transfer_survey.tsv")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args)
        if args.sweep_kind == "weighing":
            return _sweep_weighing(args.max)
        return _sweep_transfer(args.max_n, args.max_d, args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
