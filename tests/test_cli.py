"""CLI behaviour: reports, exit codes, JSON stability, sweeps."""

import argparse
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riddle_forge.cli as cli
import riddle_forge.speck as speck
from riddle_forge import (
    ParseFailure,
    PuzzleSpec,
    StationInstance,
    parse_puzzles,
    station_walk_simulate,
)
from riddle_forge.cli import main
from oracles import station_check_by_operators

CORPUS = resources.files("riddle_forge") / "corpus" / "classic_problems.speck"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MIXED_SOURCE = "\n".join(
    [
        "puzzle rate { work = 6; subjects = 6; time = 6 min; "
        "find subjects where work = 100, time = 50 min }",
        "puzzle weighing { objects = 5 }",
        "puzzle pigeonhole { counts = (a: 3, b: 3); required = 2 }",
        "puzzle transfer { container_a = (red: 2); container_b = (blue: 2); "
        "moved = 1; query = red }",
        "puzzle station { early = 60 min; saved = 10 min }",
    ]
) + "\n"


@pytest.fixture
def corpus_path(tmp_path):
    target = tmp_path / "classic_problems.speck"
    target.write_text(CORPUS.read_text(encoding="utf-8"), encoding="utf-8")
    return target


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli(*argv, timeout=60):
    # The child imports the same riddle_forge as this process, installed or not.
    package_root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "riddle_forge", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_solve_corpus_text(corpus_path, capsys):
    code, out, err = run_main(["solve", str(corpus_path)], capsys)
    assert code == 0
    assert err == ""
    answers = [line.split("answer = ")[1] for line in out.splitlines() if "answer" in line]
    assert answers == ["12", "80", "30", "3", "2", "2", "4", "13"]


def test_solve_corpus_json_is_byte_stable(corpus_path, capsys):
    argv = ["solve", str(corpus_path), "--format", "json", "--check", "--explain"]
    code1, out1, _ = run_main(argv, capsys)
    code2, out2, _ = run_main(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    reports = json.loads(out1)
    assert [r["answer"] for r in reports] == ["12", "80", "30", "3", "2", "2", "4", "13"]
    for report in reports:
        keys = list(report.keys())
        assert keys[:3] == ["label", "kind", "answer"]
        assert report["explanation"]  # nonempty in explain mode
        if report["kind"] == "rate":
            assert "oracle" not in report  # no oracle exists for rate
        else:
            assert report["agreement"] is True


def test_check_flag_never_changes_answers(corpus_path, capsys):
    _, plain, _ = run_main(["solve", str(corpus_path), "--format", "json"], capsys)
    _, checked, _ = run_main(
        ["solve", str(corpus_path), "--format", "json", "--check"], capsys
    )
    plain_reports = json.loads(plain)
    checked_reports = json.loads(checked)
    assert [r["answer"] for r in plain_reports] == [r["answer"] for r in checked_reports]
    assert all("agreement" not in r for r in plain_reports)


def test_solve_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.speck"
    empty.write_text("", encoding="utf-8")
    code, out, err = run_main(["solve", str(empty)], capsys)
    assert code == 0
    assert out == ""
    assert err == ""


@pytest.mark.parametrize(
    "source, expected_code",
    [("", 0), ("puzzle weighing { objects = -3 }\npuzzle frobnicate { }\n", 1)],
    ids=["empty-file", "every-block-fails"],
)
def test_solve_json_with_no_reports_is_an_empty_list(
    tmp_path, capsys, source, expected_code
):
    path = tmp_path / "none.speck"
    path.write_text(source, encoding="utf-8")
    code, out, _ = run_main(["solve", "--format", "json", str(path)], capsys)
    assert code == expected_code
    assert out == "[]\n"


_EOL_ERROR = "{path}:2:11: syntax: expected a value, found end of line\n"


@pytest.mark.parametrize(
    "raw, code, stdout, stderr",
    [
        # Newlines are universal: the '\r' is gone before the parser counts columns
        # (parse_puzzles, given the same text with its '\r's, puts this error at 2:12).
        (b"puzzle weighing {\r\n objects =\r\n}", 1, "[]\n", _EOL_ERROR),
        (b"puzzle weighing {\r objects =\r}", 1, "[]\n", _EOL_ERROR),
        (b"\xef\xbb\xbfpuzzle weighing {\r\n objects =\r\n}", 1, "[]\n", _EOL_ERROR),
        (
            b"puzzle weighing {\r\n objects = 3\r\n}\r\n", 0,
            '[\n  {\n    "label": "in#1",\n    "kind": "weighing",\n    "answer": "1"\n  }\n]\n',
            "",
        ),
        # The BOM is dropped before decoding, so an error's position does not count it.
        (
            b"\xef\xbb\xbfpuzzle weighing { objects = 3 }\n\xff\n", 1, "[]\n",
            "error: {path}: 'utf-8' codec can't decode byte 0xff in position 32: "
            "invalid start byte\n",
        ),
        # A file that is a BOM, or only the start of one, reads as empty.
        (b"\xef\xbb\xbf", 0, "[]\n", ""),
        (b"\xef", 0, "[]\n", ""),
        (b"\xef\xbb", 0, "[]\n", ""),
        (
            b"\xef\xbbx", 1, "[]\n",
            "error: {path}: 'utf-8' codec can't decode bytes in position 0-1: "
            "invalid continuation byte\n",
        ),
    ],
    ids=["crlf", "lone-cr", "bom-crlf", "crlf-solved", "bom-then-0xff", "bom-only",
         "bom-first-byte", "bom-first-two-bytes", "bom-broken-off"],
)
def test_solve_reads_bytes_as_utf_8_sig_with_universal_newlines(
    tmp_path, capsys, raw, code, stdout, stderr
):
    path = tmp_path / "in.speck"
    path.write_bytes(raw)
    assert run_main(["solve", "--format", "json", str(path)], capsys) == (
        code, stdout, stderr.format(path=path)
    )


_JSON_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)  # surrogates too
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_JSON_TEXT, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _report_and_dict(draw):
    """A SolveReport and the dict json.dump should write for it."""
    strategy = draw(st.none() | st.dictionaries(_JSON_TEXT, _JSON_VALUES, max_size=3))
    report = cli.SolveReport(
        label=draw(_JSON_TEXT),
        kind=draw(_JSON_TEXT),
        answer=draw(_JSON_TEXT),
        checked=draw(st.booleans()),
        oracle=draw(st.none() | _JSON_TEXT),
        agreement=draw(st.sampled_from([True, False, None])),
        explanation=draw(st.lists(_JSON_TEXT, max_size=3)),
        strategy=None if strategy is None else json.dumps(strategy, indent=2),
    )
    data = {"label": report.label, "kind": report.kind, "answer": report.answer}
    if report.checked:
        data["oracle"] = report.oracle
        data["agreement"] = report.agreement
    if report.explanation:
        data["explanation"] = report.explanation
    if strategy is not None:
        data["strategy"] = strategy
    return report, data


@settings(max_examples=300, deadline=None)
@given(st.lists(_report_and_dict(), max_size=4))
def test_json_reports_are_written_as_json_dump_writes_them(pairs):
    handle = io.StringIO()
    cli._write_reports([report for report, _ in pairs], "json", handle)
    assert handle.getvalue() == json.dumps([data for _, data in pairs], indent=2) + "\n"


def test_solve_records_keep_their_defaults():
    first, second = cli.SolveReport("a", "rate", "1"), cli.SolveReport("b", "rate", "2")
    first.explanation.append("line")
    assert second.explanation == [] and first.explanation is not second.explanation
    args = cli.build_parser().parse_args(["solve", "a.speck"])
    assert (args.check, args.explain, args.format, args.ceil_subjects, args.out) == (
        False, False, "text", False, None
    )


def _modules_after(statement):
    """The modules a fresh interpreter has loaded after running ``statement``."""
    package_root = str(Path(cli.__file__).resolve().parents[1])
    probe = subprocess.run(
        [sys.executable, "-c", f"{statement}; import sys; print(*sys.modules)"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": package_root},
        check=True,
    )
    return set(probe.stdout.split())


def test_cli_import_loads_no_class_generator():
    # Every CLI run pays for what the import loads; these two were half of it.
    added = _modules_after("import riddle_forge.cli") - _modules_after("pass")
    assert "riddle_forge.cli" in added
    assert {"dataclasses", "inspect"} & added == set()


def test_solve_loads_no_module():
    # The arguments are parsed first, as the benchmark's child does; then a solve of
    # every kind, checked and explained, must find everything it needs loaded.
    golden = Path(__file__).resolve().parent / "golden" / "all_kinds.speck"
    argv = ["solve", str(golden), "--check", "--explain", "--format", "json"]
    package_root = str(Path(cli.__file__).resolve().parents[1])
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys; import riddle_forge.cli as cli; argv = sys.argv[1:]; "
         "cli.build_parser().parse_args(argv); before = set(sys.modules); code = cli.main(argv); "
         "print(code, *sorted(set(sys.modules) - before), file=sys.stderr)", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert probe.stderr.split() == ["2"]


def test_solve_parse_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.speck"
    bad.write_text("puzzle weighing { objects = -3 }\n", encoding="utf-8")
    code, out, err = run_main(["solve", str(bad)], capsys)
    assert code == 1
    assert "negative_count" in err
    assert str(bad) in err


def test_solve_missing_file_exits_one(tmp_path, capsys):
    code, _, err = run_main(["solve", str(tmp_path / "nope.speck")], capsys)
    assert code == 1
    assert "nope.speck" in err


def test_transfer_disagreement_exits_two(tmp_path, capsys):
    source = (
        "puzzle transfer { container_a = (red: 1); container_b = (blue: 1); "
        "moved = 1; query = moved }\n"
    )
    path = tmp_path / "transfer.speck"
    path.write_text(source, encoding="utf-8")
    code, out, _ = run_main(["solve", str(path)], capsys)
    assert code == 0  # no oracle consulted without --check
    code, out, _ = run_main(["solve", str(path), "--format", "json", "--check"], capsys)
    assert code == 2
    (report,) = json.loads(out)
    assert report["answer"] == "1"  # 2n/(n+d) with n = d = 1
    assert report["oracle"] == "1/2"
    assert report["agreement"] is False


def test_a_failure_beats_a_disagreement(tmp_path, capsys):
    path = tmp_path / "transfer.speck"
    path.write_text(
        "puzzle transfer { container_a = (red: 1); container_b = (blue: 1); "
        "moved = 1; query = moved }\n",
        encoding="utf-8",
    )
    code, out, err = run_main(
        ["solve", str(tmp_path / "nope.speck"), str(path), "--check", "--format", "json"],
        capsys,
    )
    assert code == 1
    assert "nope.speck" in err
    (report,) = json.loads(out)
    assert report["agreement"] is False


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_reports_are_written_as_they_are_solved(fmt, tmp_path, monkeypatch):
    path = tmp_path / "mixed.speck"
    path.write_text(MIXED_SOURCE, encoding="utf-8")
    stdout = io.StringIO()
    monkeypatch.setattr(sys, "stdout", stdout)
    written, original = [], cli._solve_one

    def solve_one(*args):
        text = stdout.getvalue()
        if fmt == "json":
            written.append(text.count('"label"'))
        else:  # a report's first line is the only one not indented
            written.append(sum(not line[:1].isspace() for line in text.splitlines()))
        return original(*args)

    monkeypatch.setattr(cli, "_solve_one", solve_one)
    argv = ["solve", str(path), "--check", "--explain", "--format", fmt]
    assert main(argv) == 2  # the transfer formula disagrees with its oracle
    assert written == [0, 1, 2, 3, 4]


def test_station_check_agrees(tmp_path, capsys):
    path = tmp_path / "station.speck"
    path.write_text("puzzle station { early = 60 min; saved = 10 min }\n", "utf-8")
    code, out, _ = run_main(["solve", str(path), "--format", "json", "--check"], capsys)
    assert code == 0
    (report,) = json.loads(out)
    assert report["answer"] == "55"
    assert report["agreement"] is True


def test_station_check_agrees_when_saved_is_far_below_early(tmp_path, capsys):
    path = tmp_path / "station.speck"
    source = "puzzle station { early = 1 min; saved = 1/10000000000 min }\n"
    path.write_text(source, "utf-8")
    code, out, _ = run_main(["solve", str(path), "--format", "json", "--check"], capsys)
    assert code == 0
    (report,) = json.loads(out)
    assert report["answer"] == "19999999999/20000000000"
    assert report["oracle"] == report["answer"]
    assert report["agreement"] is True


def test_station_exact_check_catches_a_1e_9_scale_difference(tmp_path, capsys, monkeypatch):
    def half_walked(**params):
        walked, saved = station_walk_simulate(**params)
        return walked / 2, saved

    monkeypatch.setattr(cli, "station_walk_simulate", half_walked)
    path = tmp_path / "station.speck"
    source = "puzzle station { early = 1/1000000000 min; saved = 1/3000000000 min }\n"
    path.write_text(source, "utf-8")
    code, out, _ = run_main(["solve", str(path), "--format", "json", "--check"], capsys)
    assert code == 2
    (report,) = json.loads(out)
    assert report["agreement"] is False


def test_station_check_compares_saved_too(tmp_path, capsys, monkeypatch):
    def half_saved(**params):
        walked, saved = station_walk_simulate(**params)
        return walked, saved / 2

    monkeypatch.setattr(cli, "station_walk_simulate", half_saved)
    path = tmp_path / "station.speck"
    path.write_text("puzzle station { early = 60 min; saved = 10 min }\n", "utf-8")
    code, out, _ = run_main(["solve", str(path), "--format", "json", "--check"], capsys)
    assert code == 2
    (report,) = json.loads(out)
    assert report["oracle"] == report["answer"]
    assert report["agreement"] is False


def test_station_check_outside_simulation_regime(tmp_path, capsys):
    path = tmp_path / "station.speck"
    path.write_text("puzzle station { early = 10 min; saved = 15 min }\n", "utf-8")
    code, out, _ = run_main(
        ["solve", str(path), "--format", "json", "--check"], capsys
    )
    assert code == 0  # not a disagreement, just unverifiable kinematically
    (report,) = json.loads(out)
    assert report["answer"] == "5/2"
    assert report["oracle"] is None
    assert report["agreement"] is None
    assert report["explanation"] == [
        "kinematic check skipped: it covers saved < early only "
        "(the car must be faster than the walker)"
    ]


@pytest.mark.parametrize(
    "early, saved",
    [
        (str(10 ** 400), "1"),
        (f"1/{10 ** 400}", f"1/{3 * 10 ** 400}"),
        (f"1/{10 ** 320}", f"1/{3 * 10 ** 320}"),
        ("100000000000000000001", "100000000000000000000"),  # walker nearly as fast
        ("100000000000000000000", "1"),  # meeting point next to the station
    ],
    ids=["overflow", "underflow", "subnormal", "walker-speed", "meeting-point"],
)
def test_station_check_is_exact_beyond_float_range(tmp_path, capsys, early, saved):
    # Sizes no binary float can hold, or can tell apart from their neighbours.
    path = tmp_path / "station.speck"
    source = f"puzzle station {{ early = {early} min; saved = {saved} min }}\n"
    path.write_text(source, "utf-8")
    code, out, err = run_main(
        ["solve", str(path), "--format", "json", "--check", "--explain"], capsys
    )
    assert code == 0
    assert err == ""
    (report,) = json.loads(out)
    assert report["agreement"] is True
    assert report["oracle"] == report["answer"]


# Numerators and denominators small and near 10^30.
_station_part = st.one_of(st.integers(1, 1000), st.integers(10**30 - 1000, 10**30 + 1000))


@given(
    early=st.builds(Fraction, _station_part, _station_part),
    share=st.one_of(
        st.just(Fraction(1)),  # saved = early: unverifiable
        st.just(Fraction(2)),  # saved = 2 * early: met at the station door
        st.builds(Fraction, _station_part, _station_part).filter(lambda share: share < 2),
    ),
)
def test_station_report_matches_the_operator_by_operator_reference(early, share):
    saved = early * share
    args = argparse.Namespace(check=True, explain=True)
    report = cli._solve_station_report("x", StationInstance(early, saved), args)
    assert (report.answer, report.oracle, report.agreement) == station_check_by_operators(
        early, saved
    )


def test_unverifiable_check_reads_n_a_in_text(tmp_path, capsys):
    path = tmp_path / "unverifiable.speck"
    path.write_text(
        "puzzle weighing { objects = 531442 }\n"
        "puzzle station { early = 10 min; saved = 15 min }\n",
        "utf-8",
    )
    code, out, _ = run_main(["solve", str(path), "--check"], capsys)
    assert code == 0
    assert "None" not in out
    assert out.count("  oracle = n/a  (agreement: n/a)\n") == 2


def test_ceil_subjects_flag(tmp_path, capsys):
    source = (
        "puzzle rate { work = 5; subjects = 2; time = 7 min; "
        "find subjects where work = 3, time = 2 min }\n"
    )
    path = tmp_path / "rate.speck"
    path.write_text(source, encoding="utf-8")
    _, exact, _ = run_main(["solve", str(path), "--format", "json"], capsys)
    assert json.loads(exact)[0]["answer"] == "21/5"
    _, ceiled, _ = run_main(
        ["solve", str(path), "--format", "json", "--ceil-subjects"], capsys
    )
    assert json.loads(ceiled)[0]["answer"] == "5"


def test_explain_mode_includes_strategy_tree(tmp_path, capsys):
    path = tmp_path / "nine.speck"
    path.write_text("puzzle weighing { objects = 9 }\n", encoding="utf-8")
    code, out, _ = run_main(["solve", str(path), "--explain"], capsys)
    assert code == 0
    assert "3^1 < 9 <= 3^2" in out
    assert "weigh [0 1 2] vs [3 4 5]" in out
    code, out, _ = run_main(
        ["solve", str(path), "--explain", "--format", "json"], capsys
    )
    (report,) = json.loads(out)
    assert report["strategy"]["left"] == [0, 1, 2]
    assert report["strategy"]["on_balance"]["suspects"] == [6, 7, 8]


def test_each_strategy_size_is_built_once_per_solve_run(tmp_path, capsys, monkeypatch):
    path = tmp_path / "sizes.speck"
    path.write_text("puzzle weighing { objects = 9 }\npuzzle weighing { objects = 4 }\n" * 2,
                    encoding="utf-8")
    built = []
    build = cli.build_strategy
    monkeypatch.setattr(
        cli, "build_strategy", lambda inst: built.append(inst.n_objects) or build(inst)
    )
    argv = ["solve", str(path), "--explain", "--format", "json"]
    _, out, _ = run_main(argv, capsys)
    assert built == [9, 4]
    reports = json.loads(out)
    for report in reports:
        del report["label"]
    assert reports[:2] == reports[2:]
    assert reports[0]["strategy"]["left"] == [0, 1, 2]
    run_main(argv, capsys)
    assert built == [9, 4, 9, 4]  # kept for one run only


def test_out_writes_lf_file(tmp_path, corpus_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_main(
        ["solve", str(corpus_path), "--format", "json", "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    raw = target.read_bytes()
    assert b"\r" not in raw
    assert json.loads(raw.decode("utf-8"))[0]["answer"] == "12"


def test_sweep_weighing(capsys):
    code, out, _ = run_main(["sweep", "weighing", "--max", "200"], capsys)
    assert code == 0
    assert "199 compared, 199 matched, 0 mismatched" in out


def test_sweep_weighing_trivial_bound(capsys):
    code, out, _ = run_main(["sweep", "weighing", "--max", "1"], capsys)
    assert code == 0
    assert "0 compared" in out


def test_sweep_weighing_rejects_out_of_bounds(capsys):
    limit = cli.WEIGHING_ORACLE_LIMIT
    for bound in (0, limit + 1):
        code, out, err = run_main(["sweep", "weighing", "--max", str(bound)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: weighing sweep bound must be in [1, {limit}], got {bound}\n"


def test_sweep_weighing_reports_a_mismatch(monkeypatch, capsys):
    # The formula off by one at a single N: the sweep counts it, names it and fails.
    formula = cli.min_weighings_formula
    monkeypatch.setattr(
        cli, "min_weighings_formula",
        lambda inst: formula(inst) + (inst.n_objects == 100),
    )
    code, out, err = run_main(["sweep", "weighing", "--max", "200"], capsys)
    assert (code, err) == (2, "")
    assert out == (
        "weighing sweep, N in [2, 200]: 199 compared, 198 matched, 1 mismatched\n"
        "first mismatch: N=100 formula=6 oracle=5\n"
    )


def test_sweep_weighing_past_the_old_cap(capsys):
    code, out, _ = run_main(["sweep", "weighing", "--max", "59049"], capsys)
    assert code == 0
    assert "59048 compared, 59048 matched, 0 mismatched" in out


def test_sweep_pigeonhole_is_not_a_command(capsys):
    with pytest.raises(SystemExit) as info:
        main(["sweep", "pigeonhole"])
    assert info.value.code == 2
    assert "invalid choice: 'pigeonhole'" in capsys.readouterr().err


def test_sweep_transfer_writes_report(tmp_path, capsys):
    target = tmp_path / "survey.tsv"
    code, out, _ = run_main(
        ["sweep", "transfer", "--max-n", "2", "--max-d", "2", "--out", str(target)],
        capsys,
    )
    assert code == 0  # mismatches expected, still success
    assert "mismatches expected" in out
    lines = target.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "n\td\tsame\tmoved\tquery\tenumerated\tformula\tmatch"
    assert len(lines) == 1 + 30  # sum over n<=2 of 2n times sum over d<=2 of d+1


def test_sweep_transfer_bounds(tmp_path, capsys):
    target = tmp_path / "survey.tsv"
    code, _, _ = run_main(
        ["sweep", "transfer", "--max-n", "9", "--max-d", "1", "--out", str(target)],
        capsys,
    )
    assert code == 0
    assert len(target.read_text(encoding="utf-8").splitlines()) == 1 + 180
    for bounds in (["--max-n", "25"], ["--max-d", "0"]):
        code, out, err = run_main(["sweep", "transfer", *bounds], capsys)
        assert (code, out) == (2, "")
        assert err == "error: transfer sweep bounds must be in [1, 24]\n"


@pytest.mark.parametrize(
    "command, target",
    [
        (["solve", str(CORPUS)], "missing/x.json"),
        (["solve", str(CORPUS)], ""),  # the directory itself
        (["sweep", "transfer"], "missing/t.tsv"),
    ],
)
def test_unwritable_out_is_an_error_line(command, target, tmp_path, capsys):
    out_path = tmp_path / target
    code, _, err = run_main([*command, "--out", str(out_path)], capsys)
    assert code == 1
    assert err.startswith("error: ") and str(out_path) in err


def test_unwritable_out_is_reported_before_any_input_is_read(tmp_path, capsys):
    bad = tmp_path / "bad.speck"
    bad.write_text("puzzle weighing { objects = -3 }\n", encoding="utf-8")
    out_path = tmp_path / "missing" / "x.json"
    code, out, err = run_main(["solve", str(bad), "--out", str(out_path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and str(out_path) in err
    assert err.count("\n") == 1  # no parse error: the input was never read


def _second_spelling(path):
    return path.parent / ".." / path.parent.name / path.name


def _symlink_to(path):
    link = path.parent / "link.speck"
    link.symlink_to(path)
    return link


def _input_not_yet_made(path):
    return _second_spelling(path.parent / "nope.speck")


@pytest.mark.parametrize(
    "spell", [lambda path: path, _second_spelling, _symlink_to, _input_not_yet_made],
    ids=["same-path", "second-spelling", "symlink", "input-not-yet-made"],
)
def test_out_naming_an_input_is_refused(spell, tmp_path, corpus_path, capsys):
    before = corpus_path.read_bytes()
    out_path = spell(corpus_path)
    absent = tmp_path / "nope.speck"
    named = corpus_path if out_path.exists() else absent
    code, out, err = run_main(
        ["solve", str(absent), str(corpus_path), "--out", str(out_path)], capsys
    )
    assert code == 1
    assert out == ""
    assert err == f"error: --out names the input file {named}\n"
    assert corpus_path.read_bytes() == before
    assert not absent.exists()  # refused before --out is opened


def test_unwritable_survey_out_fails_before_the_survey_runs(tmp_path):
    # The survey at the cap takes seconds; the bad path is reported first.
    out_path = tmp_path / "missing" / "t.tsv"
    result = run_cli(
        "sweep", "transfer", "--max-n", "24", "--max-d", "24", "--out", str(out_path),
        timeout=2,
    )
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and str(out_path) in result.stderr
    assert result.stdout == ""


def test_every_parsed_kind_has_a_report():
    """A kind in one dispatch table but not the other fails here, not at solve time."""
    table = speck._PAYLOAD_TYPES
    assert set(cli._REPORTS) == set(table.values())
    assert {payload_type.puzzle_kind: payload_type for payload_type in table.values()} == table
    payloads = [spec.payload for spec in parse_puzzles(MIXED_SOURCE)]
    assert {PuzzleSpec(payload).kind: type(payload) for payload in payloads} == table


def test_explain_is_nonempty_for_every_kind(tmp_path, capsys):
    path = tmp_path / "mixed.speck"
    path.write_text(MIXED_SOURCE, encoding="utf-8")
    _, out, _ = run_main(
        ["solve", str(path), "--explain", "--check", "--format", "json"], capsys
    )
    reports = json.loads(out)
    assert [r["kind"] for r in reports] == [
        "rate", "weighing", "pigeonhole", "transfer", "station",
    ]
    assert all(r["explanation"] for r in reports)


def test_module_entry_point(corpus_path):
    result = run_cli("solve", str(corpus_path))
    assert result.returncode == 0
    assert "tailor_buttons [pigeonhole] answer = 13" in result.stdout


NINES_3000 = b"9" * 3000
SEVENS, THREES = b"7" * 2500, b"3" * 2500
# An exact answer with more digits than int-to-str conversion allows.
TOO_LONG = "bad.speck: bad#1: exact value has more than 4300 digits, too long to print\n"


@pytest.mark.parametrize(
    "content, diagnostic",
    [
        (b"\xff\n", "can't decode byte 0xff"),
        ("puzzle weighing { objects = \u00b2 }\n".encode("utf-8"), "syntax"),
        (b"puzzle weighing { objects = " + b"7" * 5000 + b" }\n", "syntax"),
        (
            b"puzzle rate { work = " + NINES_3000 + b"; subjects = 1; time = 1 min; "
            b"find work where subjects = " + NINES_3000 + b", time = 1 min }\n",
            TOO_LONG,
        ),
        (
            b"puzzle pigeonhole { counts = ("
            + b", ".join(b"c%d: 1" % i for i in range(11))
            + b"); required = " + b"9" * 4299 + b" }\n",
            TOO_LONG,
        ),
        (
            b"puzzle station { early = " + SEVENS + b"/" + THREES + b"1 min; saved = "
            + SEVENS + b"/" + THREES + b"7 min }\n",
            TOO_LONG,
        ),
    ],
    ids=[
        "not-utf8", "superscript-digit", "5000-digit-literal",
        "huge-rate-answer", "huge-pigeonhole-answer", "huge-station-answer",
    ],
)
def test_bad_file_is_reported_next_to_a_good_one(
    tmp_path, corpus_path, content, diagnostic
):
    bad = tmp_path / "bad.speck"
    bad.write_bytes(content)
    result = run_cli("solve", str(bad), str(corpus_path))
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert str(bad) in result.stderr
    assert diagnostic in result.stderr
    assert "tailor_buttons [pigeonhole] answer = 13" in result.stdout


def test_benchmark_tracer_leaves_output_unchanged(tmp_path, capsys, monkeypatch):
    """The benchmark's traced mode rebinds solver names in the cli module."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import LAYER_OF, Tracer

    path = tmp_path / "mixed.speck"
    path.write_text(MIXED_SOURCE, encoding="utf-8")
    argv = ["solve", str(path), "--check", "--explain", "--format", "json",
            "--ceil-subjects"]
    _, plain, _ = run_main(argv, capsys)

    for span_name in LAYER_OF:
        module, _, attr = span_name.partition(".")
        if module != "cli":
            monkeypatch.setattr(cli, attr, getattr(cli, attr))  # restored afterwards
    tracer = Tracer(0)
    tracer.install(cli)
    tracer.main(argv)
    assert capsys.readouterr().out == plain
    assert set(tracer.summary()["layers"]) == set(LAYER_OF.values())
    # Every rebound name is called, not only one per layer: cli must still call
    # rate_constant next to solve_rate, for one.
    assert {span[3] for span in tracer.spans if span is not None} == set(LAYER_OF)


def test_many_color_transfer_is_checked_next_to_the_corpus(tmp_path, corpus_path):
    colors = ", ".join(f"c{i}: 1" for i in range(1500))
    path = tmp_path / "colors.speck"
    path.write_text(
        f"puzzle transfer {{ label = many_colors; container_a = ({colors}); "
        "container_b = (blue: 1); moved = 2; query = c0 }\n",
        encoding="utf-8",
    )
    result = run_cli("solve", "--check", str(path), str(corpus_path))
    assert result.returncode == 2  # the folklore formula disagrees
    assert "Traceback" not in result.stderr
    assert "many_colors [transfer] answer = 3000/1501" in result.stdout
    assert "oracle = 1/2250  (agreement: NO)" in result.stdout
    assert "tailor_buttons [pigeonhole] answer = 13" in result.stdout


@pytest.mark.parametrize(
    "container_a, container_b, moved, oracle",
    [
        ("red: 20000", "blue: 3", 10000, "10000/10003"),
        ("red: 1000000, blue: 1000000", "green: 1", 1000000, "500000/1000001"),
    ],
    ids=["twenty-thousand-reds", "million-each"],
)
def test_transfer_oracle_is_bounded(tmp_path, container_a, container_b, moved, oracle):
    # A sum over every split of these moves takes minutes or never ends.
    path = tmp_path / "transfer.speck"
    path.write_text(
        f"puzzle transfer {{ container_a = ({container_a}); "
        f"container_b = ({container_b}); moved = {moved}; query = red }}\n",
        encoding="utf-8",
    )
    result = run_cli("solve", "--check", "--format", "json", str(path), timeout=10)
    assert result.returncode == 2  # the folklore formula disagrees
    (report,) = json.loads(result.stdout)
    assert report["oracle"] == oracle


def test_weighing_over_the_oracle_budget_is_unverifiable(tmp_path, capsys, monkeypatch):
    def no_oracle(inst):
        raise AssertionError("the minimax table was built past its budget")

    monkeypatch.setattr(cli, "min_weighings_oracle", no_oracle)
    objects = cli.WEIGHING_ORACLE_LIMIT + 1
    path = tmp_path / "big.speck"
    path.write_text(f"puzzle weighing {{ objects = {objects} }}\n", encoding="utf-8")
    code, out, err = run_main(["solve", "--check", "--format", "json", str(path)], capsys)
    assert code == 0
    assert err == ""
    (report,) = json.loads(out)
    assert report["answer"] == "13"
    assert report["oracle"] is None
    assert report["agreement"] is None
    assert report["explanation"] == [
        f"minimax check skipped: {objects} objects is over the oracle's budget "
        f"of {cli.WEIGHING_ORACLE_LIMIT}"
    ]


def test_large_weighing_is_checked_next_to_the_corpus(tmp_path, corpus_path):
    path = tmp_path / "large.speck"
    path.write_text("puzzle weighing { objects = 200000 }\n", encoding="utf-8")
    result = run_cli("solve", "--check", str(path), str(corpus_path), timeout=30)
    assert result.returncode == 0
    assert "large#1 [weighing] answer = 12" in result.stdout
    assert "oracle = 12  (agreement: yes)" in result.stdout
    assert "tailor_buttons [pigeonhole] answer = 13" in result.stdout


def test_explain_builds_only_the_stall_draws_it_shows(tmp_path, capsys, monkeypatch):
    built, original = [], cli.adversarial_sequence

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        built.append(len(result))
        return result

    monkeypatch.setattr(cli, "adversarial_sequence", recording)
    path = tmp_path / "stall.speck"
    path.write_text(
        "puzzle pigeonhole { counts = (a: 100, b: 100, c: 100); required = 100 }\n",
        encoding="utf-8",
    )
    code, out, _ = run_main(
        ["solve", "--check", "--explain", "--format", "json", str(path)], capsys
    )
    assert code == 0
    (report,) = json.loads(out)
    shown = ", ".join(["a", "b", "c"] * 10)
    assert report["explanation"][-1] == f"longest stall (297 draws): {shown}, ..."
    assert built == [30]


def test_explain_shows_a_huge_stall_at_once(tmp_path):
    path = tmp_path / "huge.speck"
    path.write_text(
        "puzzle pigeonhole { counts = (a: 100000000, b: 100000000); "
        "required = 100000000 }\n",
        encoding="utf-8",
    )
    result = run_cli("solve", "--check", "--explain", str(path), timeout=20)
    assert result.returncode == 0
    assert "longest stall (199999998 draws): a, b, a, b," in result.stdout


_CORPUS_SOURCES = [CORPUS.read_text(encoding="utf-8"), MIXED_SOURCE]
_MUTATION_CHARS = "0123456789/(){};:=,-# \n\r\tabcmpquz"


# The value of one `key = value` statement or where-clause entry.
_VALUE_RE = re.compile(r"= *(\([^()]*\)|[^;,(){}=#\n]+?) *(?=[;,}\n])")
_COLOR_LIST_RE = re.compile(r"\(([^()]*)\)")  # a color list's items


def _mutate(rng):
    """A corpus source with two of its values swapped, a color list edited,
    characters edited, or more than one of these."""
    text = rng.choice(_CORPUS_SOURCES)
    # Swapping two values puts a well-formed value of the wrong type on a key.
    swapped = rng.random() < 0.5
    if swapped:
        spans = [match.span(1) for match in _VALUE_RE.finditer(text)]
        (a, b), (c, d) = sorted(rng.sample(spans, 2))
        text = text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
    # Emptying a color list, repeating one of its items or negating one of its
    # counts breaks a rule the constructors own, in well-formed text.
    edited = rng.random() < 0.2
    if edited:
        a, b = rng.choice([match.span(1) for match in _COLOR_LIST_RE.finditer(text)])
        items = text[a:b].split(",")
        at, edit = rng.randrange(len(items)), rng.randrange(3)
        if edit == 0:
            items = []
        elif edit == 1:
            items.append(items[at])
        else:
            items[at] = items[at].replace(": ", ": -", 1)
        text = text[:a] + ",".join(items) + text[b:]
    for _ in range(rng.randint(0 if swapped or edited else 1, 6)):
        at, cut = rng.randint(0, len(text)), rng.randint(0, 3)
        inserted = "".join(_mutation_char(rng) for _ in range(rng.randint(0, 4)))
        text = text[:at] + inserted + text[at + cut:]
    return text


def _mutation_char(rng):
    # Half the DSL's own characters; the rest as `st.characters()` draws them:
    # mostly the first 256 code points (letters, quotes, '.', '_'), else any.
    if rng.random() < 0.5:
        return rng.choice(_MUTATION_CHARS)
    return chr(rng.randrange(256) if rng.random() < 0.8 else rng.randrange(0x110000))


def _mutated_corpus():
    return st.randoms(use_true_random=False).map(_mutate)


_HUGE = st.integers(1, 10**12)
_COLORS = ("red", "blue", "green")


@st.composite
def _large_blocks(draw):
    """Well-formed blocks of all five kinds, literals up to 10^12."""

    def number():
        value = draw(_HUGE)
        return f"{value}/{draw(_HUGE)}" if draw(st.booleans()) else str(value)

    def colorlist(min_size):
        colors = draw(st.lists(st.sampled_from(_COLORS), min_size=min_size, unique=True))
        counts = [draw(st.integers(0, 10**12)) for _ in colors]
        return ", ".join(map("{}: {}".format, colors, counts)), sum(counts)

    blocks = []
    kinds = ("rate", "weighing", "pigeonhole", "transfer", "station")
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=5)):
        if kind == "rate":
            target = draw(st.sampled_from(("work", "subjects", "time")))
            others = [key for key in ("work", "subjects", "time") if key != target]
            given = ", ".join(f"{key} = {number()}" for key in others)
            body = (
                f"work = {number()}; subjects = {number()}; time = {number()} min; "
                f"find {target} where {given}"
            )
        elif kind == "weighing":
            # Both sides of the minimax oracle's budget of 3^12 objects.
            objects = draw(st.integers(1, 3**12) | st.integers(3**12 + 1, 10**12))
            body = f"objects = {objects}"
        elif kind == "pigeonhole":
            counts, _ = colorlist(1)
            body = f"counts = ({counts}); required = {draw(_HUGE)}"
        elif kind == "transfer":
            container_a, total_a = colorlist(1)
            container_b, _ = colorlist(0)
            moved = draw(st.integers(1, max(total_a, 1)))
            query = draw(st.sampled_from(("moved", *_COLORS, "gray")))
            body = (
                f"container_a = ({container_a}); container_b = ({container_b}); "
                f"moved = {moved}; query = {query}"
            )
        else:
            early, scale = draw(_HUGE), draw(_HUGE)
            saved = draw(st.integers(1, min(2 * early, 10**12)))
            body = f"early = {early}/{scale} min; saved = {saved}/{scale} min"
        blocks.append(f"puzzle {kind} {{ {body} }}\n")
    return "".join(blocks)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), _mutated_corpus(), _large_blocks()))
def test_solve_never_raises_on_any_source(source):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "fuzz.speck"
        # A lone surrogate becomes bytes that are not UTF-8.
        path.write_bytes(source.encode("utf-8", "surrogatepass"))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["solve", "--check", "--explain", "--format", "json", str(path)])
    assert code in (0, 1, 2)
    assert isinstance(json.loads(out.getvalue()), list)


def _found_text(message):
    """<X> when the message ends in "found '<X>'", else None."""
    _, found, tail = message.rpartition("found '")
    return tail[:-1] if found and tail.endswith("'") else None


def _source_at(source, span):
    line = source.split("\n")[span.line - 1]  # the parser's lines end at '\n' only
    return line[span.column - 1:span.column - 1 + span.length]


@settings(max_examples=300, deadline=None)
@given(_mutated_corpus())
def test_found_text_is_the_source_text_at_the_span(source):
    try:
        parse_puzzles(source)
    except ParseFailure as failure:
        for error in failure.errors:
            found = _found_text(error.message)
            if found is not None:
                assert _source_at(source, error.span) == found, str(error)


# Each message a fixed batch of mutated sources reaches, with what it quotes
# and its digits blanked.  The value swaps alone reach the type mismatches
# that name a color list, "counts objects; time unit" and "must not exceed";
# the color-list edits reach the three color rules.
_REACHED_TEMPLATES = [
    "expected '', found ''",
    "expected '', found end of line",
    "expected '', found end of input",
    "expected a statement, found ''",
    "expected a value, found ''",
    "expected a value, found end of line",
    "expected a puzzle kind, found ''",
    "expected a puzzle kind, found end of line",
    "expected a count, found ''",
    "expected a color name, found ''",
    "expected a key, found ''",
    "expected a field to find, found ''",
    "expected a field to find, found end of line",
    "expected a denominator, found ''",
    "unterminated block: expected ''",
    "unknown puzzle kind ''; expected one of rate, weighing, pigeonhole, transfer, station",
    "unknown time unit '' for key ''; expected '' or ''",
    "key '' expects a word, found a number",
    "key '' expects a word, found a color list",
    "key '' expects a number, found the word ''",
    "key '' expects a number, found a color list",
    "key '' expects an integer, found the word ''",
    "key '' expects an integer, found a color list",
    "key '' expects a color list like (blue: 0, red: 0), found a number",
    "key '' expects a color list like (blue: 0, red: 0), found the word ''",
    "key '' counts objects; time unit '' is not allowed here",
    "key '' must be strictly positive, got 0",
    "color counts must be integers",
    "rate puzzle is missing key ''",
    "weighing puzzle is missing key ''",
    "pigeonhole puzzle is missing key ''",
    "transfer puzzle is missing key ''",
    "station puzzle is missing key ''",
    "unexpected key '' in a rate puzzle",
    "unexpected key '' in a weighing puzzle",
    "unexpected key '' in a pigeonhole puzzle",
    "unexpected key '' in a transfer puzzle",
    "unexpected key '' in a station puzzle",
    "rate puzzle needs a '' clause",
    "find target must be one of work, subjects, time; got ''",
    "where-clause is missing key ''",
    "unexpected key '' in where-clause; expected time and work",
    "key '' must not exceed the 0 objects in container_a, got 0",
    "key '' needs at least one color",
    "key '' names color '' twice",
    "key '' needs a whole count >= 0 for color '', got -0",
    "key '' cannot exceed twice early_minutes; the meeting scenario would be inconsistent",
]


def test_mutated_sources_reach_each_listed_message():
    # A seeded batch, the same on every run: a changed or lost message shows here.
    rng = random.Random(1)
    reached = set()
    for _ in range(2000):
        try:
            parse_puzzles(_mutate(rng))
        except ParseFailure as failure:
            for error in failure.errors:
                reached.add(re.sub(r"[0-9]+", "0", re.sub(r"'[^']*'", "''", error.message)))
    assert [template for template in _REACHED_TEMPLATES if template not in reached] == []


@pytest.mark.parametrize(
    "source, message, text",
    [
        ("puzzle weighing { # the scale\n objects = @ }", "expected a value, found '@'", "@"),
        ("puzzle weighing {\r\n\tobjects = 3 ?\r\n}", "expected a statement, found '?'", "?"),
        (
            "puzzle pigeonhole { counts = (a: " + "9" * 5000 + "); required = 2 }",
            "expected a count, found an integer literal too long to read (5000 characters)",
            "9" * 5000,
        ),
        ("puzzle weighing { objects =", "expected a value, found end of input", ""),
    ],
    ids=["after-comment", "after-crlf", "huge-literal", "end-of-input"],
)
def test_error_span_covers_the_token_it_names(source, message, text):
    with pytest.raises(ParseFailure) as info:
        parse_puzzles(source)
    (error,) = info.value.errors
    assert error.message == message
    assert _source_at(source, error.span) == text
    if not text:
        assert (error.span.line, error.span.column) == (1, len(source) + 1)
