"""Golden CLI output: stdout, stderr and exit code, byte for byte.

The files under ``golden/`` were written by the CLI itself.  Each case runs
the CLI from that directory with a relative path, so the output names no
machine path.  To re-record after an intended change of output, run the
command of a case from ``tests/golden`` and redirect its output to the file.
The transfer survey is recorded the same way, with ``--out
transfer_survey.tsv`` for its report.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import riddle_forge.cli as cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# (argv after 'solve', golden stdout file or None, golden stderr file or None, exit)
CASES = [
    (["--check", "--explain", "--ceil-subjects", "all_kinds.speck"],
     "all_kinds.txt", None, 2),
    (["--check", "--explain", "--format", "json", "all_kinds.speck"],
     "all_kinds.json", None, 2),
    (["errors.speck"], None, "errors.stderr", 1),
    (["--check", "--explain", "strategies.speck"], "strategies.txt", None, 0),
    (["--check", "--explain", "--format", "json", "strategies.speck"],
     "strategies.json", None, 0),
]


def _golden(name):
    return b"" if name is None else (GOLDEN / name).read_bytes()


def _run(argv, cwd):
    package_root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "riddle_forge", *argv],
        cwd=cwd,
        capture_output=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.mark.parametrize("argv, stdout, stderr, code", CASES, ids=[c[1] or c[2] for c in CASES])
def test_cli_output_matches_golden(argv, stdout, stderr, code):
    done = _run(["solve", *argv], GOLDEN)
    assert done.stdout == _golden(stdout)
    assert done.stderr == _golden(stderr)
    assert done.returncode == code


def test_a_leading_byte_order_mark_is_dropped(tmp_path):
    argv, stdout, stderr, code = CASES[0]
    source = (GOLDEN / argv[-1]).read_bytes()
    (tmp_path / argv[-1]).write_bytes(b"\xef\xbb\xbf" + source)
    done = _run(["solve", *argv], tmp_path)
    assert done.stdout == _golden(stdout)
    assert done.stderr == _golden(stderr)
    assert done.returncode == code


def test_transfer_survey_matches_golden(tmp_path):
    report = "transfer_survey.tsv"
    done = _run(["sweep", "transfer", "--max-n", "3", "--max-d", "3", "--out", report], tmp_path)
    assert (tmp_path / report).read_bytes() == _golden(report)
    assert done.stdout == _golden("transfer_survey.txt")  # counts, then the first mismatch
    assert done.stderr == b""
    assert done.returncode == 0
