"""Benchmark of the riddle-forge CLI: seeded workloads, a fresh process per call.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark generates the workload's `.speck` inputs from the seed, runs
the real CLI once per invocation in a fresh interpreter (one child at a
time), checks every output against `reference.py`, and prints each metric
with its unit.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; with `--trace 0` the
metrics are the end-to-end ones, with `--trace 1` the per-layer ones from
a traced run.  Details of every sample go to `perfbench/work/`.
See perfbench/README.md for the metrics, the workloads and why they were
chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import calibrate
import gen
import reference as ref

ROOT = Path(__file__).resolve().parent.parent
WORK = Path("perfbench", "work")  # relative to ROOT, the children's cwd
CHILD = "perfbench/child.py"
CALIBRATE = "perfbench/calibrate.py"
# Pinned child environment: the package from source, a fixed hash seed,
# and RIDDLE_FORGE_THREADS left unset so its default of 1 holds.
CHILD_ENV = {
    "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
    "PYTHONPATH": "src",
    "PYTHONHASHSEED": "0",
    "LC_ALL": "C.UTF-8",
}

BULK_BLOCKS = 20_000
MIN_SAMPLES = 3
# Set-up-only children (import and parse argv, then exit) after each round,
# for this share of the previous sample's time: a long sample has one child
# per invocation, too few for a steady median of set-up times.
SETUP_SHARE = 0.15
# Calibration children run before the first round and after each round, for
# this share of the previous sample's time, at least one (see calibrate.py).
CALIBRATION_SHARE = 0.3
INVOCATION_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0  # stop starting children after this; exit well before 180 s
CRASH = "Traceback (most recent call last)"

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdict_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
PER_LAYER_UNITS = {
    "speck.parse_s": "s",
    "speck.parse_calls": "count",
    "speck.bytes_per_s": "B/s",
    "speck.blocks_per_s": "1/s",
    "rate.solve_s": "s",
    "rate.calls": "count",
    "weighing.formula_s": "s",
    "weighing.formula_calls": "count",
    "weighing.oracle_s": "s",
    "weighing.oracle_calls": "count",
    "weighing.strategy_s": "s",
    "pigeonhole.formula_s": "s",
    "pigeonhole.oracle_s": "s",
    "pigeonhole.oracle_calls": "count",
    "pigeonhole.infeasible": "count",
    "pigeonhole.stall_s": "s",
    "pigeonhole.stall_draws": "count",
    "classics.transfer_formula_s": "s",
    "classics.transfer_oracle_s": "s",
    "classics.transfer_oracle_calls": "count",
    "classics.station_sim_s": "s",
    "classics.station_sim_calls": "count",
    "cli.self_s": "s",
    "cli.stdout_bytes": "B",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


@dataclass
class Invocation:
    """One CLI call of a sample and how to check what it printed."""

    argv: list[str]
    items: int
    check: Callable[[str, str, int], list[str]]  # (stdout, stderr, exit) -> outcomes
    # The last (stdout, stderr, exit) checked and its outcomes: a sample that
    # prints exactly the same is not parsed and checked again.
    checked: tuple = ()

    def outcomes(self, child: "Child") -> list[str]:
        if child.timed_out or CRASH in child.stderr:
            return [ref.WRONG] * self.items
        printed = (child.stdout, child.stderr, child.exit_code)
        if not self.checked or self.checked[0] != printed:
            self.checked = (printed, self.check(*printed))
        return self.checked[1]


@dataclass
class Workload:
    invocations: list[Invocation]
    inputs: dict  # what was generated, for the report


def _write(name: str, data: str | bytes) -> str:
    path = WORK / name
    path.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    return str(path)


def _describe(files: dict[str, gen.SpeckFile]) -> dict:
    return {
        name: {"bytes": f.n_bytes, "blocks": len(f.blocks), "kinds": f.kind_counts()}
        for name, f in files.items()
    }


def _solve_json(source: gen.SpeckFile, name: str) -> Workload:
    path = _write(f"{name}.speck", source.text)

    def check(out: str, err: str, code: int) -> list[str]:
        return ref.check_solve_json(out, source.blocks, name, code, check=True, explain=True)

    argv = ["solve", "--check", "--explain", "--format", "json", path]
    return Workload([Invocation(argv, len(source.blocks), check)], _describe({path: source}))


def solve_bulk(rng: random.Random) -> Workload:
    return _solve_json(gen.bulk_file(rng, BULK_BLOCKS), "bulk")


def solve_hard(rng: random.Random) -> Workload:
    return _solve_json(gen.hard_file(rng), "hard")


WORKLOADS = {
    "solve_bulk": solve_bulk,
    "solve_hard": solve_hard,
}


@dataclass
class Child:
    setup_s: float | None
    verdict_s: float
    rss_kib: int
    exit_code: int
    timed_out: bool
    stdout_bytes: int
    stdout: str
    stderr: str
    record: dict


def spawn(mode: str, argv: list[str], timeout: float, sample: int, trace_path: str) -> Child:
    """Run child.py in a fresh interpreter and reap it with wait4."""
    out, err, record_path = WORK / "stdout", WORK / "stderr", WORK / "record.json"
    record_path.unlink(missing_ok=True)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644),
    ]
    args = [sys.executable, CHILD, str(record_path), mode, trace_path, str(sample), "--", *argv]
    started = time.monotonic()
    pid = os.posix_spawn(sys.executable, args, CHILD_ENV, file_actions=actions)
    timed_out = False
    while True:
        reaped, status, usage = os.wait4(pid, os.WNOHANG)
        if reaped:
            break
        if time.monotonic() - started > timeout:
            os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            timed_out = True
            break
        time.sleep(0.005)
    wall = time.monotonic() - started
    record = json.loads(record_path.read_text()) if record_path.is_file() else {}
    parsed = record.get("parsed")
    return Child(
        setup_s=None if parsed is None else parsed - started,
        verdict_s=record.get("verdict_s", wall),
        rss_kib=usage.ru_maxrss,
        exit_code=os.waitstatus_to_exitcode(status),
        timed_out=timed_out,
        stdout_bytes=out.stat().st_size,
        stdout=out.read_bytes().decode("utf-8", "replace"),
        stderr=err.read_bytes().decode("utf-8", "replace"),
        record=record,
    )


def run_sample(workload: Workload, traced: bool, sample: int, deadline: float,
               trace_path: str) -> dict:
    """All invocations of the workload once; times summed, RSS maxed.

    An invocation that times out, is skipped at the deadline, or ends in a
    traceback fails all of its items as wrong.
    """
    result = {
        "traced": traced, "verdict_s": 0.0, "rss_kib": 0, "setups": [],
        "outcomes": {ref.OK: 0, ref.WRONG: 0},
        "exit_codes": [], "layers": {}, "counts": {}, "spans": 0, "stdout_bytes": 0,
    }
    for invocation in workload.invocations:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            result["outcomes"][ref.WRONG] += invocation.items
            continue
        child = spawn("trace" if traced else "run", invocation.argv,
                      min(INVOCATION_TIMEOUT_S, remaining), sample, trace_path)
        for outcome in invocation.outcomes(child):
            result["outcomes"][outcome] += 1
        result["verdict_s"] += child.verdict_s
        result["rss_kib"] = max(result["rss_kib"], child.rss_kib)
        result["exit_codes"].append(child.exit_code)
        result["stdout_bytes"] += child.stdout_bytes
        if child.setup_s is not None:
            result["setups"].append(child.setup_s)
        for stem, entry in child.record.get("layers", {}).items():
            total = result["layers"].setdefault(stem, {"s": 0.0, "calls": 0})
            total["s"] += entry["s"]
            total["calls"] += entry["calls"]
        for name, value in child.record.get("counts", {}).items():
            result["counts"][name] = result["counts"].get(name, 0) + value
        result["spans"] += child.record.get("spans", 0)
    result["items"] = sum(invocation.items for invocation in workload.invocations)
    return result


def end_to_end(samples: list[dict], setups: list[float], speed: float) -> dict[str, float]:
    """End-to-end metrics of the untraced samples; times in reference seconds.

    `speed` is `calibrate.UNIT_REF_S` over the run's mean calibration time,
    so measured seconds times `speed` are reference seconds.  `verdict_s`
    is the mean over the samples: on a shared host a sample runs up to 1.5x
    slower in a slow spell of a few seconds, and the mean of a run averages
    those spells out better than the median of a few long samples does.
    `setup_s` is the median over every child.
    """
    untraced = [s for s in samples if not s["traced"]]
    verdict_s = statistics.mean(s["verdict_s"] for s in untraced) * speed
    return {
        "setup_s": statistics.median(setups) * speed,
        "verdict_s": verdict_s,
        "items_per_s": untraced[0]["items"] / verdict_s,
        "peak_rss_mib": statistics.median(s["rss_kib"] / 1024 for s in untraced),
    }


def per_layer(samples: list[dict]) -> dict[str, float]:
    traced = [s for s in samples if s["traced"]]
    untraced = [s for s in samples if not s["traced"]]

    def median(value: Callable[[dict], float]) -> float:
        return statistics.median(value(s) for s in traced)

    def self_s(stem: str) -> Callable[[dict], float]:
        return lambda s: s["layers"].get(stem, {}).get("s", 0.0)

    def calls(stem: str) -> Callable[[dict], float]:
        return lambda s: s["layers"].get(stem, {}).get("calls", 0)

    def count(name: str) -> Callable[[dict], float]:
        return lambda s: s["counts"].get(name, 0)

    def per_parse_s(name: str) -> Callable[[dict], float]:
        def rate(s: dict) -> float:
            seconds = self_s("speck.parse")(s)
            return count(name)(s) / seconds if seconds > 0 else 0.0
        return rate

    return {
        "speck.parse_s": median(self_s("speck.parse")),
        "speck.parse_calls": median(calls("speck.parse")),
        "speck.bytes_per_s": median(per_parse_s("speck.bytes")),
        "speck.blocks_per_s": median(per_parse_s("speck.blocks")),
        "rate.solve_s": median(self_s("rate.solve")),
        "rate.calls": median(calls("rate.solve")),
        "weighing.formula_s": median(self_s("weighing.formula")),
        "weighing.formula_calls": median(calls("weighing.formula")),
        "weighing.oracle_s": median(self_s("weighing.oracle")),
        "weighing.oracle_calls": median(calls("weighing.oracle")),
        "weighing.strategy_s": median(self_s("weighing.strategy")),
        "pigeonhole.formula_s": median(self_s("pigeonhole.formula")),
        "pigeonhole.oracle_s": median(self_s("pigeonhole.oracle")),
        "pigeonhole.oracle_calls": median(calls("pigeonhole.oracle")),
        "pigeonhole.infeasible": median(count("pigeonhole.infeasible")),
        "pigeonhole.stall_s": median(self_s("pigeonhole.stall")),
        "pigeonhole.stall_draws": median(count("pigeonhole.stall_draws")),
        "classics.transfer_formula_s": median(self_s("classics.transfer_formula")),
        "classics.transfer_oracle_s": median(self_s("classics.transfer_oracle")),
        "classics.transfer_oracle_calls": median(calls("classics.transfer_oracle")),
        "classics.station_sim_s": median(self_s("classics.station_sim")),
        "classics.station_sim_calls": median(calls("classics.station_sim")),
        "cli.self_s": median(self_s("cli.self")),
        "cli.stdout_bytes": median(lambda s: s["stdout_bytes"]),
        "trace.spans": median(lambda s: s["spans"]),
        "trace.overhead_s": median(lambda s: s["verdict_s"])
        - statistics.median(s["verdict_s"] for s in untraced),
    }


def setup_children(argv: list[str], seconds: float, deadline: float) -> list[float]:
    """Set-up times of children that stop after parsing argv, for about `seconds`."""
    setups: list[float] = []
    started = time.monotonic()
    spawned = 0
    while (not spawned or time.monotonic() - started < seconds) and time.monotonic() < deadline:
        child = spawn("setup", argv, INVOCATION_TIMEOUT_S, 0, "")
        spawned += 1
        if child.setup_s is not None:
            setups.append(child.setup_s)
    return setups


def calibration_children(seconds: float) -> list[float]:
    """Times of fresh calibration children, at least one, for about `seconds`."""
    times: list[float] = []
    started = time.monotonic()
    while not times or time.monotonic() - started < seconds:
        done = subprocess.run([sys.executable, CALIBRATE], env=CHILD_ENV, capture_output=True,
                              text=True, timeout=INVOCATION_TIMEOUT_S, check=True)
        times.append(float(done.stdout))
    return times


def measure(workload: Workload, seconds: float, traced: bool, started: float,
            deadline: float, trace_path: str) -> tuple[list[dict], list[float], list[float]]:
    """Samples until about `seconds` after `started`, with what ran between them.

    A sample is started only while it is expected to end in time, after a
    minimum number of samples, and within the run's deadline.  A traced run
    alternates untraced and traced samples, so the tracing overhead is
    measured against untraced samples of the same run.  Calibration
    children run before the first round and after each one, so they see
    the machine as the samples did; set-up-only children run after each
    round.  Returns the samples, the calibration times, and the set-up
    times of the set-up-only children.
    """
    samples: list[dict] = []
    calibrations = calibration_children(0.0)
    setups: list[float] = []
    rounds = 0
    while True:
        round_started = time.monotonic()
        for trace in ((False, True) if traced else (False,)):
            samples.append(run_sample(workload, trace, len(samples), deadline, trace_path))
        last = samples[-1]["verdict_s"]
        calibrations += calibration_children(CALIBRATION_SHARE * last)
        setups += setup_children(workload.invocations[0].argv, SETUP_SHARE * last, deadline)
        rounds += 1
        now = time.monotonic()
        per_round = now - round_started
        if rounds >= (1 if traced else MIN_SAMPLES) and now - started + per_round > seconds:
            return samples, calibrations, setups
        if now + per_round > deadline:
            return samples, calibrations, setups


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    os.chdir(ROOT)
    if not Path("src", "riddle_forge", "cli.py").is_file():
        print("error: src/riddle_forge/cli.py not found; run from a full checkout",
              file=sys.stderr)
        return 2
    ref.self_test()
    deadline = started + RUN_DEADLINE_S
    WORK.mkdir(parents=True, exist_ok=True)
    trace_path = WORK / f"trace_{args.workload}.jsonl"
    trace_path.unlink(missing_ok=True)

    workload = WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.seed}"))
    samples, calibrations, setups = measure(workload, args.seconds, bool(args.trace), started,
                                     deadline, str(trace_path))
    setups += [setup for s in samples for setup in s["setups"]]
    if not setups:
        print("error: no child imported riddle_forge.cli", file=sys.stderr)
        return 1

    outcomes = {key: sum(s["outcomes"][key] for s in samples) for key in samples[0]["outcomes"]}
    attempted = sum(outcomes.values())
    failed = outcomes[ref.WRONG]
    speed = calibrate.UNIT_REF_S / statistics.mean(calibrations)
    metrics = end_to_end(samples, setups, speed)
    layers = per_layer(samples) if args.trace else {}
    untraced = [s for s in samples if not s["traced"]]
    n_untraced = len(untraced)

    print(f"workload {args.workload}, seed {args.seed}: inputs {json.dumps(workload.inputs)}")
    print(f"samples: {n_untraced} untraced, {len(samples) - n_untraced} traced; "
          f"{len(workload.invocations)} fresh process(es) per sample; "
          f"set-up measured in {len(setups)} processes")
    print(f"calibration: {len(calibrations)} processes, mean {statistics.mean(calibrations):.6g} s; "
          f"times below are reference seconds, measured seconds x {speed:.6g}")
    how = {
        "setup_s": f"median of {len(setups)} processes",
        "verdict_s": f"mean of {n_untraced} samples; median "
                     f"{statistics.median(s['verdict_s'] for s in untraced) * speed:.6g} s",
        "items_per_s": f"{samples[0]['items']} items / verdict_s",
        "peak_rss_mib": f"median of {n_untraced} samples",
    }
    for name, value in metrics.items():
        print(f"  {name:<14} {value:.6g} {END_TO_END_UNITS[name]}  ({how[name]})")
    print(f"  {'failed_ratio':<14} {failed / attempted:.6g} ratio  "
          f"({failed} of {attempted} items)")
    if args.trace:
        accounted = sum(value for name, value in layers.items()
                        if PER_LAYER_UNITS[name] == "s" and name != "trace.overhead_s")
        traced_verdict = statistics.median(s["verdict_s"] for s in samples if s["traced"])
        for name, value in layers.items():
            print(f"  {name:<32} {value:.6g} {PER_LAYER_UNITS[name]}  (median)")
        print(f"  layer self times sum to {accounted:.6g} s of a traced verdict_s of "
              f"{traced_verdict:.6g} s; trace file {trace_path}")

    (WORK / f"result_{args.workload}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "inputs": workload.inputs,
        "setups": setups, "samples": samples, "calibrations": calibrations, "speed": speed,
        "end_to_end": metrics, "per_layer": layers,
        "outcomes": outcomes,
    }, indent=1))
    shown = layers if args.trace else metrics
    unit_of = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": outcomes[ref.WRONG] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]} for name, value in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
