"""One riddle-forge CLI invocation in a fresh interpreter, timed from inside.

Usage: python3 perfbench/child.py RECORD MODE TRACE_FILE SAMPLE -- CLI-ARGS...

MODE is `run` (call `riddle_forge.cli.main`, nothing rebound), `trace`
(rebind the layer functions to timing wrappers first, and append the spans
to TRACE_FILE) or `setup` (stop once the arguments are parsed).  The CLI's
stdout, stderr and exit code are the program's own; the timings go to the
JSON file RECORD:

* `parsed`: `time.monotonic()` once the CLI is imported and the
  arguments are parsed (the parent subtracts its spawn time);
* `verdict_s`: from entering `main` to its return, or to its exception.
"""

import sys
import time


def run() -> int:
    record_path, mode, trace_path, sample = sys.argv[1:5]
    argv = sys.argv[6:]
    record: dict = {}
    tracer = None
    try:
        import riddle_forge.cli as cli

        cli.build_parser().parse_args(argv)
        record["parsed"] = time.monotonic()
        if mode == "setup":
            return 0
        entry = cli.main
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer(int(sample))
            tracer.install(cli)
            entry = tracer.main
        start = time.perf_counter()
        try:
            return entry(argv)
        finally:
            record["verdict_s"] = time.perf_counter() - start
    finally:
        import json

        if tracer is not None:
            record.update(tracer.summary())
            tracer.dump(trace_path, argv)
        with open(record_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)


if __name__ == "__main__":
    sys.exit(run())
