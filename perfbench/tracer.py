"""Timing wrappers for the traced run, installed from outside the program.

`install` rebinds, in the `riddle_forge.cli` namespace, every public
function `solve` calls into a layer.  Each call
records a span (sample id, span id, parent span id, name, start, end);
spans stay in memory and are written out when the invocation ends.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import json
import re
import time

# Span name -> the layer metric stem its self time is credited to.
LAYER_OF = {
    "cli.main": "cli.self",
    "speck.parse_puzzles": "speck.parse",
    "rate.solve_rate": "rate.solve",
    "rate.rate_constant": "rate.solve",
    "rate.ceil_subjects": "rate.solve",
    "weighing.min_weighings_formula": "weighing.formula",
    "weighing.min_weighings_oracle": "weighing.oracle",
    "weighing.build_strategy": "weighing.strategy",
    "weighing.render_strategy": "weighing.strategy",
    "weighing.strategy_to_dict": "weighing.strategy",
    "pigeonhole.guarantee_draws_formula": "pigeonhole.formula",
    "pigeonhole.formula_applicable": "pigeonhole.formula",
    "pigeonhole.guarantee_draws_oracle": "pigeonhole.oracle",
    "pigeonhole.adversarial_sequence": "pigeonhole.stall",
    "classics.transfer_probability_formula": "classics.transfer_formula",
    "classics.transfer_probability_enumerate": "classics.transfer_oracle",
    "classics.station_walk_simulate": "classics.station_sim",
}

_BLOCK_START = re.compile(r"\bpuzzle\b")


class Tracer:
    """Spans and counters of one traced CLI invocation."""

    def __init__(self, sample: int):
        self.sample = sample
        self.spans: list = []  # index is the span id
        self.stack: list = [None]
        self.counts = {
            "speck.bytes": 0,
            "speck.blocks": 0,
            "pigeonhole.infeasible": 0,
            "pigeonhole.stall_draws": 0,
        }

    def wrap(self, fn, on_result=None, on_error=None):
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
        spans, stack, clock, sample = self.spans, self.stack, time.perf_counter, self.sample

        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                spans[span_id] = [sample, span_id, parent, name, start, clock()]
                stack.pop()
                if on_error is not None:
                    on_error(exc, args)
                raise
            spans[span_id] = [sample, span_id, parent, name, start, clock()]
            stack.pop()
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def install(self, cli) -> None:
        from riddle_forge.errors import Infeasible

        counts = self.counts

        def parsed(_result, args):
            counts["speck.bytes"] += len(args[0].encode("utf-8", "surrogatepass"))
            counts["speck.blocks"] += len(_BLOCK_START.findall(args[0]))

        def infeasible(exc, _args):
            if isinstance(exc, Infeasible):
                counts["pigeonhole.infeasible"] += 1

        def stalled(result, _args):
            counts["pigeonhole.stall_draws"] += len(result)

        hooks = {
            "parse_puzzles": (parsed, None),
            "guarantee_draws_oracle": (None, infeasible),
            "adversarial_sequence": (stalled, None),
        }
        for attr in (
            "parse_puzzles", "solve_rate", "rate_constant", "ceil_subjects",
            "min_weighings_formula", "min_weighings_oracle",
            "build_strategy", "render_strategy", "strategy_to_dict",
            "guarantee_draws_formula", "formula_applicable",
            "guarantee_draws_oracle", "adversarial_sequence",
            "transfer_probability_formula", "transfer_probability_enumerate",
            "station_walk_simulate",
        ):
            setattr(cli, attr, self.wrap(getattr(cli, attr), *hooks.get(attr, (None, None))))
        self.main = self.wrap(cli.main)

    def summary(self) -> dict:
        """Self time and call count per layer stem, plus the counters."""
        spans = [span for span in self.spans if span is not None]
        child_time = [0.0] * len(self.spans)
        for _, _, parent, _, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
        layers: dict[str, dict] = {}
        for _, span_id, _, name, start, end in spans:
            entry = layers.setdefault(LAYER_OF[name], {"s": 0.0, "calls": 0})
            entry["s"] += end - start - child_time[span_id]
            entry["calls"] += 1
        return {"layers": layers, "counts": dict(self.counts), "spans": len(spans)}

    def dump(self, path: str, argv: list[str]) -> None:
        """Append this invocation's spans to the trace file as one JSON line."""
        line = {
            "sample": self.sample,
            "argv": argv,
            "fields": ["sample", "id", "parent", "name", "start", "end"],
            "spans": [span for span in self.spans if span is not None],
        }
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(line, separators=(",", ":")) + "\n")
