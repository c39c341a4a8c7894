"""Closed-form puzzle solvers verified against oracles.

Work-rate proportionality, balance-scale weighing counts, and pigeonhole
draw guarantees, plus two background classics (container transfer, station
walk), a small puzzle DSL, and a CLI that cross-checks the weighing,
pigeonhole, transfer and station formulas against an oracle (rate has
none).  The weighing, transfer and station oracles never consult the
formula they check; the pigeonhole oracle shares the formula's adversary
argument, so it can disagree only where the formula does not apply.
"""

from .classics import (
    StationInstance,
    TransferInstance,
    station_walk_formula,
    station_walk_simulate,
    transfer_formula_survey,
    transfer_probability_enumerate,
    transfer_probability_formula,
)
from .core import (
    PuzzleSpec,
    Quantity,
)
from .errors import (
    Infeasible,
    InvalidInstance,
    PuzzleError,
)
from .pigeonhole import (
    PigeonholeInstance,
    adversarial_sequence,
    formula_applicable,
    guarantee_draws_formula,
    guarantee_draws_oracle,
)
from .rate import (
    RateQuery,
    RateScenario,
    ceil_subjects,
    rate_constant,
    solve_rate,
)
from .speck import (
    ParseError,
    ParseErrorKind,
    ParseFailure,
    SourceSpan,
    parse_puzzles,
    serialize_puzzle,
)
from .weighing import (
    Leaf,
    Weigh,
    WeighingInstance,
    build_strategy,
    min_weighings_formula,
    min_weighings_oracle,
    render_strategy,
    simulate_strategy,
    strategy_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "Infeasible",
    "InvalidInstance",
    "Leaf",
    "ParseError",
    "ParseErrorKind",
    "ParseFailure",
    "PigeonholeInstance",
    "PuzzleError",
    "PuzzleSpec",
    "Quantity",
    "RateQuery",
    "RateScenario",
    "SourceSpan",
    "StationInstance",
    "TransferInstance",
    "Weigh",
    "WeighingInstance",
    "adversarial_sequence",
    "build_strategy",
    "ceil_subjects",
    "formula_applicable",
    "guarantee_draws_formula",
    "guarantee_draws_oracle",
    "min_weighings_formula",
    "min_weighings_oracle",
    "parse_puzzles",
    "rate_constant",
    "render_strategy",
    "serialize_puzzle",
    "simulate_strategy",
    "solve_rate",
    "station_walk_formula",
    "station_walk_simulate",
    "strategy_to_dict",
    "transfer_formula_survey",
    "transfer_probability_enumerate",
    "transfer_probability_formula",
]
