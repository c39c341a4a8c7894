"""Guaranteed-draw calculator: blind draws until some color repeats enough.

The closed form n_colors * (required - 1) + 1 assumes every color has at
least required - 1 objects to stall with; the oracle drops that assumption
and works from the actual per-color counts, so the two can be compared on
any instance.
"""

from __future__ import annotations

from itertools import islice

from .core import Value, _is_int, _normalize_counts, _positive_int, _set
from .errors import Infeasible, InvalidInstance


class PigeonholeInstance(Value):
    """Ordered per-color counts plus the same-color run being asked for."""

    __slots__ = _fields = ("color_counts", "required")
    puzzle_kind = "pigeonhole"

    def __init__(self, color_counts: tuple[tuple[str, int], ...], required: int) -> None:
        _set(self, "color_counts", _normalize_counts(color_counts, "color_counts", True))
        _set(self, "required", _positive_int(required, "required"))

    @classmethod
    def from_block(cls, block) -> "PigeonholeInstance | None":
        """``puzzle pigeonhole { counts = (blue: 10, red: 8); required = 2 }``."""
        counts, required = block.take("counts", "required")
        pairs, run = block.colors(counts), block.integer(required)
        if pairs is None or run is None:
            return None
        return block.make(cls, pairs, run, at=(counts, required))

    def block_items(self) -> list[tuple[str, object]]:
        return [("counts", self.color_counts), ("required", self.required)]


def guarantee_draws_formula(n_colors: int, required: int) -> int:
    """Closed form: n_colors * (required - 1) + 1 draws always suffice."""
    return _positive_int(n_colors, "n_colors") * (_positive_int(required, "required") - 1) + 1


def _check_feasible(inst: PigeonholeInstance) -> None:
    """Raise ``Infeasible`` unless some color has ``required`` objects."""
    if max(count for _, count in inst.color_counts) < inst.required:
        raise Infeasible(f"no color has {inst.required} objects; the goal is unreachable")


def guarantee_draws_oracle(inst: PigeonholeInstance) -> int:
    """Smallest D such that every D-draw sequence holds ``required`` of a color.

    The adversary stalls by drawing at most required - 1 of each color and
    cannot do better, so the longest avoiding sequence has length
    sum(min(count, required - 1)); one more draw must complete some color.
    """
    _check_feasible(inst)
    stall = sum(min(count, inst.required - 1) for _, count in inst.color_counts)
    return stall + 1


def adversarial_sequence(
    inst: PigeonholeInstance, limit: int | None = None
) -> list[str]:
    """A longest draw sequence avoiding the goal, cycling colors in order.

    Its length is guarantee_draws_oracle(inst) - 1, witnessing tightness.
    With ``limit``, only the first ``limit`` draws of that same sequence are
    built, so a huge stall costs no more than the prefix that is shown.
    """
    if limit is not None and (not _is_int(limit) or limit < 0):
        raise InvalidInstance(f"limit must be None or an integer >= 0, got {limit!r}")
    _check_feasible(inst)
    budgets = [
        (label, min(count, inst.required - 1)) for label, count in inst.color_counts
    ]
    # Some color has a full budget, so every round draws at least once and
    # the slice stops within ``limit`` rounds.
    draws = (label for round_no in range(inst.required - 1)
             for label, budget in budgets if budget > round_no)
    return list(islice(draws, limit))


def formula_applicable(inst: PigeonholeInstance) -> bool:
    """True when the closed formula is exact for this instance.

    That is the regime where every color can stall fully (count >= required
    - 1) and the goal is reachable at all (some count >= required).
    """
    counts = [count for _, count in inst.color_counts]
    return max(counts) >= inst.required and min(counts) >= inst.required - 1
