"""Pigeonhole draws: closed formula, counting oracle, adversarial sequences."""

import random
from itertools import product

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from riddle_forge import (
    Infeasible,
    InvalidInstance,
    PigeonholeInstance,
    adversarial_sequence,
    formula_applicable,
    guarantee_draws_formula,
    guarantee_draws_oracle,
)
from oracles import exhaustive_max_avoiding

SOCKS = (("blue", 10), ("red", 8), ("black", 12))
BUTTONS = (("blue", 84), ("turquoise", 32), ("red", 28), ("green", 4))


def test_formula_known_values():
    assert guarantee_draws_formula(3, 2) == 4
    assert guarantee_draws_formula(4, 4) == 13
    assert guarantee_draws_formula(1, 1) == 1


def test_formula_rejects_nonpositive():
    with pytest.raises(InvalidInstance):
        guarantee_draws_formula(0, 2)
    with pytest.raises(InvalidInstance):
        guarantee_draws_formula(2, 0)


def test_oracle_known_values():
    assert guarantee_draws_oracle(PigeonholeInstance(SOCKS, 2)) == 4
    assert guarantee_draws_oracle(PigeonholeInstance(BUTTONS, 4)) == 13
    assert guarantee_draws_oracle(PigeonholeInstance((("a", 5), ("b", 1)), 3)) == 4


def test_oracle_infeasible_when_no_color_suffices():
    with pytest.raises(Infeasible):
        guarantee_draws_oracle(PigeonholeInstance((("a", 2), ("b", 2)), 3))


def test_adversarial_sequences_match_worked_examples():
    assert adversarial_sequence(PigeonholeInstance(SOCKS, 2)) == ["blue", "red", "black"]
    assert adversarial_sequence(PigeonholeInstance(BUTTONS, 4)) == [
        "blue", "turquoise", "red", "green",
        "blue", "turquoise", "red", "green",
        "blue", "turquoise", "red", "green",
    ]
    assert adversarial_sequence(PigeonholeInstance((("a", 1),), 1)) == []


def test_adversarial_sequence_respects_exhausted_colors():
    sequence = adversarial_sequence(PigeonholeInstance((("a", 5), ("b", 1)), 3))
    assert sequence == ["a", "b", "a"]


def test_instance_validation():
    with pytest.raises(InvalidInstance):
        PigeonholeInstance((), 2)
    with pytest.raises(InvalidInstance):
        PigeonholeInstance((("a", -1),), 2)
    with pytest.raises(InvalidInstance):
        PigeonholeInstance((("a", 1), ("a", 2)), 2)
    with pytest.raises(InvalidInstance):
        PigeonholeInstance((("a", 1),), 0)
    # mappings are accepted and normalised to ordered pairs
    assert PigeonholeInstance({"a": 1, "b": 2}, 1).color_counts == (("a", 1), ("b", 2))


def test_formula_matches_oracle_exactly_on_applicable_family():
    for colors in range(1, 4):
        for counts in product(range(0, 5), repeat=colors):
            pairs = tuple((f"c{i}", count) for i, count in enumerate(counts))
            for required in range(1, 4):
                inst = PigeonholeInstance(pairs, required)
                if not formula_applicable(inst):
                    continue
                assert guarantee_draws_oracle(inst) == guarantee_draws_formula(
                    colors, required
                )


def test_oracle_tight_by_exhaustive_search_small_instances():
    # every instance with at most 8 objects: answer - 1 avoidable, answer forcing
    for colors in range(1, 4):
        for counts in product(range(0, 9), repeat=colors):
            if sum(counts) > 8:
                continue
            pairs = tuple((f"c{i}", count) for i, count in enumerate(counts))
            for required in range(1, 5):
                inst = PigeonholeInstance(pairs, required)
                if max(counts) < required:
                    with pytest.raises(Infeasible):
                        guarantee_draws_oracle(inst)
                    continue
                answer = guarantee_draws_oracle(inst)
                assert exhaustive_max_avoiding(counts, required) == answer - 1


@given(
    st.lists(st.integers(0, 40), min_size=1, max_size=6),
    st.integers(1, 6),
)
def test_adversarial_sequence_properties(counts, required):
    pairs = tuple((f"c{i}", count) for i, count in enumerate(counts))
    inst = PigeonholeInstance(pairs, required)
    if max(counts) < required:
        with pytest.raises(Infeasible):
            adversarial_sequence(inst)
        return
    sequence = adversarial_sequence(inst)
    assert len(sequence) == guarantee_draws_oracle(inst) - 1
    for label, count in pairs:
        appearances = sequence.count(label)
        assert appearances < required
        assert appearances <= count


@given(
    st.lists(st.integers(0, 12), min_size=1, max_size=5),
    st.integers(1, 8),
    st.integers(0, 40),
)
def test_adversarial_sequence_limit_is_a_prefix(counts, required, limit):
    assume(max(counts) >= required)
    pairs = tuple((f"c{i}", count) for i, count in enumerate(counts))
    inst = PigeonholeInstance(pairs, required)
    assert adversarial_sequence(inst, limit) == adversarial_sequence(inst)[:limit]


def test_a_huge_stall_costs_only_its_prefix():
    # 10^12 - 1 rounds in all: only the first 30 draws may be made.
    inst = PigeonholeInstance((("a", 10**12), ("b", 3)), 10**12)
    assert adversarial_sequence(inst, 30) == ["a", "b"] * 3 + ["a"] * 24


@pytest.mark.parametrize("limit", [-1, -30, "3", 1.0])
def test_adversarial_sequence_refuses_a_bad_limit(limit):
    inst = PigeonholeInstance(SOCKS, 2)
    with pytest.raises(InvalidInstance, match="limit must be None or an integer >= 0"):
        adversarial_sequence(inst, limit)
    assert adversarial_sequence(inst, 0) == []


def test_random_instances_formula_vs_oracle_disagree_only_off_family():
    rng = random.Random(13)
    for _ in range(500):
        colors = rng.randint(1, 5)
        pairs = tuple((f"c{i}", rng.randint(0, 9)) for i in range(colors))
        required = rng.randint(1, 5)
        inst = PigeonholeInstance(pairs, required)
        formula = guarantee_draws_formula(colors, required)
        try:
            oracle = guarantee_draws_oracle(inst)
        except Infeasible:
            assert max(count for _, count in pairs) < required
            continue
        if formula_applicable(inst):
            assert oracle == formula
        else:
            assert oracle < formula  # the formula over-counts off-family
