"""Balance-scale solver: formula vs minimax oracle, strategy trees."""

from concurrent.futures import ThreadPoolExecutor

import pytest

import riddle_forge.weighing as weighing
from riddle_forge import (
    InvalidInstance,
    Leaf,
    MalformedTree,
    Weigh,
    WeighingInstance,
    build_strategy,
    min_weighings_formula,
    min_weighings_oracle,
    render_strategy,
    simulate_strategy,
    strategy_depth,
    strategy_to_dict,
    validate_strategy,
)
from oracles import exhaustive_worst_case


def test_formula_known_values():
    assert min_weighings_formula(WeighingInstance(13)) == 3
    assert type(min_weighings_formula(WeighingInstance(13))) is int
    assert min_weighings_formula(WeighingInstance(5)) == 2
    assert min_weighings_formula(WeighingInstance(9)) == 2
    assert min_weighings_formula(WeighingInstance(4)) == 2
    assert min_weighings_formula(WeighingInstance(1)) == 0
    assert min_weighings_formula(WeighingInstance(243)) == 5
    assert min_weighings_formula(WeighingInstance(243)) == min_weighings_oracle(
        WeighingInstance(243)
    )


def test_formula_brackets_between_powers_of_three():
    for n in range(2, 1000):
        weighings = min_weighings_formula(WeighingInstance(n))
        assert 3 ** (weighings - 1) < n <= 3**weighings


def test_formula_at_the_powers_of_three():
    assert min_weighings_formula(WeighingInstance(1)) == 0
    assert min_weighings_formula(WeighingInstance(2)) == 1
    for k in range(1, 41):
        # 3^(k-1) < 3^k <= 3^k, and 3^k < 3^k + 1 <= 3^(k+1).
        assert min_weighings_formula(WeighingInstance(3**k)) == k
        assert min_weighings_formula(WeighingInstance(3**k + 1)) == k + 1


def test_oracle_known_values():
    assert min_weighings_oracle(WeighingInstance(13)) == 3
    assert min_weighings_oracle(WeighingInstance(2)) == 1
    assert min_weighings_oracle(WeighingInstance(10)) == 3
    assert min_weighings_oracle(WeighingInstance(1)) == 0


def test_instance_rejects_nonpositive():
    with pytest.raises(InvalidInstance):
        WeighingInstance(0)
    with pytest.raises(InvalidInstance):
        WeighingInstance(-4)


def test_formula_equals_oracle_midsized_range():
    for n in range(2, 800):
        inst = WeighingInstance(n)
        assert min_weighings_formula(inst) == min_weighings_oracle(inst), n


def test_oracle_tight_at_power_boundaries():
    for k in range(0, 8):
        assert min_weighings_oracle(WeighingInstance(3**k)) == k
        assert min_weighings_oracle(WeighingInstance(3**k + 1)) == k + 1


def test_oracle_monotone():
    previous = 0
    for n in range(1, 2000):
        value = min_weighings_oracle(WeighingInstance(n))
        assert value >= previous
        previous = value


def test_minimax_table_matches_exhaustive_search_up_to_2000():
    assert weighing._worst_case_table(2000)[:2001] == exhaustive_worst_case(2000)


def test_minimax_table_resumes_where_it_stopped(monkeypatch):
    monkeypatch.setattr(weighing, "_worst_case", [0, 0])
    for limit in [*range(2, 601), 601, 602, 1000, 1001, 1999, 2000]:
        assert len(weighing._worst_case_table(limit)) == limit + 1
    expected = exhaustive_worst_case(2000)
    assert weighing._worst_case == expected
    # A limit the table already covers is a lookup: nothing is appended.
    assert weighing._worst_case_table(1500) is weighing._worst_case
    assert weighing._worst_case == expected


def test_minimax_table_rejects_a_decreasing_row(monkeypatch):
    # f(3) = 5 is corrupt: f(4) is at most 1 + max(f(2), f(0)) = 2.
    monkeypatch.setattr(weighing, "_worst_case", [0, 0, 1, 5])
    with pytest.raises(RuntimeError, match="decreases at 4 suspects"):
        min_weighings_oracle(WeighingInstance(4))


def test_oracle_is_threadsafe_idempotent_cache():
    sizes = list(range(1, 400))
    expected = [min_weighings_oracle(WeighingInstance(n)) for n in sizes]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(
            pool.map(lambda n: min_weighings_oracle(WeighingInstance(n)), sizes)
        )
    assert results == expected


def test_minimax_table_grows_safely_under_concurrent_callers(monkeypatch):
    expected = list(weighing._worst_case_table(20000)[:20001])
    monkeypatch.setattr(weighing, "_worst_case", [0, 0])
    limits = [20000, 19999, 20000, 15000, 20000, 18000, 20000, 20000]
    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(weighing._worst_case_table, limits))
    assert weighing._worst_case == expected


def test_strategy_nine_objects_matches_equal_thirds():
    tree = build_strategy(WeighingInstance(9))
    assert tree.left == (0, 1, 2)
    assert tree.right == (3, 4, 5)
    assert tree.on_balance.suspects == (6, 7, 8)
    assert strategy_depth(tree) == 2


def test_strategy_single_object_is_a_leaf():
    tree = build_strategy(WeighingInstance(1))
    assert tree == Leaf(0)
    assert tree.suspects == (0,)


def test_strategy_thirteen_objects_pans_of_four():
    tree = build_strategy(WeighingInstance(13))
    assert len(tree.left) == 4
    assert len(tree.right) == 4
    assert len(tree.on_balance.suspects) == 5
    assert tree.suspects == tuple(range(13))
    assert strategy_depth(tree) == 3


def test_simulate_known_paths():
    nine = build_strategy(WeighingInstance(9))
    assert simulate_strategy(nine, 7) == (7, 2)
    one = build_strategy(WeighingInstance(1))
    assert simulate_strategy(one, 0) == (0, 0)
    thirteen = build_strategy(WeighingInstance(13))
    identified, used = simulate_strategy(thirteen, 12)
    assert identified == 12
    assert used <= 3


def test_simulate_rejects_unknown_suspect():
    tree = build_strategy(WeighingInstance(5))
    with pytest.raises(InvalidInstance):
        simulate_strategy(tree, 9)


def test_strategy_depth_matches_oracle_up_to_120():
    for n in range(1, 121):
        inst = WeighingInstance(n)
        tree = build_strategy(inst)
        validate_strategy(tree)
        assert strategy_depth(tree) == min_weighings_oracle(inst), n


def test_strategy_soundness_small_range():
    for n in range(1, 61):
        inst = WeighingInstance(n)
        tree = build_strategy(inst)
        bound = min_weighings_formula(inst)
        for heavy in range(n):
            identified, used = simulate_strategy(tree, heavy)
            assert identified == heavy
            assert used <= bound


def test_malformed_trees_are_rejected():
    # A pan is the subtree it leads to, so a tree can only have unequal pans
    # or an object that appears twice among a node's suspects.
    unequal_pans = Weigh(Leaf(0), Weigh(Leaf(1), Leaf(2)))
    overlapping = Weigh(Weigh(Leaf(0), Leaf(1)), Weigh(Leaf(1), Leaf(2)))
    on_a_pan_and_aside = Weigh(Leaf(0), Leaf(1), Leaf(0))
    below_the_root = Weigh(Leaf(3), Leaf(4), unequal_pans)
    for tree in (unequal_pans, overlapping, on_a_pan_and_aside, below_the_root):
        with pytest.raises(MalformedTree):
            simulate_strategy(tree, 0)
        with pytest.raises(MalformedTree):
            validate_strategy(tree)


def test_render_and_dict_forms():
    tree = build_strategy(WeighingInstance(3))
    text = render_strategy(tree)
    assert text.splitlines() == [
        "weigh [0] vs [1]",
        "  left heavier: object 0",
        "  right heavier: object 1",
        "  balanced: object 2",
    ]
    data = strategy_to_dict(tree)
    assert data["suspects"] == [0, 1, 2]
    assert data["left"] == [0]
    assert data["on_balance"]["identified"] == 2
    two = strategy_to_dict(build_strategy(WeighingInstance(2)))
    assert two["on_balance"] is None
