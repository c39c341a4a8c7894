"""Acceptance suite: the eight package-level criteria, one test each.

Each test prints one PASS line when it gets through its assertions; run
with ``pytest -s tests/test_acceptance.py`` to see them all.
"""

import json
import random
import time
from fractions import Fraction
from importlib import resources
from itertools import product

import pytest

from riddle_forge import (
    Infeasible,
    InvalidInstance,
    ParseErrorKind,
    ParseFailure,
    PigeonholeInstance,
    Quantity,
    RateQuery,
    RateScenario,
    TransferInstance,
    WeighingInstance,
    build_strategy,
    formula_applicable,
    guarantee_draws_formula,
    guarantee_draws_oracle,
    min_weighings_formula,
    min_weighings_oracle,
    parse_puzzles,
    rate_constant,
    serialize_puzzle,
    simulate_strategy,
    solve_rate,
    station_walk_simulate,
    transfer_formula_survey,
    transfer_probability_enumerate,
)
from riddle_forge.cli import main
from oracles import completed_scenario, exhaustive_max_avoiding
from specgen import random_spec


def test_criterion_1_worked_problem_goldens(tmp_path, capsys):
    corpus = resources.files("riddle_forge") / "corpus" / "classic_problems.speck"
    path = tmp_path / "classic_problems.speck"
    path.write_text(corpus.read_text(encoding="utf-8"), encoding="utf-8")
    started = time.perf_counter()
    code = main(["solve", str(path), "--format", "json"])
    elapsed = time.perf_counter() - started
    reports = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [r["answer"] for r in reports] == ["12", "80", "30", "3", "2", "2", "4", "13"]
    assert elapsed < 1.0, f"corpus took {elapsed:.3f}s"
    print("ACCEPTANCE 1 (worked-problem goldens): PASS")


def test_criterion_2_weighing_formula_oracle_equivalence():
    started = time.perf_counter()
    mismatches = [
        n
        for n in range(2, 3**8 + 1)
        if min_weighings_formula(WeighingInstance(n))
        != min_weighings_oracle(WeighingInstance(n))
    ]
    elapsed = time.perf_counter() - started
    assert mismatches == []
    assert elapsed < 5.0, f"sweep took {elapsed:.3f}s"
    print("ACCEPTANCE 2 (weighing formula == oracle on [2, 6561]): PASS")


def test_criterion_3_strategy_soundness():
    started = time.perf_counter()
    for n in range(1, 201):
        inst = WeighingInstance(n)
        tree = build_strategy(inst)
        bound = min_weighings_formula(inst)
        for heavy in range(n):
            identified, used = simulate_strategy(tree, heavy)
            assert identified == heavy
            assert used <= bound
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"soundness sweep took {elapsed:.3f}s"
    print("ACCEPTANCE 3 (strategy soundness, N in [1, 200]): PASS")


def test_criterion_4_pigeonhole_tightness_and_formula_match():
    # Exhaustive adversary check over every instance with <= 10 objects.
    for colors in range(1, 5):
        for counts in product(range(0, 11), repeat=colors):
            if sum(counts) > 10:
                continue
            pairs = tuple((f"c{i}", count) for i, count in enumerate(counts))
            for required in range(1, 6):
                inst = PigeonholeInstance(pairs, required)
                if max(counts) < required:
                    with pytest.raises(Infeasible):
                        guarantee_draws_oracle(inst)
                    continue
                answer = guarantee_draws_oracle(inst)
                # answer - 1 avoidable, answer forcing
                assert exhaustive_max_avoiding(counts, required) == answer - 1
    # Formula matches the oracle on every applicable instance in the family.
    mismatches = 0
    for colors in range(1, 5):
        for counts in product(range(0, 7), repeat=colors):
            pairs = tuple((f"c{i}", count) for i, count in enumerate(counts))
            for required in range(1, 5):
                inst = PigeonholeInstance(pairs, required)
                if not formula_applicable(inst):
                    continue
                if guarantee_draws_oracle(inst) != guarantee_draws_formula(
                    colors, required
                ):
                    mismatches += 1
    assert mismatches == 0
    print("ACCEPTANCE 4 (pigeonhole tightness + formula match): PASS")


def _random_rate_query(rng):
    known = RateScenario(
        Quantity(Fraction(rng.randint(1, 500), rng.randint(1, 24))),
        Quantity(Fraction(rng.randint(1, 500), rng.randint(1, 24))),
        Fraction(rng.randint(1, 500), rng.randint(1, 24)),
    )
    target = rng.choice(["work", "subjects", "time"])
    given = {}
    for field in ("work", "subjects", "time"):
        if field == target:
            continue
        magnitude = Fraction(rng.randint(1, 500), rng.randint(1, 24))
        given[field] = magnitude if field == "time" else Quantity(magnitude)
    return RateQuery(known=known, **given)


def test_criterion_5_rate_consistency_and_invariance():
    rng = random.Random(20260811)
    for _ in range(1000):
        query = _random_rate_query(rng)
        solution = solve_rate(query)
        completed = completed_scenario(query, solution)
        assert rate_constant(completed) == rate_constant(query.known)  # exact

        scale = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        known = query.known
        scaled_ws = RateScenario(
            Quantity(known.work.magnitude * scale),
            Quantity(known.subjects.magnitude * scale),
            known.time,
        )
        scaled_wt = RateScenario(
            Quantity(known.work.magnitude * scale),
            known.subjects,
            known.time * scale,
        )
        for invariant_known in (scaled_ws, scaled_wt):
            rescaled = RateQuery(
                known=invariant_known,
                work=query.work,
                subjects=query.subjects,
                time=query.time,
            )
            assert solve_rate(rescaled) == solution
    print("ACCEPTANCE 5 (rate consistency + k-invariance, 1000 queries): PASS")


def test_criterion_6_station_identity():
    rng = random.Random(42)
    checked = 0
    for _ in range(10000):  # about three in ten draws meet
        distance = Fraction(rng.randint(50, 50000), 100)
        car_speed = Fraction(rng.randint(20, 4000), 100)
        walk_speed = car_speed * Fraction(rng.randint(5, 980), 1000)
        early = Fraction(rng.randint(5, 30000), 100)
        try:
            walked, saved = station_walk_simulate(
                distance, car_speed, walk_speed, early
            )
        except InvalidInstance:
            continue  # invalid meeting geometry; draw again
        assert walked == early - saved / 2
        checked += 1
        if checked == 1000:
            break
    assert checked == 1000
    print("ACCEPTANCE 6 (station identity, 1000 simulations): PASS")


def test_criterion_7_transfer_normalization_and_survey():
    # Normalization on every two-color instance with <= 8 objects: recolor
    # the containers so "drawn is moved" becomes a color event, then the
    # color partition must sum to exactly 1, and must agree with the
    # query "moved" on the original instance.
    for a_red, a_blue, b_red, b_blue in product(range(9), repeat=4):
        total_a = a_red + a_blue
        if total_a < 1 or total_a + b_red + b_blue > 8:
            continue
        container_a = (("red", a_red), ("blue", a_blue))
        container_b = (("red", b_red), ("blue", b_blue))
        for moved in range(1, total_a + 1):
            recolored_a = (("src", total_a),)
            recolored_b = (("dst", b_red + b_blue),)
            p_src = transfer_probability_enumerate(
                TransferInstance(recolored_a, recolored_b, moved, "src")
            )
            p_dst = transfer_probability_enumerate(
                TransferInstance(recolored_a, recolored_b, moved, "dst")
            )
            assert p_src + p_dst == 1
            p_moved = transfer_probability_enumerate(
                TransferInstance(container_a, container_b, moved, "moved")
            )
            assert p_moved == p_src
    # The survey for bounds (4, 4) is deterministic; agreement is recorded,
    # not asserted (the folklore formula is not generally exact).
    first = list(transfer_formula_survey(4, 4))
    second = list(transfer_formula_survey(4, 4))
    assert first == second
    assert len(first) == 280
    assert any(exact == formula for _, exact, formula in first)
    assert any(exact != formula for _, exact, formula in first)
    print("ACCEPTANCE 7 (transfer normalization + deterministic survey): PASS")


def test_criterion_8_parser_round_trip_and_error_cases():
    rng = random.Random(8)
    for _ in range(1000):
        spec = random_spec(rng)
        assert parse_puzzles(serialize_puzzle(spec)) == [spec]

    cases = [
        ("puzzle frobnicate { objects = 3 }", ParseErrorKind.UNKNOWN_KIND, 1, 8, 10),
        (
            "puzzle weighing { objects = 3; objects = 4 }",
            ParseErrorKind.DUPLICATE_KEY, 1, 32, 7,
        ),
        ("puzzle weighing { objects = -3 }", ParseErrorKind.NEGATIVE_COUNT, 1, 29, 2),
    ]
    for source, kind, line, column, length in cases:
        with pytest.raises(ParseFailure) as info:
            parse_puzzles(source)
        (error,) = info.value.errors
        assert error.kind is kind
        assert (error.span.line, error.span.column, error.span.length) == (
            line, column, length,
        )
    print("ACCEPTANCE 8 (parser round-trip, 1000 specs + error spans): PASS")
