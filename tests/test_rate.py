"""Work-rate solver: classic worked-problem values, exactness, invariance."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from riddle_forge import (
    InvalidInstance,
    Quantity,
    RateQuery,
    RateScenario,
    ceil_subjects,
    rate_constant,
    solve_rate,
)
from oracles import completed_scenario


def scenario(work, subjects, time):
    return RateScenario(Quantity(work), Quantity(subjects), time)


def subjects_query(known, work, time):
    return RateQuery(
        known=known,
        work=Quantity(work),
        time=time,
    )


def test_rate_constant_known_values():
    assert rate_constant(scenario(6, 6, 6)) == Fraction(1, 6)
    assert rate_constant(scenario(150, 100, 60)) == Fraction(1, 40)
    assert rate_constant(scenario(1, 1, 1)) == 1


def test_solve_classic_worked_problems():
    # cats and mice, then the hour variant, then the bakers
    assert solve_rate(subjects_query(scenario(6, 6, 6), 100, 50)) == 12
    assert solve_rate(subjects_query(scenario(150, 100, 60), 60, 30)) == 80
    assert solve_rate(subjects_query(scenario(40, 3, 120), 100, 30)) == 30


def test_solve_returns_known_value_for_identity_query():
    query = RateQuery(
        known=scenario(5, 2, 7),
        subjects=Quantity(2),
        time=7,
    )
    assert solve_rate(query) == 5


def test_solve_can_return_fractions():
    # 2 subjects do 5 units in 7 minutes; 3 units in 2 minutes needs 21/5
    query = subjects_query(scenario(5, 2, 7), 3, 2)
    assert solve_rate(query) == Fraction(21, 5)


def test_ceil_subjects():
    assert ceil_subjects(Fraction(12)) == 12
    assert ceil_subjects(Fraction(10, 3)) == 4
    assert ceil_subjects(Fraction(80)) == 80
    assert ceil_subjects(7) == 7
    assert ceil_subjects(Fraction(1, 2)) == 1
    assert ceil_subjects(1) == 1
    with pytest.raises(InvalidInstance):
        ceil_subjects(Fraction(0))
    with pytest.raises(InvalidInstance):
        ceil_subjects(Fraction(-3))
    with pytest.raises(InvalidInstance):
        ceil_subjects(1.5)
    with pytest.raises(InvalidInstance):
        ceil_subjects("3")


def test_degenerate_inputs_rejected_at_construction():
    with pytest.raises(InvalidInstance):
        scenario(0, 6, 6)
    with pytest.raises(InvalidInstance):
        scenario(6, -1, 6)
    with pytest.raises(InvalidInstance, match="^work must be a Quantity$"):
        RateScenario(1, 1, 1)  # numbers, not quantities
    with pytest.raises(InvalidInstance):
        RateQuery(5, work=Quantity(1), subjects=Quantity(1))
    with pytest.raises(InvalidInstance, match="^work must be a Quantity$"):
        RateQuery(scenario(1, 1, 1), work=5, subjects=Quantity(1))
    # A time is an int or Fraction of minutes above 0, as given or asked for.
    for time in (0, Fraction(-1, 2), 0.5, Quantity(1)):
        for build in (lambda: scenario(1, 1, time),
                      lambda: RateQuery(scenario(1, 1, 1), work=Quantity(1), time=time)):
            with pytest.raises(InvalidInstance) as info:
                build()
            assert info.value.argument == "time"


@pytest.mark.parametrize(
    "given_map",
    [
        {"work": Quantity(1), "subjects": Quantity(1), "time": 1},
        {"work": Quantity(1)},
        {},
    ],
    ids=["none-left-out", "two-left-out", "all-left-out"],
)
def test_query_leaves_out_exactly_one_field(given_map):
    with pytest.raises(
        InvalidInstance, match="^exactly one of work, subjects and time must be left out$"
    ):
        RateQuery(scenario(1, 1, 1), **given_map)


positive_fractions = st.fractions(min_value=Fraction(1, 100), max_value=100)


@given(
    positive_fractions, positive_fractions, positive_fractions,
    positive_fractions, positive_fractions,
    st.sampled_from(["work", "subjects", "time"]),
)
def test_consistency_substituting_back_restores_k(w, s, t, g1, g2, target):
    known = RateScenario(Quantity(w), Quantity(s), t)
    fields = [f for f in ("work", "subjects", "time") if f != target]
    given_map = {}
    for field, magnitude in zip(fields, (g1, g2)):
        given_map[field] = magnitude if field == "time" else Quantity(magnitude)
    query = RateQuery(known=known, **given_map)
    assert query.target == target
    solution = solve_rate(query)
    assert solution > 0
    completed = completed_scenario(query, solution)
    assert rate_constant(completed) == rate_constant(known)  # exact, no tolerance


@given(positive_fractions, positive_fractions)
def test_k_invariance_under_joint_scaling(scale, work_given):
    known = scenario(6, 6, 6)
    query = subjects_query(known, work_given, 50)
    baseline = solve_rate(query)

    scaled_ws = RateScenario(  # scale work and subjects together
        Quantity(known.work.magnitude * scale),
        Quantity(known.subjects.magnitude * scale),
        known.time,
    )
    assert solve_rate(subjects_query(scaled_ws, work_given, 50)) == baseline

    scaled_wt = RateScenario(  # scale work and time together
        Quantity(known.work.magnitude * scale),
        known.subjects,
        known.time * scale,
    )
    assert solve_rate(subjects_query(scaled_wt, work_given, 50)) == baseline


def test_symmetry_resolving_time_returns_given_time():
    rng = random.Random(7)
    for _ in range(200):
        known = scenario(
            rng.randint(1, 300), rng.randint(1, 300), rng.randint(1, 300)
        )
        work = Fraction(rng.randint(1, 300), rng.randint(1, 20))
        time = Fraction(rng.randint(1, 300), rng.randint(1, 20))
        solved_subjects = solve_rate(subjects_query(known, work, time))
        back = RateQuery(
            known=known,
            work=Quantity(work),
            subjects=Quantity(solved_subjects),
        )
        assert solve_rate(back) == time
