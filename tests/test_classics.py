"""Container-transfer enumeration and the station-walk identity."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from riddle_forge import (
    InvalidInstance,
    StationInstance,
    TransferInstance,
    station_walk_formula,
    station_walk_simulate,
    transfer_formula_survey,
    transfer_probability_enumerate,
    transfer_probability_formula,
)
from oracles import elementary_transfer, hypergeometric_transfer, station_walk_by_operators


def test_formula_known_values():
    assert transfer_probability_formula(2, 6) == Fraction(1, 2)
    assert transfer_probability_formula(1, 1) == 1  # the "formula" can reach 1
    assert transfer_probability_formula(3, 9) == Fraction(1, 2)
    with pytest.raises(InvalidInstance):
        transfer_probability_formula(0, 3)
    with pytest.raises(InvalidInstance):
        transfer_probability_formula(3, 0)


def test_enumerate_known_values():
    only_object = TransferInstance((("red", 1),), (("red", 0),), 1, "moved")
    assert transfer_probability_enumerate(only_object) == 1

    red_after_move = TransferInstance(
        (("red", 2), ("blue", 2)), (("blue", 2),), 1, "red"
    )
    assert transfer_probability_enumerate(red_after_move) == Fraction(1, 6)

    one_of_three = TransferInstance(
        (("red", 1), ("blue", 1)), (("red", 1), ("blue", 1)), 1, "moved"
    )
    assert transfer_probability_enumerate(one_of_three) == Fraction(1, 3)

    # The word "moved" is the moved-object event, even where a color has that name.
    moved_color = TransferInstance((("moved", 2),), (("moved", 1),), 1, "moved")
    assert transfer_probability_enumerate(moved_color) == Fraction(1, 2)


def test_enumerate_absent_color_has_zero_probability():
    inst = TransferInstance((("red", 2),), (("blue", 1),), 1, "green")
    assert transfer_probability_enumerate(inst) == 0


def test_instance_validation():
    with pytest.raises(InvalidInstance):
        TransferInstance((("red", 1),), (), 2, "moved")  # moved > |A|
    with pytest.raises(InvalidInstance):
        TransferInstance((("red", 1),), (), 0, "moved")
    with pytest.raises(InvalidInstance):
        TransferInstance((("red", 1), ("red", 2)), (), 1, "moved")
    with pytest.raises(InvalidInstance):
        TransferInstance((("red", -1),), (), 1, "moved")


def _color_instances(colors, max_total):
    for counts in product(range(max_total + 1), repeat=2 * len(colors)):
        a_counts, b_counts = counts[: len(colors)], counts[len(colors):]
        if not 1 <= sum(a_counts) or sum(counts) > max_total:
            continue
        for moved in range(1, sum(a_counts) + 1):
            yield tuple(zip(colors, a_counts)), tuple(zip(colors, b_counts)), moved


TWO_COLORS = ("red", "blue")


def test_enumeration_matches_elementary_events_up_to_six_objects():
    # Dual route: distinguishable-object enumeration with equal-weight
    # elementary events must agree with the closed expectation.  With three
    # colors, two unqueried colors share the moves.
    for colors in (TWO_COLORS, (*TWO_COLORS, "green")):
        for container_a, container_b, moved in _color_instances(colors, 6):
            p_moved, p_not_moved, p_colors = elementary_transfer(
                container_a, container_b, moved
            )
            assert p_moved + p_not_moved == 1
            moved_inst = TransferInstance(
                container_a, container_b, moved, "moved"
            )
            assert transfer_probability_enumerate(moved_inst) == p_moved
            for color in (*colors, "absent"):
                color_inst = TransferInstance(
                    container_a, container_b, moved, color
                )
                assert transfer_probability_enumerate(color_inst) == p_colors.get(
                    color, 0
                )


FIVE_COLORS = ("red", "blue", "green", "amber", "teal")


def test_enumeration_matches_the_hypergeometric_sum_past_elementary_sizes():
    # Up to 400 objects in A: too many subsets for elementary events, so the
    # sum over every split is the reference.  Queries include colors absent
    # from one container or both, and "moved", which becomes a color event
    # once A's objects are all recolored 'src' and B's 'dst'.
    rng = random.Random(20)
    for _ in range(2000):
        a_colors = rng.sample(FIVE_COLORS, rng.randint(1, 5))
        most = 400 // len(a_colors)
        a_counts = [rng.randint(1, most)] + [rng.randint(0, most) for _ in a_colors[1:]]
        container_a = tuple(zip(a_colors, a_counts))
        total_a = sum(a_counts)
        container_b = tuple(
            (c, rng.randint(0, 400)) for c in rng.sample(FIVE_COLORS, rng.randint(0, 5))
        )
        total_b = sum(count for _, count in container_b)
        moved = rng.randint(1, total_a)
        color = rng.choice((*FIVE_COLORS, "gray"))
        inst = TransferInstance(container_a, container_b, moved, color)
        assert transfer_probability_enumerate(inst) == hypergeometric_transfer(
            container_a, container_b, moved, color
        )
        moved_inst = TransferInstance(container_a, container_b, moved, "moved")
        assert transfer_probability_enumerate(moved_inst) == hypergeometric_transfer(
            (("src", total_a),), (("dst", total_b),), moved, "src"
        )


def test_enumeration_normalises_exactly():
    # Recoloring A-objects 'src' and B-objects 'dst' makes "drawn is moved"
    # a color event, so the color partition checks the total probability.
    for container_a, container_b, moved in _color_instances(TWO_COLORS, 6):
        total_a = sum(count for _, count in container_a)
        total_b = sum(count for _, count in container_b)
        recolored = TransferInstance(
            (("src", total_a),), (("dst", total_b),), moved, "src"
        )
        p_src = transfer_probability_enumerate(recolored)
        p_dst = transfer_probability_enumerate(
            TransferInstance(
                (("src", total_a),), (("dst", total_b),), moved, "dst"
            )
        )
        assert p_src + p_dst == 1
        original = TransferInstance(container_a, container_b, moved, "moved")
        assert transfer_probability_enumerate(original) == p_src


def test_survey_smallest_bounds_hand_checked():
    def survey_instance(same, query):
        return TransferInstance((("alpha", 1),), (("alpha", same), ("beta", 1 - same)), 1, query)

    assert list(transfer_formula_survey(1, 1)) == [
        (survey_instance(0, "moved"), Fraction(1, 2), Fraction(1)),
        (survey_instance(0, "alpha"), Fraction(1, 2), Fraction(1)),
        (survey_instance(1, "moved"), Fraction(1, 2), Fraction(1)),
        (survey_instance(1, "alpha"), Fraction(1), Fraction(1)),
    ]


def test_survey_is_deterministic():
    first = list(transfer_formula_survey(3, 3))
    second = list(transfer_formula_survey(3, 3))
    assert first == second
    assert len(first) == 108  # sum over n<=3 of 2n times sum over d<=3 of d+1
    for inst, exact, formula in first:
        assert exact == transfer_probability_enumerate(inst)
        n, d = inst.container_a[0][1], sum(count for _, count in inst.container_b)
        assert formula == transfer_probability_formula(n, d)


def test_survey_rejects_empty_bounds():
    with pytest.raises(InvalidInstance):
        list(transfer_formula_survey(0, 1))
    with pytest.raises(InvalidInstance):
        list(transfer_formula_survey(1, 0))


def test_station_formula_known_values():
    assert station_walk_formula(StationInstance(60, 10)) == 55
    assert station_walk_formula(StationInstance(10, 10)) == 5
    assert station_walk_formula(StationInstance(5, 10)) == 0  # met at the station door


def test_station_instance_validation():
    with pytest.raises(InvalidInstance):
        StationInstance(5, 11)  # saved > 2 * early
    with pytest.raises(InvalidInstance):
        StationInstance(0, 1)
    with pytest.raises(InvalidInstance):
        StationInstance(5, 0)
    with pytest.raises(InvalidInstance):
        StationInstance(5.0, 1)  # floats are not exact


def test_station_saved_at_twice_early_with_unlike_denominators():
    # The bound is compared as integers; at the bound itself it still holds.
    inst = StationInstance(Fraction(1, 3), Fraction(2, 3))
    assert station_walk_formula(inst) == 0
    with pytest.raises(InvalidInstance) as info:
        StationInstance(Fraction(1, 3), Fraction(2, 3) + Fraction(1, 10**9))
    assert str(info.value) == (
        "saved_minutes cannot exceed twice early_minutes; "
        "the meeting scenario would be inconsistent"
    )
    assert info.value.argument == "saved_minutes"


def test_station_formula_nonnegative_everywhere_valid():
    rng = random.Random(3)
    for _ in range(300):
        early = Fraction(rng.randint(1, 500), rng.randint(1, 20))
        saved = early * 2 * Fraction(rng.randint(1, 100), 100)
        assert station_walk_formula(StationInstance(early, saved)) >= 0


def test_simulation_classic_configuration():
    # Closed-form meeting algebra for this configuration: the walker is met
    # after early * car / (car + walk) = 720/13 minutes, saving 120/13.
    walked, saved = station_walk_simulate(
        distance=10, car_speed=1, walk_speed=Fraction(1, 12), early_minutes=60
    )
    assert walked == Fraction(720, 13)
    assert saved == Fraction(120, 13)


def test_simulation_rejects_bad_parameters():
    # The first parameter that is not above 0 is refused, but only once every type is checked.
    for params, argument, kind, message in [
        ((0, 1, Fraction(1, 2), 10), "distance", "negative_count",
         "distance must be strictly positive, got 0"),
        ((10, 1, Fraction(-1, 2), 10), "walk_speed", "negative_count",
         "walk_speed must be strictly positive, got -1/2"),
        ((10, -1, Fraction(1, 2), 0), "car_speed", "negative_count",
         "car_speed must be strictly positive, got -1"),
        ((0, 1, 0.5, 10), "walk_speed", "type_mismatch",
         "walk_speed must be exact (int or Fraction), not float"),
    ]:
        with pytest.raises(InvalidInstance) as info:
            station_walk_simulate(*params)
        assert (info.value.argument, info.value.kind, str(info.value)) == (argument, kind, message)
    for at in range(4):  # floats are not exact, in any position
        params = [10, 1, Fraction(1, 2), 10]
        params[at] = float(params[at])
        with pytest.raises(InvalidInstance) as info:
            station_walk_simulate(*params)
        assert info.value.argument == ("distance", "car_speed", "walk_speed", "early_minutes")[at]
    with pytest.raises(InvalidInstance, match="the car must be faster than the walker"):
        station_walk_simulate(10, 1, 1, 10)  # walker as fast as the car
    home_first = "the walker reaches home before the car sets out"
    with pytest.raises(InvalidInstance, match=home_first):
        # walker reaches home long before the car would set out
        station_walk_simulate(1, 1, Fraction(9, 10), 100)
    with pytest.raises(InvalidInstance, match=home_first):
        # they would meet at home at the very instant the car sets out
        station_walk_simulate(5, 1, Fraction(1, 2), 15)


def test_simulation_identity_holds_for_random_parameters():
    rng = random.Random(11)
    checked = 0
    for _ in range(2000):  # about a quarter of the draws meet
        distance = Fraction(rng.randint(50, 30000), 100)
        car_speed = Fraction(rng.randint(20, 3000), 100)
        walk_speed = car_speed * Fraction(rng.randint(10, 950), 1000)
        early = Fraction(rng.randint(10, 24000), 100)
        try:
            walked, saved = station_walk_simulate(distance, car_speed, walk_speed, early)
        except InvalidInstance:
            continue
        assert walked == early - saved / 2
        assert 0 < walked < early
        assert saved > 0
        checked += 1
        if checked == 200:
            break
    assert checked == 200


_positive = st.fractions(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6)


@given(
    early=_positive,
    share=st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(
        lambda share: 0 < share < 1
    ),
    car_speed=_positive,
    slack=_positive,
)
def test_simulation_is_independent_of_the_parameter_family(early, share, car_speed, slack):
    # The CLI's family (car speed 1, distance X) and a second one (car speed
    # c, walker speed c*Y/(2X - Y), any distance beyond the meeting point)
    # realise the same (X, Y): both must give walked = X - Y/2 and saved = Y.
    saved = early * share
    ratio = saved / (2 * early - saved)
    cli_family = station_walk_simulate(
        distance=early, car_speed=1, walk_speed=ratio, early_minutes=early
    )
    # The car meets the walker c*Y/2 short of the station, so it must start
    # farther out than that.
    second_family = station_walk_simulate(
        distance=car_speed * saved / 2 + slack,
        car_speed=car_speed,
        walk_speed=car_speed * ratio,
        early_minutes=early,
    )
    assert cli_family == second_family == (early - saved / 2, saved)


# Numerators and denominators small and near 10^30, and a few values not above 0.
_part = st.one_of(st.integers(1, 1000), st.integers(10**30 - 1000, 10**30 + 1000))
_exact_value = st.one_of(
    st.builds(Fraction, st.one_of(_part, st.integers(-2, 0)), _part), _part
)


def _simulated(simulate, *params):
    """The oracle's result, or its refusal as (message, argument, kind)."""
    try:
        return simulate(*params)
    except InvalidInstance as exc:
        return str(exc), exc.argument, exc.kind


@given(
    distance=_exact_value,
    car_speed=_exact_value,
    walk_speed=_exact_value,
    early=_exact_value,
    # The walker's speed as drawn, as fast as the car, or a share of the car's below 1.
    walker_share=st.one_of(
        st.none(), st.just(1), st.builds(lambda p, q: Fraction(p, p + q), _part, _part)
    ),
)
def test_simulation_matches_the_operator_by_operator_reference(
    distance, car_speed, walk_speed, early, walker_share
):
    if walker_share is not None:
        walk_speed = car_speed * walker_share
    params = (distance, car_speed, walk_speed, early)
    assert _simulated(station_walk_simulate, *params) == _simulated(
        station_walk_by_operators, *params
    )
