"""Test-side brute-force oracles, independent of the package's own oracles.

These deliberately re-derive answers from first principles (enumerating
elementary outcomes) so that package formulas and package oracles can both
be checked against a third route.  The station oracle here takes one
``Fraction`` operator a step, a reference for the package's, which builds
each step from integers.  ``strategy_depth`` and ``completed_scenario`` are
checks only the tests need: a strategy tree's worst case, and a rate answer
substituted back into its scenario.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb

from riddle_forge import InvalidInstance, Leaf, Quantity, RateQuery, RateScenario, Weigh


def exhaustive_max_avoiding(counts: tuple[int, ...], required: int) -> int:
    """Longest draw sequence with no color reaching ``required``, by brute force.

    A draw sequence is characterised by its per-color drawn vector (objects
    of one color are interchangeable), and every vector d <= counts is
    realisable by some order, so enumerating vectors enumerates every
    distinguishable outcome.  Returns -1 when even zero draws... never:
    the empty sequence always avoids, so the result is >= 0.
    """
    best = -1
    for vector in product(*(range(c + 1) for c in counts)):
        if all(v < required for v in vector):
            total = sum(vector)
            if total > best:
                best = total
    return best


def exhaustive_worst_case(limit: int) -> list[int]:
    """Worst-case weighing counts for 0..limit suspects, trying every pan size.

    The same recursion as the package's minimax table, f(1) = 0 and
    f(m) = 1 + min over a in [1, m // 2] of max(f(a), f(m - 2a)), but
    minimised by scanning every ``a`` instead of searching for the
    crossing, so it assumes nothing about the shape of f.  Index 0 is the
    impossible "balanced with nothing set aside" outcome.
    """
    table = [0, 0]
    for m in range(2, limit + 1):
        table.append(
            1 + min(max(table[a], table[m - 2 * a]) for a in range(1, m // 2 + 1))
        )
    return table[: limit + 1]


def elementary_transfer(container_a, container_b, moved):
    """Equal-weight enumeration of every (transfer subset, draw) outcome.

    Objects are distinguishable here: each of the C(|A|, moved) transfer
    subsets is equally likely, then each object of the enlarged B is equally
    likely to be drawn.  Returns (p_drawn_is_moved, p_drawn_not_moved,
    {color: p_drawn_has_color}) as exact fractions.
    """
    a_objects = [color for color, count in container_a for _ in range(count)]
    b_objects = [color for color, count in container_b for _ in range(count)]
    total_events = 0
    moved_hits = 0
    color_hits: dict[str, int] = {}
    for subset in combinations(range(len(a_objects)), moved):
        pool = [(color, False) for color in b_objects]
        pool += [(a_objects[i], True) for i in subset]
        for color, was_moved in pool:
            total_events += 1
            if was_moved:
                moved_hits += 1
            color_hits[color] = color_hits.get(color, 0) + 1
    p_moved = Fraction(moved_hits, total_events)
    p_not_moved = Fraction(total_events - moved_hits, total_events)
    p_colors = {
        color: Fraction(hits, total_events) for color, hits in color_hits.items()
    }
    return p_moved, p_not_moved, p_colors


def hypergeometric_transfer(container_a, container_b, moved, color):
    """P(the object drawn from B has ``color``), summed over every split.

    A uniform move of ``moved`` of A's objects takes k of the color's a_c
    with weight C(a_c, k) C(|A| - a_c, moved - k) / C(|A|, moved); the
    uniform draw from the enlarged B then hits the color with probability
    (b_c + k) / (|B| + moved).  Only feasible splits are summed.
    """
    a_c = dict(container_a).get(color, 0)
    b_c = dict(container_b).get(color, 0)
    total_a = sum(count for _, count in container_a)
    after = sum(count for _, count in container_b) + moved
    others = total_a - a_c
    favorable = sum(
        comb(a_c, k) * comb(others, moved - k) * (b_c + k)
        for k in range(max(0, moved - others), min(a_c, moved) + 1)
    )
    return Fraction(favorable, comb(total_a, moved) * after)


def station_walk_by_operators(distance, car_speed, walk_speed, early_minutes):
    """The station kinematic oracle with one ``Fraction`` operator per step.

    The same meeting of two linear motions as ``station_walk_simulate``,
    written as the motions read, so that the package's integer arithmetic
    can be checked against it.  Arguments are exact; a parameter that is not
    above 0 is refused in the package's words, the first one in argument
    order.  Returns (walked_minutes, saved_minutes).
    """
    params = {"distance": distance, "car_speed": car_speed, "walk_speed": walk_speed,
              "early_minutes": early_minutes}
    for argument, value in params.items():
        if value <= 0:
            raise InvalidInstance(f"must be strictly positive, got {value}", argument,
                                  kind="negative_count")
    distance, car_speed, walk_speed, early_minutes = map(Fraction, params.values())
    if walk_speed >= car_speed:
        raise InvalidInstance("the car must be faster than the walker")

    departure = -distance / car_speed  # car leaves home here to land at t = 0
    # car: distance + car_speed * t; walker: distance - walk_speed * (t + early)
    meeting_time = -walk_speed * early_minutes / (car_speed + walk_speed)
    if meeting_time <= departure:
        raise InvalidInstance("the walker reaches home before the car sets out")
    meeting_point = distance + car_speed * meeting_time

    walked_minutes = meeting_time + early_minutes
    usual_home_arrival = distance / car_speed
    today_home_arrival = meeting_time + meeting_point / car_speed
    saved_minutes = usual_home_arrival - today_home_arrival
    return walked_minutes, saved_minutes


def station_check_by_operators(early, saved):
    """(answer, oracle, agreement) of ``solve --check`` on a station puzzle.

    The answer is early - saved/2; the check runs the operator-by-operator
    oracle on the CLI's parameter family (car speed 1, walker speed
    saved/(2*early - saved), distance early) when saved < early, and is
    unverifiable (None, None) otherwise.
    """
    walked = early - saved / 2
    if not saved < early:
        return str(walked), None, None
    sim_walked, sim_saved = station_walk_by_operators(
        early, 1, saved / (2 * early - saved), early
    )
    return str(walked), str(sim_walked), sim_walked == walked and sim_saved == saved


def strategy_depth(tree: Leaf | Weigh) -> int:
    """Worst-case number of weighings the tree can spend."""
    if isinstance(tree, Leaf):
        return 0
    return 1 + max(strategy_depth(child) for _, child in tree.branches())


def completed_scenario(query: RateQuery, solution: Fraction) -> RateScenario:
    """The query's scenario with the solved value plugged back in."""
    values = {field: getattr(query, field) for field in ("work", "subjects", "time")}
    values[query.target] = solution if query.target == "time" else Quantity(solution)
    return RateScenario(**values)
