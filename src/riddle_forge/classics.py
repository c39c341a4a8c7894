"""Two background classics, each with a formula and an independent oracle.

Container transfer: move some objects at random from container A into
container B, draw one from B, ask for a probability.  The folklore answer
2n/(n+d) is evaluated as given; the oracle derives the exact probability
from the containers alone (the expected number of the queried color's
objects that move, by linearity of expectation).  A survey pairs each
instance of one family with both answers; ``survey_line`` writes the
instance, the answers and whether they agree as one TSV line.

Station walk: a walker leaves the station X minutes early and walks toward
the car coming to fetch them; the pair arrives home Y minutes early.  The
identity walked = X - Y/2 is checked against an exact kinematic oracle
that solves for the meeting of the two linear motions and knows nothing
about the identity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .core import Value, _exact, _normalize_counts, _positive, _positive_int, _set
from .errors import InvalidInstance


class TransferInstance(Value):
    """Two containers, a uniform random transfer from A to B, one draw from B.

    ``query`` is the DSL's word: "moved" asks whether the drawn object is one
    of the transferred ones, any other string whether it has that color.  A
    container may hold a color named "moved", but no query can ask for it.
    """

    __slots__ = _fields = ("container_a", "container_b", "moved", "query")
    puzzle_kind = "transfer"

    def __init__(self, container_a: tuple[tuple[str, int], ...],
                 container_b: tuple[tuple[str, int], ...], moved: int, query: str) -> None:
        a = _normalize_counts(container_a, "container_a", True)
        b = _normalize_counts(container_b, "container_b", False)
        total_a = sum([count for _, count in a])
        if _positive_int(moved, "moved") > total_a:
            raise InvalidInstance(
                f"must not exceed the {total_a} objects in container_a, got {moved}", "moved"
            )
        if not isinstance(query, str):
            raise InvalidInstance(f"must be a string, not {type(query).__name__}", "query")
        _set(self, "container_a", a)
        _set(self, "container_b", b)
        _set(self, "moved", moved)
        _set(self, "query", query)

    @classmethod
    def from_block(cls, block) -> "TransferInstance | None":
        """``query = moved`` asks for a moved object, any other word for a color."""
        a, b, moved, query = block.take("container_a", "container_b", "moved", "query")
        pairs_a, pairs_b = block.colors(a), block.colors(b)
        count, word = block.integer(moved), block.word(query)
        if None in (pairs_a, pairs_b, count, word):
            return None
        return block.make(cls, pairs_a, pairs_b, count, word, at=(a, b, moved))

    def block_items(self) -> list[tuple[str, object]]:
        return [("container_a", self.container_a), ("container_b", self.container_b),
                ("moved", self.moved), ("query", self.query)]


def transfer_probability_formula(n: int, d: int) -> Fraction:
    """The folklore closed form 2n/(n+d), evaluated exactly as written.

    No claim is made that the result is a valid probability for all n, d.
    """
    return Fraction(2 * _positive_int(n, "n"), n + _positive_int(d, "d"))


def transfer_probability_enumerate(inst: TransferInstance) -> Fraction:
    """Exact probability of the query event, by linearity of expectation.

    Each of A's objects moves with probability m / |A|, so the number k of
    the queried color's a_c objects that move has E[k] = m a_c / |A|.  B
    holds |B| + m objects after every move, so the draw hits the color with
    probability E[b_c + k] / (|B| + m) = (b_c |A| + m a_c) / (|A| (|B| + m)),
    and the query "moved" has m / (|B| + m).
    Nothing here uses 2n/(n+d).  The name is kept from the sum over every
    split this replaced: the CLI and the survey's ``enumerated`` column use it.
    """
    moved = inst.moved
    after = sum([count for _, count in inst.container_b]) + moved
    if inst.query == "moved":
        return Fraction(moved, after)
    color = inst.query
    a_c = dict(inst.container_a).get(color, 0)
    b_c = dict(inst.container_b).get(color, 0)
    total_a = sum([count for _, count in inst.container_a])
    return Fraction(b_c * total_a + moved * a_c, total_a * after)


def transfer_formula_survey(
    max_n: int, max_d: int
) -> Iterator[tuple[TransferInstance, Fraction, Fraction]]:
    """Compare 2n/(n+d) with the exact probability over the canonical family.

    The family: container A holds n objects of one color ("alpha");
    container B holds ``same`` alphas and the rest "beta", d in all;
    ``moved`` objects go across; the query is either "moved" or the color
    "alpha".  Each instance is yielded with its exact probability and
    2n/(n+d), one at a time, in a fixed nested order (n, d, same, moved,
    query), so the survey is deterministic for given bounds.
    Agreement is recorded, never asserted.
    """
    _positive_int(max_n, "max_n")
    _positive_int(max_d, "max_d")
    for n in range(1, max_n + 1):
        container_a = (("alpha", n),)
        for d in range(1, max_d + 1):
            formula = transfer_probability_formula(n, d)
            for same in range(d + 1):
                container_b = (("alpha", same), ("beta", d - same))
                for moved in range(1, n + 1):
                    for query in ("moved", "alpha"):
                        inst = TransferInstance(container_a, container_b, moved, query)
                        yield inst, transfer_probability_enumerate(inst), formula


SURVEY_HEADER = "n\td\tsame\tmoved\tquery\tenumerated\tformula\tmatch\n"


def survey_line(inst: TransferInstance, enumerated: Fraction, formula: Fraction) -> str:
    """One line of the survey report for a survey instance, its newline included."""
    ((_, n),) = inst.container_a
    (_, same), (_, other) = inst.container_b
    query = "drawn_is_moved" if inst.query == "moved" else "drawn_has_color"
    return (
        f"{n}\t{same + other}\t{same}\t{inst.moved}\t{query}\t{enumerated}\t{formula}"
        f"\t{'yes' if enumerated == formula else 'no'}\n"
    )


class StationInstance(Value):
    """Walker leaves X minutes early; the pair gets home Y minutes early."""

    __slots__ = _fields = ("early_minutes", "saved_minutes")
    puzzle_kind = "station"

    def __init__(self, early_minutes: Fraction, saved_minutes: Fraction) -> None:
        early = _positive(early_minutes, "early_minutes")
        saved = _positive(saved_minutes, "saved_minutes")
        # saved > 2 * early, compared as integers: a Fraction takes longer to build.
        if saved.numerator * early.denominator > 2 * early.numerator * saved.denominator:
            raise InvalidInstance("cannot exceed twice early_minutes; the meeting scenario "
                                  "would be inconsistent", "saved_minutes")
        _set(self, "early_minutes", early)
        _set(self, "saved_minutes", saved)

    @classmethod
    def from_block(cls, block) -> "StationInstance | None":
        """``puzzle station { early = 20 min; saved = 1/4 h }``."""
        early_at, saved_at = block.take("early", "saved")
        early, saved = block.time(early_at), block.time(saved_at)
        if early is None or saved is None:
            return None
        return block.make(cls, early, saved, at=(early_at, saved_at))

    def block_items(self) -> list[tuple[str, object]]:
        return [("early", self.early_minutes), ("saved", self.saved_minutes)]


def station_walk_formula(inst: StationInstance) -> Fraction:
    """Minutes walked before pickup: early - saved/2, exactly."""
    early, saved = inst.early_minutes, inst.saved_minutes
    # Built as one Fraction from numerators and denominators: two operators would build two.
    return Fraction(2 * early.numerator * saved.denominator - saved.numerator * early.denominator,
                    2 * early.denominator * saved.denominator)


def station_walk_simulate(
    distance: Fraction,
    car_speed: Fraction,
    walk_speed: Fraction,
    early_minutes: Fraction,
) -> tuple[Fraction, Fraction]:
    """Exact kinematic oracle for the walk-and-pickup identity.

    Home sits at position 0, the station at ``distance``.  The car leaves
    home so that it reaches the station exactly at the usual pickup time
    (t = 0); the walker leaves the station ``early_minutes`` before that and
    walks toward home.  Both motions are linear, so the meeting is the one
    instant where the car's position equals the walker's; the walked time
    and the minutes saved against the usual round trip are then read off
    the two motions.  Arguments must be exact (int or Fraction), so every
    step is exact too: each is one Fraction built from the numerators and
    denominators of the steps before it, and each comparison is one of
    integers.

    Returns (walked_minutes, saved_minutes).
    """
    distance = _exact(distance, "distance")
    car_speed = _exact(car_speed, "car_speed")
    walk_speed = _exact(walk_speed, "walk_speed")
    early_minutes = _exact(early_minutes, "early_minutes")
    d, dd = distance.numerator, distance.denominator
    c, cd = car_speed.numerator, car_speed.denominator
    w, wd = walk_speed.numerator, walk_speed.denominator
    e, ed = early_minutes.numerator, early_minutes.denominator
    # Every type is checked before any sign; a Fraction's sign is its numerator's.
    if d <= 0 or c <= 0 or w <= 0 or e <= 0:
        _positive(distance, "distance")  # refuses the first parameter not above 0
        _positive(car_speed, "car_speed")
        _positive(walk_speed, "walk_speed")
        _positive(early_minutes, "early_minutes")
    if w * cd >= c * wd:  # walk_speed >= car_speed
        raise InvalidInstance("the car must be faster than the walker")

    # The car drives distance / car_speed each way: it leaves home at -trip,
    # and on a usual day it is home again at +trip.
    trip = Fraction(d * cd, dd * c)
    r, rd = trip.numerator, trip.denominator
    # car: distance + car_speed * t; walker: distance - walk_speed * (t + early),
    # so they meet at -walk_speed * early_minutes / (car_speed + walk_speed).
    meeting_time = Fraction(-w * e * cd, ed * (c * wd + w * cd))
    t, td = meeting_time.numerator, meeting_time.denominator
    if t * rd <= -r * td:  # meeting_time <= the car's departure
        raise InvalidInstance("the walker reaches home before the car sets out")
    meeting_point = Fraction(d * cd * td + dd * c * t, dd * cd * td)  # car's position then
    p, pd = meeting_point.numerator, meeting_point.denominator

    walked_minutes = Fraction(t * ed + e * td, td * ed)  # meeting_time + early_minutes
    # meeting_time + meeting_point / car_speed
    today_home_arrival = Fraction(t * pd * c + p * cd * td, td * pd * c)
    h, hd = today_home_arrival.numerator, today_home_arrival.denominator
    saved_minutes = Fraction(r * hd - h * rd, rd * hd)  # usual home arrival - today's
    return walked_minutes, saved_minutes
