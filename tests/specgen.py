"""Deterministic random puzzle-spec generator shared by parser tests."""

import random
from fractions import Fraction

from riddle_forge import (
    PigeonholeInstance,
    PuzzleSpec,
    Quantity,
    RateQuery,
    RateScenario,
    StationInstance,
    TransferInstance,
    WeighingInstance,
)

# 'min', 'h', 'moved' and the statement keywords never appear here: any of
# them in label position would change meaning when reparsed.
WORDS = [
    "blue", "red", "green", "black", "white", "amber", "teal", "coral",
    "cats", "mice", "bakers", "coins", "socks", "stamps", "pearls",
    "alpha", "beta", "gamma", "delta", "omega",
]


def _word(rng: random.Random) -> str:
    return rng.choice(WORDS)


def _positive_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 400), rng.randint(1, 40))


def _count_quantity(rng: random.Random) -> Quantity:
    label = _word(rng) if rng.random() < 0.6 else None
    return Quantity(_positive_fraction(rng), label)


def random_rate(rng: random.Random) -> RateQuery:
    known = RateScenario(
        work=_count_quantity(rng),
        subjects=_count_quantity(rng),
        time=_positive_fraction(rng),
    )
    target = rng.choice(["work", "subjects", "time"])
    given = {}
    for field in ("work", "subjects", "time"):
        if field == target:
            continue
        given[field] = _positive_fraction(rng) if field == "time" else _count_quantity(rng)
    return RateQuery(known=known, **given)


def random_weighing(rng: random.Random) -> WeighingInstance:
    return WeighingInstance(rng.randint(1, 400))


def _colors(rng: random.Random, low: int, high: int) -> list[str]:
    return rng.sample(WORDS, rng.randint(low, high))


def random_pigeonhole(rng: random.Random) -> PigeonholeInstance:
    pairs = tuple((color, rng.randint(0, 30)) for color in _colors(rng, 1, 4))
    return PigeonholeInstance(pairs, rng.randint(1, 6))


def random_transfer(rng: random.Random) -> TransferInstance:
    a_labels = _colors(rng, 1, 3)
    a_counts = [rng.randint(1, 5)] + [rng.randint(0, 5) for _ in a_labels[1:]]
    pairs_a = tuple(zip(a_labels, a_counts))
    b_labels = _colors(rng, 0, 3)
    pairs_b = tuple((color, rng.randint(0, 5)) for color in b_labels)
    moved = rng.randint(1, sum(a_counts))
    if rng.random() < 0.4:
        query = "moved"
    else:
        pool = a_labels + b_labels + [_word(rng)]
        query = rng.choice(pool)
    return TransferInstance(pairs_a, pairs_b, moved, query)


def random_station(rng: random.Random) -> StationInstance:
    early = _positive_fraction(rng)
    saved_ratio = Fraction(rng.randint(1, 200), 100)  # in (0, 2]
    return StationInstance(early, early * saved_ratio)


_BUILDERS = [
    random_rate,
    random_weighing,
    random_pigeonhole,
    random_transfer,
    random_station,
]


def random_spec(rng: random.Random) -> PuzzleSpec:
    payload = rng.choice(_BUILDERS)(rng)
    label = f"{_word(rng)}_{rng.randint(0, 99)}" if rng.random() < 0.5 else None
    return PuzzleSpec(payload, label)
