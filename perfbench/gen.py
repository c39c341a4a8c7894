"""Seeded `.speck` inputs for the benchmark workloads.

The generator writes DSL text itself and records, next to every block, the
parameters it was built from, so the reference checker never has to parse
what the program parsed.  It keeps the distribution of the test suite's
random spec generator (kinds uniform over the five, the same numeric
ranges), so `solve_bulk` stays comparable with the 20k-puzzle baseline,
but it shares no code with that generator or with the program's
serializer: a change to either cannot silently change the workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

# 'min', 'h', 'sec', 'moved', 'puzzle' and the statement keywords never
# appear here: any of them in label position would change the meaning.
WORDS = [
    "blue", "red", "green", "black", "white", "amber", "teal", "coral",
    "cats", "mice", "bakers", "coins", "socks", "stamps", "pearls",
    "alpha", "beta", "gamma", "delta", "omega",
]
KINDS = ("rate", "weighing", "pigeonhole", "transfer", "station")


@dataclass
class Block:
    """One puzzle block: its statements and the parameters behind them."""

    kind: str
    params: dict
    label: str | None = None
    stmts: list[str] = field(default_factory=list)

    def render(self) -> str:
        """The block as one line of `.speck` text."""
        return f"puzzle {self.kind} {{ " + "; ".join(self.stmts) + " }"


@dataclass
class SpeckFile:
    """Generated source text plus what the reference needs to check it."""

    text: str
    blocks: list[Block]

    @property
    def n_bytes(self) -> int:
        return len(self.text.encode("utf-8"))

    def kind_counts(self) -> dict[str, int]:
        counts = dict.fromkeys(KINDS, 0)
        for block in self.blocks:
            counts[block.kind] += 1
        return counts


def _word(rng: random.Random) -> str:
    return rng.choice(WORDS)


def _fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 400), rng.randint(1, 40))


def _count(rng: random.Random) -> tuple[Fraction, str]:
    value = _fraction(rng)
    word = _word(rng) if rng.random() < 0.6 else None
    return value, f"{value} {word}" if word else str(value)


def _minutes(rng: random.Random) -> tuple[Fraction, str]:
    value = _fraction(rng)
    return value, f"{value} min"


def _colorlist(pairs: list[tuple[str, int]]) -> str:
    return "(" + ", ".join(f"{name}: {count}" for name, count in pairs) + ")"


def _rate(rng: random.Random) -> Block:
    work, work_text = _count(rng)
    subjects, subjects_text = _count(rng)
    time, time_text = _minutes(rng)
    target = rng.choice(("work", "subjects", "time"))
    given, clauses = {}, []
    for name in ("work", "subjects", "time"):
        if name == target:
            continue
        value, text = _minutes(rng) if name == "time" else _count(rng)
        given[name] = value
        clauses.append(f"{name} = {text}")
    params = {"known": (work, subjects, time), "target": target, "given": given}
    return Block("rate", params, stmts=[
        f"work = {work_text}",
        f"subjects = {subjects_text}",
        f"time = {time_text}",
        f"find {target} where " + ", ".join(clauses),
    ])


def _weighing(rng: random.Random, objects: int | None = None) -> Block:
    n = rng.randint(1, 400) if objects is None else objects
    return Block("weighing", {"objects": n}, stmts=[f"objects = {n}"])


def _pigeonhole(rng: random.Random) -> Block:
    pairs = [(color, rng.randint(0, 30)) for color in rng.sample(WORDS, rng.randint(1, 4))]
    required = rng.randint(1, 6)
    return Block("pigeonhole", {"counts": pairs, "required": required}, stmts=[
        f"counts = {_colorlist(pairs)}",
        f"required = {required}",
    ])


def _transfer_block(
    a: list[tuple[str, int]], b: list[tuple[str, int]], moved: int, query: str
) -> Block:
    params = {"a": a, "b": b, "moved": moved, "query": query}
    return Block("transfer", params, stmts=[
        f"container_a = {_colorlist(a)}",
        f"container_b = {_colorlist(b)}",
        f"moved = {moved}",
        f"query = {query}",
    ])


def _transfer(rng: random.Random) -> Block:
    a_colors = rng.sample(WORDS, rng.randint(1, 3))
    a_counts = [rng.randint(1, 5)] + [rng.randint(0, 5) for _ in a_colors[1:]]
    b_colors = rng.sample(WORDS, rng.randint(0, 3))
    b = [(color, rng.randint(0, 5)) for color in b_colors]
    moved = rng.randint(1, sum(a_counts))
    if rng.random() < 0.4:
        query = "moved"
    else:
        query = rng.choice(a_colors + b_colors + [_word(rng)])
    return _transfer_block(list(zip(a_colors, a_counts)), b, moved, query)


def _station_block(early: Fraction, saved: Fraction) -> Block:
    return Block("station", {"early": early, "saved": saved}, stmts=[
        f"early = {early} min",
        f"saved = {saved} min",
    ])


def _station(rng: random.Random) -> Block:
    early = _fraction(rng)
    return _station_block(early, early * Fraction(rng.randint(1, 200), 100))


_BUILDERS = {
    "rate": _rate,
    "weighing": _weighing,
    "pigeonhole": _pigeonhole,
    "transfer": _transfer,
    "station": _station,
}


def random_block(rng: random.Random, kind: str | None = None) -> Block:
    block = _BUILDERS[kind or rng.choice(KINDS)](rng)
    if rng.random() < 0.5:
        block.label = f"{_word(rng)}_{rng.randint(0, 99)}"
        block.stmts.insert(0, f"label = {block.label}")
    return block


def _join(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def bulk_file(rng: random.Random, n_blocks: int) -> SpeckFile:
    """Valid puzzles of all five kinds, one block per line."""
    blocks = [random_block(rng) for _ in range(n_blocks)]
    return SpeckFile(_join([block.render() for block in blocks]), blocks)


def hard_file(rng: random.Random) -> SpeckFile:
    """The three largest instances whose oracles still finish in seconds."""
    weighing = _weighing(rng, objects=3 ** 8)
    colors = rng.sample(WORDS, 3)
    pigeonhole = Block("pigeonhole", {
        "counts": [(color, 3_000_000) for color in colors],
        "required": 3_000_000,
    }, stmts=[
        f"counts = {_colorlist([(color, 3_000_000) for color in colors])}",
        "required = 3000000",
    ])
    a_colors = rng.sample(WORDS, 8)
    b = [(color, rng.randint(1, 5)) for color in rng.sample(WORDS, 2)]
    transfer = _transfer_block(
        [(color, 4) for color in a_colors], b, 16, rng.choice(a_colors)
    )
    blocks = [weighing, pigeonhole, transfer]
    rng.shuffle(blocks)
    for block in blocks:
        block.label = f"{_word(rng)}_{rng.randint(0, 99)}"
        block.stmts.insert(0, f"label = {block.label}")
    return SpeckFile(_join([block.render() for block in blocks]), blocks)
