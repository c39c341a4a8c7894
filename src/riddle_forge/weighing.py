"""Balance-scale solver: find the one heavier object among N look-alikes.

Two independent routes to the same number:

* a closed form that brackets N between consecutive powers of three
  (each weighing has three outcomes, so it can cut the suspect set to a
  third at best), and
* a minimax search over pan sizes that never appeals to the closed form,
  used to prove it tight.

On top of those, an explicit strategy tree makes the textbook "split into
three near-equal groups" procedure executable and checkable.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from .core import _is_int
from .errors import InvalidInstance, MalformedTree


@dataclass(frozen=True)
class WeighingInstance:
    n_objects: int

    puzzle_kind = "weighing"

    def __post_init__(self) -> None:
        if not _is_int(self.n_objects) or self.n_objects < 1:
            raise InvalidInstance("n_objects must be a positive integer")

    @classmethod
    def from_block(cls, block) -> "WeighingInstance | None":
        """``puzzle weighing { objects = 13 }``; see ``speck._Block``."""
        (objects,) = block.take("objects")
        count = block.integer(objects, minimum=1)
        return None if count is None else cls(count)

    def block_items(self) -> list[tuple[str, object]]:
        return [("objects", self.n_objects)]


def min_weighings_formula(inst: WeighingInstance) -> int:
    """Closed-form minimum weighing count P, where 3^(P-1) < n <= 3^P.

    A lone object is already identified: zero weighings by definition.
    """
    n = inst.n_objects
    weighings, power = 0, 1  # power is 3 ** weighings
    while power < n:
        weighings, power = weighings + 1, power * 3
    return weighings


# Worst-case-optimal weighing counts indexed by suspect count.  Index 0 is a
# sentinel for the impossible "balanced with nothing set aside" outcome.
_worst_case: list[int] = [0, 0]
_growing = threading.Lock()


def _crossing(table: list[int], m: int) -> int:
    """Smallest ``a`` in [1, m // 2] with f(a) >= f(m - 2a), by bisection.

    Returns m // 2 + 1 if there is none.
    """
    low, high = 1, m // 2 + 1
    while low < high:
        mid = (low + high) // 2
        if table[mid] >= table[m - 2 * mid]:
            high = mid
        else:
            low = mid + 1
    return low


def _worst_case_table(limit: int) -> list[int]:
    """Minimax table for suspect counts up to ``limit``.

    Putting ``a`` suspects on each pan splits m suspects into outcome
    classes of size a (left heavy), a (right heavy) and m - 2a (balanced),
    and within a class all suspects are symmetric, so the state is just the
    class size:

        f(1) = 0
        f(m) = 1 + min over a in [1, m // 2] of max(f(a), f(m - 2a))

    The adversary picks the worst outcome, we pick the best pan size.  As
    ``a`` grows, f(a) rises and f(m - 2a) falls, so the minimum lies where
    they cross: at the smallest ``a`` with f(a) >= f(m - 2a), or one left
    of it.  Going from row m to row m + 1 can only raise f(m - 2a), so the
    crossing never moves left: it is carried from row to row and stepped
    forward, at most limit // 2 steps in all, so the table costs O(limit).
    The first row of a resumed build finds its crossing by bisection.  Both
    rely on f being nondecreasing, which is checked row by row.  The
    recursion never consults the closed form it is used to verify.
    """
    table = _worst_case
    if limit < len(table):  # rows are only ever appended, so these are final
        return table
    with _growing:  # rows are appended in place, one grower at a time
        low = _crossing(table, len(table))
        for m in range(len(table), limit + 1):
            half = m // 2
            while low <= half and table[low] < table[m - 2 * low]:
                low += 1
            # Just left of the crossing the set-aside class is the worse outcome,
            # at the crossing the pans are.
            best = table[m - 2 * low + 2] if low > 1 else m
            if low <= half and table[low] < best:
                best = table[low]
            if 1 + best < table[m - 1]:
                raise RuntimeError(
                    f"minimax table decreases at {m} suspects; its pan-size "
                    "crossing needs it nondecreasing"
                )
            table.append(1 + best)
    return table


def min_weighings_oracle(inst: WeighingInstance) -> int:
    """Worst-case-optimal weighing count by minimax search over pan sizes."""
    return _worst_case_table(inst.n_objects)[inst.n_objects]


@dataclass(frozen=True)
class Leaf:
    identified: int

    @property
    def suspects(self) -> tuple[int, ...]:
        return (self.identified,)


@dataclass(frozen=True)
class Weigh:
    """A decision-tree node: weigh, then follow the outcome's subtree.

    Each pan is the suspects of the subtree that follows it coming down
    heavy, so no pan is stored apart from the subtree it could disagree with.
    """

    on_left_heavy: Leaf | Weigh
    on_right_heavy: Leaf | Weigh
    # None only when nothing is set aside; a balanced outcome is then
    # impossible (the heavy object must sit on one of the pans).
    on_balance: Leaf | Weigh | None = None
    # The pans, then the set-aside group.
    suspects: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        aside = () if self.on_balance is None else self.on_balance.suspects
        object.__setattr__(self, "suspects", self.left + self.right + aside)

    @property
    def left(self) -> tuple[int, ...]:
        return self.on_left_heavy.suspects

    @property
    def right(self) -> tuple[int, ...]:
        return self.on_right_heavy.suspects

    def branches(self) -> list[tuple[str, Leaf | Weigh]]:
        """(outcome, subtree) for each outcome that can happen."""
        pairs = [("left heavier", self.on_left_heavy), ("right heavier", self.on_right_heavy)]
        if self.on_balance is not None:
            pairs.append(("balanced", self.on_balance))
        return pairs


def _build(suspects: tuple[int, ...]) -> Leaf | Weigh:
    if len(suspects) == 1:
        return Leaf(suspects[0])
    # a = (m + 1) // 3 is the smallest pan size minimising max(a, m - 2a).
    a = (len(suspects) + 1) // 3
    aside = suspects[2 * a :]
    return Weigh(
        _build(suspects[:a]),
        _build(suspects[a : 2 * a]),
        _build(aside) if aside else None,
    )


def build_strategy(inst: WeighingInstance) -> Leaf | Weigh:
    """Deterministic near-equal-thirds strategy tree of optimal depth."""
    return _build(tuple(range(inst.n_objects)))


def _check_node(node: Weigh) -> None:
    """The two invariants a node can break: every other one is its shape."""
    if len(node.left) != len(node.right):
        raise MalformedTree(f"pans differ in size: {len(node.left)} vs {len(node.right)}")
    if len(set(node.suspects)) != len(node.suspects):
        raise MalformedTree(f"suspect list {node.suspects!r} repeats objects")


def simulate_strategy(tree: Leaf | Weigh, heavy_index: int) -> tuple[int, int]:
    """Walk the tree as the scale would respond if ``heavy_index`` is heavy.

    Returns the identified object and the number of weighings spent.  Every
    node on the walked path is checked against the structural invariants.
    """
    if heavy_index not in tree.suspects:
        raise InvalidInstance(f"object {heavy_index} is not among the suspects")
    node, used = tree, 0
    # heavy_index stays among node's suspects, so a balance is never None.
    while isinstance(node, Weigh):
        _check_node(node)
        used += 1
        if heavy_index in node.left:
            node = node.on_left_heavy
        elif heavy_index in node.right:
            node = node.on_right_heavy
        else:
            node = node.on_balance
    return node.identified, used


def validate_strategy(tree: Leaf | Weigh) -> None:
    """Check the structural invariants of every node in the tree."""
    if isinstance(tree, Weigh):
        _check_node(tree)
        for _, child in tree.branches():
            validate_strategy(child)


def strategy_depth(tree: Leaf | Weigh) -> int:
    """Worst-case number of weighings the tree can spend."""
    if isinstance(tree, Leaf):
        return 0
    return 1 + max(strategy_depth(child) for _, child in tree.branches())


def _ids(objects: tuple[int, ...]) -> str:
    return " ".join(str(i) for i in objects)


def _render(node: Leaf | Weigh, indent: str, lines: list[str]) -> None:
    if isinstance(node, Leaf):
        lines.append(f"{indent}object {node.identified}")
        return
    lines.append(f"{indent}weigh [{_ids(node.left)}] vs [{_ids(node.right)}]")
    for name, child in node.branches():
        if isinstance(child, Leaf):
            lines.append(f"{indent}  {name}: object {child.identified}")
        else:
            lines.append(f"{indent}  {name}:")
            _render(child, indent + "    ", lines)


def render_strategy(tree: Leaf | Weigh) -> str:
    """Indented, human-readable text form of a strategy tree."""
    lines: list[str] = []
    _render(tree, "", lines)
    return "\n".join(lines)


def strategy_to_dict(tree: Leaf | Weigh) -> dict:
    """JSON-ready nested form of a strategy tree."""
    if isinstance(tree, Leaf):
        return {"suspects": [tree.identified], "identified": tree.identified}
    return {
        "suspects": list(tree.suspects),
        "left": list(tree.left),
        "right": list(tree.right),
        "on_left_heavy": strategy_to_dict(tree.on_left_heavy),
        "on_right_heavy": strategy_to_dict(tree.on_right_heavy),
        "on_balance": (
            None if tree.on_balance is None else strategy_to_dict(tree.on_balance)
        ),
    }
