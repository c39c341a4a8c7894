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
from dataclasses import dataclass
from typing import Union

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


@dataclass(frozen=True)
class Weigh:
    left: tuple[int, ...]
    right: tuple[int, ...]
    on_left_heavy: "StrategyNode"
    on_right_heavy: "StrategyNode"
    # None only when nothing is set aside; a balanced outcome is then
    # impossible (the heavy object must sit on one of the pans).
    on_balance: "StrategyNode | None"


@dataclass(frozen=True)
class StrategyNode:
    """A decision-tree node: the still-suspect objects and what to do next."""

    suspects: tuple[int, ...]
    action: Union[Leaf, Weigh]


def _build(suspects: tuple[int, ...]) -> StrategyNode:
    if len(suspects) == 1:
        return StrategyNode(suspects, Leaf(suspects[0]))
    # a = (m + 1) // 3 is the smallest pan size minimising max(a, m - 2a).
    a = (len(suspects) + 1) // 3
    left, right, aside = suspects[:a], suspects[a : 2 * a], suspects[2 * a :]
    return StrategyNode(
        suspects,
        Weigh(
            left=left,
            right=right,
            on_left_heavy=_build(left),
            on_right_heavy=_build(right),
            on_balance=_build(aside) if aside else None,
        ),
    )


def build_strategy(inst: WeighingInstance) -> StrategyNode:
    """Deterministic near-equal-thirds strategy tree of optimal depth."""
    return _build(tuple(range(inst.n_objects)))


def _check_node(node: StrategyNode) -> None:
    suspects = node.suspects
    suspect_set = set(suspects)
    if len(suspect_set) != len(suspects) or not suspects:
        raise MalformedTree(f"suspect list {suspects!r} is empty or repeats objects")
    action = node.action
    if isinstance(action, Leaf):
        if len(suspects) != 1 or action.identified != suspects[0]:
            raise MalformedTree(
                f"leaf identifies {action.identified} but suspects are {suspects!r}"
            )
        return
    left, right = set(action.left), set(action.right)
    if not action.left or not action.right:
        raise MalformedTree("both pans must be nonempty")
    if len(left) != len(action.left) or len(right) != len(action.right):
        raise MalformedTree("a pan repeats an object")
    if len(left) != len(right):
        raise MalformedTree(
            f"pans differ in size: {len(left)} vs {len(right)}"
        )
    if left & right:
        raise MalformedTree(f"pans overlap on {sorted(left & right)}")
    if not (left | right) <= suspect_set:
        raise MalformedTree("pans contain non-suspects")
    aside = suspect_set - left - right
    for branch, child, expected in (
        ("left-heavy", action.on_left_heavy, left),
        ("right-heavy", action.on_right_heavy, right),
        ("balance", action.on_balance, aside),
    ):
        if child is None:
            if expected:
                raise MalformedTree(f"missing {branch} child for suspects {sorted(expected)}")
            continue
        if set(child.suspects) != expected:
            raise MalformedTree(
                f"{branch} child covers {sorted(child.suspects)}, expected {sorted(expected)}"
            )


def simulate_strategy(tree: StrategyNode, heavy_index: int) -> tuple[int, int]:
    """Walk the tree as the scale would respond if ``heavy_index`` is heavy.

    Returns the identified object and the number of weighings spent.  Every
    node on the walked path is checked against the structural invariants.
    """
    if heavy_index not in tree.suspects:
        raise InvalidInstance(f"object {heavy_index} is not among the suspects")
    node, used = tree, 0
    while True:
        _check_node(node)
        action = node.action
        if isinstance(action, Leaf):
            return action.identified, used
        used += 1
        if heavy_index in action.left:
            node = action.on_left_heavy
        elif heavy_index in action.right:
            node = action.on_right_heavy
        else:
            node = action.on_balance  # _check_node proved it exists


def validate_strategy(tree: StrategyNode) -> None:
    """Check the structural invariants of every node in the tree."""
    _check_node(tree)
    if isinstance(tree.action, Weigh):
        for child in (
            tree.action.on_left_heavy,
            tree.action.on_right_heavy,
            tree.action.on_balance,
        ):
            if child is not None:
                validate_strategy(child)


def strategy_depth(tree: StrategyNode) -> int:
    """Worst-case number of weighings the tree can spend."""
    if isinstance(tree.action, Leaf):
        return 0
    children = [tree.action.on_left_heavy, tree.action.on_right_heavy]
    if tree.action.on_balance is not None:
        children.append(tree.action.on_balance)
    return 1 + max(strategy_depth(child) for child in children)


def _ids(objects: tuple[int, ...]) -> str:
    return " ".join(str(i) for i in objects)


def _render(node: StrategyNode, indent: str, lines: list[str]) -> None:
    if isinstance(node.action, Leaf):
        lines.append(f"{indent}object {node.action.identified}")
        return
    action = node.action
    lines.append(f"{indent}weigh [{_ids(action.left)}] vs [{_ids(action.right)}]")
    branches = (
        ("left heavier", action.on_left_heavy),
        ("right heavier", action.on_right_heavy),
        ("balanced", action.on_balance),
    )
    for name, child in branches:
        if child is None:
            continue
        if isinstance(child.action, Leaf):
            lines.append(f"{indent}  {name}: object {child.action.identified}")
        else:
            lines.append(f"{indent}  {name}:")
            _render(child, indent + "    ", lines)


def render_strategy(tree: StrategyNode) -> str:
    """Indented, human-readable text form of a strategy tree."""
    lines: list[str] = []
    _render(tree, "", lines)
    return "\n".join(lines)


def strategy_to_dict(tree: StrategyNode) -> dict:
    """JSON-ready nested form of a strategy tree."""
    if isinstance(tree.action, Leaf):
        return {"suspects": list(tree.suspects), "identified": tree.action.identified}
    action = tree.action
    return {
        "suspects": list(tree.suspects),
        "left": list(action.left),
        "right": list(action.right),
        "on_left_heavy": strategy_to_dict(action.on_left_heavy),
        "on_right_heavy": strategy_to_dict(action.on_right_heavy),
        "on_balance": (
            strategy_to_dict(action.on_balance)
            if action.on_balance is not None
            else None
        ),
    }
