"""Exception types shared across the solvers and the CLI."""


class PuzzleError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidInstance(PuzzleError):
    """A puzzle instance, query, or argument violates its invariants.

    A refusal that names the ``argument`` it refuses reads "<argument>
    <problem>"; ``index`` is a refused color's position in that argument, and
    ``kind`` the ``ParseErrorKind`` value a DSL reader reports the rule under.
    """

    def __init__(self, problem: str, argument: str | None = None,
                 index: int | None = None, kind: str = "syntax") -> None:
        super().__init__(problem if argument is None else f"{argument} {problem}")
        self.argument = argument
        self.index = index
        self.kind = kind


class Infeasible(PuzzleError):
    """The requested goal cannot be reached with the given counts."""
