"""Exception types shared across the solvers and the CLI."""


class PuzzleError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidInstance(PuzzleError):
    """A puzzle instance, query, or argument violates its invariants."""


class Infeasible(PuzzleError):
    """The requested goal cannot be reached with the given counts."""


class MalformedTree(PuzzleError):
    """A weighing strategy tree violates its structural invariants."""


class NoMeeting(PuzzleError):
    """The walk-and-pickup parameters do not produce a valid meeting."""
