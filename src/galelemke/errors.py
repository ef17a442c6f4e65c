"""Exception types shared across the package."""


class GaleLemkeError(Exception):
    """Base class for all package-specific errors."""


class GameFormatError(GaleLemkeError):
    """Malformed game or profile text; carries a 1-based line/column position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class DegenerateGameError(GaleLemkeError):
    """Raised when an operation that requires nondegeneracy hits a tie."""


class StepCapExceededError(GaleLemkeError):
    """A pivoting run hit its step cap before terminating."""

    def __init__(self, message: str, steps_taken: int):
        self.steps_taken = steps_taken
        super().__init__(message)


class InvariantError(GaleLemkeError):
    """An internal invariant of a walk or a solver failed: a program fault,
    checked on every call so that a wrong answer is never returned."""


class BudgetExceededError(GaleLemkeError):
    """An enumeration was refused because it exceeds its module's budget."""


class NoEquilibriumError(GaleLemkeError):
    """A search exhausted its universe without finding an equilibrium."""
