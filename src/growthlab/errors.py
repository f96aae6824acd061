"""Exceptions, the node budget and the line reader shared across
growthlab modules."""

#: nodes allowed to one search: a whole witness search, a whole labelled
#: class count, or a whole semi-induced order search
DEFAULT_NODE_BUDGET = 10**7


class CapacityError(RuntimeError):
    """A configured resource cap was hit before the computation finished.

    Raised instead of a possibly wrong partial answer.  The message
    names the cap and the stage that hit it.
    """


class Budget:
    """Backtracking and enumeration nodes spent against one limit, in
    time and in memory, by every search it is handed to in turn.
    ``spent`` counts the overshooting nodes too; past the limit, spend
    raises CapacityError naming the ``stage`` the search set."""

    def __init__(self, limit: int):
        self.limit = limit
        self.stage = "search"
        self.spent = 0

    def spend(self, nodes: int) -> None:
        self.spent += nodes
        if self.spent > self.limit:
            raise CapacityError(f"{self.stage}: node budget {self.limit} exceeded")


class ParseError(ValueError):
    """Malformed textual input (expression DSL, graph, relation or b-file).

    ``position`` is a character offset for one-line inputs and a line
    number for line-oriented files; it is already part of ``message``.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


def numbered_lines(text: str) -> list[tuple[int, str]]:
    """The stripped lines of a line-oriented file that are neither blank
    nor '#' comments, each with its line number counted from 1, the
    ``position`` a ParseError reports."""
    out = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((ln, line))
    return out
