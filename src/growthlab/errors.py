"""Exceptions, the work budget and the line reader shared across
growthlab modules."""

#: work units allowed to one computation that is handed no Budget: a
#: witness search, a labelled class count, a semi-induced order search,
#: an orbit count or a growth-sequence evaluation
DEFAULT_NODE_BUDGET = 10**7


class CapacityError(RuntimeError):
    """A configured resource cap was hit before the computation finished.

    Raised instead of a possibly wrong partial answer.  The message
    names the cap and the stage that hit it.
    """


class Budget:
    """Work units spent against one limit, in time and in memory, by
    every computation it is handed to in turn.  A unit is a backtracking
    or enumeration node, a point listed or a point image read or written
    by an orbit count, or a term that a sequence step forms.
    ``spent`` counts the overshooting units too; past the limit, spend
    raises CapacityError naming the ``stage`` the computation set."""

    def __init__(self, limit: int):
        self.limit = limit
        self.stage = "search"
        self.spent = 0

    def spend(self, nodes: int) -> None:
        self.spent += nodes
        if self.spent > self.limit:
            raise CapacityError(f"{self.stage}: node budget {self.limit} exceeded")


class ParseError(ValueError):
    """Bad input: malformed text (expression DSL, graph, relation or
    b-file), or input that the computation asked for does not take (a
    grid value of at most 0, no cell with d < 1 for a cellular bound, a
    relation of the wrong arity for a witness).

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
