"""How a search reports that it gave up.  Imports nothing from the package."""


class BudgetExhausted(RuntimeError):
    """A search ran out of budget or time and decided nothing: the message
    is the line the CLI prints, `partial` is what the search had made."""

    def __init__(self, what, partial=None):
        super().__init__(what)
        self.partial = partial
