"""Exception hierarchy. Everything raised on purpose derives from DafbeError."""


class DafbeError(Exception):
    pass


class AutomatonError(DafbeError):
    """Malformed automaton or invalid automaton operation."""


class EnumerationLimit(AutomatonError):
    """Language too large to enumerate under the configured cap."""


class FactorError(DafbeError):
    """Malformed factor or invalid factor operation."""


class ModelError(DafbeError):
    """Malformed model, ordering, or solver misuse."""


class FormatError(DafbeError):
    """Unparseable input file; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class BudgetExceeded(DafbeError):
    """An oracle refused to run because the instance exceeds its budget."""


class TimeLimit(DafbeError):
    """Cooperative wall-clock limit hit mid-solve."""
