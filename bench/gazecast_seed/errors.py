"""Exception hierarchy shared across the pipeline.

Each class carries the CLI exit code used when the error escapes a command.
"""


class GazecastError(Exception):
    exit_code = 1


class SchemaError(GazecastError):
    """Input file is structurally wrong: missing columns, unparseable cells, bad magic."""

    exit_code = 2


class ValidationError(GazecastError):
    """Well-formed input violates an invariant: monotonicity, value ranges, coverage."""

    exit_code = 3


class DegenerateDataError(GazecastError):
    """Data unusable for the requested computation: empty set, zero variance."""

    exit_code = 4


class ConvergenceError(GazecastError):
    """Solver hit its iteration cap before reaching tolerance.

    ``violation`` is the final KKT violation; ``model`` holds the partial fit
    so it can still be audited.
    """

    exit_code = 5

    def __init__(self, message, violation=None, model=None):
        super().__init__(message)
        self.violation = violation
        self.model = model
