"""Exception types and argument checks shared across the package."""

from __future__ import annotations

import os


def check_jobs(jobs: int) -> int:
    """Return jobs if it is a worker-process count between 1 and the CPU
    count; raise ValueError otherwise."""
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise ValueError(f"jobs must be between 1 and the CPU count {cpus}, got {jobs}")
    return jobs


def check_collapse_budget(budget: int) -> None:
    """Raise ValueError unless budget, a collapse search node budget, is
    positive."""
    if budget < 1:
        raise ValueError(f"collapse_budget must be positive, got {budget}")


class InputError(ValueError):
    """Raised for input the program cannot use: a malformed file, or a
    command line value outside its domain. The command line reports
    these as malformed input; any other ValueError is a bug."""


class GraphFormatError(InputError):
    """Raised when an input file cannot be parsed.

    Carries the source name and the 1-based line number so command line
    error messages can point at the offending line.
    """

    def __init__(self, source: str, line: int, message: str):
        self.source = source
        self.line = line
        super().__init__(f"{source}:{line}: {message}")


class BudgetExceededError(RuntimeError):
    """Raised when a configurable work bound (faces, search nodes) is hit."""


class InternalInconsistencyError(RuntimeError):
    """Raised when a mathematically guaranteed step fails.

    Seeing this means a precondition that should have been enforced
    upstream was violated, i.e. a bug, not a user error.
    """
