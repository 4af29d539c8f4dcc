"""Exception hierarchy for widthlab.

Exit-code mapping used by the CLI: invariant violations map to 1,
configuration problems to 2, resource budgets and a MemoryError to 3.
"""


class WidthLabError(Exception):
    """Base class for all widthlab errors."""


class DomainError(WidthLabError):
    """A point lies outside the kernel's domain box."""


class DegenerateDesignError(WidthLabError):
    """Duplicate design points, or a Gram matrix that stays singular after jitter."""


class InsufficientResolutionError(WidthLabError):
    """Quadrature too small for the requested number of eigenvalues."""


class NoAnalyticSpectrumError(WidthLabError):
    """No closed-form eigensystem registered for this kernel id."""


class InsufficientTailError(WidthLabError):
    """Tail sum past the resolved modes requested without a trace value."""


class GridMismatchError(WidthLabError):
    """Two rate series do not share the index grid required for a ratio fit."""


class ChainViolationError(WidthLabError):
    """A certified lower bound exceeds a certified upper bound on a width curve."""


class ConfigError(WidthLabError):
    """Malformed or unknown configuration content; carries field diagnostics."""


class BudgetError(WidthLabError):
    """A resource budget was exceeded: the output's disk or quota is full (exit 3)."""
