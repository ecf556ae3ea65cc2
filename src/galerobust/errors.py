"""Exception and warning types shared across the package."""


class GaleRobustError(Exception):
    """Base class for all errors raised by this package."""


class RankError(GaleRobustError):
    """The matrix does not have the rank required by the operation."""


class GradingError(GaleRobustError):
    """The configuration is not positively graded (fibers may be infinite)."""


class ZeroRowError(GaleRobustError):
    """A Gale row is the zero vector; the variable must be removed first."""


class ConsistencyError(GaleRobustError):
    """Two independent criteria that must agree produced different answers."""


class MatrixFormatError(GaleRobustError):
    """A matrix file or document could not be parsed."""


class ShellWarning(UserWarning):
    """A brute-force scan found an extreme element touching the boundary shell.

    Emitted when the search box was likely too small; rerun with a larger
    radius to trust the result.
    """
