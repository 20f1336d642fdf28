"""Exception types raised across the package."""


class LangsplitError(Exception):
    """Base class for all package-specific errors."""


class NonConvergence(LangsplitError):
    """An implicit solve exhausted its iteration budget.

    Usually means the step size is too large for the current state, or the
    state has left the well-conditioned region.
    """

    def __init__(self, message, iterations=None, residual=None, step_index=None,
                 path_index=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.step_index = step_index
        self.path_index = path_index


class SingularJacobian(LangsplitError):
    """The Newton Jacobian is numerically singular (step size at the
    conditioning boundary)."""


class GridMismatch(LangsplitError):
    """A fine-increment window does not tile the requested coarse step."""


class NonIntegralGrid(LangsplitError):
    """Horizon is not an integer multiple of the grid spacing."""


class NonIntegralRatio(LangsplitError):
    """Coarse step is not an integer multiple of the fine spacing."""


class EmptyWindow(LangsplitError):
    """A time-averaging window contains no states."""


class DegenerateRange(LangsplitError):
    """A histogram axis has zero or negative width."""


class NonPositiveError(LangsplitError):
    """A convergence level has error <= 0 (typically the Monte Carlo noise
    floor); a log-log fit is impossible and more paths are needed."""
