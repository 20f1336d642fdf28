"""Exception types raised across the package."""


class LangsplitError(Exception):
    """Base class for all package-specific errors."""


class NonConvergence(LangsplitError):
    """An implicit solve exhausted its iteration budget, or a state is not
    finite: the step is too large for the state, or the state has left the
    well-conditioned region.  The message names ``step_index`` and
    ``path_index`` as they stand when it is read.
    """

    def __init__(self, message, iterations=None, residual=None, step_index=None,
                 path_index=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.step_index = step_index
        self.path_index = path_index

    def __str__(self):
        at = "" if self.step_index is None else f" at step {self.step_index}"
        on = "" if self.path_index is None else f" in path {self.path_index}"
        return super().__str__() + at + on


class SingularJacobian(LangsplitError):
    """The Newton Jacobian is numerically singular (step size at the
    conditioning boundary)."""


class NonIntegralGrid(LangsplitError, ValueError):
    """A horizon, time or coarse step is not a whole number of steps."""


class EmptyWindow(LangsplitError):
    """A time-averaging window contains no states."""


class DegenerateRange(LangsplitError):
    """A histogram axis has zero or negative width."""


class NonPositiveError(LangsplitError):
    """A convergence level has error <= 0 (typically the Monte Carlo noise
    floor); a log-log fit is impossible and more paths are needed."""
