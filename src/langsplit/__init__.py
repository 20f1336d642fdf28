"""Structure-preserving splitting integrators for stochastic Langevin dynamics.

The package splits the damped, stochastically driven oscillator

    dP = -upsilon P dt - Q^3 dt + sigma dW,    dQ = P dt

into a conservative subsystem (integrated by an energy-preserving implicit
map or the symplectic Euler map) and a strictly dissipative linear
stochastic subsystem (solved exactly), composed in single-sweep or
symmetric order.  A measurement harness verifies the preserved structures:
energy conservation of the deterministic maps, the one-step Lyapunov
contraction, exponential-moment boundedness, ergodic sampling of the Gibbs
law, conformal phase-volume contraction, and the strong/weak convergence
orders.
"""

from .detflow import (SolverSettings, avf_step, dg_step, energy_residual,
                      newton_solve_2d, pavf_step, sympl_euler_step)
from .errors import (DegenerateRange, EmptyWindow, GridMismatch,
                     LangsplitError, NonConvergence, NonIntegralGrid,
                     NonIntegralRatio, NonPositiveError, SingularJacobian)
from .model import (EnergyConstants, GibbsMoments, PhysParams,
                    QuarticPotential, State, energy_H, energy_H0,
                    gibbs_log_density, gibbs_moments)
from .montecarlo import SeedPolicy
from .splitting import (SchemeSpec, Trajectory, consistency_residuals,
                        lie_trotter_step, simulate, simulate_on_grid,
                        strang_step)
from .stochflow import (FineWindow, OUIncrement, naive_substep_exact,
                        ou_substep_coupled, ou_substep_exact)

__version__ = "0.1.0"
