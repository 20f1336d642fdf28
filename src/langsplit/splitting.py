"""Scheme compositions: conservative sub-step + exact stochastic sub-step.

A single-sweep step applies the conservative map for the full step and then
the exact stochastic flow; the symmetric variant wraps the stochastic flow
between two half steps of the conservative map (second-order weak accuracy).
The noise consumed by the stochastic flow is always an explicit argument,
either a standard normal draw (standalone and ergodic runs) or a
:class:`~langsplit.stochflow.FineWindow` of shared fine Brownian increments
(convergence studies), so reproducibility and path coupling are entirely
caller-controlled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Union

import numpy as np

from .detflow import (MAP_KINDS, SolverSettings, conservative_step,
                      subsystem_field)
from .errors import NonConvergence, NonIntegralRatio
from .model import ArrayLike, PhysParams, State
from .montecarlo import path_noise, steps_for
from .stochflow import FineWindow, OUIncrement, ou_substep_coupled

COMPOSITIONS = ("lie_trotter", "strang")

# Named recipes: map kind + composition.
_SCHEME_NAMES = {
    "savf": ("avf", "lie_trotter"),
    "sdg": ("dg", "lie_trotter"),
    "spavf": ("pavf", "lie_trotter"),
    "strang-savf": ("avf", "strang"),
    "strang-sdg": ("dg", "strang"),
    "strang-spavf": ("pavf", "strang"),
    "sympl-euler": ("sympl_euler", "lie_trotter"),
    "strang-sympl-euler": ("sympl_euler", "strang"),
}

Noise = Union[float, np.ndarray, FineWindow]

__all__ = [
    "COMPOSITIONS",
    "SchemeSpec",
    "Trajectory",
    "ConsistencyResiduals",
    "lie_trotter_step",
    "strang_step",
    "scheme_step",
    "simulate",
    "simulate_on_grid",
    "require_finite",
    "consistency_residuals",
]


@dataclass(frozen=True)
class SchemeSpec:
    """Composition recipe: which conservative map, and how it is composed."""

    map_kind: str
    composition: str = "lie_trotter"
    solver: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self):
        if self.map_kind not in MAP_KINDS:
            raise ValueError(
                f"unknown map kind {self.map_kind!r}; expected one of {MAP_KINDS}")
        if self.composition not in COMPOSITIONS:
            raise ValueError(
                f"unknown composition {self.composition!r}; "
                f"expected one of {COMPOSITIONS}")

    @classmethod
    def from_name(cls, name: str, solver: SolverSettings = None) -> "SchemeSpec":
        """Build a spec from a recipe name like ``"savf"`` or ``"strang-savf"``."""
        key = name.lower().replace("_", "-")
        if key not in _SCHEME_NAMES:
            raise ValueError(
                f"unknown scheme {name!r}; expected one of {sorted(_SCHEME_NAMES)}")
        kind, comp = _SCHEME_NAMES[key]
        return cls(map_kind=kind, composition=comp,
                   solver=solver if solver is not None else SolverSettings())

    @property
    def name(self) -> str:
        for key, val in _SCHEME_NAMES.items():
            if val == (self.map_kind, self.composition):
                return key
        return f"{self.composition}:{self.map_kind}"


@dataclass
class Trajectory:
    """A simulated path (or batch of paths sharing the time grid).

    ``p`` and ``q`` have the time axis first: shape ``(n_steps + 1,)`` for a
    scalar run, ``(n_steps + 1, *batch)`` otherwise.  ``states[0]`` is the
    supplied initial value.
    """

    times: np.ndarray
    p: np.ndarray
    q: np.ndarray
    scheme: SchemeSpec
    seed: object = None

    @property
    def states(self) -> State:
        return State(self.p, self.q)

    def __len__(self):
        return self.times.shape[0]


class ConsistencyResiduals(NamedTuple):
    """Defect of one conservative step against the subsystem vector field."""

    rA: ArrayLike
    rB: ArrayLike


def _apply_noise(s: State, tau: float, prm: PhysParams, noise: Noise) -> State:
    if isinstance(noise, FineWindow):
        return ou_substep_coupled(s, noise, prm, tau=tau)
    return OUIncrement.from_params(prm, tau).apply(s, noise)


def lie_trotter_step(s: State, tau: float, prm: PhysParams, spec: SchemeSpec,
                     noise: Noise) -> State:
    """One single-sweep step: conservative map, then stochastic flow."""
    if tau == 0:
        return s
    mid = conservative_step(spec.map_kind, s, tau, prm, spec.solver)
    return _apply_noise(mid, tau, prm, noise)


def strang_step(s: State, tau: float, prm: PhysParams, spec: SchemeSpec,
                noise: Noise) -> State:
    """One symmetric step: half map, full stochastic flow, half map."""
    if tau == 0:
        return s
    half = conservative_step(spec.map_kind, s, 0.5 * tau, prm, spec.solver)
    mid = _apply_noise(half, tau, prm, noise)
    return conservative_step(spec.map_kind, mid, 0.5 * tau, prm, spec.solver)


def scheme_step(s: State, tau: float, prm: PhysParams, spec: SchemeSpec,
                noise: Noise) -> State:
    if spec.composition == "strang":
        return strang_step(s, tau, prm, spec, noise)
    return lie_trotter_step(s, tau, prm, spec, noise)


def require_finite(p: np.ndarray, q: np.ndarray, step_index=None,
                   first_path: int = 0) -> None:
    """Raise :class:`NonConvergence` at the first non-finite sample.

    ``p`` and ``q`` hold one ensemble (last axis: path) or a trajectory
    (axes: step, path); the error names the step and the path index, with
    path indices offset by ``first_path``.
    """
    bad = ~(np.isfinite(p) & np.isfinite(q))
    if not bad.any():
        return
    where = np.unravel_index(int(np.argmax(bad)), bad.shape)
    if len(where) == 2:
        step_index = int(where[0])
    path_index = int(where[-1]) + first_path if where else None
    at = "" if step_index is None else f" at step {step_index}"
    raise NonConvergence(f"non-finite state{at} in path {path_index}",
                         step_index=step_index, path_index=path_index)


def _evolve(initial: State, shape: tuple, tau: float, prm: PhysParams,
            spec: SchemeSpec, noise: Iterable[Noise],
            visit: Callable[[int, State], None], first_path: int = 0) -> State:
    """The stepping loop of every run: one scheme step per item of ``noise``.

    ``initial`` is copied out to a batch of the given shape; ``visit(n,
    state)`` sees step n = 0 through the last step, and the final state is
    returned.  Every state is checked before it is visited, so a non-finite
    state raises :class:`NonConvergence` naming its step and its path
    (offset by ``first_path``); a solver failure names the step it was
    taking.
    """
    cur = State(np.broadcast_to(np.asarray(initial.p, float), shape).astype(float),
                np.broadcast_to(np.asarray(initial.q, float), shape).astype(float))
    require_finite(np.ravel(cur.p), np.ravel(cur.q), 0, first_path)
    visit(0, cur)
    for n, dw in enumerate(noise, 1):
        try:
            cur = scheme_step(cur, tau, prm, spec, dw)
        except NonConvergence as exc:
            exc.step_index = n - 1
            raise
        require_finite(np.ravel(cur.p), np.ravel(cur.q), n, first_path)
        visit(n, cur)
    return cur


def simulate(initial: State, T: float, tau: float, prm: PhysParams,
             spec: SchemeSpec, seed) -> Trajectory:
    """Evolve a trajectory of ``T/tau`` steps with exact noise sampling.

    Parameters
    ----------
    initial : State
        Scalar fields give one path.  Array fields give a batch of paths
        stepped in lockstep.
    seed : int or sequence of ints
        A single int drives one noise stream shared by every lane of the
        batch (all lanes see the same draws, as in the phase-area
        experiment).  A sequence of ints gives one independent stream per
        lane, matched by position.

    Returns
    -------
    Trajectory
        Deterministic in (seed, spec, prm, tau, initial); bit-identical
        across runs.

    Raises
    ------
    NonConvergence
        From the inner solver, annotated with the failing step index, or
        at the first non-finite state, naming its step and path.
    """
    n_steps = steps_for(T, tau)
    p0 = np.asarray(initial.p, dtype=float)
    q0 = np.asarray(initial.q, dtype=float)
    batch_shape = np.broadcast_shapes(p0.shape, q0.shape)
    if np.ndim(seed) != 0:
        seed = np.asarray(seed)
        if batch_shape != (len(seed),):
            raise ValueError(
                f"per-path seeds (n={len(seed)}) require a matching 1-D batch "
                f"of initial states, got batch shape {batch_shape}")

    p_out = np.empty((n_steps + 1,) + batch_shape)
    q_out = np.empty_like(p_out)

    def record(n, s):
        p_out[n] = s.p
        q_out[n] = s.q

    _evolve(initial, batch_shape, tau, prm, spec, path_noise(seed, n_steps),
            record)
    times = np.arange(n_steps + 1) * tau
    return Trajectory(times=times, p=p_out, q=q_out, scheme=spec, seed=seed)


def simulate_on_grid(initial: State, tau: float, prm: PhysParams,
                     spec: SchemeSpec, increments: np.ndarray, tau_f: float,
                     keep: str = "all", record_every: int = 1,
                     first_path: int = 0):
    """Evolve on a shared fine Brownian grid (path-coupled evaluation).

    Each coarse step consumes one window of ``tau/tau_f`` fine increments,
    so runs at different ``tau`` on the same ``increments`` see the same
    Wiener path.

    Parameters
    ----------
    increments : ndarray
        N(0, tau_f) draws, time axis first; ``(n_fine,)`` or
        ``(n_fine, n_paths)``.
    keep : {"all", "last"}
        Return a full :class:`Trajectory` or only the terminal state.
    record_every : int
        With ``keep="all"``, record every k-th coarse state (the initial
        state is always recorded and the horizon must tile).
    first_path : int
        Ensemble index of the first column, used to name a path that goes
        non-finite.

    Raises
    ------
    NonIntegralRatio
        If ``tau`` is not an integer multiple of ``tau_f``, or its steps do
        not tile the increments.
    """
    increments = np.asarray(increments, dtype=float)
    ratio = steps_for(tau, tau_f, NonIntegralRatio, minimum=1)
    n_steps = steps_for(increments.shape[0], ratio, NonIntegralRatio)
    windows = (FineWindow(increments[n * ratio:(n + 1) * ratio], tau_f)
               for n in range(n_steps))
    batch_shape = increments.shape[1:]
    if keep != "all":
        return _evolve(initial, batch_shape, tau, prm, spec, windows,
                       lambda n, s: None, first_path)

    if n_steps % record_every != 0:
        raise ValueError("record_every must tile the number of steps")
    n_rec = n_steps // record_every
    p_out = np.empty((n_rec + 1,) + batch_shape)
    q_out = np.empty_like(p_out)

    def record(n, s):
        if n % record_every == 0:
            p_out[n // record_every] = s.p
            q_out[n // record_every] = s.q

    _evolve(initial, batch_shape, tau, prm, spec, windows, record, first_path)
    times = np.arange(n_rec + 1) * (tau * record_every)
    return Trajectory(times=times, p=p_out, q=q_out, scheme=spec, seed=None)


def consistency_residuals(map_kind: str, s: State, tau: float,
                          prm: PhysParams,
                          settings: SolverSettings = SolverSettings()
                          ) -> ConsistencyResiduals:
    """Defect of the one-step increments against the subsystem field.

    With ``A = p1 - p`` and ``B = q1 - q``, returns

        rA = |(u/2) p + U'(q) + A / tau|,
        rB = |p + (u/2) q - B / tau|,

    both of which vanish at rate O(tau) with a state-polynomial prefactor
    for every shipped map kind.
    """
    if tau <= 0:
        raise ValueError("consistency residuals need tau > 0")
    out = conservative_step(map_kind, s, tau, prm, settings)
    f = subsystem_field(s, prm)
    r_a = np.abs((out.p - s.p) / tau - f.p)
    r_b = np.abs((out.q - s.q) / tau - f.q)
    return ConsistencyResiduals(rA=r_a, rB=r_b)
