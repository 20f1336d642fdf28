"""Scheme compositions: conservative sub-step + exact stochastic sub-step.

A single-sweep step applies the conservative map for the full step and then
the exact stochastic flow; the symmetric variant wraps the stochastic flow
between two half steps of the conservative map (second-order weak accuracy).
The noise consumed by the stochastic flow is always an explicit argument,
either a standard normal draw (standalone and ergodic runs) or a
:class:`~langsplit.stochflow.FineWindow` of shared fine Brownian increments
(convergence studies), so reproducibility and path coupling are entirely
caller-controlled.  Every sampled step of a run shares the one cached
``OUIncrement.from_params`` of its ``(prm, tau)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Union

import numpy as np

from .detflow import MAP_KINDS, conservative_step
from .errors import NonConvergence
from .model import PhysParams, State
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
    "lie_trotter_step",
    "strang_step",
    "scheme_step",
    "simulate",
    "simulate_on_grid",
    "require_finite",
]


@dataclass(frozen=True)
class SchemeSpec:
    """Composition recipe: which conservative map, and how it is composed."""

    map_kind: str
    composition: str = "lie_trotter"

    def __post_init__(self):
        if self.map_kind not in MAP_KINDS:
            raise ValueError(
                f"unknown map kind {self.map_kind!r}; expected one of {MAP_KINDS}")
        if self.composition not in COMPOSITIONS:
            raise ValueError(
                f"unknown composition {self.composition!r}; "
                f"expected one of {COMPOSITIONS}")

    @classmethod
    def from_name(cls, name: str) -> "SchemeSpec":
        """Build a spec from a recipe name like ``"savf"`` or ``"strang-savf"``."""
        key = name.lower().replace("_", "-")
        if key not in _SCHEME_NAMES:
            raise ValueError(
                f"unknown scheme {name!r}; expected one of {sorted(_SCHEME_NAMES)}")
        return cls(*_SCHEME_NAMES[key])

    @property
    def name(self) -> str:
        return next(key for key, val in _SCHEME_NAMES.items()
                    if val == (self.map_kind, self.composition))


@dataclass
class Trajectory:
    """A simulated path (or batch of paths sharing the time grid).

    ``p`` and ``q`` have the time axis first: shape ``(n_steps + 1,)`` for a
    scalar run, ``(n_steps + 1, *batch)`` otherwise.  ``p[0]`` and ``q[0]``
    are the supplied initial value.
    """

    times: np.ndarray
    p: np.ndarray
    q: np.ndarray

    def __len__(self):
        return self.times.shape[0]


def _apply_noise(s: State, tau: float, prm: PhysParams, noise: Noise) -> State:
    if isinstance(noise, FineWindow):
        return ou_substep_coupled(s, noise, prm, tau=tau)
    return OUIncrement.from_params(prm, tau).apply(s, noise)


def lie_trotter_step(s: State, tau: float, prm: PhysParams, spec: SchemeSpec,
                     noise: Noise) -> State:
    """One single-sweep step: conservative map, then stochastic flow."""
    mid = conservative_step(spec.map_kind, s, tau, prm)
    return _apply_noise(mid, tau, prm, noise)


def strang_step(s: State, tau: float, prm: PhysParams, spec: SchemeSpec,
                noise: Noise) -> State:
    """One symmetric step: half map, full stochastic flow, half map."""
    half = conservative_step(spec.map_kind, s, 0.5 * tau, prm)
    mid = _apply_noise(half, tau, prm, noise)
    return conservative_step(spec.map_kind, mid, 0.5 * tau, prm)


def scheme_step(s: State, tau: float, prm: PhysParams, spec: SchemeSpec,
                noise: Noise) -> State:
    if spec.composition == "strang":
        return strang_step(s, tau, prm, spec, noise)
    return lie_trotter_step(s, tau, prm, spec, noise)


def require_finite(p: np.ndarray, q: np.ndarray, step_index=None) -> None:
    """Raise :class:`NonConvergence` at the first non-finite sample.

    ``p`` and ``q`` hold one ensemble (last axis: path) or a trajectory
    (axes: step, path); the error names the step and the path index.
    """
    bad = ~(np.isfinite(p) & np.isfinite(q))
    if bad.any():
        where = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise NonConvergence(
            "non-finite state", path_index=int(where[-1]) if where else None,
            step_index=int(where[0]) if len(where) == 2 else step_index)


def _check_finite(s: State, step_index: int) -> None:
    # A non-finite lane makes the sum of products p*q non-finite, so one
    # reduction screens the batch; only then are the lanes searched.  An
    # overflowing sum of finite products is searched and passes.
    if not math.isfinite(np.vdot(s.p, s.q)):
        require_finite(np.ravel(s.p), np.ravel(s.q), step_index)


def _evolve(initial: State, shape: tuple, tau: float, prm: PhysParams,
            spec: SchemeSpec, noise: Iterable[Noise],
            visit: Callable[[int, State], None], start: int = 0) -> State:
    """The stepping loop of every run: one scheme step per item of ``noise``.

    ``initial`` is copied out to a batch of the given shape: the state at
    step ``start``, which is 0 or, for a run cut into time blocks, the step
    that the previous block ended at and visited.  ``visit(n, state)`` sees
    each new step n, from 0 through the last, and the final state is
    returned.  Every state is checked before it is visited, so a non-finite
    state raises :class:`NonConvergence` naming its step and its lane; a
    solver failure names the step it was taking and, for a batch, its first
    unconverged lane.  Lanes count from the batch's own start: the code
    that cuts a run into chunks offsets them.
    """
    cur = State(np.broadcast_to(np.asarray(initial.p, float), shape).astype(float),
                np.broadcast_to(np.asarray(initial.q, float), shape).astype(float))
    if start == 0:
        _check_finite(cur, 0)
        visit(0, cur)
    for n, dw in enumerate(noise, start + 1):
        try:
            cur = scheme_step(cur, tau, prm, spec, dw)
        except NonConvergence as exc:
            exc.step_index = n - 1
            raise
        _check_finite(cur, n)
        visit(n, cur)
    return cur


def _recorder(n_steps: int, every: int, tau: float, shape: tuple):
    """A visitor that records the states at the steps that are multiples of
    ``every``, and the :class:`Trajectory` it fills."""
    n_rec = n_steps // every
    traj = Trajectory(times=np.arange(n_rec + 1) * (tau * every),
                      p=np.empty((n_rec + 1,) + shape),
                      q=np.empty((n_rec + 1,) + shape))

    def record(n, s):
        if n % every == 0:
            traj.p[n // every] = s.p
            traj.q[n // every] = s.q

    return record, traj


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
        From the ``dg`` solver, annotated with the failing step index, or
        at the first non-finite state, naming its step and path.
    ValueError
        From ``OUIncrement.from_params``, where its noise would cancel.
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

    record, traj = _recorder(n_steps, 1, tau, batch_shape)
    _evolve(initial, batch_shape, tau, prm, spec, path_noise(seed, n_steps),
            record)
    return traj


def _fine_windows(increments: np.ndarray, ratio: int,
                  tau_f: float) -> Iterable[FineWindow]:
    """The windows of ``ratio`` fine increments that each coarse step takes."""
    return (FineWindow(increments[n:n + ratio], tau_f)
            for n in range(0, increments.shape[0], ratio))


def simulate_on_grid(initial: State, tau: float, prm: PhysParams,
                     spec: SchemeSpec, increments: np.ndarray, tau_f: float,
                     keep: str = "all", record_every: int = 1):
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

    Raises
    ------
    NonIntegralGrid
        If ``tau`` is not an integer multiple of ``tau_f``, or its steps do
        not tile the increments.
    """
    increments = np.asarray(increments, dtype=float)
    ratio = steps_for(tau, tau_f, minimum=1)
    n_steps = steps_for(increments.shape[0], ratio)
    windows = _fine_windows(increments, ratio, tau_f)
    batch_shape = increments.shape[1:]
    if keep != "all":
        return _evolve(initial, batch_shape, tau, prm, spec, windows,
                       lambda n, s: None)

    if n_steps % record_every != 0:
        raise ValueError("record_every must tile the number of steps")
    record, traj = _recorder(n_steps, record_every, tau, batch_shape)
    _evolve(initial, batch_shape, tau, prm, spec, windows, record)
    return traj
