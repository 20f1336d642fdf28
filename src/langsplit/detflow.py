"""One-step maps for the deterministic (conservative) subsystem.

The subsystem integrated here is the Hamiltonian pair

    dP = -(upsilon/2) P dt - U'(Q) dt,
    dQ = P dt + (upsilon/2) Q dt,

whose invariant is the shifted energy ``H``.  Three implicit maps conserve
``H`` exactly (up to rounding or solver tolerance): the average-vector-field
map, the midpoint discrete-gradient map, and the partitioned
average-vector-field map.  The explicit symplectic Euler map does not
conserve ``H`` but has unit Jacobian determinant, which is what the
conformal-symplectic composition needs.

All maps act elementwise on scalar or array states, so a batch of phase
points can be stepped in one call.  For the quartic well the two
average-vector-field maps reduce to a cubic in the position increment with
exactly one real root, which they take in closed form; only the
discrete-gradient map runs the vectorized 2-D Newton iteration with
analytic Jacobians, evaluating the terms its residual and Jacobian share
once per iterate.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from .errors import NonConvergence, SingularJacobian
from .model import ArrayLike, PhysParams, State

__all__ = [
    "CONSERVATIVE_KINDS",
    "MAP_KINDS",
    "NEWTON_REL_TOL",
    "NEWTON_ABS_TOL",
    "NEWTON_MAX_ITER",
    "newton_solve_2d",
    "avf_step",
    "dg_step",
    "pavf_step",
    "sympl_euler_step",
    "conservative_step",
]

# Map-kind tags.  The first three conserve H exactly; the last preserves the
# symplectic two-form instead.
CONSERVATIVE_KINDS = ("avf", "dg", "pavf")
MAP_KINDS = CONSERVATIVE_KINDS + ("sympl_euler",)

# Newton tolerances and budget of the dg map, read at each solve: a root has
# max |residual| <= NEWTON_ABS_TOL + NEWTON_REL_TOL * |guess| in every lane.
NEWTON_REL_TOL = 1e-12
NEWTON_ABS_TOL = 1e-14
NEWTON_MAX_ITER = 50


def _check_tau(tau: float, prm: PhysParams) -> None:
    # tau == 0 is the identity map and always fine; the upper bound keeps
    # (1 - tau*u/4) and (1 + tau*u/2) away from 0.
    if tau < 0:
        raise ValueError(f"step size must be nonnegative, got {tau}")
    limit = min(1.0, 2.0 / prm.upsilon)
    if tau >= limit and tau > 0:
        raise ValueError(
            f"step size {tau} outside (0, {limit}) for upsilon={prm.upsilon}; "
            "the implicit solves are not well-conditioned there")


def _float_state(p: np.ndarray, q: np.ndarray) -> State:
    return State(p if p.ndim else float(p), q if q.ndim else float(q))


def newton_solve_2d(
    residual: Callable[[State], Tuple[ArrayLike, ArrayLike]],
    jacobian: Callable[[State], Tuple[ArrayLike, ArrayLike, ArrayLike, ArrayLike]],
    guess: State,
    return_info: bool = False,
):
    """Solve ``residual(x) == 0`` by plain 2-D Newton iteration.

    Parameters
    ----------
    residual : callable
        Maps a state to the residual pair ``(f_p, f_q)``.
    jacobian : callable
        Maps a state to the row-major Jacobian entries
        ``(d f_p/d p, d f_p/d q, d f_q/d p, d f_q/d q)``; must be the exact
        derivative of ``residual``.  It is only ever called with the state
        of the latest ``residual`` call, so it may reuse the terms that call
        computed.
    guess : State
        Initial iterate; also sets the relative-tolerance scale.
    return_info : bool
        If true, also return a dict with iteration count and final residual
        norm.  Its ``fallback_used`` entry is always false.

    Returns
    -------
    State
        Root with ``max(|f_p|, |f_q|) <= NEWTON_ABS_TOL + NEWTON_REL_TOL *
        |guess|`` elementwise.

    Raises
    ------
    NonConvergence
        ``NEWTON_MAX_ITER`` iterations did not converge (with a budget of 0,
        a guess that is not a root).
        For a batch, ``path_index`` is its first unconverged lane.
    SingularJacobian
        A Jacobian determinant vanished during the iteration.
    """
    p = np.asarray(guess.p, dtype=float)
    q = np.asarray(guess.q, dtype=float)
    scale = np.maximum(np.abs(p), np.abs(q))
    tol = NEWTON_ABS_TOL + NEWTON_REL_TOL * scale

    def check(x):
        # The residual at x, its norm, and the lanes it leaves unconverged
        # (a NaN residual among them) with their count.
        f1, f2 = residual(x)
        norm = np.maximum(np.abs(f1), np.abs(f2))
        active = ~(norm <= tol)
        return f1, f2, norm, active, np.count_nonzero(active)

    x = State(p, q)
    f1, f2, norm, active, n_active = check(x)
    iterations = 0
    while n_active and iterations < NEWTON_MAX_ITER:
        j11, j12, j21, j22 = jacobian(x)
        det = j11 * j22 - j12 * j21
        all_active = n_active == active.size
        small = np.abs(det) < 1e-13
        if (small if all_active else active & small).any():
            raise SingularJacobian(
                "Newton Jacobian numerically singular; step size too close "
                "to the conditioning boundary")
        if all_active:
            p = p - (j22 * f1 - j12 * f2) / det
            q = q - (j11 * f2 - j21 * f1) / det
        else:
            # Converged lanes are frozen, so each lane's iterate sequence is
            # the one a standalone solve of that lane would produce; their
            # determinants may vanish.
            with np.errstate(divide="ignore", invalid="ignore"):
                p = np.where(active, p - (j22 * f1 - j12 * f2) / det, p)
                q = np.where(active, q - (j11 * f2 - j21 * f1) / det, q)
        x = State(p, q)
        f1, f2, norm, active, n_active = check(x)
        iterations += 1

    if n_active:
        worst = float(np.max(norm))
        lane = None
        if np.ndim(norm) > 0:
            where = np.unravel_index(int(np.argmax(active)), np.shape(norm))
            lane = int(where[-1])
        raise NonConvergence(
            f"implicit step did not converge (max |residual| = {worst:.3e} "
            f"after {NEWTON_MAX_ITER} Newton iterations)",
            iterations=NEWTON_MAX_ITER, residual=worst, path_index=lane)

    out = _float_state(p, q)
    if return_info:
        return out, {"iterations": iterations,
                     "residual_norm": float(np.max(norm)),
                     "fallback_used": False}
    return out


def _cubic_increment(q0: np.ndarray, k: float, c0: ArrayLike) -> ArrayLike:
    """The real root d of ``d^3 + 4 q0 d^2 + (6 q0^2 + k) d + c0 = 0``.

    The cubic is the average-vector-field position equation for the quartic
    well after the momentum is eliminated; with ``k > 0`` it is strictly
    increasing, so the root is unique.  The shift ``d = t - 4 q0 / 3``
    leaves ``t^3 + P t + Q = 0`` with ``P > 0``, whose root is
    ``-2 sqrt(P/3) sinh(asinh(Q / (2 (P/3)^(3/2))) / 3)``.  Undoing the
    shift cancels digits of ``d`` when it is small against ``q0``; one
    Newton step on the unshifted cubic restores them, which cuts the
    energy defect of the maps about fourfold.

    Each pass below updates its work array in place and rounds as the
    expression in the comment above it; a product or a sum may take its
    two operands in the other order, which rounds the same.  A 0-d state
    runs the same passes on numpy scalars.
    """
    # q2 = q0^2, c1 = 6 q2 + k, r = sqrt((k + (2/3) q2) / 3)
    q2 = q0 * q0
    c1 = 6.0 * q2
    c1 += k
    r = (2.0 / 3.0) * q2
    r += k
    r /= 3.0
    r = np.sqrt(r)
    # t = c0 - q0 ((88/27) q2 + (4/3) k)
    t = (88.0 / 27.0) * q2
    t += (4.0 / 3.0) * k
    t *= q0
    t = c0 - t
    # d = -2 r sinh(asinh(t / (2 r r r)) / 3) - (4/3) q0
    r3 = 2.0 * r
    r3 *= r
    r3 *= r
    t /= r3
    t = np.arcsinh(t)
    t /= 3.0
    d = np.sinh(t)
    r *= -2.0
    d *= r
    d -= (4.0 / 3.0) * q0
    # d - f / df with f = ((d + 4 q0) d + c1) d + c0, df = (3 d + 8 q0) d + c1
    f = 4.0 * q0
    f += d
    f *= d
    f += c1
    f *= d
    f += c0
    df = 3.0 * d
    df += 8.0 * q0
    df *= d
    df += c1
    f /= df
    d -= f
    return d


def _cubic_map(p0: np.ndarray, q0: np.ndarray, tau: float, prm: PhysParams,
               k: float, c_p: float, c_q: float, keep: float,
               scale: float) -> State:
    """The step shared by the two average-vector-field maps.

    ``q1 = q0 + d`` with ``d`` the root of the cubic with ``k`` and
    ``c0 = 4 q0^3 - c_p p0 - c_q q0``; then
    ``p1 = (keep p0 - tau avg_grad(q0, q1)) / scale``.
    """
    c0 = 4.0 * q0
    c0 *= q0
    c0 *= q0
    c0 -= c_p * p0
    c0 -= c_q * q0
    q1 = _cubic_increment(q0, k, c0)
    q1 += q0
    p1 = -tau * prm.potential.avg_grad(q0, q1)
    p1 += p0 if keep == 1.0 else keep * p0
    p1 /= scale
    return _float_state(p1, q1)


def avf_step(s: State, tau: float, prm: PhysParams) -> State:
    """Average-vector-field map: implicit, conserves ``H`` exactly.

    Solves
        p1 = p - (tau*u/4)(p1 + p) - tau * avg_grad(q, q1),
        q1 = q + (tau/2)(p1 + p) + (tau*u/4)(q1 + q)
    in closed form: with ``a = tau*u/4``, the increment ``d = q1 - q`` is the
    real root of ``d^3 + 4q d^2 + (6q^2 + k) d + c0`` with
    ``k = 8(1 - a^2)/tau^2`` and
    ``c0 = 4q^3 - (8/tau) p - 16 a (1 + a) q / tau^2``, and ``p1`` follows
    from the momentum equation (recovering it from the position equation
    divides by tau and loses the energy to rounding).
    """
    _check_tau(tau, prm)
    p0 = np.asarray(s.p, dtype=float)
    q0 = np.asarray(s.q, dtype=float)
    if tau == 0:
        return _float_state(p0, q0)
    a4 = 0.25 * tau * prm.upsilon
    return _cubic_map(p0, q0, tau, prm, k=8.0 * (1.0 - a4 * a4) / (tau * tau),
                      c_p=8.0 / tau, c_q=16.0 * a4 * (1.0 + a4) / (tau * tau),
                      keep=1.0 - a4, scale=1.0 + a4)


def dg_step(s: State, tau: float, prm: PhysParams) -> State:
    """Midpoint discrete-gradient map: implicit, conserves ``H`` exactly.

    The discrete gradient is the midpoint gradient plus the rank-one
    correction enforcing the exact energy-difference identity.  For the
    quartic well ``avg_grad(q, q1) - U'(mq) = mq dq^2 / 4`` exactly, with
    ``(dp, dq)`` the step's displacement and ``mq`` its mid position, so the
    correction is ``c = mq dq^3 / (4 |delta|^2)``: no cancellation, and zero
    where ``|delta|^2 = dp^2 + dq^2 < 1e-28``.  With ``a = tau*u/4`` and
    ``h = dq/2`` the residual is

        f1 = (1 + a) dp + e1 + tau (mq^3 + c dq),
        f2 = (1 - a) dq - e2 - tau (1/2 + c) dp,

    where ``e1 = 2a p`` and ``e2 = tau p + 2a q`` are fixed for the step,
    ``mq = q + h`` and ``c = mq h^2 dq / |delta|^2``.  The explicit Euler
    step ``(p - e1 - tau q^3, q + e2)`` is the guess.

    The shared terms are evaluated once per Newton iterate: the residual
    keeps them, and the Jacobian, which :func:`newton_solve_2d` asks for
    only at the state of the latest residual, reuses them.  The mask for
    lanes with a vanishing displacement runs only when some lane has one.
    """
    _check_tau(tau, prm)
    p0 = np.asarray(s.p, dtype=float)
    q0 = np.asarray(s.q, dtype=float)
    a = 0.25 * tau * prm.upsilon
    up, down = 1.0 + a, 1.0 - a
    e1 = (2.0 * a) * p0
    e2 = tau * p0 + (2.0 * a) * q0
    # Terms of the latest residual: x, dp, dq, h, mq, 1/|delta|^2 (0 where
    # the correction is zero), h^2/|delta|^2, c.
    last = [None] * 8

    def residual(x):
        dp = x.p - p0
        dq = x.q - q0
        h = 0.5 * dq
        mq = q0 + h
        dd = dp * dp + dq * dq
        if dd.min(initial=np.inf) >= 1e-28:
            inv = 1.0 / dd
        else:
            inv = np.divide(1.0, dd, out=np.zeros_like(dd),
                            where=dd >= 1e-28)
        w = h * h * inv
        c = mq * dq * w
        last[:] = x, dp, dq, h, mq, inv, w, c
        f1 = up * dp + e1 + tau * (mq * mq * mq + c * dq)
        f2 = down * dq - e2 - tau * ((0.5 + c) * dp)
        return f1, f2

    def jacobian(x):
        if x is not last[0]:
            residual(x)
        _, dp, dq, h, mq, inv, w, c = last
        m2c = -2.0 * c * inv
        dc_dp1 = m2c * dp
        dc_dq1 = (h + 3.0 * mq) * w + m2c * dq
        j11 = up + tau * (dc_dp1 * dq)
        j12 = tau * (0.5 * prm.potential.hess(mq) + dc_dq1 * dq + c)
        j21 = -tau * (0.5 + c + dc_dp1 * dp)
        j22 = down - tau * (dc_dq1 * dp)
        return j11, j12, j21, j22

    guess = State(p0 - e1 - tau * (q0 * q0 * q0), q0 + e2)
    return newton_solve_2d(residual, jacobian, guess)


def pavf_step(s: State, tau: float, prm: PhysParams) -> State:
    """Partitioned average-vector-field map: implicit, conserves ``H`` exactly.

    Solves
        p1 = p - (tau*u/2) p1 - tau * avg_grad(q, q1),
        q1 = q + (tau/2)(p1 + p) + (tau*u/2) q.

    Conservation is the cancellation
    ``dp * [(p1+p)/2 + (u/2) q] + dq * [avg_grad + (u/2) p1] = 0``.  As in
    :func:`avf_step` the increment ``d = q1 - q`` is the real root of a
    cubic, here with ``a = tau*u/2``, ``k = 8(1 + a)/tau^2`` and
    ``c0 = 4q^3 - 4(2 + a) p / tau - 8 a (1 + a) q / tau^2``, and ``p1``
    follows from the momentum equation.
    """
    _check_tau(tau, prm)
    p0 = np.asarray(s.p, dtype=float)
    q0 = np.asarray(s.q, dtype=float)
    if tau == 0:
        return _float_state(p0, q0)
    a2 = 0.5 * tau * prm.upsilon
    return _cubic_map(p0, q0, tau, prm, k=8.0 * (1.0 + a2) / (tau * tau),
                      c_p=4.0 * (2.0 + a2) / tau,
                      c_q=8.0 * a2 * (1.0 + a2) / (tau * tau),
                      keep=1.0, scale=1.0 + a2)


def sympl_euler_step(s: State, tau: float, prm: PhysParams) -> State:
    """Symplectic Euler map: explicit closed form, unit Jacobian determinant.

        p1 = (p - tau * U'(q)) / (1 + tau*u/2),
        q1 = q + tau * (p1 + (u/2) q).

    Does not conserve ``H`` (the defect is O(tau^2) per step).
    """
    if tau < 0:
        raise ValueError(f"step size must be nonnegative, got {tau}")
    u = prm.upsilon
    p1 = (s.p - tau * prm.potential.grad(s.q)) / (1.0 + 0.5 * tau * u)
    q1 = s.q + tau * (p1 + 0.5 * u * s.q)
    return State(p1, q1)


_STEP_FUNCS = {
    "avf": avf_step,
    "dg": dg_step,
    "pavf": pavf_step,
    "sympl_euler": sympl_euler_step,
}


def conservative_step(kind: str, s: State, tau: float,
                      prm: PhysParams) -> State:
    """Dispatch one deterministic sub-step by map kind."""
    try:
        func = _STEP_FUNCS[kind]
    except KeyError:
        raise ValueError(f"unknown map kind {kind!r}; expected one of {MAP_KINDS}")
    return func(s, tau, prm)

