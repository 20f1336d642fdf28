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

Each map, the Newton solve and the potential's terms they call are step
kernels (:mod:`langsplit.kernel`): a body of passes ``x = op(a, b, x)``
written once and bound by the state's shape.  On a batch of more than one
lane every pass is a ufunc writing through ``out`` into work buffers that
the body owns, one set per process for the latest batch shape; constants
are 0-d arrays, so no pass converts a Python float.  A one-lane batch runs
the same passes into fresh arrays, and a 0-d state runs them on Python
floats.  Each lane sees the same IEEE operations in the same order in
every binding.  A map always returns fresh arrays (or floats), never a work
buffer, so its caller may keep the states it is given.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

from .errors import NonConvergence, SingularJacobian
from .kernel import SCALAR, Kernel, Work, constants, fixed, kernel
from .model import ArrayLike, PhysParams, State, new_state

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
    # (1 - tau*u/4) and (1 + tau*u/2) away from 0, and the lower one keeps
    # the cubic's coefficients (8/tau^2 and its like) finite.
    if tau < 0:
        raise ValueError(f"step size must be nonnegative, got {tau}")
    square = float(tau * tau)
    if tau > 0 and not (square > 0 and math.isfinite(8.0 / square)):
        raise ValueError(f"step size {tau} is too small: 8/tau^2 is not a "
                         "finite float")
    limit = min(1.0, 2.0 / prm.upsilon)
    if tau >= limit and tau > 0:
        raise ValueError(
            f"step size {tau} outside (0, {limit}) for upsilon={prm.upsilon}; "
            "the implicit solves are not well-conditioned there")


def _load(s: State):
    """The kernel of a state's shape and its two fields, broadcast to that
    shape (floats for a 0-d state)."""
    p, q = s
    if type(p) is float and type(q) is float:
        return SCALAR, p, q
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        p, q = np.broadcast_arrays(p, q)
    if not p.shape:
        return SCALAR, float(p), float(q)
    return kernel(p.shape), p, q


_NEWTON_WORK, _NEWTON_MASKS = Work(10), Work(3, bool)
_CUBIC_WORK, _CUBIC_MAP_WORK = Work(9), Work(2)
_DG_WORK, _DG_JACOBIAN_WORK = Work(15), Work(8)
_SYMPL_EULER_WORK = Work(2)


@constants
def _newton_constants(abs_tol, rel_tol):
    return abs_tol, rel_tol, 1e-13


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
        Initial iterate; also sets the relative-tolerance scale.  It is
        never written to.
    return_info : bool
        If true, also return a dict with iteration count and final residual
        norm.  Its ``fallback_used`` entry is always false.

    Returns
    -------
    State
        Root with ``max(|f_p|, |f_q|) <= NEWTON_ABS_TOL + NEWTON_REL_TOL *
        |guess|`` elementwise, in fresh arrays.

    Raises
    ------
    NonConvergence
        ``NEWTON_MAX_ITER`` iterations did not converge (with a budget of 0,
        a guess that is not a root).
        For a batch, ``path_index`` is its first unconverged lane.
    SingularJacobian
        A Jacobian determinant vanished during the iteration.
    """
    k, p, q = _load(guess)
    abs_tol, rel_tol, tiny = _newton_constants(NEWTON_ABS_TOL,
                                               NEWTON_REL_TOL)[k.form]
    mul, sub, div = k.mul, k.sub, k.div
    tol, norm, t, det, step_p, step_q, *iterates = k.work[_NEWTON_WORK]
    done, active, small = k.work[_NEWTON_MASKS]
    size = np.size(p)
    # tol = abs + rel max(|p|, |q|)
    tol = k.maximum(k.abs(p, tol), k.abs(q, t), tol)
    tol = k.add(abs_tol, mul(rel_tol, tol, tol), tol)

    def check(x):
        # The residual at x, its norm, the lanes it leaves converged and
        # unconverged (a NaN residual among them), and their count.
        f1, f2 = residual(x)
        n = k.maximum(k.abs(f1, norm), k.abs(f2, t), norm)
        ok = k.less_equal(n, tol, done)
        bad = k.logical_not(ok, active)
        return f1, f2, n, ok, bad, np.count_nonzero(bad)

    def steps(step_p, step_q):
        # (j22 f1 - j12 f2) / det and (j11 f2 - j21 f1) / det
        step_p = sub(mul(j22, f1, step_p), mul(j12, f2, t), step_p)
        step_q = sub(mul(j11, f2, step_q), mul(j21, f1, t), step_q)
        return div(step_p, det, step_p), div(step_q, det, step_q)

    x = State(p, q)
    f1, f2, n, ok, bad, n_active = check(x)
    iterations = 0
    while n_active and iterations < NEWTON_MAX_ITER:
        j11, j12, j21, j22 = jacobian(x)
        det = sub(mul(j11, j22, det), mul(j12, j21, t), det)
        all_active = n_active == size
        tiny_det = k.less(k.abs(det, t), tiny, small)
        if not all_active:
            tiny_det = k.logical_and(bad, tiny_det, small)
        if k.any(tiny_det):
            raise SingularJacobian(
                "Newton Jacobian numerically singular; step size too close "
                "to the conditioning boundary")
        if all_active:
            step_p, step_q = steps(step_p, step_q)
        else:
            # Converged lanes are frozen, so each lane's iterate sequence is
            # the one a standalone solve of that lane would produce; their
            # determinants may vanish.
            with np.errstate(divide="ignore", invalid="ignore"):
                step_p, step_q = steps(step_p, step_q)
        # The iterates alternate between two buffers: the guess is never
        # written.
        into = iterates[iterations % 2::2]
        p_next = sub(p, step_p, into[0])
        q_next = sub(q, step_q, into[1])
        if not all_active:
            np.copyto(p_next, p, where=ok)
            np.copyto(q_next, q, where=ok)
        p, q = p_next, q_next
        x = State(p, q)
        f1, f2, n, ok, bad, n_active = check(x)
        iterations += 1

    if n_active:
        worst = float(np.max(n))
        lane = None
        if np.ndim(n) > 0:
            where = np.unravel_index(int(np.argmax(bad)), np.shape(n))
            lane = int(where[-1])
        raise NonConvergence(
            f"implicit step did not converge (max |residual| = {worst:.3e} "
            f"after {NEWTON_MAX_ITER} Newton iterations)",
            iterations=NEWTON_MAX_ITER, residual=worst, path_index=lane)

    out = new_state((k.result(p), k.result(q)))
    if return_info:
        return out, {"iterations": iterations,
                     "residual_norm": float(np.max(n)),
                     "fallback_used": False}
    return out


_CUBIC = fixed(6.0, 2.0 / 3.0, 3.0, 88.0 / 27.0, 2.0, -2.0, 4.0 / 3.0, 4.0,
               8.0)


def _cubic_increment(k: Kernel, q0: ArrayLike, kc: ArrayLike, kc43: ArrayLike,
                     c0: ArrayLike) -> ArrayLike:
    """The real root d of ``d^3 + 4 q0 d^2 + (6 q0^2 + kc) d + c0 = 0``.

    The cubic is the average-vector-field position equation for the quartic
    well after the momentum is eliminated; with ``kc > 0`` it is strictly
    increasing, so the root is unique.  The shift ``d = t - 4 q0 / 3``
    leaves ``t^3 + P t + Q = 0`` with ``P > 0``, whose root is
    ``-2 sqrt(P/3) sinh(asinh(Q / (2 (P/3)^(3/2))) / 3)``.  Undoing the
    shift cancels digits of ``d`` when it is small against ``q0``; one
    Newton step on the unshifted cubic restores them, which cuts the
    energy defect of the maps about fourfold.

    ``kc43`` is ``(4/3) kc``.  Each pass rounds as the expression in the
    comment above it; a product or a sum may take its two operands in the
    other order, which rounds the same.  The root is in a work buffer.
    """
    six, two3, three, c88_27, two, m2, four3, four, eight = _CUBIC[k.form]
    mul, add, sub, div = k.mul, k.add, k.sub, k.div
    q2, c1, r, t, r3, d, f, df, tmp = k.work[_CUBIC_WORK]
    # q2 = q0^2, c1 = 6 q2 + kc, r = sqrt((kc + (2/3) q2) / 3)
    q2 = mul(q0, q0, q2)
    c1 = add(mul(six, q2, c1), kc, c1)
    r = add(mul(two3, q2, r), kc, r)
    r = k.sqrt(div(r, three, r), r)
    # t = c0 - q0 ((88/27) q2 + (4/3) kc)
    t = add(mul(c88_27, q2, t), kc43, t)
    t = sub(c0, mul(t, q0, t), t)
    # d = -2 r sinh(asinh(t / (2 r r r)) / 3) - (4/3) q0
    r3 = mul(mul(two, r, r3), r, r3)
    r3 = mul(r3, r, r3)
    t = k.arcsinh(div(t, r3, t), t)
    d = k.sinh(div(t, three, t), d)
    d = mul(d, mul(r, m2, r), d)
    d = sub(d, mul(four3, q0, tmp), d)
    # d - f / df with f = ((d + 4 q0) d + c1) d + c0, df = (3 d + 8 q0) d + c1
    f = mul(add(mul(four, q0, f), d, f), d, f)
    f = mul(add(f, c1, f), d, f)
    f = add(f, c0, f)
    df = add(mul(three, d, df), mul(eight, q0, tmp), df)
    df = add(mul(df, d, df), c1, df)
    return sub(d, div(f, df, f), d)


def _cubic_constants(tau: float, kc: float, c_p: float, c_q: float,
                     keep: float, scale: float) -> tuple:
    return 4.0, kc, (4.0 / 3.0) * kc, c_p, c_q, -tau, keep, scale


def _cubic_map(k: Kernel, p0: ArrayLike, q0: ArrayLike, prm: PhysParams,
               table: tuple) -> State:
    """The step shared by the two average-vector-field maps.

    ``q1 = q0 + d`` with ``d`` the root of the cubic with ``kc`` and
    ``c0 = 4 q0^3 - c_p p0 - c_q q0``; then
    ``p1 = (keep p0 - tau avg_grad(q0, q1)) / scale``, the constants being
    those of :func:`_cubic_constants` in ``table``.
    """
    four, kc, kc43, c_p, c_q, ntau, keep, scale = table[k.form]
    mul, add, sub = k.mul, k.add, k.sub
    c0, tmp = k.work[_CUBIC_MAP_WORK]
    c0 = mul(mul(four, q0, c0), q0, c0)
    c0 = mul(c0, q0, c0)
    c0 = sub(c0, mul(c_p, p0, tmp), c0)
    c0 = sub(c0, mul(c_q, q0, tmp), c0)
    q1 = add(_cubic_increment(k, q0, kc, kc43, c0), q0, None)
    p1 = mul(ntau, prm.potential.avg_grad(q0, q1, k), tmp)
    p1 = add(p1, p0 if table[0][6] == 1.0 else mul(keep, p0, c0), p1)
    return new_state((k.div(p1, scale, None), q1))


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
    k, p0, q0 = _load(s)
    if tau == 0:
        return State(p0, q0)
    return _cubic_map(k, p0, q0, prm, _avf_constants(tau, prm.upsilon))


@constants
def _avf_constants(tau: float, upsilon: float) -> tuple:
    a4 = 0.25 * tau * upsilon
    return _cubic_constants(tau, kc=8.0 * (1.0 - a4 * a4) / (tau * tau),
                            c_p=8.0 / tau,
                            c_q=16.0 * a4 * (1.0 + a4) / (tau * tau),
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
    k, p0, q0 = _load(s)
    tau_c, ntau, up, down, a2, half, three, m2, one = _dg_constants(
        tau, prm.upsilon)[k.form]
    mul, add, sub = k.mul, k.add, k.sub
    e1, e2, gp, gq, *terms = k.work[_DG_WORK]
    jac_terms = k.work[_DG_JACOBIAN_WORK]
    e1 = mul(a2, p0, e1)
    e2 = add(mul(tau_c, p0, e2), mul(a2, q0, gq), e2)
    # Terms of the latest residual: x, dp, dq, h, mq, 1/|delta|^2 (0 where
    # the correction is zero), h^2/|delta|^2, c.
    last = [None] * 8

    def residual(x):
        dp, dq, h, mq, dd, inv, w, c, f1, f2, t = terms
        dp = sub(x.p, p0, dp)
        dq = sub(x.q, q0, dq)
        h = mul(half, dq, h)
        mq = add(q0, h, mq)
        dd = add(mul(dp, dp, dd), mul(dq, dq, t), dd)
        if k.least(dd) >= 1e-28:
            inv = k.div(one, dd, inv)
        else:
            inv = k.div_where(one, dd, dd >= 1e-28, inv)
        w = mul(mul(h, h, w), inv, w)
        c = mul(mul(mq, dq, c), w, c)
        last[:] = x, dp, dq, h, mq, inv, w, c
        # f1 = up dp + e1 + tau (mq^3 + c dq)
        t = mul(mul(mq, mq, t), mq, t)
        t = mul(tau_c, add(t, mul(c, dq, f1), t), t)
        f1 = add(add(mul(up, dp, f1), e1, f1), t, f1)
        # f2 = down dq - e2 - tau ((0.5 + c) dp)
        t = mul(tau_c, mul(add(half, c, t), dp, t), t)
        f2 = sub(sub(mul(down, dq, f2), e2, f2), t, f2)
        return f1, f2

    def jacobian(x):
        if x is not last[0]:
            residual(x)
        _, dp, dq, h, mq, inv, w, c = last
        m2c, dc_dp1, dc_dq1, j11, j12, j21, j22, t = jac_terms
        m2c = mul(mul(m2, c, m2c), inv, m2c)
        dc_dp1 = mul(m2c, dp, dc_dp1)
        # dc_dq1 = (h + 3 mq) w + m2c dq
        dc_dq1 = mul(add(h, mul(three, mq, dc_dq1), dc_dq1), w, dc_dq1)
        dc_dq1 = add(dc_dq1, mul(m2c, dq, t), dc_dq1)
        # j11 = up + tau (dc_dp1 dq)
        j11 = add(up, mul(tau_c, mul(dc_dp1, dq, j11), j11), j11)
        # j12 = tau (0.5 hess(mq) + dc_dq1 dq + c)
        j12 = mul(half, prm.potential.hess(mq, k), j12)
        j12 = add(add(j12, mul(dc_dq1, dq, t), j12), c, j12)
        j12 = mul(tau_c, j12, j12)
        # j21 = -tau (0.5 + c + dc_dp1 dp)
        j21 = add(add(half, c, j21), mul(dc_dp1, dp, t), j21)
        j21 = mul(ntau, j21, j21)
        # j22 = down - tau (dc_dq1 dp)
        j22 = sub(down, mul(tau_c, mul(dc_dq1, dp, j22), j22), j22)
        return j11, j12, j21, j22

    # guess = (p0 - e1 - tau q0^3, q0 + e2)
    gq = mul(mul(q0, q0, gq), q0, gq)
    gp = sub(sub(p0, e1, gp), mul(tau_c, gq, gq), gp)
    gq = add(q0, e2, gq)
    return newton_solve_2d(residual, jacobian, State(gp, gq))


@constants
def _dg_constants(tau: float, upsilon: float) -> tuple:
    a = 0.25 * tau * upsilon
    return tau, -tau, 1.0 + a, 1.0 - a, 2.0 * a, 0.5, 3.0, -2.0, 1.0


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
    k, p0, q0 = _load(s)
    if tau == 0:
        return State(p0, q0)
    return _cubic_map(k, p0, q0, prm, _pavf_constants(tau, prm.upsilon))


@constants
def _pavf_constants(tau: float, upsilon: float) -> tuple:
    a2 = 0.5 * tau * upsilon
    return _cubic_constants(tau, kc=8.0 * (1.0 + a2) / (tau * tau),
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
    k, p0, q0 = _load(s)
    tau_c, scale, half_u = _sympl_euler_constants(tau, prm.upsilon)[k.form]
    mul, add = k.mul, k.add
    g, t = k.work[_SYMPL_EULER_WORK]
    g = mul(tau_c, prm.potential.grad(q0, k), g)
    p1 = k.div(k.sub(p0, g, g), scale, None)
    t = mul(tau_c, add(p1, mul(half_u, q0, t), t), t)
    return new_state((p1, add(q0, t, None)))


@constants
def _sympl_euler_constants(tau: float, upsilon: float) -> tuple:
    return tau, 1.0 + 0.5 * tau * upsilon, 0.5 * upsilon


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

