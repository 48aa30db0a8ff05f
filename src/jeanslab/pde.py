"""Log-periodic spherically symmetric evolution of (density contrast, velocity).

State variables on the unit-period grid in the logarithmic radial coordinate
zeta: the contrast rho_hat, its time derivative, and the rescaled speed nu.
The second-order contrast equation is reduced to first order and marched as
one (3, n) system by the error-controlled Dormand-Prince 8(5,3) pair (DOP853;
Hairer, Norsett and Wanner, Solving ODEs I, II.10) that integrates the contrast
ODE, ``contrast_ode._Dop853``, whose steps and dense output equal scipy's
``DOP853`` bit for bit; the nonlocal rescaled gravity Psi is re-evaluated
from the current contrast at every stage.  rhs differentiates the state in its
deviation from its mean (f, f', 0): the stencils act on it as one product of
their five weights with the deviation gathered at each point's neighbours, and
Psi as one product with a cached dense matrix on grids of up to
_DENSE_MAX_N = 256 points (the FFT above), each one numpy call where the
stencils' slices and the FFT take several; rhs's pointwise algebra is two more
products, of time-only coefficients with stacked field products.
Snapshots come from the pair's order-7 dense output at times fixed in
advance; the monitors are taken at the accepted step ends and at the snapshot
times.

The wave operator acting on rho_hat is

    d_t^2 - gzz d_zeta^2 + 2 g0z d_zeta d_t,

and the run stops hard if the effective squared wave speed gzz loses
positivity anywhere (the equation leaves the hyperbolic regime).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .contrast_ode import OdeTrajectory, _Dop853
from .errors import NumericalFailure, UsageError
from .params import ModelParams


class HyperbolicityLossError(NumericalFailure):
    """The reduced wave operator lost hyperbolicity: gzz <= 0 somewhere on the grid."""


class VacuumError(NumericalFailure):
    """The contrast reached vacuum: 1 + rho_hat <= 0 somewhere on the grid."""


# ---------------------------------------------------------------------------
# periodic grid operators


def zeta_grid(n: int) -> np.ndarray:
    if n < 16 or n % 2:
        raise UsageError(f"grid size must be even and >= 16, got {n!r}")
    return np.arange(n) / n


def diff1(u: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order centered first derivative on the periodic grid (the last axis)."""
    # two periodic ghosts a side: p[..., j+2] = u[..., j]
    p = np.concatenate((u[..., -2:], u, u[..., :2]), axis=-1)
    return (-p[..., 4:] + 8.0 * p[..., 3:-1] - 8.0 * p[..., 1:-3] + p[..., :-4]) / (12.0 * h)


def diff2(u: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order centered second derivative on the periodic grid (the last axis)."""
    p = np.concatenate((u[..., -2:], u, u[..., :2]), axis=-1)
    return (-p[..., 4:] + 16.0 * p[..., 3:-1] - 30.0 * u
            + 16.0 * p[..., 1:-3] - p[..., :-4]) / (12.0 * h * h)


# read by no code of the package: the benchmark's tracer test still looks the
# stencils up here
_DERIV_MODES = {"fd4": (diff1, diff2)}


@functools.lru_cache(maxsize=None)
def _psi_divisor(n: int) -> np.ndarray:
    """Mode-k divisor 3 + 2 pi i k of compute_psi on an n-point grid (read-only)."""
    k = np.fft.rfftfreq(n, d=1.0 / n)
    div = 3.0 + 2.0j * math.pi * k
    div.flags.writeable = False
    return div


def compute_psi(u_grid: np.ndarray) -> np.ndarray:
    """Rescaled gravity from the contrast deviation u on the periodic grid (the last axis).

    Psi solves d_zeta Psi = u - 3 Psi with unit period; equivalently it is the
    one-period closed form of the infinite-tail integral,

        Psi(zeta) = e^(-3 zeta) (1 - e^-3)^(-1) * int_{zeta-1}^{zeta} u(z) e^(3z) dz,

    evaluated with the trigonometric interpolant of the grid values, for which
    the weighted integral is exact mode by mode: mode k of u maps to mode k of
    Psi divided by (3 + 2 pi i k).  The output is periodic by construction and
    shift-equivariant under whole-grid-point shifts.
    """
    n = u_grid.shape[-1]
    return np.fft.irfft(np.fft.rfft(u_grid) / _psi_divisor(n), n=n)


# The largest grid on which rhs applies Psi as a product with the cached (n, n)
# circulant matrix, a speed choice: both ways apply the same linear map to the
# same deviation.  The product costs O(n^2) against the FFT's O(n log n), but is
# one numpy call against three.  Timing rhs with each on a 2-vCPU VM, the product
# was faster in 15 to 20 of 20 interleaved pairs at each n from 128 to 352, and
# in 0 and 9 of 20 in two runs at n = 384.  The cut is the largest power of two
# below that crossover, where the matrix holds 512 KiB.
_DENSE_MAX_N = 256


@functools.lru_cache(maxsize=None)
def _grid_maps(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(index, weights, psi_matrix) of rhs's grid maps on an n-point grid, read-only.

    For grids u of shape (3, n), row k of u.take(index), shape (5, 3n), holds each
    point's periodic neighbour k - 2 along its grid.  weights (2, 5) holds diff1's
    and diff2's weights, read off the stencils themselves, so weights.dot(u.take(
    index)) is diff1(u, 1/n) and diff2(u, 1/n), each flattened.  Up to
    n = _DENSE_MAX_N psi_matrix is compute_psi(np.eye(n)), so that
    v.dot(psi_matrix) is compute_psi(v); above it, None.
    """
    points = np.arange(3 * n)
    index = points - points % n + (points + np.arange(-2, 3)[:, None]) % n
    eye, h = np.eye(5), 1.0 / n
    weights = np.stack((diff1(eye, h)[:, 2], diff2(eye, h)[:, 2]))
    psi_matrix = compute_psi(np.eye(n)) if n <= _DENSE_MAX_N else None
    for a in (index, weights, psi_matrix):
        if a is not None:
            a.flags.writeable = False
    return index, weights, psi_matrix


def _grid_derivatives(y: np.ndarray, f: float, f0: float, out: np.ndarray):
    """(rz, rtz, nuz, rzz) of the state y = (rho_hat, drho_dt, nu), shape (3, n),
    where f and f0 are the contrast and its rate; writes the deviation
    (rho_hat - f, drho_dt - f0, nu) into out[:3] and compute_psi(rho_hat - f)
    into out[3], out of shape (4, n).

    The state is differentiated in that deviation, which has the same
    derivatives: rho_hat has mean f (up to 1e3 and more), and a stencil of it in
    full cancels terms of the size of f times the weights to leave the
    derivatives of the small deviation, which its rounding swamps; drho_dt, of
    mean f0, likewise.  The stencils are one product of the weights with the
    gathered deviation, and Psi one product with the cached matrix or one FFT
    (_grid_maps); ndarray.dot calls the BLAS that matmul does, with less overhead.
    """
    n = y.shape[1]
    index, weights, psi_matrix = _grid_maps(n)
    v = np.subtract(y, np.array(((f,), (f0,), (0.0,))), out=out[:3])
    d = weights.dot(v.take(index))
    if psi_matrix is None:
        out[3] = compute_psi(v[0])
    else:
        v[0].dot(psi_matrix, out=out[3])
    return d[0, :n], d[0, n:2 * n], d[0, 2 * n:], d[1, :n]


# ---------------------------------------------------------------------------
# state and tolerances


@dataclass
class FieldState:
    t: float
    zeta: np.ndarray
    rho_hat: np.ndarray
    drho_dt: np.ndarray
    nu: np.ndarray
    psi: np.ndarray

    @property
    def n(self) -> int:
        return len(self.zeta)


PDE_RTOL = 1e-10  # relative local error tolerance of the DOP853 pair
_SNAPSHOTS = 20  # stored snapshots after the initial state
# absolute tolerance per unit of pde_rtol: the error floor of components near
# zero, chiefly nu, which vanishes on the homogeneous manifold
_ATOL_PER_RTOL = 1e-3


@dataclass
class EvolveResult:
    states: list
    monitors: dict  # column -> array, one row per monitored time (see _record)
    stop_reason: str
    n_steps: int     # accepted steps
    n_rejected: int  # trial steps rejected by the error test
    n_rhs: int       # rhs calls, dense-output stages included
    n_dense: int     # accepted steps whose dense output was read
    dt_min: float
    dt_max: float

    @property
    def final(self) -> FieldState:
        return self.states[-1]


# ---------------------------------------------------------------------------
# initial data


def data_smallness(state: FieldState, params: ModelParams) -> float:
    """Sup-norm proxy of the perturbation size of the initial data.

    Reports max over |u|, |nu| and their first two grid derivatives at t = t0,
    the quantity the smallness budget of the stability theorem constrains.
    """
    h = 1.0 / state.n
    f = params.beta
    u = (state.rho_hat - f) / f
    vals = [u, state.nu]
    vals += [diff1(u, h), diff1(state.nu, h), diff2(u, h), diff2(state.nu, h)]
    return float(max(np.max(np.abs(v)) for v in vals))


def init_from_data(params: ModelParams, d: np.ndarray, v: np.ndarray) -> FieldState:
    """Build the t = t0 state from the data d and v on the grid zeta_grid(len(d)).

    The data are values on one period of zeta, the point |x| = (1+beta)^(-1/3) e^zeta
    at t0, so they repeat with period 1 in zeta.  The contrast and speed come
    straight from the data map; the time derivative of the contrast is
    reconstructed from the continuity identity (the evolution preserves that
    identity, so prescribing it independently would inject an inconsistent mode).
    """
    d, v = np.asarray(d, dtype=float), np.asarray(v, dtype=float)
    zeta = zeta_grid(len(d))
    if d.shape != zeta.shape or v.shape != zeta.shape:
        raise UsageError(f"profiles d and v must both have shape {zeta.shape}, "
                         f"got {d.shape} and {v.shape}")
    if not (np.isfinite(d).all() and np.isfinite(v).all()):
        raise UsageError("profile values must be finite")
    h = 1.0 / len(d)
    f = params.beta
    f0 = params.beta0
    rho_hat = f * d
    nu = 1.0 + v
    one_pr = 1.0 + rho_hat
    if np.any(one_pr <= 0.0):
        raise UsageError("initial data reaches vacuum: 1 + rho_hat <= 0")
    z_rate = f0 / (3.0 * (1.0 + f))
    dev = rho_hat - f  # differentiated in its deviation, as rhs does
    drho_dt = (one_pr * f0 / (1.0 + f)
               - z_rate * nu * diff1(dev, h)
               - one_pr * (f0 / (1.0 + f)) * nu
               - one_pr * z_rate * diff1(nu, h))
    psi = compute_psi(dev / f)
    return FieldState(t=params.t0, zeta=zeta, rho_hat=rho_hat,
                      drho_dt=drho_dt, nu=nu, psi=psi)


# ---------------------------------------------------------------------------
# right-hand side


def rhs(t: float, y: np.ndarray, traj: OdeTrajectory) -> np.ndarray:
    """Time derivative of the state y = (rho_hat, drho_dt, nu), shape (3, n).

    Raises HyperbolicityLossError if gzz <= 0 anywhere and VacuumError on
    vacuum (1 + rho_hat <= 0).  The grid derivatives and Psi come from
    _grid_derivatives, of the state's deviation (rho_hat - f, drho_dt - f', nu):
    one gathered five-point product for the stencils, and one product with a
    cached matrix or one FFT for Psi.  Both guards run before it, as a dense
    product spreads a NaN entry to every entry.  The rest is two products of
    Python-float coefficients of (t, f, f') with field products, each written
    once into a row of one stack, the deviation and Psi included: the first
    gives the speed equation, the continuity defect, lin and quad straight into
    rows of the output, and the second the contrast equation, whose terms in rz
    are rz (lin + rz quad).  Psi enters unscaled, its 1/f folded into its two
    coefficients.  That is about 50 numpy calls where writing out each term took
    85; on these grids each call costs more in overhead than in arithmetic.
    """
    t = float(t)
    f, f0 = traj.f_f0_at(t)
    p = traj.params
    om, i3, kap = p.omega, p.iota3, p.kappa
    r, rt, nu = y[0], y[1], y[2]
    n = y.shape[1]
    s = np.empty((24, n))
    # the deviation (its last row nu) and Psi, then the first product's rows from
    # nu_row on, then the second's
    (_, _, nu_row, psi_row, ratio_om, pr_ratio_om, nu2, ratio_1om_m1, one, rt_inv,
     nu_rt_inv, nu2_inv, nu_nuz, nu_rz_inv, ratio_om_rz,
     rz_terms, pr_defect2, gzz_rzz, nu_rtz, rt_rt_inv, rt_row, ratio_om_m1_pr2, r_pr, one_pr) = s
    np.add(r, 1.0, out=one_pr)
    if np.count_nonzero(one_pr <= 0.0):  # not one_pr.min(): a NaN entry would hide the others
        raise VacuumError("vacuum formation: 1 + rho_hat <= 0 on the grid")
    one_pf = 1.0 + f
    tt = t * t
    c0 = f0 / one_pf
    c0_2 = c0 * c0
    z_rate = f0 / (3.0 * one_pf)
    w = (1.0 - i3) / (9.0 * tt)
    ratio = one_pr / one_pf
    np.power(ratio, om, out=ratio_om)
    np.multiply(one_pr, ratio_om, out=pr_ratio_om)  # (1 + rho_hat)^(omega+1) / (1 + f)^omega
    np.multiply(nu, nu, out=nu2)
    gzz = ((2.0 + om) * w) * pr_ratio_om - (c0_2 / 9.0) * nu2
    bad = gzz <= 0.0
    if np.count_nonzero(bad):  # the min over the offending entries: a NaN elsewhere would hide it
        raise HyperbolicityLossError(
            f"hyperbolicity loss at t={t:.9g}: min gzz = {float(gzz[bad].min()):.3g}")

    rz, rtz, nuz, rzz = _grid_derivatives(y, f, f0, s[:4])  # fills nu_row and psi_row
    inv = 1.0 / one_pr
    np.subtract(ratio * ratio_om, 1.0, out=ratio_1om_m1)
    one.fill(1.0)
    np.multiply(rt, inv, out=rt_inv)
    np.multiply(nu, rt_inv, out=nu_rt_inv)
    np.multiply(nu2, inv, out=nu2_inv)
    np.multiply(nu, nuz, out=nu_nuz)
    np.multiply(nu * rz, inv, out=nu_rz_inv)
    np.multiply(ratio_om, rz, out=ratio_om_rz)
    np.multiply(gzz, rzz, out=gzz_rzz)
    np.multiply(nu, rtz, out=nu_rtz)  # g0z rtz / z_rate
    np.multiply(rt, rt_inv, out=rt_rt_inv)
    rt_row[:] = rt
    np.multiply((ratio_om - 1.0) * one_pr, one_pr, out=ratio_om_m1_pr2)
    np.multiply(r, one_pr, out=r_pr)

    quad_r = (om + 1.0) * (om + 2.0) * w
    speed_nu = (1.0 / 3.0 - kap) * c0 - 2.0 * f / (3.0 * tt * c0)  # the terms in nu alone
    table = np.array((  # one line per row of s[2:15]
        # speed                     lin                        quad               defect
        speed_nu,                   -(2.0 / 9.0) * c0_2,       0.0,               -c0,
        -2.0 * i3 / (tt * c0),      2.0 * i3 / (3.0 * tt),     0.0,               0.0,
        0.0,                        0.0,                       quad_r,            0.0,
        0.0,                        (8.0 + 5.0 * om) * w,      0.0,               0.0,
        -z_rate,                    c0_2 / 9.0,                0.0,               0.0,
        -6.0 * one_pf * w / c0,     2.0 * one_pf * w,          0.0,               0.0,
        0.0,                        0.0,                       0.0,               c0,
        0.0,                        0.0,                       0.0,               -1.0,
        0.0,                        (8.0 / 9.0) * c0,          0.0,               0.0,
        0.0,                        0.0,                       4.0 * c0_2 / 27.0, 0.0,
        -z_rate,                    0.0,                       0.0,               0.0,
        0.0,                        0.0,                       0.0,               -z_rate,
        -3.0 * (om + 2.0) * w / c0, 0.0,                       0.0,               0.0,
    )).reshape(13, 4)
    out = np.empty((6, n))  # the returned rows, then lin, quad and defect
    lin, quad, defect = table.T.dot(s[2:15], out=out[2:])[1:]
    np.multiply(rz, lin + rz * quad, out=rz_terms)
    np.multiply(defect * defect, one_pr, out=pr_defect2)
    out[0] = rt
    weights = np.array((1.0, 2.0 / 3.0, 1.0, -2.0 * z_rate, 4.0 / 3.0,  # one per row of s[15:]
                        -(4.0 / (3.0 * t) + kap * c0), 6.0 * w, 2.0 / (3.0 * tt), kap * c0_2))
    weights.dot(s[15:], out=out[1])
    return out[:3]


def _continuity_defect(f, f0, rho_hat, drho_dt, nu, h: float) -> np.ndarray:
    """Pointwise defect of the reduced continuity identity, the grid on the last axis;
    f and f0 broadcast against the fields.  The contrast is differentiated in its
    deviation rho_hat - f, as in rhs."""
    one_pf, one_pr = 1.0 + f, 1.0 + rho_hat
    z_rate = f0 / (3.0 * one_pf)
    return (f0 / one_pf
            - drho_dt / one_pr
            - z_rate * nu * diff1(rho_hat - f, h) / one_pr
            - (f0 / one_pf) * nu
            - z_rate * diff1(nu, h))


def entropy_field(state: FieldState, traj: OdeTrajectory) -> np.ndarray:
    """Specific entropy on the grid from the algebraic reduction.

    With the model's entropy-production exponent the transport equation
    collapses to s = ln(t^(-4/3) (1+rho_hat)^(2/3+omega) (1+f)^(-omega) |x|^2);
    |x| is reconstructed from zeta through the time-dependent exp-log map.
    """
    t = state.t
    f, _ = traj.f_f0_at(t)
    om = traj.params.omega
    if np.any(1.0 + state.rho_hat <= 0.0):
        raise VacuumError("entropy undefined at vacuum: 1 + rho_hat <= 0")
    x_abs = t ** (2.0 / 3.0) * (1.0 + f) ** (-1.0 / 3.0) * np.exp(state.zeta)
    return np.log(t ** (-4.0 / 3.0) * (1.0 + state.rho_hat) ** (2.0 / 3.0 + om)
                  * (1.0 + f) ** (-om) * x_abs**2)


# ---------------------------------------------------------------------------
# time marching


def _record(t: np.ndarray, y: np.ndarray, f: np.ndarray, f0: np.ndarray,
            params: ModelParams) -> dict:
    """The monitors of the states y (m, 3, n) at the times t, where the contrast and
    its rate are f and f0 (all three of shape (m,)): column name -> (m,) array."""
    f, f0 = f[:, None], f0[:, None]
    rho_hat, drho_dt, nu = y[:, 0], y[:, 1], y[:, 2]
    h = 1.0 / y.shape[-1]
    rr = rho_hat / f
    rd = drho_dt / f0
    dev = rho_hat - f
    uz = (params.c_scale / (1.0 + f)) * diff1(dev, h)
    defect = _continuity_defect(f, f0, rho_hat, drho_dt, nu, h)
    return {"t": t, "ratio_rho_min": rr.min(-1), "ratio_rho_max": rr.max(-1),
            "ratio_drho_min": rd.min(-1), "ratio_drho_max": rd.max(-1),
            "uz_sup": np.abs(uz).max(-1), "nu_sup": np.abs(nu).max(-1),
            "rho_dev_sup": np.abs(dev).max(-1),  # max |rho_hat - f|
            "continuity_residual": np.abs(defect).max(-1)}


def snapshot_times(traj: OdeTrajectory, t_start: float, count: int) -> np.ndarray:
    """count times in (t_start, traj.t_end], uniform in ln(1+f) = 2s, the last exactly
    traj.t_end: t(s) read off the dense output at uniform clock values s after that of
    t_start."""
    lo, hi = traj.s_p_at(float(t_start))[0], traj.s_grid[-1]
    s = lo + (hi - lo) * np.arange(1, count) / count
    return np.append(traj.t_p_at_s(s)[0], traj.t_end)


def evolve(state: FieldState, traj: OdeTrajectory, pde_rtol: float = PDE_RTOL) -> EvolveResult:
    """March the reduced system with the error-controlled DOP853 pair (``_Dop853``)
    from state.t to the end of ``traj``.

    The contrast and the model constants come from ``traj`` and its ``params``.
    Each step keeps the local error estimate below atol + pde_rtol * |y|
    componentwise, with atol = _ATOL_PER_RTOL * pde_rtol.  Snapshots are read
    from the dense output at _SNAPSHOTS times after the initial state, uniform
    in ln(1+f) and ending exactly at traj.t_end, so only the steps that hold
    one pay the dense output's 3 extra stages.  The monitors have one row per
    time, in increasing t: the initial state, each accepted step end and each
    snapshot (a step end that is also a snapshot time is the one stored state).
    A completed run stops with "f_cap" if the trajectory ends at its cap and
    "t_end" otherwise.  The run stops early when rhs raises on any stage
    (hyperbolicity loss or vacuum) or when the solver's step size underflows;
    an early stop also stores the last accepted state.  An overflow in the march
    raises NumericalFailure.
    """
    t_stop = traj.t_end
    if t_stop <= state.t:
        raise UsageError(f"stop time {t_stop!r} is not after the initial time {state.t!r}")
    n = state.n
    out_t = snapshot_times(traj, state.t, _SNAPSHOTS)

    y0 = np.stack((state.rho_hat, state.drho_dt, state.nu))
    # the monitor rows, in increasing t; the flagged ones are stored as states
    row_t, row_y, stored = [state.t], [y0], [False]

    stop_reason = "f_cap" if traj.reached_cap else "t_end"
    n_steps = n_dense = 0
    dt_min, dt_max = math.inf, 0.0
    march = _Dop853(lambda t, y: rhs(t, y.reshape(3, n), traj).reshape(-1), state.t,
                    y0.reshape(-1), t_stop, pde_rtol, _ATOL_PER_RTOL * pde_rtol)
    k = 0  # next output time
    try:
        with np.errstate(over="raise"):  # an overflow raises, before any warning
            march.start()
            while march.t < t_stop:
                if not march.step():
                    stop_reason = "dt_underflow"
                    break
                n_steps += 1
                dt_min, dt_max = min(dt_min, march.h), max(dt_max, march.h)
                m = int(np.searchsorted(out_t, march.t, side="right"))  # out_t[k:m] in this step
                try:
                    if m > k:
                        row_y.extend(march.dense(out_t[k:m]).reshape(m - k, 3, n))
                        row_t.extend(out_t[k:m].tolist())
                        stored.extend([True] * (m - k))
                        n_dense += 1
                        k = m
                finally:  # the step end, also when its dense output raised
                    if row_t[-1] < march.t:
                        row_t.append(march.t)
                        row_y.append(march.y.reshape(3, n))
                        stored.append(False)
    except HyperbolicityLossError:
        stop_reason = "hyperbolicity_loss"
    except VacuumError:
        stop_reason = "vacuum"
    except FloatingPointError as exc:
        raise NumericalFailure(f"the PDE march overflowed near t={march.t!r}") from exc
    stored[-1] = march.t > state.t  # an early stop stores the last accepted state

    t, y = np.array(row_t), np.stack(row_y)
    f, f0 = traj.f_f0_at(t)
    keep = np.flatnonzero(stored)
    fk = f[keep, None]
    psi = compute_psi((y[keep, 0] - fk) / fk)
    states = [state]
    states.extend(FieldState(t=tk, zeta=state.zeta, rho_hat=yk[0], drho_dt=yk[1], nu=yk[2],
                             psi=pk) for tk, yk, pk in zip(t[keep].tolist(), y[keep], psi))
    return EvolveResult(states=states, monitors=_record(t, y, f, f0, traj.params),
                        stop_reason=stop_reason, n_steps=n_steps,
                        n_rejected=march.n_trials - n_steps, n_rhs=march.n_rhs,
                        n_dense=n_dense, dt_min=dt_min, dt_max=dt_max)
