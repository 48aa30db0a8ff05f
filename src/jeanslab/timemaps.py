"""Compactified time g(t), tau = -g, and the terminal diagnostics chi, xi, G, eta_2.

Two integral representations of the same map are computed and cross-checked:

    g(t) = exp(-A * int_t0^t f (1+f) / (s^2 f') ds)                (quotient form)
    g(t) = (1 + b B int_t0^t s^(a-2) f (1+f)^(1-c) ds)^(-A/b)      (f-only form)

Their agreement is a strong consistency certificate for the ODE solution,
because equality of the two integrands is equivalent to the closed-form
expression of f' in terms of (f, g).  Both are integrated on the contrast
march's clock s = ln(1+f)/2, with dt/ds = 2 e^(-s)/p and p = f'/(1+f)^(3/2),
where the quotient integrand is 2 (1 - e^(-2s)) / (t^2 p^2), bounded and smooth
up to the blowup.  On each DOP853 step, as cut at the cap, each integral is one
polynomial in x = (s - s_k)/(s_{k+1} - s_k): the integral of the interpolant of
the integrand's dense-output values at the `_GL_NODES` Gauss-Legendre nodes,
which at x = 1 is the Gauss-Legendre rule (Davis & Rabinowitz, Methods of
Numerical Integration, ch. 2).  The quotient form's polynomial is ln g; the
f-only form survives as its gap.  The record grid is the solver nodes plus the
quadrature nodes, 7 points a step, each read at its clock value.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .contrast_ode import OdeTrajectory, _f_f0, _holding_step, _inexact
from .errors import NumericalFailure
from .params import ModelParams

_GL_NODES = 6  # Gauss-Legendre nodes per solver step
# Newton iterations of tau -> s from the chord between record points; 3 reached
# rounding at about 4,000 tau on each of seven models (beta down to 1e-30, A = 0.2 to 1)
_NEWTON_STEPS = 4
_NEWTON_TOL = 16.0 * np.finfo(float).eps  # the bound on its residual over ln g's |terms|
_MISMATCH_TOL = 1e-6  # a gap between the two forms of g above 10x this is a failure
_CHI_CROSSCHECK_TOL = 1e-6


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes on [0, 1] and weights of the `_GL_NODES`-point Gauss-Legendre rule, and the
    matrix that maps values at the nodes to the coefficients of x^1..x^n of the integral
    from 0 to x of their interpolant (read-only), built on the first time maps."""
    nodes, weights = np.polynomial.legendre.leggauss(_GL_NODES)
    nodes, weights, powers = 0.5 * (nodes + 1.0), 0.5 * weights, np.arange(_GL_NODES)
    to_integral = np.linalg.inv(nodes[:, None] ** powers) / (powers + 1.0)[:, None]
    nodes.flags.writeable = weights.flags.writeable = to_integral.flags.writeable = False
    return nodes, weights, to_integral


def _reader(read):
    """``read`` of a contiguous 1-d array, giving Python numbers for a scalar argument
    and arrays of its shape otherwise, float or complex as the argument is: each value
    comes from numpy's array loops either way (the power of a numpy scalar differs
    from theirs in the last bit for some arguments)."""
    @functools.wraps(read)
    def at(self, x):
        u, v = read(self, np.ascontiguousarray(_inexact(x)).reshape(-1))
        if np.ndim(x) == 0:
            return u[0].item(), v[0].item()
        return u.reshape(np.shape(x)), v.reshape(np.shape(x))
    return at


def _horner(c, x):
    """sum_m c[m] x^m and its derivative in x, elementwise, for c of shape (m,) + x.shape."""
    v, d = c[-1], 0.0
    for cm in c[-2::-1]:
        v, d = v * x + cm, d * x + v
    return v, d


def _chi(params: ModelParams, t, f, f0, g):
    """chi = t^(2-a) f' / ((1+f)^(2-c) f g^(b/A)), the rate quotient of the contrast."""
    a, b, c, A = params.ode_a, params.ode_b, params.ode_c, params.A
    return t ** (2.0 - a) * f0 / ((1.0 + f) ** (2.0 - c) * f * g ** (b / A))


@dataclass(frozen=True)
class TimeMaps:
    """Time transform and diagnostics on the record grid, and readers at any time.

    The maps carry the trajectory's model ``params``, which their readers use.
    ``s_grid`` and ``t_grid`` hold the record grid's clock values and times.
    ``g_G_at`` reads (g, G) at times t from ln g's step polynomial at the clock
    value of t, and ``f_G_at_tau`` (f, G) at compactified times tau, at the clock
    value ``t_at_tau`` finds on it; f, f' come from the dense output and G from
    chi's closed form.  A time outside [t0, t_end] reads the first or the last
    step's polynomial.  The readers take complex arguments, on the step of the real
    part, and are analytic there: Im f_G_at_tau(tau + ih)/h is d(f, G)/dtau."""

    params: ModelParams
    s_grid: np.ndarray
    t_grid: np.ndarray
    f: np.ndarray
    f0: np.ndarray
    g: np.ndarray
    tau: np.ndarray
    representation_gap: float
    chi: np.ndarray
    xi: np.ndarray
    G_frak: np.ndarray
    eta2: np.ndarray
    # ln g on each solver step k: coefficients (power, step) of x = (s - s_k) / ds_k
    _log_g: np.ndarray = field(repr=False)
    _traj: OdeTrajectory = field(repr=False)

    @functools.cached_property
    def f00(self) -> np.ndarray:
        """f'' on the grid from the derivative of the dense output, read on first use."""
        return self._traj.f00_at_s(self.s_grid)

    def _g(self, k: np.ndarray, s: np.ndarray) -> np.ndarray:
        """g at the clock values s of the steps k."""
        s_grid = self._traj.s_grid
        x = (s - s_grid[k]) / (s_grid[k + 1] - s_grid[k])
        return np.exp(_horner(self._log_g[:, k], x)[0])

    def _f_G(self, s, p, t, g):
        """(f, G) at the clock values s with rates p, at the times t, where g is known."""
        f, f0 = _f_f0(s, p)
        return f, _chi(self.params, t, f, f0, g) - self.params.chi_limit()

    @_reader
    def g_G_at(self, t):
        """(g, G) at the times t."""
        s, p = self._traj.s_p_at(t)
        g = self._g(_holding_step(self._traj.t_grid, t), s)
        return g, self._f_G(s, p, t, g)[1]

    def _s_at_tau(self, tau: np.ndarray) -> np.ndarray:
        """The clock values at a 1-d array of tau: the root of one step's ln g
        polynomial at ln(-tau), by Newton's method from the chord of tau between the
        record points around it; NumericalFailure where its residual is not at
        rounding."""
        xs = np.concatenate(([0.0], _gauss_legendre()[0], [1.0]))  # one step's record x
        j = _holding_step(self.tau, tau)
        k, i = np.divmod(j, _GL_NODES + 1)
        c = self._log_g[:, k]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            target = np.log(-tau)
            x = xs[i] + (xs[i + 1] - xs[i]) * (tau - self.tau[j]) / (self.tau[j + 1] - self.tau[j])
            for _ in range(_NEWTON_STEPS):
                v, d = _horner(c, x)
                x = x - (v - target) / d
            residual = np.abs(_horner(c, x)[0] - target)
            scale = _horner(np.abs(c), np.abs(x))[0] + np.abs(target)
        if not np.all(residual <= _NEWTON_TOL * scale):
            raise NumericalFailure(f"no time found for tau in [{tau.real.min():.6g}, "
                                   f"{tau.real.max():.6g}]: "
                                   f"Newton's residual on ln g is {residual.max():.3g}")
        s_grid = self._traj.s_grid
        return s_grid[k] + x * (s_grid[k + 1] - s_grid[k])

    def t_at_tau(self, tau: np.ndarray) -> np.ndarray:
        """The times at a 1-d array of tau: t(s) at the clock value of each."""
        return self._traj.t_p_at_s(self._s_at_tau(tau))[0]

    @_reader
    def f_G_at_tau(self, tau):
        """(f, G) at the compactified times tau."""
        s = self._s_at_tau(tau)
        t, p = self._traj.t_p_at_s(s)
        return self._f_G(s, p, t, -tau)


def _in_float_range(fn):
    """fn with numpy's overflows, divisions by zero and invalid operations raised as
    NumericalFailure where they happen, before any warning: data whose time maps or
    diagnostics leave the range of floats (g underflowing to 0, chi near 1/f for a
    tiny initial contrast) give no verdict on them."""
    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                return fn(*args, **kwargs)
        except FloatingPointError as exc:
            raise NumericalFailure(f"{fn.__name__} left the range of floats: {exc}") from exc
    return checked


def _step_integrals(v: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """The integral from s0 of an integrand with values v (step, node) at the quadrature
    nodes of steps ds long: coefficients (power, step) of one polynomial in x per step,
    whose constants sum the Gauss-Legendre rule over the steps before."""
    _, weights, to_integral = _gauss_legendre()
    starts = np.concatenate(([0.0], np.cumsum(ds * (v @ weights))[:-1]))
    return np.vstack([starts, (ds[:, None] * (v @ to_integral.T)).T])


@_in_float_range
def compute_g(traj: OdeTrajectory) -> TimeMaps:
    """Evaluate both representations of g and the diagnostics chi, xi, G, eta_2.

    Raises NumericalFailure ("representation mismatch") if the two forms of g
    disagree by more than 10x `_MISMATCH_TOL` anywhere on the record grid; such a
    gap signals an inaccurate contrast integration rather than a quadrature
    artifact.  chi is evaluated from both algebraic forms (the f'-quotient and
    the (f, g)-only rewriting) and cross-checked.  eta_2 = 1/(g^2 (1+f)) decays
    because 2 < 2b/((3-2c)A) = 4/A holds for every A in (0, 2), the range
    ``build_params`` admits.
    """
    params = traj.params
    a, b, c, A, B = params.ode_a, params.ode_b, params.ode_c, params.A, params.B
    nodes, s_grid = _gauss_legendre()[0], traj.s_grid
    n, ds = len(traj.h), np.diff(s_grid)
    sq = s_grid[:-1, None] + ds[:, None] * nodes  # (step, node)
    tq, pq = traj.t_p_at_s(sq)
    # the record grid: each step's start, its nodes, and the end, with f and f' there
    t, s, p = (np.append(np.hstack([v[:-1, None], q]), v[-1])
               for v, q in ((traj.t_grid, tq), (s_grid, sq), (traj.p, pq)))
    f, f0 = _f_f0(s, p)
    fq = f[:-1].reshape(n, _GL_NODES + 1)[:, 1:]
    # the integrands per unit s: dt/ds = 2 e^(-s) / p
    dt_ds = 2.0 * np.exp(-sq) / pq
    log_g = -A * _step_integrals(2.0 * -np.expm1(-2.0 * sq) / (tq**2 * pq**2), ds)
    I2 = _step_integrals(tq ** (a - 2.0) * fq * (1.0 + fq) ** (1.0 - c) * dt_ds, ds)
    k = np.append(np.repeat(np.arange(n), _GL_NODES + 1), n - 1)
    x = (s - s_grid[k]) / ds[k]  # as TimeMaps reads it
    g = np.exp(_horner(log_g[:, k], x)[0])
    g_f_only = (1.0 + b * B * _horner(I2[:, k], x)[0]) ** (-A / b)
    gap = float(np.max(np.abs(g - g_f_only) / g_f_only))
    if gap > 10.0 * _MISMATCH_TOL:
        raise NumericalFailure(f"representation mismatch: quotient and f-only forms of g "
                               f"differ by rel {gap:.3g} (> {10.0 * _MISMATCH_TOL:.3g})")
    chi = _chi(params, t, f, f0, g)
    chi_alt = g ** (-2.0 * b / A) * t ** (2.0 * (1.0 - a)) / (B * f * (1.0 + f) ** (2.0 * (1.0 - c)))
    chi_gap = float(np.max(np.abs(chi - chi_alt) / chi_alt))
    if chi_gap > 10.0 * _CHI_CROSSCHECK_TOL:
        raise NumericalFailure(f"chi cross-check failed: algebraic forms differ by rel "
                               f"{chi_gap:.3g}")
    return TimeMaps(
        params=params, s_grid=s, t_grid=t, f=f, f0=f0, g=g, tau=-g, representation_gap=gap,
        chi=chi, xi=1.0 / (g * (1.0 + f)), G_frak=chi - params.chi_limit(),
        eta2=1.0 / (g**2.0 * (1.0 + f)), _log_g=log_g, _traj=traj,
    )


def dchi_dt_terms(maps: TimeMaps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three terms of the closed-form d(chi)/dt along the record grid:

    dchi/dt = -(3-2c) G sqrt(f chi) / (sqrt(B) t) - chi^(3/2) / (sqrt(B) t sqrt(f))
              + 2 (1-a) chi / t.
    """
    a, c, B = maps.params.ode_a, maps.params.ode_c, maps.params.B
    t, f, chi, G = maps.t_grid, maps.f, maps.chi, maps.G_frak
    return (-(3.0 - 2.0 * c) * G * np.sqrt(f * chi) / (np.sqrt(B) * t),
            -(chi**1.5 / (np.sqrt(B) * t * np.sqrt(f))),
            2.0 * (1.0 - a) * chi / t)


@dataclass
class GDecayReport:
    slope: float
    n_points: int
    zero_crossings_excised: bool
    dchi_rel_err: float


_G_DECAY_DECADES = 1.0  # check_G_decay fits over this many terminal decades of -tau


@_in_float_range
def check_G_decay(maps: TimeMaps) -> GDecayReport:
    """Fit the terminal decay |G| ~ (-tau)^p and verify the chi evolution law.

    The fit runs over the last `_G_DECAY_DECADES` of -tau; grid points where G crosses
    zero are excised (and flagged).  Independently, dchi/dt by the chain rule on the
    dense output, which meets the law only where the interpolant solves the ODE, is
    compared with the law at every point of the record grid, relative to the law's
    value or to 1e-6 of the sum of its terms' magnitudes, whichever is larger.
    """
    neg_tau = -maps.tau
    hi = neg_tau[-1] * 10.0**_G_DECAY_DECADES
    sel = neg_tau <= hi
    G, x = maps.G_frak[sel], neg_tau[sel]
    crossings = bool(np.any(np.sign(G[:-1]) * np.sign(G[1:]) < 0))
    tiny = np.abs(G) < 1e-8 * np.max(np.abs(G))
    excised = crossings or bool(tiny.any())
    x_fit, G_fit = x[~tiny], np.abs(G[~tiny])
    A_ls = np.vstack([np.log(x_fit), np.ones_like(x_fit)]).T
    slope = np.linalg.lstsq(A_ls, np.log(G_fit), rcond=None)[0][0]

    # chi = t^(2-a) f' / ((1+f)^(2-c) f g^(b/A)) and d ln g/dt = -A f (1+f) / (t^2 f')
    # give d ln chi/dt, with f'' read from the derivative of the dense output
    a, b, c = maps.params.ode_a, maps.params.ode_b, maps.params.ode_c
    t, f, f0 = maps.t_grid, maps.f, maps.f0
    dchi = maps.chi * ((2.0 - a) / t + maps.f00 / f0 - (2.0 - c) * f0 / (1.0 + f) - f0 / f
                       + b * f * (1.0 + f) / (t**2 * f0))
    first, second, third = dchi_dt_terms(maps)
    dchi_ana = first + second + third
    floor = 1e-6 * (np.abs(first) + np.abs(second) + np.abs(third))
    rel = float(np.max(np.abs(dchi - dchi_ana) / np.maximum(np.abs(dchi_ana), floor)))
    return GDecayReport(
        slope=float(slope), n_points=int(len(x_fit)),
        zero_crossings_excised=excised, dchi_rel_err=rel,
    )
