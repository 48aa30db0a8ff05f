"""Compactified time g(t), tau = -g, and the terminal diagnostics chi, xi, G, eta_2.

Two integral representations of the same map are computed and cross-checked:

    g(t) = exp(-A * int_t0^t f (1+f) / (s^2 f') ds)                (quotient form)
    g(t) = (1 + b B int_t0^t s^(a-2) f (1+f)^(1-c) ds)^(-A/b)      (f-only form)

Their agreement is a strong consistency certificate for the ODE solution,
because equality of the two integrands is equivalent to the closed-form
expression of f' in terms of (f, g).  On each DOP853 step, as cut at the cap,
each integral is one polynomial in x = (t - t_k)/(t_{k+1} - t_k): the integral
of the interpolant of the integrand's dense-output values at the `_GL_NODES`
Gauss-Legendre nodes, which at x = 1 is the Gauss-Legendre rule (Davis &
Rabinowitz, Methods of Numerical Integration, ch. 2).  The quotient form's
polynomial is ln g; the f-only form survives as its gap.  The record grid is the
solver nodes plus the quadrature nodes, 7 points a step.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .contrast_ode import OdeTrajectory
from .errors import NumericalFailure
from .params import ModelParams

_GL_NODES = 6  # Gauss-Legendre nodes per solver step
# Newton iterations of tau -> t from the chord between record points; 3 reached
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
    """``read`` of a contiguous 1-d array, giving floats for a scalar argument and arrays
    of its shape otherwise: each value comes from numpy's array loops either way (the
    power of a numpy scalar differs from theirs in the last bit for some arguments)."""
    @functools.wraps(read)
    def at(self, x):
        u, v = read(self, np.ascontiguousarray(x, dtype=float).reshape(-1))
        if np.ndim(x) == 0:
            return float(u[0]), float(v[0])
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
    ``g_G_at`` reads (g, G) at times t from ln g's step polynomial, and
    ``f_G_at_tau`` (f, G) at compactified times tau, at the time ``t_at_tau``
    finds on it; f, f' come from the dense output and G from chi's closed form.
    A time outside [t0, t_end] reads the first or the last step's polynomial."""

    params: ModelParams
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
    # ln g on each solver step k: coefficients (power, step) of x = (t - t_k) / dt_k
    _log_g: np.ndarray = field(repr=False)
    _traj: OdeTrajectory = field(repr=False)

    @functools.cached_property
    def f00(self) -> np.ndarray:
        """f'' on the grid from the derivative of the dense output of y', read on first use."""
        return self._traj.f00_at(self.t_grid)

    def _f_G(self, t: np.ndarray, g: np.ndarray):
        """(f, G) at the times t, where g is known."""
        f, f0 = self._traj.f_f0_at(t)
        return f, _chi(self.params, t, f, f0, g) - self.params.chi_limit()

    @_reader
    def g_G_at(self, t):
        """(g, G) at the times t."""
        k, x = _step_x(self._traj.t_grid, t)
        g = np.exp(_horner(self._log_g[:, k], x)[0])
        return g, self._f_G(t, g)[1]

    def t_at_tau(self, tau: np.ndarray) -> np.ndarray:
        """The times at a 1-d array of tau: the root of one step's ln g polynomial at
        ln(-tau), by Newton's method from the chord of tau between the record points
        around it; NumericalFailure where its residual is not at rounding."""
        xs = np.concatenate(([0.0], _gauss_legendre()[0], [1.0]))  # one step's record x
        j = np.clip(np.searchsorted(self.tau, tau, side="left") - 1, 0, len(self.tau) - 2)
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
            raise NumericalFailure(f"no time found for tau in [{tau.min():.6g}, {tau.max():.6g}]: "
                                   f"Newton's residual on ln g is {residual.max():.3g}")
        nodes = self._traj.t_grid
        return nodes[k] + x * (nodes[k + 1] - nodes[k])

    @_reader
    def f_G_at_tau(self, tau):
        """(f, G) at the compactified times tau."""
        return self._f_G(self.t_at_tau(tau), -tau)


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


def _step_x(nodes: np.ndarray, t: np.ndarray):
    """The step k that holds each time of t, as ``OdeTrajectory`` assigns it, and
    x = (t - nodes[k]) / (nodes[k + 1] - nodes[k])."""
    k = np.clip(np.searchsorted(nodes, t, side="left") - 1, 0, len(nodes) - 2)
    return k, (t - nodes[k]) / (nodes[k + 1] - nodes[k])


def _step_integrals(v: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """The integral from t0 of an integrand with values v (step, node) at the quadrature
    nodes: coefficients (power, step) of one polynomial in x per step, whose constants
    sum the Gauss-Legendre rule over the steps before."""
    _, weights, to_integral = _gauss_legendre()
    starts = np.concatenate(([0.0], np.cumsum(dt * (v @ weights))[:-1]))
    return np.vstack([starts, (dt[:, None] * (v @ to_integral.T)).T])


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
    starts, dt = traj.t_grid[:-1], np.diff(traj.t_grid)
    t = np.append(starts[:, None] + dt[:, None] * np.r_[0.0, _gauss_legendre()[0]], traj.t_grid[-1])
    f, f0 = traj.f_f0_at(t)
    tq, fq, f0q = (v[:-1].reshape(-1, _GL_NODES + 1)[:, 1:] for v in (t, f, f0))
    log_g = -A * _step_integrals(fq * (fq + 1.0) / (tq**2 * f0q), dt)
    I2 = _step_integrals(tq ** (a - 2.0) * fq * (1.0 + fq) ** (1.0 - c), dt)
    k, x = _step_x(traj.t_grid, t)
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
        params=params, t_grid=t, f=f, f0=f0, g=g, tau=-g, representation_gap=gap,
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
