"""Compactified time g(t), tau = -g, and the terminal diagnostics chi, xi, G, eta.

Two integral representations of the same map are computed and cross-checked:

    g(t) = exp(-A * int_t0^t f (1+f) / (s^2 f') ds)                (quotient form)
    g(t) = (1 + b B int_t0^t s^(a-2) f (1+f)^(1-c) ds)^(-A/b)      (f-only form)

Their agreement is a strong consistency certificate for the ODE solution,
because equality of the two integrands is equivalent to the closed-form
expression of f' in terms of (f, g).  Both integrals are evaluated by
cumulative composite Simpson on the solver's own graded mesh (midpoints from
dense output), which keeps the steep terminal region resolved.  Only the
quotient form is kept on the record; the f-only form survives as its gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contrast_ode import OdeTrajectory
from .errors import NumericalFailure, UsageError
from .params import ModelParams


class _Pchip:
    """Piecewise cubic Hermite interpolant of the rows of y (Fritsch & Carlson 1980).

    Its slopes, coefficients and evaluation are those of scipy's
    ``PchipInterpolator(x, y, axis=1)``, so its values equal scipy's bit for
    bit: at an interior node the slope is the weighted harmonic mean of the
    neighbouring secants, or 0 where they differ in sign or one vanishes; at an
    end it is the shape-preserving one-sided three-point estimate (Moler,
    Numerical Computing with MATLAB, 3.6).  A value at s = x - x[i] on cell i is
    summed term by term from the constant up, the powers of s formed by repeated
    multiplication.  A point outside the nodes takes the polynomial of the
    nearest end cell.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        h = np.diff(x)
        if not (np.all(h > 0.0) and np.all(np.isfinite(y))):
            raise NumericalFailure("interpolation nodes not strictly increasing or "
                                   "values not finite")
        y = y.T  # (node, row)
        h = h[:, None]
        m = (y[1:] - y[:-1]) / h  # secant slopes
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        d = np.zeros_like(y)
        # the quotients can fail only at flat nodes, whose slope is 0 whatever they give
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
        d[1:-1] = np.where(flat, 0.0, inner)
        d[0] = self._end_slope(h[0], h[1], m[0], m[1])
        d[-1] = self._end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2 * m) / h
        self.x = x
        # (power 3..0, row, cell): scipy's CubicHermiteSpline coefficients
        self.c = np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1])).transpose(0, 2, 1)

    @staticmethod
    def _end_slope(h0, h1, m0, m1):
        d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
        return np.where(np.sign(d) != np.sign(m0), 0.0, np.where(overshoot, 3.0 * m0, d))

    def __call__(self, xq) -> np.ndarray:
        """The rows at the points xq (any shape), as an array of shape (rows,) + xq.shape."""
        xq = np.asarray(xq, dtype=float)
        i = np.clip(np.searchsorted(self.x, xq, side="right") - 1, 0, len(self.x) - 2)
        s = xq - self.x[i]
        c3, c2, c1, c0 = self.c[:, :, i]
        s2 = s * s
        return (0.0 + c0 + c1 * s) + c2 * s2 + c3 * (s2 * s)


@dataclass(frozen=True)
class TimeMaps:
    """Time transform and diagnostics sampled on a refined trajectory grid.

    The maps carry the trajectory's model ``params``, which their readers use.
    Off the grid, ``f_G_at_tau`` reads (f, G) at compactified times tau and
    ``g_G_at`` reads (g, G) at times t, each through one vector-valued PCHIP
    interpolant: floats for a scalar argument, arrays of its shape otherwise."""

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
    eta: dict
    # tau -> (ln(1+f), G) and t -> (ln g, G)
    _log1pf_G_by_tau: _Pchip = field(repr=False)
    _log_g_G_by_t: _Pchip = field(repr=False)

    def f_G_at_tau(self, tau):
        """(f, G) at the compactified times tau."""
        log1pf, G = self._log1pf_G_by_tau(tau)
        return _pair(np.expm1(log1pf), G, tau)

    def g_G_at(self, t):
        """(g, G) at the times t."""
        log_g, G = self._log_g_G_by_t(t)
        return _pair(np.exp(log_g), G, t)


def _pair(u, v, x):
    """(u, v) as floats for a scalar x, as arrays otherwise."""
    return (float(u), float(v)) if np.ndim(x) == 0 else (u, v)


def _cumulative_simpson_graded(t: np.ndarray, v: np.ndarray, v_mid: np.ndarray) -> np.ndarray:
    """Cumulative Simpson integral over the graded mesh t, one panel per cell.

    ``v`` holds the integrand at the nodes t, ``v_mid`` at the cell midpoints.
    """
    panels = (t[1:] - t[:-1]) / 6.0 * (v[:-1] + 4.0 * v_mid + v[1:])
    out = np.empty_like(t)
    out[0] = 0.0
    np.cumsum(panels, out=out[1:])
    return out


def _refined_grid(traj: OdeTrajectory, refine: int) -> np.ndarray:
    """Solver mesh with each cell split `refine` times (dense output fills values)."""
    if refine < 1:
        raise UsageError(f"refine must be >= 1, got {refine!r}")
    t = traj.t_grid
    return np.append(np.linspace(t[:-1], t[1:], refine + 1, axis=-1)[:, :-1], t[-1])


_CHI_CROSSCHECK_TOL = 1e-6
_WINDOW_FRAC = 0.9


def compute_g(traj: OdeTrajectory, refine: int = 2, thetas: tuple[float, ...] = (2.0,),
              mismatch_tol: float = 1e-6) -> TimeMaps:
    """Evaluate both representations of g and the diagnostics chi, xi, G, eta_theta.

    Raises NumericalFailure ("representation mismatch") if the two forms of g
    disagree by more than 10x the tolerance anywhere; such a gap signals an
    inaccurate contrast integration rather than a quadrature artifact.  chi
    is evaluated from both algebraic forms (the f'-quotient and the
    (f, g)-only rewriting) and cross-checked; each requested theta must obey
    A * theta < 2b/(3 - 2c), the hypothesis for eta_theta -> 0.
    """
    params = traj.params
    a, b, c, A, B = params.ode_a, params.ode_b, params.ode_c, params.A, params.B
    theta_cap = 2.0 * b / ((3.0 - 2.0 * c) * A)
    thetas = (thetas,) if np.isscalar(thetas) else tuple(thetas)
    for th in thetas:
        if th < 1.0 or th >= theta_cap:
            raise UsageError(f"theta = {th!r} violates the decay hypothesis "
                             f"1 <= theta < 2b/((3-2c)A) = {theta_cap:.6g}")
    t = _refined_grid(traj, refine)
    mid = 0.5 * (t[:-1] + t[1:])
    f, f0 = traj.f_f0_at(t)
    f_mid, f0_mid = traj.f_f0_at(mid)

    def quotient_integrand(s, f, f0):
        return f * (f + 1.0) / (s**2 * f0)

    def f_only_integrand(s, f):
        return s ** (a - 2.0) * f * (1.0 + f) ** (1.0 - c)

    I1 = _cumulative_simpson_graded(t, quotient_integrand(t, f, f0),
                                    quotient_integrand(mid, f_mid, f0_mid))
    I2 = _cumulative_simpson_graded(t, f_only_integrand(t, f), f_only_integrand(mid, f_mid))
    g = np.exp(-A * I1)
    g_f_only = (1.0 + b * B * I2) ** (-A / b)
    gap = float(np.max(np.abs(g - g_f_only) / g_f_only))
    if gap > 10.0 * mismatch_tol:
        raise NumericalFailure(f"representation mismatch: quotient and f-only forms of g "
                               f"differ by rel {gap:.3g} (> {10.0 * mismatch_tol:.3g})")
    tau = -g
    chi = t ** (2.0 - a) * f0 / ((1.0 + f) ** (2.0 - c) * f * g ** (b / A))
    chi_alt = g ** (-2.0 * b / A) * t ** (2.0 * (1.0 - a)) / (B * f * (1.0 + f) ** (2.0 * (1.0 - c)))
    chi_gap = float(np.max(np.abs(chi - chi_alt) / chi_alt))
    if chi_gap > 10.0 * _CHI_CROSSCHECK_TOL:
        raise NumericalFailure(f"chi cross-check failed: algebraic forms differ by rel "
                               f"{chi_gap:.3g}")
    G_frak = chi - params.chi_limit()
    return TimeMaps(
        params=params, t_grid=t, f=f, f0=f0, g=g, tau=tau, representation_gap=gap,
        chi=chi, xi=1.0 / (g * (1.0 + f)), G_frak=G_frak,
        eta={th: 1.0 / (g**th * (1.0 + f)) for th in thetas},
        _log1pf_G_by_tau=_Pchip(tau, np.stack([np.log1p(f), G_frak])),
        _log_g_G_by_t=_Pchip(t, np.stack([np.log(g), G_frak])),
    )


def terminal_window(maps: TimeMaps, f_cap: float) -> np.ndarray:
    """Index mask of the terminal window f >= _WINDOW_FRAC * f_cap."""
    return maps.f >= _WINDOW_FRAC * f_cap


def dchi_dt_analytic(maps: TimeMaps) -> np.ndarray:
    """Closed-form d(chi)/dt along the grid.

    dchi/dt = -(3-2c) G sqrt(f chi) / (sqrt(B) t) - chi^(3/2) / (sqrt(B) t sqrt(f))
              + 2 (1-a) chi / t.
    """
    a, c, B = maps.params.ode_a, maps.params.ode_c, maps.params.B
    t, f, chi, G = maps.t_grid, maps.f, maps.chi, maps.G_frak
    return (-(3.0 - 2.0 * c) * G * np.sqrt(f * chi) / (np.sqrt(B) * t)
            - chi**1.5 / (np.sqrt(B) * t * np.sqrt(f))
            + 2.0 * (1.0 - a) * chi / t)


def dchi_dt_numeric(maps: TimeMaps) -> np.ndarray:
    """d(chi)/dt at the interior grid points t[2:-2] from the numerical chi.

    At each point it is the linear coefficient of the quartic through chi on
    the five points around it, from one batched solve of the Vandermonde
    systems in the offsets scaled by the stencil width.
    """
    t = maps.t_grid
    idx = np.arange(2, len(t) - 2)
    win = idx[:, None] + np.arange(-2, 3)
    width = t[idx + 2] - t[idx - 2]
    vander = ((t[win] - t[idx, None]) / width[:, None])[..., None] ** np.arange(5)
    return np.linalg.solve(vander, maps.chi[win][..., None])[:, 1, 0] / width


@dataclass
class GDecayReport:
    slope: float
    log_offset: float
    fit_window: tuple[float, float]
    n_points: int
    zero_crossings_excised: bool
    dchi_rel_err: float


def check_G_decay(maps: TimeMaps, decades: float = 1.0) -> GDecayReport:
    """Fit the terminal decay |G| ~ (-tau)^p and verify the chi evolution law.

    The fit runs over the last `decades` of -tau; grid points where G crosses
    zero are excised (and flagged).  Independently, centered differences of
    the numerical chi(t) are compared against the closed-form derivative at
    every interior point of the whole (refined) time grid, not only the fit
    window.
    """
    neg_tau = -maps.tau
    hi = neg_tau[-1] * 10.0**decades
    sel = neg_tau <= hi
    G = maps.G_frak[sel]
    x = neg_tau[sel]
    crossings = bool(np.any(np.sign(G[:-1]) * np.sign(G[1:]) < 0))
    tiny = np.abs(G) < 1e-8 * np.max(np.abs(G))
    excised = crossings or bool(tiny.any())
    x_fit, G_fit = x[~tiny], np.abs(G[~tiny])
    A_ls = np.vstack([np.log(x_fit), np.ones_like(x_fit)]).T
    slope, offset = np.linalg.lstsq(A_ls, np.log(G_fit), rcond=None)[0]

    # five-point local-quartic derivative of chi on the graded grid vs the law
    dchi_num = dchi_dt_numeric(maps)
    dchi_ana = dchi_dt_analytic(maps)[2:-2]
    floor = 1e-6 * float(np.max(np.abs(dchi_ana)))
    rel = float(np.max(np.abs(dchi_num - dchi_ana) / np.maximum(np.abs(dchi_ana), floor)))
    return GDecayReport(
        slope=float(slope), log_offset=float(offset),
        fit_window=(float(x[0]), float(x[-1])), n_points=int(len(x_fit)),
        zero_crossings_excised=excised, dchi_rel_err=rel,
    )
