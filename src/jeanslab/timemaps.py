"""Compactified time g(t), tau = -g, and the terminal diagnostics chi, xi, G, eta.

Two integral representations of the same map are computed and cross-checked:

    g(t) = exp(-A * int_t0^t f (1+f) / (s^2 f') ds)                (quotient form)
    g(t) = (1 + b B int_t0^t s^(a-2) f (1+f)^(1-c) ds)^(-A/b)      (f-only form)

Their agreement is a strong consistency certificate for the ODE solution,
because equality of the two integrands is equivalent to the closed-form
expression of f' in terms of (f, g).  Both integrals are evaluated by
cumulative composite Simpson on the solver's own graded mesh (midpoints from
dense output), which keeps the steep terminal region resolved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .contrast_ode import OdeTrajectory
from .params import ModelParams


@dataclass(frozen=True)
class TimeMaps:
    """Time transform and diagnostics sampled on a refined trajectory grid."""

    params: ModelParams
    t_grid: np.ndarray
    f: np.ndarray
    f0: np.ndarray
    g: np.ndarray
    tau: np.ndarray
    g_alt: np.ndarray
    representation_gap: float
    chi: np.ndarray
    xi: np.ndarray
    G_frak: np.ndarray
    eta: dict
    _t_of_tau: PchipInterpolator = field(repr=False)
    _g_of_t: PchipInterpolator = field(repr=False)
    # ln(1+f) and G of tau, G of t
    _log1pf_of_tau: PchipInterpolator = field(repr=False)
    _G_of_tau: PchipInterpolator = field(repr=False)
    _G_of_t: PchipInterpolator = field(repr=False)

    def g_at(self, t):
        return np.exp(self._g_of_t(np.asarray(t)))

    def tau_at(self, t):
        return -self.g_at(t)

    def f_of_tau(self, tau):
        return self._diagnostic(self._log1pf_of_tau, tau, np.expm1)

    def G_of_tau(self, tau):
        return self._diagnostic(self._G_of_tau, tau)

    def G_at(self, t):
        return self._diagnostic(self._G_of_t, t)

    @staticmethod
    def _diagnostic(interp: PchipInterpolator, x, post=np.asarray):
        """post(interp(x)): a float for a scalar x, an array otherwise."""
        out = post(interp(x))
        return float(out) if np.ndim(x) == 0 else out


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
        raise ValueError(f"refine must be >= 1, got {refine!r}")
    t = traj.t_grid
    return np.append(np.linspace(t[:-1], t[1:], refine + 1, axis=-1)[:, :-1], t[-1])


_CHI_CROSSCHECK_TOL = 1e-6


def compute_g(traj: OdeTrajectory, params: ModelParams, refine: int = 2,
              thetas: tuple[float, ...] = (2.0,),
              mismatch_tol: float = 1e-6) -> TimeMaps:
    """Evaluate both representations of g and the diagnostics chi, xi, G, eta_theta.

    Raises RuntimeError ("representation mismatch") if the two forms of g
    disagree by more than 10x the tolerance anywhere; such a gap signals an
    inaccurate contrast integration rather than a quadrature artifact.  chi
    is evaluated from both algebraic forms (the f'-quotient and the
    (f, g)-only rewriting) and cross-checked; each requested theta must obey
    A * theta < 2b/(3 - 2c), the hypothesis for eta_theta -> 0.
    """
    a, b, c, A, B = params.ode_a, params.ode_b, params.ode_c, params.A, params.B
    theta_cap = 2.0 * b / ((3.0 - 2.0 * c) * A)
    thetas = (thetas,) if np.isscalar(thetas) else tuple(thetas)
    for th in thetas:
        if th < 1.0 or th >= theta_cap:
            raise ValueError(f"theta = {th!r} violates the decay hypothesis "
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
    g_alt = (1.0 + b * B * I2) ** (-A / b)
    gap = float(np.max(np.abs(g - g_alt) / g_alt))
    if gap > 10.0 * mismatch_tol:
        raise RuntimeError(f"representation mismatch: quotient and f-only forms of g "
                           f"differ by rel {gap:.3g} (> {10.0 * mismatch_tol:.3g})")
    tau = -g
    chi = t ** (2.0 - a) * f0 / ((1.0 + f) ** (2.0 - c) * f * g ** (b / A))
    chi_alt = g ** (-2.0 * b / A) * t ** (2.0 * (1.0 - a)) / (B * f * (1.0 + f) ** (2.0 * (1.0 - c)))
    chi_gap = float(np.max(np.abs(chi - chi_alt) / chi_alt))
    if chi_gap > 10.0 * _CHI_CROSSCHECK_TOL:
        raise RuntimeError(f"chi cross-check failed: algebraic forms differ by rel {chi_gap:.3g}")
    G_frak = chi - params.chi_limit()
    return TimeMaps(
        params=params, t_grid=t, f=f, f0=f0, g=g, tau=tau, g_alt=g_alt,
        representation_gap=gap, chi=chi, xi=1.0 / (g * (1.0 + f)), G_frak=G_frak,
        eta={th: 1.0 / (g**th * (1.0 + f)) for th in thetas},
        _t_of_tau=PchipInterpolator(tau, t),
        _g_of_t=PchipInterpolator(t, np.log(g)),
        _log1pf_of_tau=PchipInterpolator(tau, np.log1p(f)),
        _G_of_tau=PchipInterpolator(tau, G_frak),
        _G_of_t=PchipInterpolator(t, G_frak),
    )


def invert_tau(maps: TimeMaps, tau_query) -> np.ndarray | float:
    """Map compactified times back to t by monotone cubic interpolation."""
    tq = np.asarray(tau_query, dtype=float)
    lo, hi = maps.tau[0], maps.tau[-1]
    if np.any(tq < lo - 1e-12) or np.any(tq > hi + 1e-12):
        raise ValueError(f"tau query outside computed range [{lo:.6g}, {hi:.6g}]")
    out = maps._t_of_tau(np.clip(tq, lo, hi))
    return float(out) if np.isscalar(tau_query) else out


def terminal_window(maps: TimeMaps, f_cap: float, frac: float = 0.9) -> np.ndarray:
    """Index mask of the terminal window f >= frac * f_cap."""
    return maps.f >= frac * f_cap


def dchi_dt_analytic(maps: TimeMaps, params: ModelParams) -> np.ndarray:
    """Closed-form d(chi)/dt along the grid.

    dchi/dt = -(3-2c) G sqrt(f chi) / (sqrt(B) t) - chi^(3/2) / (sqrt(B) t sqrt(f))
              + 2 (1-a) chi / t.
    """
    a, c, B = params.ode_a, params.ode_c, params.B
    t, f, chi, G = maps.t_grid, maps.f, maps.chi, maps.G_frak
    return (-(3.0 - 2.0 * c) * G * np.sqrt(f * chi) / (np.sqrt(B) * t)
            - chi**1.5 / (np.sqrt(B) * t * np.sqrt(f))
            + 2.0 * (1.0 - a) * chi / t)


@dataclass
class GDecayReport:
    slope: float
    log_offset: float
    fit_window: tuple[float, float]
    n_points: int
    zero_crossings_excised: bool
    dchi_rel_err: float


def check_G_decay(maps: TimeMaps, params: ModelParams,
                  decades: float = 1.0) -> GDecayReport:
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
    t = maps.t_grid
    idx = np.arange(2, len(t) - 2)
    dchi_num = np.empty(len(idx))
    for k, i in enumerate(idx):
        sten = t[i - 2:i + 3] - t[i]
        dchi_num[k] = np.polyfit(sten, maps.chi[i - 2:i + 3], 4)[3]
    dchi_all = dchi_dt_analytic(maps, params)
    dchi_ana = dchi_all[idx]
    floor = 1e-6 * float(np.max(np.abs(dchi_ana)))
    rel = float(np.max(np.abs(dchi_num - dchi_ana) / np.maximum(np.abs(dchi_ana), floor)))
    return GDecayReport(
        slope=float(slope), log_offset=float(offset),
        fit_window=(float(x[0]), float(x[-1])), n_points=int(len(x_fit)),
        zero_crossings_excised=excised, dchi_rel_err=rel,
    )
