"""Closed-form fluid states and residual certification of the sourced system.

Two exact solutions are evaluated as arrays over sample points: the expanding
homogeneous background (the beta = gamma = 0 member, its own contrast being
identically zero) and the homogeneous-blowup reference whose contrast f(t)
comes from the ODE trajectory.  The residual machinery applies fourth-order
centered differences to any state function, so the same code later certifies
evolved states, not just closed forms.

A state function ``state_fn(t, x)`` takes one float time and points ``x`` of
shape ``(..., 3)``; it returns a `FluidPoint` whose scalar fields have shape
``(...)`` and whose velocity has shape ``(..., 3)``.

Each solution family carries its own f in the momentum/entropy sources: the
sources are built from the relative velocity with respect to that family's
homogeneous flow, which is what makes both families exact solutions of the
sourced system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .contrast_ode import OdeTrajectory
from .params import ModelParams


@dataclass(frozen=True)
class FluidPoint:
    """Fluid state at one time and points x of shape (..., 3)."""

    t: float
    x: np.ndarray
    rho: np.ndarray
    v: np.ndarray
    phi: np.ndarray
    s: np.ndarray
    p: np.ndarray


def _fluid_point(t, x, r2, rho: float, v, phi, s, params: ModelParams) -> FluidPoint:
    """State with the x-independent density rho spread over the points' shape."""
    p = params.K * np.exp(s) * rho ** (4.0 / 3.0)
    return FluidPoint(t=t, x=x, rho=np.full_like(r2, rho), v=v, phi=phi, s=s, p=p)


def _radius_squared(x) -> np.ndarray:
    r2 = np.vecdot(x, x)
    if np.any(r2 == 0.0):
        raise ValueError("entropy is singular at x = 0 (log of |x|^2)")
    return r2


def background_state(t: float, x, params: ModelParams) -> FluidPoint:
    """Exact expanding background: homogeneous density ~ t^-2, Hubble flow 2x/(3t)."""
    x = np.asarray(x, dtype=float)
    r2 = _radius_squared(x)
    if t < params.t0:
        raise ValueError(f"t must be >= t0 = {params.t0}, got {t!r}")
    i3 = params.iota3
    rho = i3 / (6.0 * math.pi * t * t)
    v = (2.0 / (3.0 * t)) * x
    phi = i3 * r2 / (9.0 * t * t)
    s = np.log(t ** (-4.0 / 3.0) * r2)
    return _fluid_point(t, x, r2, rho, v, phi, s, params)


def homogeneous_state(t: float, x, traj: OdeTrajectory, params: ModelParams) -> FluidPoint:
    """Homogeneous-blowup reference solution driven by the contrast f(t)."""
    x = np.asarray(x, dtype=float)
    r2 = _radius_squared(x)
    if not (traj.t_grid[0] <= t <= traj.t_end):
        raise ValueError(f"t = {t!r} outside trajectory range "
                         f"[{traj.t_grid[0]}, {traj.t_end}]")
    f, f0 = traj.f_f0_at(t)
    i3 = params.iota3
    rho = i3 * (1.0 + f) / (6.0 * math.pi * t * t)
    v = (2.0 / (3.0 * t) - f0 / (3.0 * (1.0 + f))) * x
    phi = i3 * (1.0 + f) * r2 / (9.0 * t * t)
    s = np.log(t ** (-4.0 / 3.0) * (1.0 + f) ** (2.0 / 3.0) * r2)
    return _fluid_point(t, x, r2, rho, v, phi, s, params)


# ---------------------------------------------------------------------------
# finite differences (4th-order centered, spacing h): each stencil is one
# state call over all sample points, and every derivative is read from it

_FD4_W = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
_FD4_O = np.array([-2.0, -1.0, 1.0, 2.0])


def _fd4(vals, h):
    """Centered 4th-order derivative from the values at the `_FD4_O` offsets."""
    return sum(w * v for w, v in zip(_FD4_W, vals)) / h


def _time_stencil(state_fn, t, x, h, t_lo, t_hi):
    """States at x at the `_FD4_O` times around t, or at (t + h, t - h) near the range ends."""
    if t - 2.0 * h >= t_lo and t + 2.0 * h <= t_hi:
        return [state_fn(t + o * h, x) for o in _FD4_O]
    if t - h >= t_lo and t + h <= t_hi:
        import warnings

        warnings.warn("time stencil shrunk to second order near the "
                      "trajectory range boundary", stacklevel=3)
        return [state_fn(t + h, x), state_fn(t - h, x)]
    raise ValueError(f"time stencil around t={t!r} leaves the trajectory range")


def _ddt(vals, h):
    """Time derivative from values on a `_time_stencil`."""
    if len(vals) == 4:
        return _fd4(vals, h)
    return (vals[0] - vals[1]) / (2.0 * h)


def _space_points(x, h):
    """x + _FD4_O[k] * h * e_axis at [k, ..., axis, :]: shape (4,) + x.shape[:-1] + (3, 3)."""
    if np.any(np.sqrt(np.vecdot(x, x)) <= 2.0 * h):
        raise ValueError("sample too close to the origin for the stencil width")
    offsets = (_FD4_O * h)[:, None, None] * np.eye(3)
    return x[..., None, :] + offsets.reshape((4,) + (1,) * (x.ndim - 1) + (3, 3))


def hubble_rate(t: float, traj: OdeTrajectory) -> float:
    """Expansion rate 2/(3t) - f'/(3(1+f)) of the homogeneous family."""
    f, f0 = traj.f_f0_at(t)
    return 2.0 / (3.0 * t) - f0 / (3.0 * (1.0 + f))


def _trace(jac):
    """Sum of the diagonal [..., ax, ax]: the divergence, for a velocity Jacobian."""
    return sum(jac[..., ax, ax] for ax in range(3))


def _sources(t, x, pt, space, traj, params, h):
    """(D, S in full form, S in relative-velocity form) at x from its space stencil."""
    f, f0 = traj.f_f0_at(t)
    om = params.omega
    hub = hubble_rate(t, traj)
    v_check = pt.v - hub * x
    d_vec = -(params.kappa * f0 / (1.0 + f)) * v_check
    # _fd4 of a stencil velocity is indexed [..., axis, component]
    div_v = _trace(_fd4(space.v, h))
    div_vc = _trace(_fd4(space.v - hub * space.x, h))
    r2 = np.vecdot(x, x)
    s_full = (-(2.0 / 3.0 + om) * div_v + 2.0 * np.vecdot(pt.v, x) / r2
              + 3.0 * om * hub)
    s_vform = -(2.0 / 3.0 + om) * div_vc + 2.0 * np.vecdot(v_check, x) / r2
    return d_vec, s_full, s_vform


def source_terms(t: float, x, state_fn, traj: OdeTrajectory, params: ModelParams,
                 h: float = 1e-3) -> tuple[np.ndarray, np.ndarray]:
    """Momentum damping D (shape (..., 3)) and entropy production S (shape (...)) at x.

    D is linear in the velocity deviation from the homogeneous flow; S is
    evaluated in its full displayed form (including the explicit expansion
    term), with the velocity divergence taken by centered differences of the
    supplied state function.  ``state_fn`` must be evaluable on the spatial
    stencil around x.
    """
    x = np.asarray(x, dtype=float)
    space = state_fn(t, _space_points(x, h))
    d_vec, s_full, _ = _sources(t, x, state_fn(t, x), space, traj, params, h)
    return d_vec, s_full


@dataclass
class ResidualReport:
    """Residual norms of the four field equations over a sample set."""

    n_points: int
    t_values: tuple
    continuity: tuple[float, float]
    momentum: tuple[float, float]
    entropy_transport: tuple[float, float]
    poisson: tuple[float, float]
    thresholds: dict = field(default_factory=dict)
    source_gap_max: float = 0.0

    @property
    def max_norms(self) -> dict:
        return {
            "continuity": self.continuity[0],
            "momentum": self.momentum[0],
            "entropy_transport": self.entropy_transport[0],
            "poisson": self.poisson[0],
        }

    @property
    def verdict(self) -> bool:
        return all(self.max_norms[k] < thr for k, thr in self.thresholds.items())


def _norms(vals) -> tuple[float, float]:
    vals = np.abs(np.concatenate(vals, axis=None))
    return float(vals.max()), float(math.sqrt(np.mean(vals**2)))


def euler_poisson_residual(state_fn, t, sample_points, traj: OdeTrajectory,
                           params: ModelParams, h: float = 1e-3,
                           threshold: float = 1e-6) -> ResidualReport:
    """Residual norms of continuity, momentum, entropy transport and Poisson.

    All derivatives are 4th-order centered differences with spacing h (time
    and space alike).  Per time value each stencil (centres, each time
    offset, space, radial, Gauss-Legendre) is one ``state_fn`` call over all
    sample points.  The states are spherically symmetric, so the Poisson
    equation is checked in its integrated radial form,

        d(phi)/dr = (4 pi / r^2) * int_0^r rho(t, y) y^2 dy,

    which avoids 3D second-derivative stencils.
    """
    t_values = np.atleast_1d(np.asarray(t, dtype=float))
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    t_lo, t_hi = float(traj.t_grid[0]), float(traj.t_end)
    gl_nodes, gl_w = np.polynomial.legendre.leggauss(48)
    r = np.sqrt(np.vecdot(pts, pts))
    xhat = pts / r[:, None]
    radial = pts + (_FD4_O * h)[:, None, None] * xhat
    y = 0.5 * r[:, None] * (gl_nodes + 1.0)
    cont, mom, ent, poi, gaps = [], [], [], [], []
    for tv in t_values:
        pt = state_fn(tv, pts)
        times = _time_stencil(state_fn, tv, pts, h, t_lo, t_hi)
        space = state_fn(tv, _space_points(pts, h))
        # continuity: d_t rho + div(rho v)
        dt_rho = _ddt([q.rho for q in times], h)
        cont.append(dt_rho + _trace(_fd4(space.rho[..., None] * space.v, h)))
        # momentum: d_t v + (v.grad) v + grad p / rho + grad phi - D
        d_vec, s_src, s_vform = _sources(tv, pts, pt, space, traj, params, h)
        dt_v = _ddt([q.v for q in times], h)
        jac_v = np.swapaxes(_fd4(space.v, h), -1, -2)
        grad_p, grad_phi, grad_s = (_fd4(getattr(space, name), h)
                                    for name in ("p", "phi", "s"))
        mom.append(dt_v + np.matmul(jac_v, pt.v[..., None])[..., 0]
                   + grad_p / pt.rho[:, None] + grad_phi - d_vec)
        # entropy transport: d_t s + v.grad s - S
        dt_s = _ddt([q.s for q in times], h)
        ent.append(dt_s + np.vecdot(pt.v, grad_s) - s_src)
        gaps.append(np.abs(s_src - s_vform))
        # poisson, radial form
        dphi_dr = _fd4(state_fn(tv, radial).phi, h)
        rho_y = state_fn(tv, y[..., None] * xhat[:, None, :]).rho
        integral = 0.5 * r * np.vecdot(gl_w, rho_y * y**2)
        poi.append(dphi_dr - 4.0 * math.pi * integral / r**2)
    thresholds = {k: threshold for k in
                  ("continuity", "momentum", "entropy_transport", "poisson")}
    return ResidualReport(
        n_points=len(pts), t_values=tuple(t_values),
        continuity=_norms(cont), momentum=_norms(mom),
        entropy_transport=_norms(ent), poisson=_norms(poi),
        thresholds=thresholds, source_gap_max=float(np.max(np.concatenate(gaps))),
    )


def sample_annulus(n: int, seed: int, r_min: float = 0.1, r_max: float = 10.0) -> np.ndarray:
    """Quasi-random sample points in the annulus r_min <= |x| <= r_max.

    Scrambled Halton sequence; fixed seed gives a reproducible set.
    """
    from scipy.stats import qmc

    u = qmc.Halton(d=3, scramble=True, seed=seed).random(n)
    r = r_min + (r_max - r_min) * u[:, 0]
    cos_t = 2.0 * u[:, 1] - 1.0
    sin_t = np.sqrt(1.0 - cos_t**2)
    phi = 2.0 * math.pi * u[:, 2]
    return np.column_stack([r * sin_t * np.cos(phi), r * sin_t * np.sin(phi),
                            r * cos_t])
