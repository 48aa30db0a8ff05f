"""Closed-form fluid states and residual certification of the sourced system.

One family of exact solutions is evaluated as arrays over sample points: the
homogeneous-blowup reference whose contrast f(t) comes from an ODE trajectory.
On the zero trajectory it is the expanding homogeneous background (the
beta = gamma = 0 member, its own contrast being identically zero).  The
residual machinery takes every derivative by the complex step (Squire & Trapp,
SIAM Review 40, 1998): d F(x)/dx along d is Im F(x + i h d) / h with
h = COMPLEX_STEP, exact to rounding and one state call per derivative, so the
same code later certifies any state function that is analytic in t and x, not
just closed forms.

A state function ``state_fn(t, x)`` takes points ``x`` of shape ``(..., 3)`` and
times ``t``, a float or an array that broadcasts against ``x.shape[:-1]``, real
or complex; it returns a `FluidPoint` whose scalar fields have the broadcast
shape ``(...)`` and whose velocity has that shape plus ``(3,)``, analytic in t
and x, so real on real arguments.  The residual calls it once per derivative,
over all its times and points.

Each solution family carries its own f in the momentum/entropy sources: the
sources are built from the relative velocity with respect to that family's
homogeneous flow, which is what makes both families exact solutions of the
sourced system.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .contrast_ode import OdeTrajectory, _inexact
from .errors import NumericalFailure


@dataclass(frozen=True)
class FluidPoint:
    """Fluid state at times t and points x of shape (..., 3); t is a float or an
    array that broadcasts against x.shape[:-1]."""

    t: float | np.ndarray
    x: np.ndarray
    rho: np.ndarray
    v: np.ndarray
    phi: np.ndarray
    s: np.ndarray
    p: np.ndarray


def _pow(a, e):
    """a ** e per element by Python's pow on floats (or complex numbers), of a's shape.
    np.power can differ from it in the last bit; the exact states take their powers
    this way at each of their few times, so that one state call over many times
    equals one call per time."""
    return np.reshape([v**e for v in np.ravel(a).tolist()], np.shape(a))


def _hubble(t, f, f0):
    """Expansion rate 2/(3t) - f'/(3(1+f)) of the homogeneous family."""
    return 2.0 / (3.0 * t) - f0 / (3.0 * (1.0 + f))


def homogeneous_state(t, x, traj: OdeTrajectory) -> FluidPoint:
    """Homogeneous-blowup reference solution driven by the contrast f(t) of ``traj``.

    ``t`` is a float or an array that broadcasts against ``x.shape[:-1]``; the
    fields take the broadcast shape, and each value equals the one of a call at
    its own float time.  Complex t and x give the analytic continuation (|x|^2 is
    x . x, unconjugated); the range and origin checks read the real part.  On
    ``zero_trajectory`` (f = f' = 0) this is the expanding background: density
    ~ t^-2 and Hubble flow 2x/(3t).
    """
    x = _inexact(x)
    r2 = (x * x).sum(-1)
    if np.any(r2.real <= 0.0):  # x = 0, also under a complex step (x . x = -h^2 there)
        raise NumericalFailure("entropy is singular at x = 0 (log of |x|^2)")
    ta = _inexact(t)
    inside = (traj.t_grid[0] <= ta.real) & (ta.real <= traj.t_end)  # false at NaN
    if not inside.all():
        raise NumericalFailure(f"t = {float(ta.real[~inside][0])} outside trajectory range "
                               f"[{float(traj.t_grid[0])}, {traj.t_end}]")
    f, f0 = traj.f_f0_at(ta)
    i3 = traj.params.iota3
    rho = i3 * (1.0 + f) / (6.0 * math.pi * ta * ta)
    v = np.expand_dims(_hubble(ta, f, f0), -1) * x
    phi = i3 * (1.0 + f) * r2 / (9.0 * ta * ta)
    s = np.log(_pow(ta, -4.0 / 3.0) * _pow(1.0 + f, 2.0 / 3.0) * r2)
    p = traj.params.K * np.exp(s) * _pow(rho, 4.0 / 3.0)
    return FluidPoint(t=t, x=x, rho=np.broadcast_to(rho, s.shape).copy(), v=v, phi=phi,
                      s=s, p=p)


# ---------------------------------------------------------------------------
# derivatives by the complex step: each is one state call over all times and sample points

COMPLEX_STEP = 1e-20  # h of every complex-step derivative Im F(x + i h d) / h
_RESIDUAL_THRESHOLD = 1e-6  # ResidualReport's verdict bound on each max norm


def _d(vals):
    """The derivative carried by the values of a complex-step call: Im vals / h."""
    return vals.imag / COMPLEX_STEP


@functools.lru_cache(maxsize=None)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 48-point Gauss-Legendre rule on [-1, 1] of the Poisson
    check's mass integral (read-only), built on the first residual of a process."""
    nodes, weights = np.polynomial.legendre.leggauss(48)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _trace(jac):
    """Sum of the diagonal [..., ax, ax]: the divergence, for a velocity Jacobian."""
    return sum(jac[..., ax, ax] for ax in range(3))


def _sources(t, x, pt, space, traj):
    """(D, S in full form, S in relative-velocity form) at x from its space derivatives.

    ``t`` is a float or an array that broadcasts against ``x.shape[:-1]``, ``pt``
    the state there and ``space`` the one at ``x[..., None, :] + i h e_axis`` (the
    axis on the second-to-last place) at the same times."""
    f, f0 = traj.f_f0_at(t)
    om = traj.params.omega
    hub = _hubble(t, f, f0)
    v_check = pt.v - np.expand_dims(hub, -1) * x
    d_vec = -np.expand_dims(traj.params.kappa * f0 / (1.0 + f), -1) * v_check
    # _d of a space velocity is indexed [..., axis, component]
    div_v = _trace(_d(space.v))
    div_vc = _trace(_d(space.v - np.expand_dims(hub, (-2, -1)) * space.x))
    r2 = np.vecdot(x, x)
    s_full = (-(2.0 / 3.0 + om) * div_v + 2.0 * np.vecdot(pt.v, x) / r2
              + 3.0 * om * hub)
    s_vform = -(2.0 / 3.0 + om) * div_vc + 2.0 * np.vecdot(v_check, x) / r2
    return d_vec, s_full, s_vform


@dataclass
class ResidualReport:
    """Max norms of the four field-equation residuals over a sample set."""

    n_points: int
    t_values: tuple
    max_norms: dict  # equation -> max |residual|
    source_gap_max: float = 0.0

    @property
    def verdict(self) -> bool:
        return all(v < _RESIDUAL_THRESHOLD for v in self.max_norms.values())


def euler_poisson_residual(state_fn, t, sample_points, traj: OdeTrajectory) -> ResidualReport:
    """Max norms of the residuals of continuity, momentum, entropy transport and Poisson.

    Every derivative is a complex step of size h = COMPLEX_STEP: d/dt from
    ``state_fn(t + ih, x)``, the space derivatives from one call at x + ih e_j over
    the 3 axes, and d(phi)/dr from x + ih x/|x|.  ``state_fn`` must therefore take
    complex t and x and be analytic in them (real on real arguments).  With the
    centres and the Gauss-Legendre nodes that makes 5 ``state_fn`` calls over all
    times and sample points, whatever the number of times: ``state_fn(t, x)``
    gets the times as an array that broadcasts against ``x.shape[:-1]``, the
    times on the leading axis of the sample axes, and returns fields of the
    broadcast shape.  A time outside the trajectory's range, or NaN, is refused
    before any call.  The states are spherically symmetric, so the Poisson
    equation is checked in its integrated radial form,

        d(phi)/dr = (4 pi / r^2) * int_0^r rho(t, y) y^2 dy,

    which avoids second derivatives.
    """
    t_values = np.atleast_1d(np.asarray(t, dtype=float))
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    inside = (t_values >= traj.t_grid[0]) & (t_values <= traj.t_end)
    if not inside.all():  # false at NaN
        raise NumericalFailure(f"time t={float(t_values[~inside][0])} leaves the "
                               "trajectory range")
    # times (T,) against samples (n,): tc for (n,) layouts, ts for (n, 3) and (n, 48)
    tc, ts = t_values[:, None], t_values[:, None, None]
    step = 1j * COMPLEX_STEP
    pt = state_fn(tc, pts)  # (T, n)
    times = state_fn(tc + step, pts)  # (T, n)
    space = state_fn(ts, pts[:, None] + step * np.eye(3))  # (T, n, axis)
    # continuity: d_t rho + div(rho v)
    cont = _d(times.rho) + _trace(_d(space.rho[..., None] * space.v))
    # momentum: d_t v + (v.grad) v + grad p / rho + grad phi - D
    d_vec, s_src, s_vform = _sources(tc, pts, pt, space, traj)
    jac_v = np.swapaxes(_d(space.v), -1, -2)
    grad_p, grad_phi, grad_s = (_d(getattr(space, name)) for name in ("p", "phi", "s"))
    mom = (_d(times.v) + np.matmul(jac_v, pt.v[..., None])[..., 0]
           + grad_p / pt.rho[..., None] + grad_phi - d_vec)
    # entropy transport: d_t s + v.grad s - S
    ent = _d(times.s) + np.vecdot(pt.v, grad_s) - s_src
    # poisson, radial form
    r = np.sqrt(np.vecdot(pts, pts))
    xhat = pts / r[:, None]
    dphi_dr = _d(state_fn(tc, pts + step * xhat).phi)
    gl_nodes, gl_w = _gauss_legendre()
    y = 0.5 * r[:, None] * (gl_nodes + 1.0)
    rho_y = state_fn(ts, y[..., None] * xhat[:, None, :]).rho  # (T, n, nodes)
    integral = 0.5 * r * np.vecdot(gl_w, rho_y * y**2)
    poi = dphi_dr - 4.0 * math.pi * integral / r**2
    return ResidualReport(
        n_points=len(pts), t_values=tuple(t_values),
        max_norms={name: float(np.max(np.abs(vals)))
                   for name, vals in (("continuity", cont), ("momentum", mom),
                                      ("entropy_transport", ent), ("poisson", poi))},
        source_gap_max=float(np.max(np.abs(s_src - s_vform))),
    )


_ANNULUS_R_MIN, _ANNULUS_R_MAX = 0.1, 10.0  # radii of sample_annulus


_HALTON_BASES = (2, 3, 5, 7, 11, 13)  # the first primes, one base per dimension


def _scrambled_halton(d: int, n: int, seed: int) -> np.ndarray:
    """The first n points of the d-dimensional scrambled Halton sequence, shape (n, d).

    Coordinate j is the van der Corput sequence in base b = _HALTON_BASES[j]
    with each of its ceil(54 / log2 b) - 1 digits mapped through its own random
    permutation of 0..b-1 (Owen 2017), drawn from ``default_rng(seed)``.  The
    points equal ``scipy.stats.qmc.Halton(d, scramble=True, seed=seed).random(n)``
    bit for bit: the same permutations, and the digits summed in the same order.
    """
    rng = np.random.default_rng(seed)
    out = np.zeros((d, n))
    for acc, base in zip(out, _HALTON_BASES[:d]):
        perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        perms = rng.permuted(perms, axis=1)  # each row shuffled in turn
        index, scale = np.arange(n), 1.0 / base
        for k, perm in enumerate(perms):  # digit k of the index, permuted, weighs base^-(k+1)
            if base**k < n:
                index, digit = np.divmod(index, base)
                acc += (perm * scale)[digit]
            else:  # past the digits of the largest index, n - 1, every digit is 0
                acc += perm[0] * scale
            scale /= base
    return out.T


def sample_annulus(n: int, seed: int) -> np.ndarray:
    """Quasi-random sample points in the annulus _ANNULUS_R_MIN <= |x| <= _ANNULUS_R_MAX.

    Scrambled Halton sequence; fixed seed gives a reproducible set.
    """
    u = _scrambled_halton(3, n, seed)
    r = _ANNULUS_R_MIN + (_ANNULUS_R_MAX - _ANNULUS_R_MIN) * u[:, 0]
    cos_t = 2.0 * u[:, 1] - 1.0
    sin_t = np.sqrt(1.0 - cos_t**2)
    phi = 2.0 * math.pi * u[:, 2]
    return np.column_stack([r * sin_t * np.cos(phi), r * sin_t * np.sin(phi),
                            r * cos_t])
