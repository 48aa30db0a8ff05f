import functools
import math

import numpy as np
import pytest

from jeanslab.contrast_ode import ContrastMarch, ToleranceSpec, _inexact
from jeanslab.errors import NumericalFailure
from jeanslab.params import params_from_iota3
from jeanslab.pde import zeta_grid
from jeanslab.reference import FluidPoint
from jeanslab.timemaps import compute_g

def integrate_contrast(params, f_cap=1e6, controls=ToleranceSpec(), t_reach=math.inf):
    """The trajectory of a fresh contrast march of params to f_cap, or past t_reach."""
    return ContrastMarch(params, controls).trajectory(f_cap, t_reach)


@pytest.fixture(scope="session")
def params():
    return params_from_iota3(0.2, beta=0.1, gamma=0.5, lam=0.1, A=1.0)


@pytest.fixture(scope="session")
def traj(params):
    return integrate_contrast(params, f_cap=1e6, controls=ToleranceSpec())


@pytest.fixture(scope="session")
def maps(traj):
    return compute_g(traj)


@pytest.fixture(scope="session")
def traj_deep(params):
    # deeper run for the singular-system ladder (smaller terminal -tau)
    return integrate_contrast(params, f_cap=1e8, controls=ToleranceSpec())


@pytest.fixture(scope="session")
def maps_deep(traj_deep):
    return compute_g(traj_deep)


@pytest.fixture(scope="session")
def params_window():
    # faster-collapsing data used for the terminal-window limit checks
    return params_from_iota3(0.2, beta=0.1, gamma=0.9, lam=0.1, A=1.0)


@pytest.fixture(scope="session")
def traj_window(params_window):
    return integrate_contrast(params_window, f_cap=1e6, controls=ToleranceSpec())


@pytest.fixture(scope="session")
def maps_window(traj_window):
    return compute_g(traj_window)


@functools.cache
def traj_to_cap(params, f_cap):
    """The contrast trajectory of params integrated to f_cap, once per session: an
    evolve run along it stops at f = f_cap."""
    return integrate_contrast(params, f_cap=f_cap, controls=ToleranceSpec())


@functools.cache
def traj_to_time(params, t_end):
    """The contrast trajectory of params stopped at the time ceiling t_end, once per
    session: an evolve run along it stops at t = t_end."""
    return integrate_contrast(params, f_cap=1e6, controls=ToleranceSpec(t_ceiling=t_end))


def cosine_profiles(n, eps, eps_v=0.0):
    """The cosine data (d, v) of the CLI's ``cosine`` kind on an n-point grid."""
    shape = np.cos(2.0 * np.pi * zeta_grid(n))
    return 1.0 + eps * shape, -1.0 + eps_v * shape


def flat_profiles(n):
    """The homogeneous data (d, v) = (1, -1) on an n-point grid."""
    return np.ones(n), -np.ones(n)


def background_state(t, x, params):
    """Closed form of the expanding background at times t and points x (..., 3):
    density iota^3/(6 pi t^2), Hubble flow 2x/(3t), potential iota^3 |x|^2/(9 t^2),
    entropy log(t^(-4/3) |x|^2), pressure K e^s rho^(4/3).  t is a float or an array
    that broadcasts against x.shape[:-1]; its powers are taken per time by Python's
    pow, as at one float time.  Complex t and x give the analytic continuation, as
    the complex-step residual needs (|x|^2 is x . x, unconjugated).  The oracle of
    ``homogeneous_state`` on ``zero_trajectory``."""
    x = _inexact(x)
    r2 = (x * x).sum(-1)
    if np.any(r2.real <= 0.0):
        raise NumericalFailure("entropy is singular at x = 0 (log of |x|^2)")
    tt = _inexact(t)
    per_time_pow = np.vectorize(pow, otypes=[tt.dtype])
    i3 = params.iota3
    rho = i3 / (6.0 * math.pi * tt * tt)
    s = np.log(per_time_pow(tt, -4.0 / 3.0) * r2)
    return FluidPoint(t=t, x=x, rho=np.broadcast_to(rho, s.shape).copy(),
                      v=(2.0 / (3.0 * tt))[..., None] * x, phi=i3 * r2 / (9.0 * tt * tt),
                      s=s, p=params.K * np.exp(s) * per_time_pow(rho, 4.0 / 3.0))


def refined_grid_per_step(t, refine):
    """The grid t with each cell split ``refine`` times, one linspace per cell, where a
    test needs a grid finer than the solver's."""
    segs = [np.linspace(a, b, refine + 1)[:-1] for a, b in zip(t[:-1], t[1:])]
    return np.append(np.concatenate(segs), t[-1])


def terminal_window(maps, f_cap):
    """Index mask of the terminal window f >= 0.9 f_cap of the maps' grid."""
    return maps.f >= 0.9 * f_cap


def assert_order_conditions(C, A, B, order):
    """The tableau (C, A, B) of an explicit Runge-Kutta pair is consistent and its
    quadrature reaches ``order``: C[i] = sum_j A[i, j] for every row, to 4 ulp of the
    row's absolute sum (each coefficient is rounded on its own), and
    sum_i B[i] C[i]^(k-1) = 1/k for k <= order, to 1e-14."""
    for i, row in enumerate(A):
        assert abs(math.fsum(row) - C[i]) <= 4 * np.spacing(np.abs(row).sum()), i
    c = C[:len(B)]
    for k in range(1, order + 1):
        assert abs(math.fsum(B * c ** (k - 1)) - 1 / k) <= 1e-14, k
    assert abs(math.fsum(B * c ** order) - 1 / (order + 1)) > 1e-6  # and no further
