"""Property tests: the cancelled power ratios, the psi solve, the contrast's dense output
and the batched exact states.

Examples are drawn deterministically (``derandomize``), so the suite gives the
same verdict on every run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jeanslab.contrast_ode import zero_trajectory
from jeanslab.fuchsian import _pow_ratio, _pow_ratio2
from jeanslab.pde import compute_psi
from jeanslab.reference import background_state, homogeneous_state

EPS = np.finfo(float).eps
PROPS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

coef = st.floats(1e-3, 1.0)  # a = f/(1+f) lies in (0, 1)
power = st.floats(-3.0, 5.0)
au_mix = st.lists(st.one_of(st.floats(-2e-5, 2e-5), st.floats(-0.5, 0.5)),
                  min_size=1, max_size=40)


# ---------------------------------------------------------------------------
# _pow_ratio, _pow_ratio2: arrays against scalars, continuity at the crossover


@PROPS
@given(a=coef, p=power, au=au_mix)
def test_pow_ratios_arrays_equal_scalar_calls(a, p, au):
    # 0, 1e-7 and 0.3 put both branches of both ratios into every array
    u = np.array(au + [0.0, 1e-7, 0.3]) / a
    for ratio in (_pow_ratio, _pow_ratio2):
        batched = ratio(a, p, u)
        assert np.array_equal(batched, [ratio(a, p, ui) for ui in u])


def _crossover_gap(ratio, a, p, sign, c):
    # the two points straddle |a u| = c by a relative 1e-9 on either side
    u_series = sign * c * (1.0 - 1e-9) / a
    u_direct = sign * c * (1.0 + 1e-9) / a
    assert abs(a * u_series) < c <= abs(a * u_direct)
    return abs(float(ratio(a, p, u_direct)) - float(ratio(a, p, u_series)))


# Error budget of the direct form at the crossover |a u| = c.  fl(1 + a u)
# carries an absolute error of eps/2, which the power turns into |p| eps/2;
# pow adds one rounding of a value near 1, eps; subtracting 1 (and p a u)
# is exact by Sterbenz.  The numerator is therefore off by (|p|/2 + 1) eps,
# and dividing by u = c/a gives (|p|/2 + 1) eps |a| / c: about eps/|a u|
# relative to the value p a of _pow_ratio, and eps/|a u|^2 relative to the
# value p (p-1) a (a u)/2 of _pow_ratio2.  The series side is truncated at
# O((a u)^3) (_pow_ratio) and O((a u)^4) (_pow_ratio2) relative, below 1e-15
# at c, and the function itself moves by |f'| |du| <= |p (p-1) a| 2e-9 c
# across the two points.  A factor 4 covers pow's last bit.


@PROPS
@given(a=coef, p=power, sign=st.sampled_from([-1.0, 1.0]))
def test_pow_ratio_continuous_at_crossover(a, p, sign):
    c = 1e-6
    tol = 4.0 * (abs(p) / 2.0 + 1.0) * EPS * a / c + abs(p * (p - 1.0) * a) * 2e-9 * c
    assert _crossover_gap(_pow_ratio, a, p, sign, c) <= tol


@PROPS
@given(a=coef, p=power, sign=st.sampled_from([-1.0, 1.0]))
def test_pow_ratio2_continuous_at_crossover(a, p, sign):
    c = 1e-5
    tol = 4.0 * (abs(p) / 2.0 + 1.0) * EPS * a / c + abs(p * (p - 1.0) * a) * 2e-9 * c
    assert _crossover_gap(_pow_ratio2, a, p, sign, c) <= tol


# ---------------------------------------------------------------------------
# compute_psi: linear, and equivariant under whole-grid shifts


grid_n = st.sampled_from([16, 24, 32, 50, 64, 128, 256])
unit = st.floats(-1.0, 1.0)


def _grid(draw, n):
    return np.array(draw(st.lists(unit, min_size=n, max_size=n)))


def _fft_tol(n, scale):
    # a real FFT round trip of n points is accurate to about eps log2(n) in
    # the 2-norm; the sup of the error is at most the 2-norm, and the 2-norm
    # of the input at most sqrt(n) times its sup.  psi damps every mode
    # (|3 + 2 pi i k| >= 3), so the sup-scale of the data bounds the output.
    return 8.0 * EPS * np.log2(n) * np.sqrt(n) * scale


@PROPS
@given(data=st.data(), n=grid_n, alpha=st.floats(-10.0, 10.0), beta=st.floats(-10.0, 10.0))
def test_psi_linear(data, n, alpha, beta):
    u, v = _grid(data.draw, n), _grid(data.draw, n)
    lhs = compute_psi(alpha * u + beta * v)
    rhs = alpha * compute_psi(u) + beta * compute_psi(v)
    scale = abs(alpha) * np.max(np.abs(u)) + abs(beta) * np.max(np.abs(v))
    assert np.max(np.abs(lhs - rhs)) <= _fft_tol(n, scale)


@PROPS
@given(data=st.data(), n=grid_n)
def test_psi_shift_equivariant(data, n):
    u = _grid(data.draw, n)
    m = data.draw(st.integers(-n, n))
    gap = np.max(np.abs(compute_psi(np.roll(u, m)) - np.roll(compute_psi(u), m)))
    assert gap <= _fft_tol(n, np.max(np.abs(u)))


# ---------------------------------------------------------------------------
# dense output of the contrast: a query of any shape against scalar reads


query_shape = st.sampled_from([(), (1,), (5,), (17,), (2, 3), (4, 4), (1, 6)])


def _step_time(draw, ts, k):
    # a time of step k: its upper breakpoint, an interior point, or (on the
    # first and last step) a time up to one step width outside the computed range
    where = draw(st.sampled_from(["end", "inside", "outside"]))
    if where == "end":
        return ts[k + 1]
    x = draw(st.floats(0.0, 1.0, exclude_min=True))
    if where == "outside" and k == 0:
        return ts[0] - x * (ts[1] - ts[0])
    if where == "outside" and k == len(ts) - 2:
        return ts[-1] + x * (ts[-1] - ts[-2])
    return ts[k] + x * (ts[k + 1] - ts[k])


@pytest.fixture(scope="module")
def dense(traj):
    # closures over the trajectory: a failure report reprs the test's
    # arguments, and the trajectory's arrays would swamp it (as exact_state)
    ts = traj._sol.ts

    def query_times(draw, shape):
        # prod(shape) times on a few drawn solver steps, so that steps are shared
        n = int(np.prod(shape))
        pool = draw(st.lists(st.integers(0, len(ts) - 2), min_size=1, max_size=n))
        steps = [draw(st.sampled_from(pool)) for _ in range(n)]
        return np.array([_step_time(draw, ts, k) for k in steps]).reshape(shape)

    return query_times, lambda t: traj._sol(t), lambda t: traj.f_f0_at(t)


@PROPS
@given(data=st.data(), shape=query_shape)
def test_dense_output_query_equals_scalar_reads(dense, data, shape):
    # Every time is read by one formula, so a value does not depend on which
    # other times, on its step or on others, share the call.
    query_times, sol, f_f0_at = dense
    t = query_times(data.draw, shape)
    y, yp = sol(t)
    f, f0 = f_f0_at(t)
    assert f.shape == f0.shape == t.shape
    assert np.array_equal(f, np.expm1(y)) and np.array_equal(f0, yp * np.exp(y))
    reads = [f_f0_at(float(ti)) for ti in t.flat]
    assert np.array_equal(f.ravel(), [r[0] for r in reads])
    assert np.array_equal(f0.ravel(), [r[1] for r in reads])


@PROPS
@given(shape=query_shape, t=st.floats(-10.0, 1e9))
def test_zero_trajectory_reads_exact_zeros(params, shape, t):
    z = zero_trajectory(params)
    q = np.full(shape, t)
    for out in (*z._sol(q), *z.f_f0_at(q)):
        assert out.shape == shape and not np.any(out)
    assert z.f_f0_at(t) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# exact states: one call over points of any leading shape against per-point calls


state_shape = st.sampled_from([(), (1,), (7,), (2, 3), (4, 1)])
coord = st.one_of(st.floats(-10.0, -1e-3), st.floats(1e-3, 10.0))
state_points = state_shape.flatmap(
    lambda shape: st.lists(coord, min_size=3 * int(np.prod(shape)),
                           max_size=3 * int(np.prod(shape)))
    .map(lambda c: np.array(c).reshape(shape + (3,))))


@pytest.fixture(scope="module")
def exact_state(params, traj):
    # a closure over the trajectory: a failure report reprs the test's
    # arguments, and the trajectory's arrays would swamp it
    t_lo, t_hi = float(traj.t_grid[0]), float(traj.t_end)

    def state(family, u, x):
        t = t_lo + u * (t_hi - t_lo)
        if family == "background":
            return background_state(t, x, params)
        return homogeneous_state(t, x, traj)

    return state


@PROPS
@given(x=state_points, u=st.floats(0.0, 1.0),
       family=st.sampled_from(["background", "homogeneous"]))
def test_batched_states_equal_per_point_calls(exact_state, x, u, family):
    shape = x.shape[:-1]
    batched = exact_state(family, u, x)
    assert batched.v.shape == x.shape
    for name in ("rho", "phi", "s", "p"):
        assert np.shape(getattr(batched, name)) == shape, name
    for idx in np.ndindex(shape):
        one = exact_state(family, u, x[idx].copy())
        for name in ("rho", "phi", "s", "p"):
            assert getattr(batched, name)[idx] == getattr(one, name), (name, idx)
        assert np.array_equal(batched.v[idx], one.v), idx
