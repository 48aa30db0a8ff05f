"""Property tests: the cancelled power ratios, the eigenvalue bounds of the sandwich
screen and of its margin-2 screen, the psi solve, the contrast's dense output and
the batched exact states.

Examples are drawn deterministically (``derandomize``), so the suite gives the
same verdict on every run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import background_state
from jeanslab.contrast_ode import zero_trajectory
from jeanslab.fuchsian import _eig_bounds, _margin2_floor, _pow_ratio, _pow_ratio2
from jeanslab.pde import compute_psi
from jeanslab.reference import homogeneous_state

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
# _eig_bounds: every value eigvalsh returns lies inside its bounds


spectrum = st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=5)
# each sorted origin eigenvalue's next one: as drawn, repeated, or nearly repeated,
# where the gap is too small for Kato–Temple and Weyl stands alone
closeness = st.lists(st.sampled_from([None, 0.0, 1e-15, 1e-12, 1e-9, 1e-6]),
                     min_size=4, max_size=4)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(w=spectrum, close=closeness, log_scale=st.floats(-3.0, 3.0),
       log_rel=st.floats(-14.0, 0.0), seed=st.integers(0, 2**32 - 1))
def test_eig_bounds_hold_the_computed_eigenvalues(w, close, log_scale, log_rel, seed):
    w = np.sort(w)
    for k, c in enumerate(close):
        if c is not None:
            w[k + 1] = w[k] + c * (abs(w[k]) + 1.0)
    # the largest |eigenvalue| is 10^log_scale, so that no square of an entry underflows
    w *= 10.0**log_scale / max(np.abs(w).max(), 1e-300)
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    A0 = (Q * w) @ Q.T
    A0 = 0.5 * (A0 + A0.T)
    # six perturbations of norm 10^log_rel ||A0||_F and the origin itself
    E = rng.standard_normal((6, 5, 5))
    E += E.swapaxes(-1, -2)
    E *= (10.0**log_rel * np.linalg.norm(A0) / np.linalg.norm(E, axis=(-2, -1)))[:, None, None]
    A = np.concatenate([A0 + E, A0[None]])
    lo, hi, e = _eig_bounds(A, A0)
    got = np.linalg.eigvalsh(A)
    assert lo.shape == hi.shape == got.shape and e.shape == (7,)
    assert np.all((lo <= got) & (got <= hi))


# _margin2_floor: every least eigenvalue of M/kappa - B0 that eigvalsh returns lies
# above its bound, where M/kappa nearly meets B0 and fl(M/kappa) - B0 cancels


def _symmetric_of_norm(rng, shape, norm):
    E = rng.standard_normal(shape + (5, 5))
    E += E.swapaxes(-1, -2)
    return E * (norm / np.linalg.norm(E, axis=(-2, -1)))[..., None, None]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(b=st.lists(st.floats(0.1, 10.0), min_size=5, max_size=5), log_kap=st.floats(-1.0, 1.0),
       log_gap=st.one_of(st.none(), st.floats(-16.0, 0.0)), log_rel=st.floats(-17.0, 0.0),
       seed=st.integers(0, 2**32 - 1))
def test_margin2_floor_holds_the_computed_eigenvalues(b, log_kap, log_gap, log_rel, seed):
    rng = np.random.default_rng(seed)
    kap, b = 10.0**log_kap, np.array(b)
    B0_0 = np.diag(b)
    # the origin's M/kappa is B0 itself (log_gap None) or B0 plus a symmetric gap of
    # norm 10^log_gap ||B0||_F
    gap = 0.0 if log_gap is None else 10.0**log_gap * np.linalg.norm(b)
    A0 = kap * (B0_0 + _symmetric_of_norm(rng, (), gap))
    A0 = 0.5 * (A0 + A0.T)
    # perturbations of norm 10^log_rel times the origin's: of M alone (rows 0, 1), of
    # B0's diagonal alone (rows 2, 3) and of both (rows 4, 5); of M by -3 to 3 ulp per
    # entry (rows 6, 7), where fl(M/kappa) - B0 rounds at the scale of B0; row 8 is
    # the origin
    E = _symmetric_of_norm(rng, (8,), 10.0**log_rel * np.linalg.norm(A0))
    E[2:4] = 0.0
    ulps = np.triu(rng.integers(-3, 4, (2, 5, 5)))
    E[6:] = np.spacing(np.abs(A0)) * (ulps + np.triu(ulps, 1).swapaxes(-1, -2))
    D = rng.standard_normal((8, 5))
    D *= (10.0**log_rel * np.linalg.norm(b) / np.linalg.norm(D, axis=-1))[:, None]
    D[:2] = D[6:] = 0.0
    A = np.concatenate([A0 + E, A0[None]])
    d = np.concatenate([b + D, b[None]])
    e = _eig_bounds(A, A0)[2]
    lo2 = _margin2_floor(A0, B0_0, d, e, kap)
    got = np.linalg.eigvalsh(A / kap - d[..., None] * np.eye(5))[..., 0]  # as verify_conditions
    assert lo2.shape == got.shape == (9,)
    assert np.all(lo2 <= got)


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
    ts = traj.t_grid

    def query_times(draw, shape):
        # prod(shape) times on a few drawn solver steps, so that steps are shared
        n = int(np.prod(shape))
        pool = draw(st.lists(st.integers(0, len(ts) - 2), min_size=1, max_size=n))
        steps = [draw(st.sampled_from(pool)) for _ in range(n)]
        return np.array([_step_time(draw, ts, k) for k in steps]).reshape(shape)

    return query_times, lambda t: traj.s_p_at(t), lambda t: traj.f_f0_at(t)


@PROPS
@given(data=st.data(), shape=query_shape)
def test_dense_output_query_equals_scalar_reads(dense, data, shape):
    # Every time is read by one formula, so a value does not depend on which
    # other times, on its step or on others, share the call.
    query_times, sol, f_f0_at = dense
    t = query_times(data.draw, shape)
    s, p = sol(t)
    f, f0 = f_f0_at(t)
    assert f.shape == f0.shape == t.shape
    assert np.array_equal(f, np.expm1(2.0 * s)) and np.array_equal(f0, p * np.exp(3.0 * s))
    reads = [f_f0_at(float(ti)) for ti in t.flat]
    assert np.array_equal(f.ravel(), [r[0] for r in reads])
    assert np.array_equal(f0.ravel(), [r[1] for r in reads])


@PROPS
@given(shape=query_shape, t=st.floats(-10.0, 1e9))
def test_zero_trajectory_reads_exact_zeros(params, shape, t):
    z = zero_trajectory(params)
    q = np.full(shape, t)
    for out in (*z.s_p_at(q), *z.f_f0_at(q)):
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


sample_points = st.integers(1, 4).flatmap(
    lambda k: st.lists(coord, min_size=3 * k, max_size=3 * k)
    .map(lambda c: np.array(c).reshape(k, 3)))


@pytest.fixture(scope="module")
def state_at_times(params, traj):
    # states at times u of [0, 1] mapped onto each trajectory's range, and that
    # trajectory; a closure, as exact_state above
    trajs = {"zero": zero_trajectory(params), "contrast": traj}

    def state(source, u, x):
        tr = trajs["zero" if source == "background" else source]
        t_lo, t_hi = float(tr.t_grid[0]), float(tr.t_end)
        t = t_lo + u * (t_hi - t_lo)
        if source == "background":
            return background_state(t, x, params), tr
        return homogeneous_state(t, x, tr), tr

    return state


def _powers_at_one_time(t, x, tr):
    """(s, p) of the homogeneous state at one float time t, each power taken by
    Python's pow on floats, as the scalar formula takes them."""
    f = tr.f_f0_at(t)[0]
    rho = tr.params.iota3 * (1.0 + f) / (6.0 * np.pi * t * t)
    s = np.log(t ** (-4.0 / 3.0) * (1.0 + f) ** (2.0 / 3.0) * (x * x).sum(-1))
    return s, tr.params.K * np.exp(s) * rho ** (4.0 / 3.0)


@PROPS
@given(u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6), repeat=st.booleans(),
       x=sample_points, source=st.sampled_from(["zero", "contrast", "background"]))
def test_array_times_equal_per_time_calls(state_at_times, u, repeat, x, source):
    # times (m, 1) against points (k, 3), as the residual's stencils call them,
    # repeated times included: row i equals the call at the float time u[i], whose
    # powers are Python's (np.power differs from it in the last bit at about 5 %
    # of inputs)
    u = np.array(u + u[:1] if repeat else u)
    batched, tr = state_at_times(source, u[:, None], x)
    assert batched.v.shape == (len(u),) + x.shape
    for i, ui in enumerate(u.tolist()):
        one = state_at_times(source, ui, x)[0]
        for name in ("rho", "v", "phi", "s", "p"):
            assert np.shape(getattr(batched, name)[i]) == np.shape(getattr(one, name))
            assert np.all(getattr(batched, name)[i] == getattr(one, name)), (name, i)
        s, p = _powers_at_one_time(one.t, x, tr)
        assert np.all(one.s == s) and np.all(one.p == p), i
