import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import OdeSolution, solve_ivp
from scipy.integrate._ivp.rk import Dop853DenseOutput

from conftest import integrate_contrast, refined_grid_per_step, traj_to_cap
from jeanslab import contrast_ode
from jeanslab.contrast_ode import (ContrastMarch, ToleranceSpec, _dense_at, _dense_dx, _Dop853,
                                   _holding_step, _rhs_s, blowup_bracket, blowup_ladder,
                                   bound_certificates, envelope_constants, zero_trajectory)
from jeanslab.errors import NumericalFailure, UsageError
from jeanslab.params import ModelParams, params_from_iota3
from jeanslab.reference import COMPLEX_STEP
from jeanslab.timemaps import compute_g


def test_initial_data_exact(traj, params):
    assert traj.f[0] == pytest.approx(params.beta, abs=1e-14)
    assert traj.f0[0] == pytest.approx(params.beta0, rel=1e-13)


def test_positivity_and_monotone(traj):
    assert np.all(traj.f > 0.0)
    assert np.all(traj.f0 > 0.0)
    assert np.all(np.diff(traj.f) > 0.0)


def test_zero_data_fixed_point():
    beta = 1e-14
    p = params_from_iota3(0.2, beta=beta, gamma=beta / (3.0 * (1.0 + beta)))
    tr = integrate_contrast(p, f_cap=1.0,
                            controls=ToleranceSpec(1e-10, 1e-16, t_ceiling=10.0))
    assert not tr.reached_cap
    assert tr.f.max() < 1e-10


def test_time_of_contrast_is_independent_of_the_cap(traj, traj_deep, params):
    # the same solver steps hold f = 1e3 on all three, so the root is the same float
    shallow = integrate_contrast(params, f_cap=1e4, controls=ToleranceSpec())
    t = shallow.time_of_contrast(1e3)
    assert traj.time_of_contrast(1e3) == t
    assert traj_deep.time_of_contrast(1e3) == t


def test_time_of_contrast_at_the_stored_contrasts(traj):
    # the dense output at a step end can differ in the last bit from the stored f there;
    # a target at (or one ulp off) a stored value is still bracketed, and found at that
    # step end to the root search's tolerance
    for t_k, f_k in zip(traj.t_grid[:-1], traj.f[:-1]):
        for target in (f_k, np.nextafter(f_k, 0.0), np.nextafter(f_k, np.inf)):
            assert traj.time_of_contrast(float(target)) == pytest.approx(t_k, rel=0, abs=2e-14)


def rk4_reference(params: ModelParams, t_end: float, n_steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-step classical RK4 integration of the same ODE in y = ln(1+f) on the
    clock t, y'' = -(a/t) y' + (b/t^2)(e^y - 1) + (c - 1) y'^2.

    Independent oracle for cross-validating the adaptive path on the clock s;
    returns (t, f, f0) on the uniform grid.
    """
    a, b, c = params.ode_a, params.ode_b, params.ode_c

    def rhs(t, y):
        ypp = -(a / t) * y[1] + (b / t**2) * np.expm1(y[0]) + (c - 1.0) * y[1] ** 2
        return np.array([y[1], ypp])

    t = np.linspace(params.t0, t_end, n_steps + 1)
    h = (t_end - params.t0) / n_steps
    y = np.empty((n_steps + 1, 2))
    y[0] = (math.log1p(params.beta), params.beta0 / (1.0 + params.beta))
    for k in range(n_steps):
        tk, yk = t[k], y[k]
        k1 = rhs(tk, yk)
        k2 = rhs(tk + 0.5 * h, yk + 0.5 * h * k1)
        k3 = rhs(tk + 0.5 * h, yk + 0.5 * h * k2)
        k4 = rhs(tk + h, yk + h * k3)
        y[k + 1] = yk + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    f = np.expm1(y[:, 0])
    return t, f, y[:, 1] * (1.0 + f)


def test_rk4_oracle_cross_validation(traj, params):
    # fixed-step oracle in y = ln(1+f) on the clock t, with 1,000 steps to f = 1e3
    t_probe = traj.time_of_contrast(1e3)
    n = 1000
    _, f_oracle, f0_oracle = rk4_reference(params, t_probe, n)
    f, f0 = traj.f_f0_at(t_probe)
    assert abs(f_oracle[-1] - f) / f_oracle[-1] < 1e-8
    assert abs(f0_oracle[-1] - f0) / f0_oracle[-1] < 1e-8


def test_contrast_rate_identity(traj, params):
    # f' expressed through (f, g) along the whole run
    maps = compute_g(traj)
    pred = (1.0 / params.B) * maps.t_grid ** (-params.ode_a) \
        * maps.g ** (-params.ode_b / params.A) * (1.0 + maps.f) ** params.ode_c
    assert np.max(np.abs(pred - maps.f0) / maps.f0) < 1e-6


def test_envelope_constants_frozen(params):
    ec = envelope_constants(params)
    assert ec.a_bar == pytest.approx(-1.0 / 3.0)
    assert ec.c_bar == pytest.approx(-1.0 / 3.0)
    assert ec.triangle == pytest.approx(5.0 / 3.0)
    assert ec.cA == pytest.approx(0.78182, abs=1e-5)
    assert ec.cB == pytest.approx(-0.87273, abs=1e-5)
    assert ec.cB < 0.0 and ec.cC > 0.0 and ec.cE > 0.0
    # at t0 both envelopes reproduce the data exactly
    assert math.exp(ec.cC + ec.cD) == pytest.approx(1.0 + params.beta, abs=1e-9)
    assert ec.bracket_fn(1.0) == pytest.approx(1.0 / (1.0 + params.beta), abs=1e-12)


def test_envelope_constants_sign_check(params, monkeypatch):
    # c > 1 is the model's regime; c = 1/2 flips the sign of cE
    monkeypatch.setattr(ModelParams, "ode_c", 0.5)
    with pytest.raises(NumericalFailure, match="envelope constants"):
        envelope_constants(params)


def test_f_f0_at_equals_separate_calls(traj):
    # repeated and alternating times; the scalar path equals a 0-d array read
    t0, t_a, t_b = traj.t_grid[0], 0.5 * (traj.t_grid[0] + traj.t_end), traj.t_end
    for t in (t_a, t_a, t_b, t_a, t_b, t_b, t0, t_a, t0):
        f, f0 = traj.f_f0_at(t)
        s, p = traj.s_p_at(np.asarray(t))
        assert (f, f0) == (float(np.expm1(2.0 * s)), float(p * np.exp(3.0 * s)))
        assert type(f) is float and type(f0) is float


def _scipy_dop853(params, f_cap, controls):
    """scipy's DOP853 on the contrast ODE on the clock s = ln(1+f)/2 in the state
    (t, p), p = f'/(1+f)^(3/2), through ``solve_ivp`` with the cap s = ln(1+f_cap)/2
    and the time ceiling as terminal events: the integration ``ContrastMarch`` replays."""
    a, b, c = params.ode_a, params.ode_b, params.ode_c
    s_cap = 0.5 * math.log1p(f_cap)

    def rhs(s, y):
        t, p = y
        w = math.exp(-s)
        return (2.0 * w / p,
                2.0 * (c - 1.5) * p - 2.0 * a * w / t + (2.0 * b / (t * t * p)) * (1.0 - w * w))

    def hit_cap(s, y):
        return s - s_cap

    def hit_ceiling(s, y):
        return y[0] - controls.t_ceiling

    hit_cap.terminal = hit_ceiling.terminal = True
    y0 = (params.t0, params.beta0 / (1.0 + params.beta) ** 1.5)
    return solve_ivp(rhs, (0.5 * math.log1p(params.beta), math.inf), y0, method="DOP853",
                     rtol=controls.rel_tol, atol=controls.abs_tol, dense_output=True,
                     events=(hit_cap, hit_ceiling))


def _assert_equals_scipy(traj, res):
    """The trajectory is scipy's integration: its steps, states, stop and interpolants.
    scipy cuts at its event's root, which Brent's method puts within a few ulp of the
    clock value s_cap, or of the one where t meets the ceiling; the trajectory cuts at
    s_cap and at the ceiling's time themselves, on the same interpolant."""
    assert res.status == 1 and [len(e) for e in res.t_events] == (
        [1, 0] if traj.reached_cap else [0, 1])
    assert np.array_equal(traj.s_grid[:-1], res.t[:-1])
    assert np.array_equal(traj.s_grid[:-1], res.sol.ts[:-1])
    assert traj.s_grid[-1] == pytest.approx(res.t[-1], rel=0, abs=8 * _EPS * res.t[-1])
    assert np.array_equal(traj.t_grid[:-1], res.y[0, :-1])
    assert np.array_equal(traj.p[:-1], res.y[1, :-1])
    assert np.array_equal(traj.f, np.expm1(2.0 * traj.s_grid))
    assert np.array_equal(traj.f0, traj.p * np.exp(3.0 * traj.s_grid))
    if traj.reached_cap:
        assert traj.s_grid[-1] == 0.5 * math.log1p(traj.f_cap)
        assert np.array_equal(res.sol(traj.s_grid[-1]), [traj.t_end, traj.p[-1]])
    else:
        assert res.y[0, -1] == pytest.approx(traj.t_end, rel=4 * _EPS)
    steps = res.sol.interpolants
    for name, mine in (("t_old", traj.s_grid[:-1]), ("h", traj.h)):
        assert np.array_equal(mine, [getattr(s, name) for s in steps]), name
    assert np.array_equal(traj.F, np.stack([s.F for s in steps], axis=-1))
    assert np.array_equal(traj.y_old, np.stack([s.y_old for s in steps], axis=-1))


_EPS = float(np.finfo(float).eps)


@pytest.fixture(scope="module")
def scipy_oracle(params):
    """A deep trajectory, and scipy's own dense output (OdeSolution) of the same integration."""
    traj = integrate_contrast(params, f_cap=1e8, controls=ToleranceSpec())
    res = _scipy_dop853(params, 1e8, ToleranceSpec())
    _assert_equals_scipy(traj, res)
    return traj, res.sol


_ORACLE_PARAMS = [(0.2, 0.1, 0.5), (0.2, 0.1, 0.9), (0.05, 0.5, 0.3), (0.15, 0.02, 1.0)]


def test_integrate_contrast_equals_scipy_dop853():
    # every cap and tolerance steps the same as scipy, rejected steps included,
    # and counts the same calls of the rhs
    rejected = 0
    for iota3, beta, gamma in _ORACLE_PARAMS:
        p = params_from_iota3(iota3, beta=beta, gamma=gamma)
        for f_cap in (1e3, 1e4, 1e6, 1e8):
            for rel_tol in (1e-6, 1e-9, 1e-12):
                controls = ToleranceSpec(rel_tol=rel_tol)
                res = _scipy_dop853(p, f_cap, controls)
                march = ContrastMarch(p, controls)
                _assert_equals_scipy(march.trajectory(f_cap), res)
                assert march._stepper.n_rhs == res.nfev
                assert res.status == 1
                # each trial step makes 12 rhs calls, each accepted step's dense
                # output 3 more, the first step's choice 2
                steps = len(res.t) - 1
                rejected += (res.nfev - 2 - 3 * steps) // 12 - steps
    assert rejected > 0


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(beta=st.floats(0.01, 1.0), gamma=st.floats(0.2, 1.0),
       log_rtol=st.floats(-12.0, -6.0), log_atol=st.floats(-16.0, -8.0))
def test_a_march_equals_scipy_at_any_tolerances(beta, gamma, log_rtol, log_atol):
    # the error scale atol + |y| rtol is set by either term across these ranges
    p = params_from_iota3(0.2, beta=beta, gamma=gamma)
    controls = ToleranceSpec(rel_tol=10.0 ** log_rtol, abs_tol=10.0 ** log_atol)
    res = _scipy_dop853(p, 1e6, controls)
    march = ContrastMarch(p, controls)
    _assert_equals_scipy(march.trajectory(1e6), res)
    assert march._stepper.n_rhs == res.nfev


@pytest.mark.parametrize("size", [1, 2, 3, 4, 48])
def test_the_stepper_works_on_floats_up_to_its_crossover(size):
    # at every size fun sees each stage's state as a float64 array, from the
    # contrast's 2-vector to the PDE's fields (3 n values, n >= 16)
    seen = []

    def fun(t, y):
        seen.append((type(y), y.dtype.type))
        return y

    stepper = _Dop853(fun, 0.0, np.linspace(1.0, 2.0, size), 1.0, 1e-8, 1e-12)
    stepper.start()
    stepper.step()
    stepper.dense_coefficients()
    assert len(seen) == stepper.n_rhs == 2 + 12 * stepper.n_trials + 3
    assert set(seen) == {(np.ndarray, np.float64)}


def test_the_contrast_slopes_read_python_floats(params, monkeypatch):
    # the march hands _rhs_s its 2-vector as Python floats, read by tolist
    seen, rhs = set(), contrast_ode._rhs_s

    def spy(s, y, a, b, c):
        seen.add((type(s), type(y), *map(type, y)))
        return rhs(s, y, a, b, c)

    monkeypatch.setattr(contrast_ode, "_rhs_s", spy)
    ContrastMarch(params).trajectory(1e3)
    assert seen == {(float, list, float, float)}


_BIG = 1e308


@pytest.mark.parametrize("h,e5,e3", [
    (4.0, _BIG, 1.0),  # |h| e5 overflows
    (0.5, _BIG, _BIG),  # the blend overflows, and an error of 0 would pass the step
    (0.5, 0.0, 5e-324),  # the blend underflows to 0: 0 / 0
    (0.5, np.nan, 1.0),
])
def test_the_error_norm_meets_non_finite_values_as_numpy_does(h, e5, e3):
    # scipy's blend, on numpy scalars
    with np.errstate(all="ignore"):
        want = np.abs(np.float64(h)) * np.float64(e5) / np.sqrt(
            (np.float64(e5) + 0.01 * e3) * 2)
        got = contrast_ode._error_norm(h, e5, e3, 2)
    assert got == want or math.isnan(got) and math.isnan(want)
    if math.isinf(abs(h) * e5) or math.isinf((e5 + 0.01 * e3) * 2):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            contrast_ode._error_norm(h, e5, e3, 2)


def test_the_rhs_meets_an_overflow_as_numpy_does():
    # dt/ds = 2 w/p, dp/ds = 2 (c - 3/2) p - 2 a w/t + (2 b/(t^2 p))(1 - w^2) at s = 1:
    # 2 w/p overflows at the first p, and 2 b/(t^2 p) at the second t
    abc = (4 / 3, 2 / 3, 4 / 3)
    for y in ((1.0, 1e-309), (1e-160, 1.0)):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            _rhs_s(1.0, y, *abc)
        with np.errstate(over="ignore"):
            got = _rhs_s(1.0, y, *abc)
            assert got == _rhs_s(1.0, np.array(y), *abc) and not np.isfinite(got).all()


def test_integrate_contrast_stops_at_the_ceiling_as_scipy(params):
    controls = ToleranceSpec(t_ceiling=3.0)
    traj = integrate_contrast(params, f_cap=1e8, controls=controls)
    res = _scipy_dop853(params, 1e8, controls)
    # the march stops in the step where t crosses the ceiling, cut at the clock value
    # where the step's t polynomial meets it: t(s) there is the ceiling to one ulp
    assert (len(traj.t_grid), traj.t_end, traj.reached_cap) == (17, 3.0, False)  # 16 steps
    _assert_equals_scipy(traj, res)
    assert abs(traj.t_p_at_s(traj.s_grid[-1:])[0, 0] - 3.0) <= np.spacing(3.0)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(beta=st.floats(0.01, 1.0), gamma=st.floats(0.2, 1.0), u=st.floats(0.0, 1.0))
def test_stopping_at_t_reach_keeps_the_steps_before_it(beta, gamma, u):
    # the step sequence does not depend on where the run stops: a run stopped
    # past t_reach is a prefix of the full run, read bit for bit alike up to t_reach
    p = params_from_iota3(0.2, beta=beta, gamma=gamma)
    full = integrate_contrast(p, f_cap=1e4)
    t_reach = p.t0 + u * (full.t_end - p.t0)
    part = integrate_contrast(p, f_cap=1e4, t_reach=t_reach)
    assert np.array_equal(part.t_grid, full.t_grid[:len(part.t_grid)])
    assert part.t_end >= t_reach
    assert part.reached_cap == (part.t_end == full.t_end)
    ts = np.linspace(p.t0, t_reach, 41)
    for a, b in zip(part.f_f0_at(ts), full.f_f0_at(ts)):
        assert np.array_equal(a, b)
    assert [part.f_f0_at(t) for t in ts.tolist()] == [full.f_f0_at(t) for t in ts.tolist()]


def test_the_cap_stops_a_run_before_t_reach(params):
    full = integrate_contrast(params, f_cap=1e4)
    part = integrate_contrast(params, f_cap=1e4, t_reach=full.t_end + 1.0)
    assert part.reached_cap
    assert part.t_end == full.t_end
    assert np.array_equal(part.t_grid, full.t_grid)


@pytest.mark.parametrize("data", ["params", "params_window"])
def test_runs_to_lower_caps_are_prefixes_of_the_deepest(request, data):
    # no step depends on the cap: the runs to 50, 1e3 and 1e6 are the first steps
    # of the run to 1e8 bit for bit, and each crosses its cap inside the step of
    # that run whose end passes the cap first
    p = request.getfixturevalue(data)
    deep = traj_to_cap(p, 1e8)
    for f_cap in (50.0, 1e3, 1e6):
        part = traj_to_cap(p, f_cap)
        n = len(part.h)
        assert part.reached_cap and n < len(deep.h)
        assert np.array_equal(part.t_grid[:-1], deep.t_grid[:n])
        for name in ("h", "F", "y_old"):
            assert np.array_equal(getattr(part, name), getattr(deep, name)[..., :n]), name
        assert deep.s_grid[n - 1] < 0.5 * math.log1p(f_cap) == part.s_grid[-1] <= deep.s_grid[n]
        assert deep.t_grid[n - 1] < part.t_end <= deep.t_grid[n]


def _assert_same_trajectory(a, b):
    """a and b equal bit for bit in every field and in every read of their dense output."""
    for name in ("s_grid", "t_grid", "p", "f", "f0", "h", "F", "y_old"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.f_cap, a.t_end, a.reached_cap) == (b.f_cap, b.t_end, b.reached_cap)
    ts = np.linspace(a.t_grid[0], a.t_end, 41)
    for x, y in zip(a.f_f0_at(ts), b.f_f0_at(ts)):
        assert np.array_equal(x, y)
    assert [a.f_f0_at(t) for t in ts.tolist()] == [b.f_f0_at(t) for t in ts.tolist()]


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(beta=st.floats(0.01, 1.0), gamma=st.floats(0.2, 1.0),
       requests=st.lists(st.tuples(st.sampled_from([50.0, 1e3, 1e6, 1e8]),
                                   st.one_of(st.none(), st.floats(0.0, 1.0))),
                         min_size=3, max_size=4))
def test_a_shared_march_equals_fresh_ones(beta, gamma, requests):
    # one march asked for caps and times in any order serves each request as a
    # fresh march asked for it alone, and steps only as deep as the deepest one
    p = params_from_iota3(0.2, beta=beta, gamma=gamma)
    span = integrate_contrast(p, f_cap=1e8).t_end - p.t0
    shared, depths = ContrastMarch(p), []
    for f_cap, u in requests:
        t_reach = math.inf if u is None else p.t0 + u * span
        fresh = ContrastMarch(p)
        _assert_same_trajectory(shared.trajectory(f_cap, t_reach),
                                fresh.trajectory(f_cap, t_reach))
        depths.append(len(fresh._steps))
    assert len(shared._steps) == max(depths)


def test_a_failed_march_takes_no_further_step(params, monkeypatch):
    # the steps before a failure still serve the requests they reach: here the 31st
    # step's size underflows, past the 29 steps to f = 1e3
    march = ContrastMarch(params)
    step = march._stepper.step
    monkeypatch.setattr(march._stepper, "step",
                        lambda: len(march._steps) < 30 and step())
    with pytest.raises(NumericalFailure, match="stiffness failure"):
        march.trajectory(1e8)
    t = march._ys[-1][0]
    with pytest.raises(NumericalFailure, match=f"failed before, at t={t!r}"):
        march.trajectory(1e8)
    _assert_same_trajectory(march.trajectory(1e3), integrate_contrast(params, f_cap=1e3))


def test_integrate_contrast_fails_where_scipy_fails(params):
    # at a rate 1e-100 the clock s barely moves while t does (dt/ds = 2 w/p): the step
    # size falls below the spacing of the floats near s0 (scipy's status -1)
    tiny = dataclasses.replace(params, beta=2.0, gamma=1e-100)
    res = _scipy_dop853(tiny, 1e3, ToleranceSpec())
    assert res.status == -1
    assert res.message == "Required step size is less than spacing between numbers."
    where = (f"stopped at t={res.y[0, -1]:.12g} with f={math.expm1(2.0 * res.t[-1]):.6g}: "
             f"{res.message}")
    with pytest.raises(NumericalFailure, match=re.escape(where)):
        integrate_contrast(tiny, f_cap=1e3)


@pytest.mark.parametrize("gamma,f_cap,message", [
    (math.inf, 1e3, "step size at t=1 is NaN: the contrast ODE's slopes are not finite"),
    (1e150, 1e200, r"f' = p e\^\(3s\) overflows"),  # f' at the cap
    (1e300, 1e6, r"f' = p e\^\(3s\) overflows"),
    (1e-300, 1e3, "contrast ODE overflowed"),  # the slope's norm overflows
], ids=["inf", "1e150", "1e300", "1e-300"])
def test_integrate_contrast_fails_on_non_finite_arithmetic(params, monkeypatch, gamma, f_cap,
                                                           message):
    # build_params refuses these rates; the march still ends each in a
    # NumericalFailure, and in a bounded number of trial steps
    step_factor, trials = contrast_ode._step_factor, []

    def counted(*args):
        trials.append(args)
        if len(trials) > 1000:
            raise RuntimeError("the trial steps never end")
        return step_factor(*args)

    monkeypatch.setattr(contrast_ode, "_step_factor", counted)
    with np.errstate(all="ignore"), pytest.raises(NumericalFailure, match=message):
        integrate_contrast(dataclasses.replace(params, gamma=gamma), f_cap=f_cap)


def _assert_reads_equal_scipy(traj, sol, t, name):
    """The reads at the times t are scipy's dense output at the clock values they find,
    bit for bit, and t(s) there gives each time back to 4 ulp."""
    s, p = traj.s_p_at(t)
    t_back, p_scipy = np.array([sol(sq) for sq in s.tolist()]).T  # one clock value a call
    assert np.array_equal(p, p_scipy), name
    assert np.all(np.abs(t_back - t) <= 4 * np.spacing(t)), name
    f, f0 = traj.f_f0_at(t)
    assert np.array_equal(f, np.expm1(2.0 * s)), name
    assert np.array_equal(f0, p_scipy * np.exp(3.0 * s)), name


def test_dense_output_arrays_equal_scipy(scipy_oracle):
    traj, sol = scipy_oracle
    ts = sol.ts[:-1]  # the solver steps; scipy's last is its event's root
    assert ts.size > 40
    clock = {"breakpoints": ts, "step midpoints": 0.5 * (ts[:-1] + ts[1:]),
             "s0": ts[:1], "s_end": traj.s_grid[-1:],
             "outside": np.array([np.nextafter(ts[0], 0.0), ts[0] - 1e-3,
                                  np.nextafter(traj.s_grid[-1], np.inf)])}
    for refine in (16, 4):
        s = refined_grid_per_step(traj.s_grid, refine)
        clock[f"refined grid {refine}"] = s
        clock[f"refined midpoints {refine}"] = 0.5 * (s[:-1] + s[1:])
    clock["time-map record grid"] = compute_g(traj).s_grid
    for name, s in clock.items():
        # (t, p) at clock values: scipy read one clock value per call
        assert np.array_equal(traj.t_p_at_s(s), np.array([sol(sq) for sq in s.tolist()]).T), name
    t_grid = traj.t_grid
    times = {"breakpoints": t_grid, "step midpoints": 0.5 * (t_grid[:-1] + t_grid[1:]),
             "t0": t_grid[:1], "t_end": np.array([traj.t_end])}
    for refine in (16, 4):
        t = refined_grid_per_step(t_grid, refine)
        times[f"refined grid {refine}"] = t
        times[f"refined grid {refine}, ends dropped"] = t[1:-1]
    times["time-map record grid"] = compute_g(traj).t_grid
    for name, t in times.items():
        _assert_reads_equal_scipy(traj, sol, t, name)


def test_dense_output_scalars_equal_scipy(scipy_oracle):
    traj, sol = scipy_oracle
    rng = np.random.default_rng(20240)
    times = rng.uniform(traj.t_grid[0], traj.t_end, 2000).tolist() + traj.t_grid[::7].tolist()
    for t in times:
        s, p = traj.s_p_at(np.array(t))
        f, f0 = float(np.expm1(2.0 * s)), float(sol(float(s))[1] * np.exp(3.0 * s))
        assert traj.f_f0_at(t) == (f, f0), t
        assert traj.f_f0_at(np.float64(t)) == (f, f0), t
    # a contrast time is t(s) read at s = ln(1 + f)/2 on the solver step that holds it
    for f_target in (1.0, 1e3, 1e8 / 3.0):
        assert traj.time_of_contrast(f_target) == sol(0.5 * math.log1p(f_target))[0]


def test_dense_output_polynomial_equals_scipy(scipy_oracle):
    # With every step's y_old set to zero the interpolant's sum is not rounded
    # into y_old, so a change in the order of its terms shows in far more
    # values than it does through y_old at this tolerance.
    traj, sol = scipy_oracle
    poly = dataclasses.replace(traj, y_old=np.zeros_like(traj.y_old))
    ts = sol.ts[:-1]
    oracle = OdeSolution(traj.s_grid, [Dop853DenseOutput(s.t_old, s.t, np.zeros(2), s.F)
                                       for s in sol.interpolants])
    s = refined_grid_per_step(traj.s_grid, 16)
    for q in (s, 0.5 * (s[:-1] + s[1:]), ts, 0.5 * (ts[:-1] + ts[1:])):
        assert np.array_equal(poly.t_p_at_s(q), np.array([oracle(sq) for sq in q.tolist()]).T)


def test_dense_dx_is_the_derivative_of_dense_at():
    # a polynomial's derivative by a complex step, to rounding: Im p(x + i s) / s
    rng = np.random.default_rng(11)
    F, x, s = rng.normal(size=(7, 200)), rng.uniform(0.0, 1.0, 200), 1e-30
    want = _dense_at(x + 1j * s, F, 0.0).imag / s
    assert np.allclose(_dense_dx(x, F), want, rtol=1e-13, atol=1e-13)
    # at the step's ends it is the step's end slopes, F0 + F1 at x = 0 and F0 - F1 - F2 at 1
    assert np.allclose(_dense_dx(0.0, F), F[0] + F[1], rtol=1e-13, atol=1e-13)
    assert np.allclose(_dense_dx(1.0, F), F[0] - F[1] - F[2], rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("beta,gamma,upper", [
    (0.1, 0.5, 27.0),  # the defaults: (1 - 1/(3 gamma))^-3 = 27
    (0.1, 1.0 / 3.0, None),
    (0.1, 1e100, 1.0),  # the root lies within an ulp of t0
    (1e-9, 1e-9, None),  # the root lies at 8.5e12
    (1e-300, 1e-12, None),  # and at 4.1e17
], ids=["defaults", "gamma-1/3", "gamma-1e100", "root-8.5e12", "root-4.1e17"])
def test_bracket_bisection_oracle(beta, gamma, upper):
    # bisection of bracket_fn down to adjacent floats, from t0/2, where it is positive,
    # to the first power of 2 where it is not
    p = params_from_iota3(0.2, beta=beta, gamma=gamma, lam=0.1, A=1.0)
    ec = envelope_constants(p)
    lo, hi = p.t0 / 2.0, p.t0 * 2.0
    while ec.bracket_fn(hi) > 0.0:
        hi *= 2.0
    assert ec.bracket_fn(lo) > 0.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if ec.bracket_fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    t_star, t_star_up = blowup_bracket(p)
    assert t_star == pytest.approx(hi, rel=1e-15, abs=0.0)
    assert t_star_up == (None if upper is None else pytest.approx(upper, rel=1e-12))


def test_a_bracket_past_the_largest_float_fails():
    # t_star is about |cB|^(-3/2), some 1e450, at beta = gamma = 1e-300
    p = params_from_iota3(0.2, beta=1e-300, gamma=1e-300)
    with pytest.raises(NumericalFailure, match="blowup_bracket left the range of floats"):
        blowup_bracket(p)


def test_bracket_threshold_case():
    # gamma = 1/3 exactly: supercritical hypothesis fails marginally
    p = params_from_iota3(0.2, beta=0.1, gamma=1.0 / 3.0)
    t_star, t_star_up = blowup_bracket(p)
    assert t_star > 1.0
    assert t_star_up is None


def test_bound_certificates(traj):
    rep = bound_certificates(traj)
    assert rep.all_ok
    assert rep.first_violation is None
    assert rep.improved_applicable  # gamma = 0.5 > 1/3
    # upper envelope blows up approaching t_star
    eps_t = 1e-9
    assert 1.0 / rep.constants.bracket_fn(rep.t_star - eps_t) > 1e6


def test_blowup_estimate_bracket_containment(traj, params):
    t_star, t_star_up = blowup_bracket(params)
    est, spread, _ = blowup_ladder(traj)
    assert t_star <= est < t_star_up
    assert spread < 1e-3
    assert spread < 1e-4  # measured self-consistency is much tighter


def test_blowup_estimate_cap_stability(params):
    # doubling the cap moves the estimate by less than the reported spread
    tight = ToleranceSpec()
    tr1 = integrate_contrast(params, f_cap=5e5, controls=tight)
    tr2 = integrate_contrast(params, f_cap=1e6, controls=tight)
    e1, s1, _ = blowup_ladder(tr1)
    e2, _, _ = blowup_ladder(tr2)
    assert abs(e2 - e1) / e1 < max(s1, 1e-6)


def test_blowup_estimate_deep_run_consistency(params):
    # a four-decade-deeper run must stay below the shallow estimate and
    # refine it only within a narrow band
    tight = ToleranceSpec()
    shallow = integrate_contrast(params, f_cap=1e6, controls=tight)
    deep = integrate_contrast(params, f_cap=1e10, controls=tight)
    e_s, s_s, _ = blowup_ladder(shallow)
    e_d, s_d, _ = blowup_ladder(deep)
    assert deep.t_end < e_s  # reached time is always below the blowup estimate
    assert abs(e_d - e_s) < 5e-5
    assert s_d < s_s  # the ladder tightens as the cap deepens


def test_no_blowup_detected_error(params):
    tr = integrate_contrast(params, f_cap=1e6,
                            controls=ToleranceSpec(1e-10, 1e-12, t_ceiling=1.5))
    assert not tr.reached_cap
    with pytest.raises(NumericalFailure, match="no blowup detected"):
        blowup_ladder(tr)


def _ladder_stub(times):
    # the three things blowup_ladder reads, with chosen crossing times
    caps = 8.0 / 2.0 ** np.arange(len(times) - 1, -1, -1)
    return SimpleNamespace(reached_cap=True, f_cap=8.0,
                           time_of_contrast=lambda c: times[int(np.flatnonzero(caps == c)[0])])


def test_blowup_ladder_counts_dropped_triplets():
    # the first triplet widens (r = 0.5) and is dropped; the other two halve (r = 2)
    est, spread, dropped = blowup_ladder(_ladder_stub([1.0, 1.1, 1.3, 1.4, 1.45]))
    assert dropped == 1
    assert est == pytest.approx(1.5, abs=1e-12)
    assert spread < 1e-12
    assert blowup_ladder(_ladder_stub([1.0, 1.5, 1.75, 1.875, 1.9375]))[2] == 0
    with pytest.raises(NumericalFailure, match="degenerate"):
        blowup_ladder(_ladder_stub([1.0, 1.1, 1.3, 1.7, 2.5]))


def test_randomized_envelopes():
    rng = np.random.default_rng(42)
    for _ in range(6):
        beta = rng.uniform(0.02, 1.0)
        gamma = rng.uniform(0.02, 1.0)
        p = params_from_iota3(rng.uniform(0.01, 0.2), beta=beta, gamma=gamma)
        tr = integrate_contrast(p, f_cap=1e3, controls=ToleranceSpec(1e-10, 1e-12))
        assert bound_certificates(tr).all_ok


def test_refinement_convergence(params):
    probes = [1.5, 2.5, 3.5]
    coarse = integrate_contrast(params, f_cap=1e6, controls=ToleranceSpec(1e-8, 1e-10))
    fine = integrate_contrast(params, f_cap=1e6, controls=ToleranceSpec())
    for t in probes:
        rel = abs(coarse.f_f0_at(t)[0] - fine.f_f0_at(t)[0]) / fine.f_f0_at(t)[0]
        assert rel < 10.0 * 1e-8


def test_zero_trajectory(params):
    z = zero_trajectory(params)
    assert z.f_f0_at(3.7)[0] == 0.0
    assert z.f_f0_at(100.0)[1] == 0.0
    assert z.f_f0_at(2.5) == (0.0, 0.0)


def test_f_cap_precondition(params):
    with pytest.raises(UsageError):
        integrate_contrast(params, f_cap=0.05)
    with pytest.raises(UsageError, match="finite"):  # its clock value s_cap is inf
        integrate_contrast(params, f_cap=math.inf)
    with pytest.raises(UsageError, match="t_ceiling"):
        integrate_contrast(params, controls=ToleranceSpec(t_ceiling=params.t0))


@pytest.mark.parametrize("tolerances", [{"rel_tol": 1e-15}, {"rel_tol": 0.0},
                                        {"abs_tol": 0.0}, {"abs_tol": -1e-14},
                                        {"rel_tol": math.inf}, {"abs_tol": math.inf},
                                        {"rel_tol": 1.0}])
def test_tolerances_out_of_range_refused(tolerances):
    # below 100 eps scipy silently raised rel_tol to 2.22e-14 (with a warning)
    with pytest.raises(UsageError):
        ToleranceSpec(**tolerances)
    ToleranceSpec(rel_tol=100.0 * np.finfo(float).eps)


# t_m of the default model (iota3 0.2, beta 0.1, gamma 0.5) by mpmath's Taylor-series
# odefun at 25 digits on the (t, p) system in s, read at s = 60 (t_m - t(60) ~ 1e-26)
_T_M_DEFAULTS = 4.18980836099986


def _drawn_times(traj, seed):
    """10,000 times drawn uniformly over the trajectory, 64 a step drawn uniformly in
    its clock values (the last steps span little time, and uniform times miss them),
    and every breakpoint."""
    rng = np.random.default_rng(seed)
    s = traj.s_grid[:-1, None] + np.diff(traj.s_grid)[:, None] * rng.uniform(size=(1, 64))
    return np.concatenate([rng.uniform(traj.t_grid[0], traj.t_end, 10_000),
                           traj.t_p_at_s(s.ravel())[0], traj.t_grid])


@pytest.mark.parametrize("data", ["params", "params_window"])
def test_a_time_read_gives_its_time_back(request, data):
    # t(s(t)) = t to 4 ulp on the march to f = 1e8, and a breakpoint t_grid[k] is
    # inverted on step k - 1, at x near 1.  At gamma 0.9 (params_window) steps reach
    # h = 0.69, where 2 Newton iterations from the Hermite start leave times 20 ulp off
    traj = traj_to_cap(request.getfixturevalue(data), 1e8)
    t = _drawn_times(traj, 37)
    s, _ = traj.s_p_at(t)
    k = np.clip(np.searchsorted(traj.t_grid, t, side="left") - 1, 0, len(traj.h) - 1)
    x = (s - traj.s_grid[k]) / traj.h[k]
    t_back = _dense_at(x, traj.F[:, 0, k], traj.y_old[0, k])
    assert np.all(np.abs(t_back - t) <= 4 * np.spacing(t))
    at_breakpoint = np.isin(t, traj.t_grid[1:])
    assert np.all(k[at_breakpoint] == np.searchsorted(traj.t_grid, t[at_breakpoint]) - 1)
    assert np.all(np.abs(x[at_breakpoint & (t < traj.t_end)] - 1.0) < 1e-9)


@pytest.mark.parametrize("data", ["params", "params_window"])
def test_a_complex_time_read_differentiates_its_step(request, data):
    # Im f(t + ih)/h is the derivative of the polynomial of the step that holds t,
    # 2 e^(2s) h_k / (dt/dx), to 1e-12 relative, and a breakpoint t_grid[k] + ih is
    # held by step k - 1, as t_grid[k] is (searchsorted's lexicographic order of
    # complex values put it on step k); the real part is the real read to rounding
    # (the complex Newton iterations end a few ulp of s away, which e^(2s) scales by
    # 2s).  The read's own f' = p e^(3s), from the dense output of p, agrees to 1e-8
    traj = traj_to_cap(request.getfixturevalue(data), 1e8)
    t = _drawn_times(traj, 39)
    f, f0 = traj.f_f0_at(t)
    f_c, _ = traj.f_f0_at(t + 1j * COMPLEX_STEP)
    s, _ = traj.s_p_at(t)
    k = np.clip(np.searchsorted(traj.t_grid, t, side="left") - 1, 0, len(traj.h) - 1)
    assert np.array_equal(_holding_step(traj.t_grid, t + 1j * COMPLEX_STEP), k)
    x = (s - traj.s_grid[k]) / traj.h[k]
    slope = 2.0 * np.exp(2.0 * s) * traj.h[k] / _dense_dx(x, traj.F[:, 0, k])
    assert np.all(np.abs(f_c.imag / COMPLEX_STEP - slope) <= 1e-12 * slope)
    assert np.all(np.abs(f_c.imag / COMPLEX_STEP - f0) <= 1e-8 * f0)
    assert np.allclose(f_c.real, f, rtol=1e-14, atol=0.0)


def test_scalar_and_array_reads_are_equal(traj_deep):
    # the Newton iterations of a read at a time run the same + - * / on floats as on
    # arrays, so the two paths give the same floats
    t = _drawn_times(traj_deep, 38)
    f, f0 = traj_deep.f_f0_at(t)
    scalar = np.array([traj_deep.f_f0_at(q) for q in t.tolist()]).T
    assert np.array_equal(scalar, [f, f0])


def test_march_work_counts_to_1e8(params):
    # at the CLI's tolerances the march to f = 1e8 takes 41 steps, none rejected: 12
    # calls of the rhs per trial step, 3 more per step for the dense output and 2 for
    # the first step's choice (on the clock t it took 128 steps and 1,922 calls)
    march = ContrastMarch(params, ToleranceSpec())
    traj = march.trajectory(1e8)
    stepper = march._stepper
    assert (len(traj.h), stepper.n_trials, stepper.n_rhs) == (41, 41, 617)
    assert stepper.n_rhs == 12 * stepper.n_trials + 3 * len(traj.h) + 2


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-10, 1e-12])
def test_blowup_time_converges_with_the_tolerance(params, rel_tol):
    # the time stepper's order on its own: t_m from the march alone, against the
    # 25-digit constant, to 10 rel_tol
    t_m, p_half = ContrastMarch(params, ToleranceSpec(rel_tol=rel_tol)).blowup_time()
    assert abs(t_m - _T_M_DEFAULTS) <= 10.0 * rel_tol * _T_M_DEFAULTS
    assert abs(p_half - 1.0) <= 1e3 * rel_tol  # p t_m / 2 tends to 1


def test_blowup_time_continues_the_march(params):
    # t_m is read off the same march, past the steps a trajectory was served, and lies
    # in the envelope bracket; the ladder at f_cap = 1e8 is within its spread of it
    march = ContrastMarch(params)
    traj = march.trajectory(1e8)
    t_m, p_half = march.blowup_time()
    assert len(march._steps) == 96 and traj.t_end < t_m
    _assert_same_trajectory(march.trajectory(1e8), traj)
    t_star, t_star_upper = blowup_bracket(params)
    assert t_star <= t_m < t_star_upper
    est, spread, _ = blowup_ladder(traj)
    assert abs(est - t_m) / t_m <= spread
    assert (t_m, p_half) == ContrastMarch(params).blowup_time()


def test_blowup_time_fails_at_the_ceiling(params):
    march = ContrastMarch(params, ToleranceSpec(t_ceiling=3.0))
    with pytest.raises(NumericalFailure, match="no blowup detected in window"):
        march.blowup_time()


def test_blowup_time_fails_when_p_leaves_its_range(params, monkeypatch):
    # slopes that carry p linearly through 0: the march is smooth, and the read refuses
    monkeypatch.setattr(contrast_ode, "_rhs_s", lambda s, y, a, b, c: (1.0, -1.0))
    with pytest.raises(NumericalFailure, match=r"left \(0, inf\)"):
        ContrastMarch(params).blowup_time()


def test_a_read_of_an_overflowing_rate_raises(traj):
    # f' = p e^(3s) overflows past s = 236 (f near 1e205): both paths raise, with no
    # numpy warning (the suite turns warnings into errors), and so does a march there
    shifted = dataclasses.replace(traj, s_grid=traj.s_grid + 240.0)
    t = float(traj.t_grid[3])
    for read in (lambda: shifted.f_f0_at(t), lambda: shifted.f_f0_at(np.array([t]))):
        with pytest.raises(NumericalFailure, match="overflows"):
            read()
    with pytest.raises(NumericalFailure, match="overflows"):
        integrate_contrast(traj.params, f_cap=1e210)
