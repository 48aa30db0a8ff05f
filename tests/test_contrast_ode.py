import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import OdeSolution, solve_ivp
from scipy.integrate._ivp import rk
from scipy.optimize import brentq

from conftest import assert_order_conditions
from jeanslab import contrast_ode
from jeanslab.contrast_ode import (ToleranceSpec, blowup_bracket, blowup_ladder,
                                   bound_certificates, envelope_constants,
                                   integrate_contrast, rk4_reference,
                                   zero_trajectory)
from jeanslab.errors import NumericalFailure, UsageError
from jeanslab.params import params_from_iota3
from jeanslab.timemaps import _refined_grid, compute_g


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


def test_rk4_oracle_cross_validation(traj, params):
    # fixed-step oracle at 10x the adaptive solver's resolution
    t_probe = traj.time_of_contrast(1e3)
    n = 10 * len(traj.t_grid)
    _, f_oracle, f0_oracle = rk4_reference(params, t_probe, n)
    f, f0 = traj.f_f0_at(t_probe)
    assert abs(f_oracle[-1] - f) / f_oracle[-1] < 1e-8
    assert abs(f0_oracle[-1] - f0) / f0_oracle[-1] < 1e-8


def test_contrast_rate_identity(traj, params):
    # f' expressed through (f, g) along the whole run
    maps = compute_g(traj, refine=2)
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


def test_envelope_constants_sign_check(params):
    # c > 1 is the model's regime; c = 1/2 flips the sign of cE
    with pytest.raises(NumericalFailure, match="envelope constants"):
        envelope_constants(dataclasses.replace(params, ode_c=0.5))


def test_f_f0_at_equals_separate_calls(traj):
    # repeated and alternating times; the scalar path equals a 0-d array read
    t0, t_a, t_b = traj.t_grid[0], 0.5 * (traj.t_grid[0] + traj.t_end), traj.t_end
    for t in (t_a, t_a, t_b, t_a, t_b, t_b, t0, t_a, t0):
        f, f0 = traj.f_f0_at(t)
        y, yp = traj._sol(t)
        assert (f, f0) == (float(np.expm1(y)), float(yp * np.exp(y)))
        assert type(f) is float and type(f0) is float


def _scipy_rk45(params, f_cap, controls):
    """scipy's RK45 on the contrast ODE in y = ln(1+f), through ``solve_ivp`` with the
    cap crossing as a terminal event: the integration ``integrate_contrast`` replays."""
    a, b, c = params.ode_a, params.ode_b, params.ode_c
    y_cap = math.log1p(f_cap)

    def rhs(t, y):
        return (y[1], -(a / t) * y[1] + (b / t**2) * np.expm1(y[0]) + (c - 1.0) * y[1] ** 2)

    def hit_cap(t, y):
        return y[0] - y_cap

    hit_cap.terminal, hit_cap.direction = True, 1
    y0 = (math.log1p(params.beta), params.beta0 / (1.0 + params.beta))
    return solve_ivp(rhs, (params.t0, controls.t_ceiling), y0, method="RK45",
                     rtol=controls.rel_tol, atol=controls.abs_tol, dense_output=True,
                     events=hit_cap)


def _assert_equals_scipy(traj, res):
    """The trajectory is scipy's integration: its steps, states, status and interpolants."""
    assert res.status == (1 if traj.reached_cap else 0)
    assert np.array_equal(traj.t_grid, res.t)
    assert traj.t_end == res.t[-1]
    assert np.array_equal(traj.f, np.expm1(res.y[0]))
    assert np.array_equal(traj.f0, res.y[1] * np.exp(res.y[0]))
    dense, steps = traj._sol, res.sol.interpolants
    assert np.array_equal(dense.ts, res.sol.ts)
    for name in ("t_old", "h", "Q", "y_old"):
        assert np.array_equal(getattr(dense, name), [getattr(s, name) for s in steps]), name


@pytest.fixture(scope="module")
def scipy_oracle(params):
    """A deep trajectory, and scipy's own dense output (OdeSolution) of the same integration."""
    traj = integrate_contrast(params, f_cap=1e8, controls=ToleranceSpec())
    res = _scipy_rk45(params, 1e8, ToleranceSpec())
    _assert_equals_scipy(traj, res)
    return traj, res.sol


def test_tableau_and_controller_equal_scipy_rk45():
    for mine, theirs in ((contrast_ode._DP_C, rk.RK45.C), (contrast_ode._DP_A, rk.RK45.A),
                         (contrast_ode._DP_B, rk.RK45.B), (contrast_ode._DP_E, rk.RK45.E),
                         (contrast_ode._DP_P, rk.RK45.P)):
        assert mine.shape == theirs.shape and np.array_equal(mine, theirs)
    assert (contrast_ode._SAFETY, contrast_ode._MIN_FACTOR, contrast_ode._MAX_FACTOR) \
        == (rk.SAFETY, rk.MIN_FACTOR, rk.MAX_FACTOR)
    assert contrast_ode._ERROR_EXPONENT == -1 / (rk.RK45.error_estimator_order + 1)


def test_dormand_prince_order_conditions():
    assert_order_conditions(contrast_ode._DP_C, contrast_ode._DP_A, contrast_ode._DP_B, 5)


def _brent_cases():
    """(f, a, b) for bracketed functions of several shapes: polynomial with an
    oscillation, exponential, steep tanh step, triple root, and one whose values are
    so small that neither implementation converges in 100 iterations."""
    rng = np.random.default_rng(11)
    shapes = (lambda c: lambda x: c[0] + c[1] * x + c[2] * x**3 + c[3] * math.sin(3 * x),
              lambda c: lambda x: math.exp(c[0] * x) - 1.5 - c[1],
              lambda c: lambda x: math.tanh(5 * (x - c[0])) + 0.01 * c[1],
              lambda c: lambda x: (x - c[0]) ** 3 * (1 + c[1] ** 2),
              lambda c: lambda x: math.atan(x - c[0]) * 1e-8 + c[1] * 1e-30)
    cases = []
    while len(cases) < 600:
        f = shapes[len(cases) % len(shapes)](rng.normal(size=4))
        a, b = sorted(rng.uniform(-3.0, 3.0, 2).tolist())
        if f(a) * f(b) < 0:
            cases.append((f, a, b))
    return cases


def test_brent_equals_scipy_brentq():
    # every root and every failure to converge, at brentq's defaults and at the
    # tolerances the module asks for
    failed = 0
    for f, a, b in _brent_cases():
        for xtol, rtol in ((2e-12, 4 * np.finfo(float).eps), (1e-14, 8.9e-16),
                           (1e-13, 1e-11), (1e-3, 1e-6)):
            try:
                root = brentq(f, a, b, xtol=xtol, rtol=rtol)
            except RuntimeError:
                failed += 1
                with pytest.raises(NumericalFailure, match="did not converge"):
                    contrast_ode._brentq(f, a, b, xtol, rtol)
                continue
            own = contrast_ode._brentq(f, a, b, xtol, rtol)
            assert own == root and type(own) is float, (a, b, xtol, rtol)
    assert 0 < failed < 600
    with pytest.raises(NumericalFailure, match="no sign change"):
        contrast_ode._brentq(math.cos, 0.0, 1.0, 1e-12, 1e-15)
    assert contrast_ode._brentq(math.sin, 0.0, 1.0, 1e-12, 1e-15) == 0.0


def test_roots_of_the_module_equal_scipy_brentq(params, monkeypatch):
    # the cap crossing, the contrast times of the ladder and of the PDE's stop,
    # and the envelope bracket, each checked against brentq on the same function
    own, roots = contrast_ode._brentq, []

    def checked(f, a, b, xtol, rtol):
        root = own(f, a, b, xtol, rtol)
        assert root == brentq(f, a, b, xtol=xtol, rtol=rtol)
        roots.append(root)
        return root

    monkeypatch.setattr(contrast_ode, "_brentq", checked)
    for iota3, beta, gamma in _ORACLE_PARAMS:
        p = params_from_iota3(iota3, beta=beta, gamma=gamma)
        traj = integrate_contrast(p, f_cap=1e8)
        blowup_ladder(traj)
        blowup_bracket(p)
        for f_target in np.geomspace(p.beta * 1.01, 1e8, 40):
            traj.time_of_contrast(float(f_target))
    assert len(roots) == len(_ORACLE_PARAMS) * (1 + 5 + 1 + 39)  # f = 1e8 is t_end


_ORACLE_PARAMS = [(0.2, 0.1, 0.5), (0.2, 0.1, 0.9), (0.05, 0.5, 0.3), (0.15, 0.02, 1.0)]


def test_integrate_contrast_equals_scipy_rk45():
    # every cap and tolerance steps the same as scipy, rejected steps included
    rejected = 0
    for iota3, beta, gamma in _ORACLE_PARAMS:
        p = params_from_iota3(iota3, beta=beta, gamma=gamma)
        for f_cap in (1e3, 1e4, 1e6, 1e8):
            for rel_tol in (1e-6, 1e-9, 1e-12):
                controls = ToleranceSpec(rel_tol=rel_tol)
                res = _scipy_rk45(p, f_cap, controls)
                _assert_equals_scipy(integrate_contrast(p, f_cap, controls), res)
                assert res.status == 1
                # each trial step makes 6 rhs calls, the first step's choice 2
                rejected += (res.nfev - 2) // 6 - (len(res.t) - 1)
    assert rejected > 0


def test_integrate_contrast_stops_at_the_ceiling_as_scipy(params):
    controls = ToleranceSpec(t_ceiling=3.0)
    traj = integrate_contrast(params, f_cap=1e8, controls=controls)
    res = _scipy_rk45(params, 1e8, controls)
    assert res.status == 0
    assert (len(traj.t_grid), traj.t_end, traj.reached_cap) == (141, 3.0, False)  # 140 steps
    _assert_equals_scipy(traj, res)


def test_integrate_contrast_fails_where_scipy_fails(params):
    # at f_cap = 1e30 the step size falls below the spacing of the floats near t
    # (scipy's status -1) before f reaches the cap
    res = _scipy_rk45(params, 1e30, ToleranceSpec())
    assert res.status == -1
    assert res.message == "Required step size is less than spacing between numbers."
    assert f"{res.t[-1]:.12g}" == "4.189808361"
    where = f"stopped at t={res.t[-1]:.12g} with f={math.expm1(res.y[0, -1]):.6g}: {res.message}"
    with pytest.raises(NumericalFailure, match=re.escape(where)):
        integrate_contrast(params, f_cap=1e30)


def test_dense_output_arrays_equal_scipy(scipy_oracle):
    traj, sol = scipy_oracle
    ts = sol.ts
    assert ts.size > 500
    queries = {"breakpoints": ts, "step midpoints": 0.5 * (ts[:-1] + ts[1:]),
               "t0": ts[:1], "t_end": np.array([traj.t_end]),
               "outside": np.array([np.nextafter(ts[0], 0.0), ts[0] - 1e-3,
                                    np.nextafter(ts[-1], np.inf), ts[-1] + 1e-3])}
    for refine in (2, 4):
        t = _refined_grid(traj, refine)
        queries[f"refined grid {refine}"] = t
        queries[f"refined midpoints {refine}"] = 0.5 * (t[:-1] + t[1:])
        queries[f"refined grid {refine}, ends dropped"] = t[1:-1]
    for name, t in queries.items():
        y, yp = np.array([sol(tq) for tq in t.tolist()]).T  # scipy read one time per call
        f, f0 = traj.f_f0_at(t)
        assert np.array_equal(f, np.expm1(y)), name
        assert np.array_equal(f0, yp * np.exp(y)), name


def test_dense_output_scalars_equal_scipy(scipy_oracle):
    traj, sol = scipy_oracle
    rng = np.random.default_rng(20240)
    times = rng.uniform(sol.ts[0], sol.ts[-1], 2000).tolist() + sol.ts[::7].tolist()
    for t in times:
        y, yp = sol(t)
        f, f0 = float(np.expm1(y)), float(yp * np.exp(y))
        assert traj.f_f0_at(t) == (f, f0), t
        assert traj.f_f0_at(np.float64(t)) == (f, f0), t
    for f_target in (1.0, 1e3, 1e8 / 3.0):
        y_t = math.log1p(f_target)
        root = brentq(lambda t: sol(t)[0] - y_t, sol.ts[0], traj.t_end, xtol=1e-14, rtol=8.9e-16)
        assert traj.time_of_contrast(f_target) == root


def test_dense_output_polynomial_equals_scipy(scipy_oracle):
    # With every step's y_old set to zero the interpolant's sum is not rounded
    # into y_old, so a change in the order of its four terms shows in far more
    # values than it does through y_old at this tolerance.
    traj, sol = scipy_oracle
    dense = traj._sol
    poly = type(dense)(dense.ts, dense.t_old, dense.h, dense.Q, np.zeros_like(dense.y_old))
    oracle = OdeSolution(sol.ts, [rk.RkDenseOutput(s.t_old, s.t, np.zeros(2), s.Q)
                                  for s in sol.interpolants])
    t = _refined_grid(traj, 2)
    for q in (t, 0.5 * (t[:-1] + t[1:]), sol.ts, 0.5 * (sol.ts[:-1] + sol.ts[1:])):
        assert np.array_equal(poly(q), np.array([oracle(tq) for tq in q.tolist()]).T)
    rng = np.random.default_rng(7)
    for tq in rng.uniform(sol.ts[0], sol.ts[-1], 2000).tolist():
        assert poly.scalar(tq) == tuple(oracle(tq)), tq


def test_bracket_bisection_oracle(params):
    ec = envelope_constants(params)
    t_star, t_star_up = blowup_bracket(params)
    lo, hi = 1.5, 3.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ec.bracket_fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    assert abs(t_star - 0.5 * (lo + hi)) < 1e-10
    assert abs(t_star - 2.01) < 1e-2
    # upper end closed form: gamma = 0.5 -> (1 - 1/(3 gamma))^-3 = 27
    assert t_star_up == pytest.approx(27.0, rel=1e-12)
    assert 1.0 < t_star < t_star_up


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
    with pytest.raises(UsageError, match="t_ceiling"):
        integrate_contrast(params, controls=ToleranceSpec(t_ceiling=params.t0))


@pytest.mark.parametrize("tolerances", [{"rel_tol": 1e-15}, {"rel_tol": 0.0},
                                        {"abs_tol": 0.0}, {"abs_tol": -1e-14}])
def test_tolerances_out_of_range_refused(tolerances):
    # below 100 eps scipy silently raised rel_tol to 2.22e-14 (with a warning)
    with pytest.raises(UsageError):
        ToleranceSpec(**tolerances)
    ToleranceSpec(rel_tol=100.0 * np.finfo(float).eps)
