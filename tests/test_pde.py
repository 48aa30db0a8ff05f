import numpy as np
import pytest
from scipy.integrate import DOP853
from scipy.integrate._ivp import dop853_coefficients, rk

from conftest import assert_order_conditions, cosine_profiles, flat_profiles
from jeanslab import contrast_ode, pde
from jeanslab.errors import UsageError
from jeanslab.pde import (EvolveControls, FieldState, compute_psi,
                          continuity_residual, data_smallness, diff1, diff2,
                          entropy_field, evolve, init_from_data,
                          psi_brute_force, rhs, zeta_grid)


# ---------------------------------------------------------------------------
# stencils


@pytest.mark.parametrize("n", [16, 128])
def test_stencils_equal_roll_formulas(n):
    # the padded-slice stencils keep the np.roll formulas' terms in order,
    # so every element agrees bit for bit
    rng = np.random.default_rng(n)
    for _ in range(3):
        u = rng.standard_normal(n)
        h = 1.0 / n
        d1_roll = (-np.roll(u, -2) + 8.0 * np.roll(u, -1)
                   - 8.0 * np.roll(u, 1) + np.roll(u, 2)) / (12.0 * h)
        d2_roll = (-np.roll(u, -2) + 16.0 * np.roll(u, -1) - 30.0 * u
                   + 16.0 * np.roll(u, 1) - np.roll(u, 2)) / (12.0 * h * h)
        assert np.array_equal(diff1(u, h), d1_roll)
        assert np.array_equal(diff2(u, h), d2_roll)


# ---------------------------------------------------------------------------
# rescaled gravity


def test_psi_constant():
    psi = compute_psi(np.full(64, 0.7))
    assert np.max(np.abs(psi - 0.7 / 3.0)) < 1e-15


def test_psi_single_mode_exact():
    n = 256
    z = zeta_grid(n)
    psi = compute_psi(np.cos(2.0 * np.pi * z))
    exact = (3.0 * np.cos(2.0 * np.pi * z) + 2.0 * np.pi * np.sin(2.0 * np.pi * z)) \
        / (9.0 + 4.0 * np.pi**2)
    assert np.max(np.abs(psi - exact)) < 1e-14


def test_psi_brute_force_oracle():
    n = 128
    z = zeta_grid(n)
    u = np.cos(2.0 * np.pi * z) + 0.3 * np.sin(4.0 * np.pi * z)
    psi = compute_psi(u)
    oracle = psi_brute_force(
        lambda zz: np.cos(2.0 * np.pi * zz) + 0.3 * np.sin(4.0 * np.pi * zz), z[:12])
    assert np.max(np.abs(psi[:12] - oracle)) < 1e-8


def test_psi_shift_equivariance():
    n = 256
    z = zeta_grid(n)
    u = np.exp(np.sin(2.0 * np.pi * z))
    for m in (1, 37, 128):
        assert np.max(np.abs(compute_psi(np.roll(u, m)) - np.roll(compute_psi(u), m))) < 1e-12


def test_psi_ode_defect_order():
    defects = {}
    for n in (32, 64, 128, 256):
        z = zeta_grid(n)
        u = np.exp(np.sin(2.0 * np.pi * z))
        psi = compute_psi(u)
        defects[n] = np.max(np.abs(diff1(psi, 1.0 / n) - (u - 3.0 * psi)))
    orders = [np.log2(defects[n] / defects[2 * n]) for n in (32, 64, 128)]
    assert min(orders) >= 3.5


def test_psi_equals_uncached_expression():
    rng = np.random.default_rng(5)
    for n in (16, 64, 128, 64):
        u = rng.standard_normal(n)
        k = np.fft.rfftfreq(n, d=1.0 / n)
        direct = np.fft.irfft(np.fft.rfft(u) / (3.0 + 2.0j * np.pi * k), n=n)
        assert np.array_equal(compute_psi(u), direct)


def test_psi_linf_bound():
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = rng.standard_normal(64)
        u = np.real(np.fft.ifft(np.fft.fft(u) * (np.abs(np.fft.fftfreq(64, 1 / 64)) < 8)))
        assert np.max(np.abs(compute_psi(u))) <= np.max(np.abs(u)) / 3.0 + 1e-12


# ---------------------------------------------------------------------------
# initial data


def test_homogeneous_init(params):
    d, v = flat_profiles()
    st = init_from_data(params, d, v, 64)
    assert np.allclose(st.rho_hat, params.beta, atol=1e-15)
    assert np.allclose(st.drho_dt, params.beta0, atol=1e-14)
    assert np.max(np.abs(st.nu)) == 0.0
    assert np.max(np.abs(st.psi)) < 1e-16


def test_cosine_init_mean(params):
    eps = 1e-3
    d, v = cosine_profiles(params, eps)
    st = init_from_data(params, d, v, 128)
    u = (st.rho_hat - params.beta) / params.beta
    # mean of u equals the eps-weighted mean of the profile deviation (= 0 here)
    assert abs(np.mean(u) - eps * np.mean(np.cos(2 * np.pi * st.zeta))) < 1e-14
    assert np.max(np.abs(u - eps * np.cos(2.0 * np.pi * st.zeta))) < 1e-14


def test_data_smallness_scales(params):
    d, v = cosine_profiles(params, 1e-3)
    st = init_from_data(params, d, v, 128)
    sm = data_smallness(st, params)
    assert 1e-3 < sm < 1.0  # dominated by the derivative of the cosine mode


def test_nonperiodic_profile_rejected(params):
    with pytest.raises(UsageError, match="log-periodic"):
        init_from_data(params, lambda r: 1.0 + 0.01 * np.log(r), lambda r: -np.ones_like(r), 64)


def test_grid_validation():
    with pytest.raises(UsageError):
        zeta_grid(8)
    with pytest.raises(UsageError):
        zeta_grid(33)


# ---------------------------------------------------------------------------
# right-hand side


def _y(st):
    return np.stack((st.rho_hat, st.drho_dt, st.nu))


def test_rhs_homogeneous_reduces_to_ode(traj, params):
    d, v = flat_profiles()
    st = init_from_data(params, d, v, 64)
    d_rho, d_drho, d_nu = rhs(st.t, _y(st), traj)
    t0, beta, beta0 = params.t0, params.beta, params.beta0
    fpp = (-(4.0 / (3.0 * t0)) * beta0 + (2.0 / (3.0 * t0**2)) * beta * (1.0 + beta)
           + (4.0 / 3.0) * beta0**2 / (1.0 + beta))
    assert np.max(np.abs(d_rho - beta0)) < 1e-14
    assert np.max(np.abs(d_drho - fpp)) / abs(fpp) < 1e-10
    assert np.max(np.abs(d_nu)) < 1e-14


def test_wave_speed_positive_homogeneous(traj, params):
    d, v = flat_profiles()
    st = init_from_data(params, d, v, 64)
    gzz, g0z = pde.wave_coefficients(st.t, st.rho_hat, st.nu, params.beta,
                                     params.beta0, params)
    i3, om = params.iota**3, params.omega
    expect = (2.0 + om) * (1.0 - i3) * (1.0 + params.beta) / 9.0
    assert np.allclose(gzz, expect, rtol=1e-13)
    assert np.all(gzz > 0.0)
    assert np.max(np.abs(g0z)) == 0.0


def test_rhs_translation_equivariance(traj, params):
    # no explicit zeta dependence: shifting the data shifts the flow exactly
    n = 64
    d, v = cosine_profiles(params, 5e-3, eps_v=2e-3)
    st = init_from_data(params, d, v, n)
    out = rhs(st.t, _y(st), traj)
    m = 17

    def shift(a):
        return np.roll(a, m)

    st_s = FieldState(t=st.t, zeta=st.zeta, rho_hat=shift(st.rho_hat),
                      drho_dt=shift(st.drho_dt), nu=shift(st.nu), psi=shift(st.psi))
    out_s = rhs(st_s.t, _y(st_s), traj)
    for a, b in zip(out, out_s):
        assert np.max(np.abs(shift(a) - b)) < 1e-12


def test_gravity_is_chiral(traj, params):
    # reflection zeta -> -zeta is NOT a symmetry: the one-sided gravity
    # integral weights interior mass, so even reflection-symmetric data
    # drives a reflection-asymmetric pull (single cosine mode: the sine
    # component of psi flips sign under reflection)
    n = 64
    z = zeta_grid(n)
    psi = compute_psi(np.cos(2.0 * np.pi * z))

    def refl(a):
        return np.roll(a[::-1], 1)

    assert np.max(np.abs(refl(psi) - psi)) > 1e-3


def test_rhs_hyperbolicity_loss(traj, params):
    d, v = cosine_profiles(params, 1e-3, eps_v=4.0)  # huge speed perturbation
    st = init_from_data(params, d, v, 64)
    with pytest.raises(pde.HyperbolicityLossError, match="hyperbolicity loss"):
        rhs(st.t, _y(st), traj)


def test_rhs_vacuum_guard(traj, params):
    d, v = flat_profiles()
    st = init_from_data(params, d, v, 64)
    st.rho_hat = st.rho_hat - 2.0
    with pytest.raises(pde.VacuumError, match="vacuum"):
        rhs(st.t, _y(st), traj)


def test_rhs_vacuum_guard_is_typed(traj, params):
    d, v = flat_profiles()
    st = init_from_data(params, d, v, 64)
    st.rho_hat = st.rho_hat - 2.0
    with pytest.raises(pde.VacuumError):
        rhs(st.t, _y(st), traj)


# ---------------------------------------------------------------------------
# evolution


def test_homogeneous_manifold_preserved(traj, params):
    d, v = flat_profiles()
    st = init_from_data(params, d, v, 64)
    res = evolve(st, traj, f_cap=100.0)
    assert res.stop_reason == "f_cap"
    dev = max(float(np.max(np.abs(s.rho_hat - traj.f_f0_at(s.t)[0]))) for s in res.states)
    nu_sup = max(float(np.max(np.abs(s.nu))) for s in res.states)
    assert dev < 1e-6
    assert nu_sup < 1e-8


def test_homogeneous_preserved_second_parameter_set():
    from jeanslab.contrast_ode import ToleranceSpec, integrate_contrast
    from jeanslab.params import params_from_iota3

    p = params_from_iota3(0.05, beta=0.5, gamma=0.7, lam=0.3, A=0.8)
    tr = integrate_contrast(p, f_cap=2e3, controls=ToleranceSpec())
    d, v = flat_profiles()
    st = init_from_data(p, d, v, 64)
    res = evolve(st, tr, f_cap=100.0)
    assert res.stop_reason == "f_cap"
    dev = max(float(np.max(np.abs(s.rho_hat - tr.f_f0_at(s.t)[0]))) for s in res.states)
    assert dev < 1e-6
    assert max(float(np.max(np.abs(s.nu))) for s in res.states) < 1e-8


def test_perturbed_ratio_envelope(traj, params):
    d, v = cosine_profiles(params, 1e-3)
    st = init_from_data(params, d, v, 64)
    res = evolve(st, traj, f_cap=1e3)
    m = res.monitors.as_arrays()
    assert np.all(m["ratio_rho_min"] > 0.9)
    assert np.all(m["ratio_rho_max"] < 1.1)
    assert max(m["continuity_residual"]) < 1e-6


def test_self_convergence_order(traj, params):
    d, v = cosine_profiles(params, 0.05)
    t_end = 1.35
    finals = {}
    for n in (32, 64, 128):
        st = init_from_data(params, d, v, n)
        finals[n] = evolve(st, traj, t_end=t_end,
                           controls=EvolveControls(out_target=2)).final
    d1 = np.max(np.abs(finals[32].rho_hat - finals[64].rho_hat[::2]))
    d2 = np.max(np.abs(finals[64].rho_hat - finals[128].rho_hat[::2]))
    assert np.log2(d1 / d2) >= 3.5


def test_error_proportional_to_pde_rtol(traj, params):
    # fixed grid and snapshot schedule, tolerance refined: against a tight
    # reference the largest error in rho_hat/f stays below pde_rtol and falls
    # about in proportion to it, leaving the stepper's own accuracy
    d, v = cosine_profiles(params, 0.05)
    st = init_from_data(params, d, v, 32)

    def states(rtol):
        return evolve(st, traj, f_cap=100.0,
                      controls=EvolveControls(pde_rtol=rtol, out_target=8)).states

    ref = states(1e-12)
    errs = {}
    for rtol in (1e-8, 1e-9, 1e-10):
        run = states(rtol)
        assert [s.t for s in run] == [o.t for o in ref]
        errs[rtol] = max(float(np.max(np.abs(s.rho_hat - o.rho_hat))) / traj.f_f0_at(o.t)[0]
                         for s, o in zip(run, ref))
        assert 0.01 * rtol < errs[rtol] < rtol
    assert 0.75 <= np.log10(errs[1e-8] / errs[1e-10]) / 2.0 <= 1.5


def _rk4_step_per_component(state, dt, traj):
    # the per-component form of the RK4 step, as an oracle: stage FieldStates
    # carrying the step's initial psi, one update line per field, and psi
    # recomputed after every step
    def as_vec(s):
        return s.rho_hat, s.drho_dt, s.nu

    def mk(t, r, rt, nu):
        return FieldState(t=t, zeta=state.zeta, rho_hat=r, drho_dt=rt, nu=nu,
                          psi=state.psi)

    def stage_rhs(s):
        return pde.rhs(s.t, _y(s), traj)

    t = state.t
    r0, rt0, nu0 = as_vec(state)
    k1 = stage_rhs(state)
    s2 = mk(t + 0.5 * dt, r0 + 0.5 * dt * k1[0], rt0 + 0.5 * dt * k1[1], nu0 + 0.5 * dt * k1[2])
    k2 = stage_rhs(s2)
    s3 = mk(t + 0.5 * dt, r0 + 0.5 * dt * k2[0], rt0 + 0.5 * dt * k2[1], nu0 + 0.5 * dt * k2[2])
    k3 = stage_rhs(s3)
    s4 = mk(t + dt, r0 + dt * k3[0], rt0 + dt * k3[1], nu0 + dt * k3[2])
    k4 = stage_rhs(s4)
    r = r0 + (dt / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    rt = rt0 + (dt / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    nu = nu0 + (dt / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    t_new = t + dt
    f_new, _ = traj.f_f0_at(t_new)
    psi = compute_psi((r - f_new) / f_new)
    return FieldState(t=t_new, zeta=state.zeta, rho_hat=r, drho_dt=rt, nu=nu, psi=psi)


def _rk4_reference(state, times, traj, substeps=50):
    # fine fixed-step RK4 from each time to the next, landing on every time
    out, cur = [], state
    for t in times:
        dt = (t - cur.t) / substeps
        for _ in range(substeps):
            cur = _rk4_step_per_component(cur, dt, traj)
        cur.t = t
        out.append(cur)
    return out


def _vacuum_after(n_calls):
    # pde.rhs that raises VacuumError on its (n_calls + 1)-th call
    calls = [0]
    inner = pde.rhs

    def counted(*args, **kwargs):
        calls[0] += 1
        if calls[0] > n_calls:
            raise pde.VacuumError("vacuum formation")
        return inner(*args, **kwargs)
    return counted, calls


# the ids name the stencil too, fourth-order differences, the only one evolve has
@pytest.mark.parametrize("vacuum_after", [None, 40], ids=["None-fd4", "40-fd4"])
def test_evolve_matches_fine_rk4_reference(traj, params, monkeypatch, vacuum_after):
    # every stored state, dense-output snapshots and step ends alike, agrees
    # with a fine fixed-step RK4 run to well within pde_rtol; a vacuum stop
    # mid-run ends with the last accepted state, off the snapshot schedule
    d, v = cosine_profiles(params, 0.05)
    st = init_from_data(params, d, v, 32)
    controls = EvolveControls(out_target=4)
    if vacuum_after is not None:
        counted, calls = _vacuum_after(vacuum_after)
        monkeypatch.setattr(pde, "rhs", counted)
    res = evolve(st, traj, t_end=1.5, controls=controls)
    monkeypatch.undo()
    schedule = pde.snapshot_times(traj, st.t, 1.5, 4)
    times = [s.t for s in res.states[1:]]
    if vacuum_after is None:
        assert res.stop_reason == "t_end"
        assert times == list(schedule)
    else:
        assert res.stop_reason == "vacuum"
        assert res.n_rhs == calls[0] == vacuum_after + 1
        assert times[:-1] == list(schedule[:len(times) - 1])
        assert times[-1] not in schedule and 1 <= res.n_steps
    ref = _rk4_reference(st, times, traj)
    for s, o in zip(res.states[1:], ref):
        for name in ("rho_hat", "drho_dt", "nu"):
            assert np.max(np.abs(getattr(s, name) - getattr(o, name))) < 1e-11, (s.t, name)
        assert np.max(np.abs(s.psi - o.psi)) < 1e-11
    m = res.monitors.as_arrays()
    assert np.array_equal(m["t"], [st.t, *times])


def _failing_rhs(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def test_evolve_stops_on_vacuum(traj, params, monkeypatch):
    d, v = flat_profiles()
    st = init_from_data(params, d, v, 64)
    monkeypatch.setattr(pde, "rhs", _failing_rhs(pde.VacuumError("vacuum formation")))
    res = evolve(st, traj, t_end=2.0)
    assert res.stop_reason == "vacuum"
    assert res.n_steps == 0


def test_evolve_propagates_other_value_errors(traj, params, monkeypatch):
    # only VacuumError means vacuum; any other ValueError from a step is a fault
    d, v = flat_profiles()
    st = init_from_data(params, d, v, 64)
    monkeypatch.setattr(pde, "rhs", _failing_rhs(ValueError("not a vacuum")))
    with pytest.raises(ValueError, match="not a vacuum"):
        evolve(st, traj, t_end=2.0)


def test_evolve_requires_stop_rule(traj, params):
    d, v = flat_profiles()
    st = init_from_data(params, d, v, 64)
    with pytest.raises(UsageError):
        evolve(st, traj)


def test_evolve_dt_underflow_diagnostic(traj, params, monkeypatch):
    # an rhs that turns to NaN after the solver's two start-up calls fails
    # every error test until the step size underflows: the diagnostic stop,
    # with the initial state intact and every trial step counted as rejected
    d, v = flat_profiles()
    st = init_from_data(params, d, v, 64)
    calls, inner = [0], pde.rhs

    def nan_after_start(*args, **kwargs):
        calls[0] += 1
        out = inner(*args, **kwargs)
        return out if calls[0] <= 2 else np.full_like(out, np.nan)

    monkeypatch.setattr(pde, "rhs", nan_after_start)
    res = evolve(st, traj, t_end=2.0)
    assert res.stop_reason == "dt_underflow"
    assert res.final is st and len(res.states) == 1
    assert res.n_steps == 0 and res.n_rejected >= 10
    assert res.n_rhs == calls[0] == 2 + 12 * res.n_rejected


def test_evolve_stops_on_nan_derivatives_from_the_start(traj, params, monkeypatch):
    # NaN at the first call makes the first step size NaN, which no error test
    # can reject down to the underflow limit: the march stops before any trial
    d, v = flat_profiles()
    st = init_from_data(params, d, v, 64)
    monkeypatch.setattr(pde, "rhs", lambda t, y, *args: np.full_like(y, np.nan))
    res = evolve(st, traj, t_end=2.0)
    assert res.stop_reason == "dt_underflow"
    assert res.final is st and (res.n_steps, res.n_rejected, res.n_rhs) == (0, 0, 2)


def test_evolve_reports_its_work(traj, params, monkeypatch):
    d, v = cosine_profiles(params, 1e-3)
    st = init_from_data(params, d, v, 32)
    calls, inner = [0], pde.rhs

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(pde, "rhs", counted)
    res = evolve(st, traj, f_cap=100.0, controls=EvolveControls(out_target=3))
    assert res.n_rhs == calls[0]
    # two start-up calls, 12 stages per trial step, 3 extra per dense output
    dense = res.n_rhs - 2 - 12 * (res.n_steps + res.n_rejected)
    assert dense % 3 == 0 and 0 <= dense // 3 <= 3
    assert 0.0 < res.dt_min <= res.dt_max


def test_dop853_tableau_and_controller_equal_scipy():
    for mine, theirs in ((pde._D8_C, dop853_coefficients.C), (pde._D8_A, dop853_coefficients.A),
                         (pde._D8_B, DOP853.B), (pde._D8_E3, DOP853.E3),
                         (pde._D8_E5, DOP853.E5), (pde._D8_D, DOP853.D)):
        assert mine.shape == theirs.shape and np.array_equal(mine, theirs)
    assert pde._D8_STAGES == DOP853.n_stages
    # the step factor is the contrast integration's, read through pde
    assert pde._step_factor is contrast_ode._step_factor
    assert (contrast_ode._SAFETY, contrast_ode._MIN_FACTOR, contrast_ode._MAX_FACTOR) \
        == (rk.SAFETY, rk.MIN_FACTOR, rk.MAX_FACTOR)
    assert pde._D8_ERROR_EXPONENT == -1 / (DOP853.error_estimator_order + 1)


def test_dop853_order_conditions():
    assert_order_conditions(pde._D8_C, pde._D8_A, pde._D8_B, 8)


def _scipy_dop853(st, traj, t_stop, controls):
    """scipy's DOP853 marching the flattened state as evolve did through scipy: the
    dense-output states at the snapshot times and its own count of the work."""
    n, calls = st.n, [0]

    def fun(t, y):
        calls[0] += 1
        return rhs(t, y.reshape(3, n), traj).reshape(-1)

    out_t = pde.snapshot_times(traj, st.t, t_stop, controls.out_target)
    solver = DOP853(fun, st.t, np.stack((st.rho_hat, st.drho_dt, st.nu)).reshape(-1), t_stop,
                    rtol=controls.pde_rtol, atol=pde._ATOL_PER_RTOL * controls.pde_rtol)
    states, trials, steps, k = [], 0, [], 0
    while solver.status == "running":
        before = calls[0]
        solver.step()
        trials += (calls[0] - before) // solver.n_stages
        steps.append(solver.step_size)
        m = int(np.searchsorted(out_t, solver.t, side="right"))
        if m > k:
            states += zip(out_t[k:m], solver.dense_output()(out_t[k:m]).T)
            k = m
    return states, (len(steps), trials - len(steps), calls[0], min(steps), max(steps))


@pytest.mark.parametrize("n", [32, 128])
@pytest.mark.parametrize("pde_rtol", [1e-10, 1e-8])
def test_evolve_equals_scipy_dop853(traj, params, n, pde_rtol):
    # every stored state and the reported work, rejected steps included
    d, v = cosine_profiles(params, 0.05)
    st = init_from_data(params, d, v, n)
    controls = EvolveControls(pde_rtol=pde_rtol, out_target=20)
    res = evolve(st, traj, f_cap=100.0, controls=controls)
    states, work = _scipy_dop853(st, traj, res.final.t, controls)
    assert (res.n_steps, res.n_rejected, res.n_rhs, res.dt_min, res.dt_max) == work
    assert len(res.states) == 1 + len(states) == 1 + controls.out_target
    for s, (t, y) in zip(res.states[1:], states):
        assert s.t == t
        assert np.array_equal(np.stack((s.rho_hat, s.drho_dt, s.nu)), y.reshape(3, n))
    assert res.n_rejected > 0


def test_snapshot_schedule(traj, params):
    # out_target states after the initial one, at the precomputed times, which
    # are uniform in ln(1+f) and end exactly at the stop time
    d, v = cosine_profiles(params, 1e-3)
    st = init_from_data(params, d, v, 32)
    res = evolve(st, traj, f_cap=100.0, controls=EvolveControls(out_target=7))
    t_stop = traj.time_of_contrast(100.0)
    schedule = pde.snapshot_times(traj, st.t, t_stop, 7)
    assert len(res.states) == len(res.monitors.t) == 8
    assert [s.t for s in res.states[1:]] == list(schedule)
    assert res.final.t == schedule[-1] == t_stop
    gaps = np.diff(np.log1p(traj.f_f0_at(np.array([st.t, *schedule]))[0]))
    assert np.max(np.abs(gaps / gaps[0] - 1.0)) < 1e-9


def test_evolve_rejects_empty_schedule(traj, params):
    d, v = flat_profiles()
    st = init_from_data(params, d, v, 32)
    with pytest.raises(UsageError, match="out_target"):
        evolve(st, traj, f_cap=10.0, controls=EvolveControls(out_target=0))
    with pytest.raises(UsageError, match="not after the initial time"):
        evolve(st, traj, t_end=st.t)


def test_solution_shift_equivariance(traj, params):
    # integer grid shifts of the data shift the whole evolution: the discrete
    # counterpart of solutions being periodic modulo unit translations
    n, m = 64, 11
    d, v = cosine_profiles(params, 2e-3, eps_v=1e-3)
    st = init_from_data(params, d, v, n)
    shifted = FieldState(t=st.t, zeta=st.zeta, rho_hat=np.roll(st.rho_hat, m),
                         drho_dt=np.roll(st.drho_dt, m), nu=np.roll(st.nu, m),
                         psi=np.roll(st.psi, m))
    r1 = evolve(st, traj, t_end=1.2, controls=EvolveControls(out_target=2))
    r2 = evolve(shifted, traj, t_end=1.2, controls=EvolveControls(out_target=2))
    assert r1.final.t == r2.final.t
    assert np.max(np.abs(np.roll(r1.final.rho_hat, m) - r2.final.rho_hat)) < 1e-12
    assert np.max(np.abs(np.roll(r1.final.nu, m) - r2.final.nu)) < 1e-12


def test_psi_consistency_along_run(traj, params):
    # the stored gravity satisfies its defining relation at every output time
    d, v = cosine_profiles(params, 1e-2)
    st = init_from_data(params, d, v, 64)
    res = evolve(st, traj, f_cap=20.0)
    for s in res.states[:: max(1, len(res.states) // 6)]:
        f = traj.f_f0_at(s.t)[0]
        u = (s.rho_hat - f) / f
        defect = diff1(s.psi, 1.0 / s.n) - (u - 3.0 * s.psi)
        assert np.max(np.abs(defect)) < 1e-5 * max(1.0, np.max(np.abs(u)))


# ---------------------------------------------------------------------------
# continuity identity and entropy


def test_continuity_homogeneous_zero(traj, params):
    d, v = flat_profiles()
    st = init_from_data(params, d, v, 64)
    assert continuity_residual(st, traj) < 1e-12


def test_continuity_detects_corruption(traj, params):
    d, v = cosine_profiles(params, 1e-3)
    st = init_from_data(params, d, v, 64)
    base = continuity_residual(st, traj)
    assert base < 1e-10  # construction enforces the identity at t0
    st.nu[7] += 0.1
    assert continuity_residual(st, traj) > 1e-2


def test_continuity_propagated(traj, params):
    d, v = cosine_profiles(params, 1e-3)
    st = init_from_data(params, d, v, 64)
    res = evolve(st, traj, f_cap=100.0)
    assert max(res.monitors.continuity_residual) < 1e-7


def test_entropy_reduces_to_reference(traj, params):
    d, v = flat_profiles()
    st = init_from_data(params, d, v, 64)
    t = st.t
    f = traj.f_f0_at(t)[0]
    s = entropy_field(st, traj)
    x_abs = t ** (2.0 / 3.0) * (1.0 + f) ** (-1.0 / 3.0) * np.exp(st.zeta)
    s_ref = np.log(t ** (-4.0 / 3.0) * (1.0 + f) ** (2.0 / 3.0) * x_abs**2)
    assert np.max(np.abs(s - s_ref)) < 1e-12


def test_entropy_matches_initial_data(traj, params):
    eps = 1e-2
    d, v = cosine_profiles(params, eps)
    st = init_from_data(params, d, v, 64)
    om = params.omega
    beta = params.beta
    x_abs = (1.0 + beta) ** (-1.0 / 3.0) * np.exp(st.zeta)
    d_vals = 1.0 + eps * np.cos(2.0 * np.pi * st.zeta)
    s_data = np.log((1.0 + beta * d_vals) ** (2.0 / 3.0 + om)
                    / (1.0 + beta) ** om * x_abs**2)
    assert np.max(np.abs(entropy_field(st, traj) - s_data)) < 1e-12


def test_entropy_monotone_in_contrast(traj, params):
    d, v = flat_profiles()
    st = init_from_data(params, d, v, 64)
    s0 = entropy_field(st, traj)
    st.rho_hat = st.rho_hat + 0.05
    s1 = entropy_field(st, traj)
    assert np.all(s1 < s0)  # negative contrast exponent
