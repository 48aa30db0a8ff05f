import numpy as np
import pytest

from jeanslab.contrast_ode import ToleranceSpec, integrate_contrast
from jeanslab.params import params_from_iota3
from jeanslab.timemaps import (_refined_grid, check_G_decay, compute_g,
                               dchi_dt_analytic, invert_tau, terminal_window)


def test_endpoints(maps, params):
    assert maps.g[0] == pytest.approx(1.0, abs=1e-14)
    assert maps.tau[0] == pytest.approx(-1.0, abs=1e-14)
    assert np.all(np.diff(maps.g) < 0.0)
    assert np.all((maps.g > 0.0) & (maps.g <= 1.0))
    assert maps.xi[0] == pytest.approx(1.0 / (1.0 + params.beta), rel=1e-12)


def test_representation_agreement(maps):
    assert maps.representation_gap < 1e-6


def test_g_derivative_identity(maps, params):
    # numerical dg/dt vs closed form, second-order differences on the graded grid
    a, b, c, A, B = (params.ode_a, params.ode_b, params.ode_c, params.A, params.B)
    t, g = maps.t_grid, maps.g
    hl = t[1:-1] - t[:-2]
    hr = t[2:] - t[1:-1]
    dg = (hl**2 * g[2:] + (hr**2 - hl**2) * g[1:-1] - hr**2 * g[:-2]) / (hl * hr * (hl + hr))
    dg_ana = -A * B * g ** (b / A + 1.0) * t ** (a - 2.0) * maps.f * (1.0 + maps.f) ** (1.0 - c)
    rel = np.abs(dg - dg_ana[1:-1]) / np.abs(dg_ana[1:-1])
    assert rel.max() < 1e-4


def test_g_small_near_blowup(maps):
    # canonical run reaches contrast 1e6 with g under 1e-2
    assert maps.f[-1] >= 1e6 * (1.0 - 1e-6)
    assert maps.g[-1] < 1e-2


def test_invert_tau_roundtrip(maps):
    assert invert_tau(maps, -1.0) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(3)
    tq = rng.uniform(maps.tau[0], maps.tau[-1], 100)
    t_back = invert_tau(maps, tq)
    assert np.max(np.abs(maps.tau_at(t_back) - tq)) < 1e-8
    # monotone
    order = np.argsort(tq)
    assert np.all(np.diff(np.asarray(t_back)[order]) > 0.0)
    with pytest.raises(ValueError):
        invert_tau(maps, -1.5)


def test_chi_positive_and_terminal(maps, params):
    assert np.all(maps.chi > 0.0)
    w = terminal_window(maps, 1e6)
    assert np.max(np.abs(maps.chi[w] - params.chi_limit()) / params.chi_limit()) < 0.05
    assert np.allclose(maps.chi, params.chi_limit() + maps.G_frak)


def test_rate_ratio_identity(maps, params):
    # (1+f)/(t f') equals sqrt(B/(chi f)) pointwise
    lhs = (1.0 + maps.f) / (maps.t_grid * maps.f0)
    rhs = np.sqrt(params.B / (maps.chi * maps.f))
    assert np.max(np.abs(lhs - rhs) / rhs) < 1e-6


def test_xi_eta_window_limits(maps_window, params_window):
    w = terminal_window(maps_window, 1e6)
    assert maps_window.xi[w].max() < 1e-2
    assert maps_window.eta[2.0][w].max() < 1e-2
    # xi decreasing near blowup
    tail = maps_window.xi[-50:]
    assert np.all(np.diff(tail) < 0.0)


def test_eta2_sub_1e3_for_fast_collapse():
    # eta_2 drops below 1e-3 by contrast 1e6 for strongly kicked data (A = 1)
    p = params_from_iota3(0.2, beta=0.1, gamma=1.0, lam=0.1, A=1.0)
    tr = integrate_contrast(p, f_cap=1e6, controls=ToleranceSpec(1e-12, 1e-14))
    mp = compute_g(tr, p, refine=4, thetas=(2.0,))
    w = terminal_window(mp, 1e6)
    eta2 = mp.eta[2.0]
    assert eta2[w].max() < 1e-3
    assert np.all(np.diff(eta2[-50:]) < 0.0)


def test_theta_hypothesis_rejected(traj, params):
    with pytest.raises(ValueError, match="decay hypothesis"):
        compute_g(traj, params, thetas=(4.5,))


def test_G_decay_fit(maps, params):
    rep = check_G_decay(maps, params)
    assert rep.slope >= 0.4
    assert rep.dchi_rel_err < 1e-3
    assert rep.n_points > 20
    # the deviation G is single-signed over the terminal decade
    assert not rep.zero_crossings_excised


def test_G_decay_flags_crossing(maps, params):
    # widening the window past the sign change of G must be flagged
    rep = check_G_decay(maps, params, decades=3.0)
    assert rep.zero_crossings_excised


def test_dchi_closed_form_at_t0(maps, params):
    # direct evaluation at the initial time, no differencing
    val = dchi_dt_analytic(maps, params)[0]
    a, c, B = params.ode_a, params.ode_c, params.B
    f, chi = params.beta, maps.chi[0]
    G = chi - params.chi_limit()
    expect = (-(3.0 - 2.0 * c) * G * np.sqrt(f * chi) / np.sqrt(B)
              - chi**1.5 / (np.sqrt(B) * np.sqrt(f))
              + 2.0 * (1.0 - a) * chi)
    assert val == pytest.approx(expect, rel=1e-12)
    assert np.isfinite(val)


def test_representation_mismatch_detection(traj, params):
    # corrupting the tolerance budget must raise rather than silently pass
    with pytest.raises(RuntimeError, match="representation mismatch"):
        compute_g(traj, params, refine=2, mismatch_tol=1e-13)


def test_diagnostics_accept_arrays(maps):
    taus, ts = maps.tau[::97], maps.t_grid[::97]
    for fn, xs in ((maps.f_of_tau, taus), (maps.G_of_tau, taus), (maps.G_at, ts)):
        out = fn(xs[:, None])
        assert isinstance(out, np.ndarray) and out.shape == (len(xs), 1)
        for x, o in zip(xs, out[:, 0]):
            assert type(fn(x)) is float and type(fn(np.asarray(x))) is float
            assert fn(x) == o


def _refined_grid_per_step(t, refine):
    # one linspace per solver step, the oracle of the broadcast form
    segs = [np.linspace(a, b, refine + 1)[:-1] for a, b in zip(t[:-1], t[1:])]
    return np.append(np.concatenate(segs), t[-1])


@pytest.mark.parametrize("refine", [1, 2, 3, 4])
def test_refined_grid_equals_per_step_linspace(refine, traj, traj_deep, traj_window):
    for tr in (traj, traj_deep, traj_window):
        grid = _refined_grid(tr, refine)
        assert grid.size == refine * (tr.t_grid.size - 1) + 1
        assert np.array_equal(grid, _refined_grid_per_step(tr.t_grid, refine))


def test_refined_grid_rejects_refine_below_one(traj):
    with pytest.raises(ValueError, match="refine"):
        _refined_grid(traj, 0)
