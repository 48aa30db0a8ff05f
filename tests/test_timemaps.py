import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from jeanslab.contrast_ode import ToleranceSpec, integrate_contrast
from jeanslab.errors import NumericalFailure, UsageError
from jeanslab.params import params_from_iota3
from jeanslab.timemaps import (_Pchip, _refined_grid, check_G_decay, compute_g,
                               dchi_dt_analytic, dchi_dt_numeric, terminal_window)


def test_endpoints(maps, params):
    assert maps.g[0] == pytest.approx(1.0, abs=1e-14)
    assert maps.tau[0] == pytest.approx(-1.0, abs=1e-14)
    assert np.all(np.diff(maps.g) < 0.0)
    assert np.all((maps.g > 0.0) & (maps.g <= 1.0))
    assert maps.xi[0] == pytest.approx(1.0 / (1.0 + params.beta), rel=1e-12)


def _assert_pchip_equals_scipy(x, y, queries):
    own, theirs = _Pchip(x, y), PchipInterpolator(x, y, axis=1)
    for q in queries:
        assert np.array_equal(own(q), theirs(q))
        assert own(q).shape == theirs(q).shape == (len(y),) + np.shape(q)


def test_pchip_equals_scipy_on_the_time_maps(maps_deep):
    # both interpolants of the maps: at the nodes, the midpoints, random points,
    # beyond both ends, as scalars and as a 2-d array
    m, rng = maps_deep, np.random.default_rng(3)
    for x, y in ((m.tau, np.stack([np.log1p(m.f), m.G_frak])),
                 (m.t_grid, np.stack([np.log(m.g), m.G_frak]))):
        beyond = [x[0] - 1.0, np.nextafter(x[0], -np.inf), np.nextafter(x[-1], np.inf),
                  x[-1] + 1.0]
        spread = rng.uniform(x[0], x[-1], 5000)
        _assert_pchip_equals_scipy(x, y, [x, 0.5 * (x[1:] + x[:-1]), spread, np.array(beyond),
                                          spread.reshape(50, 100), *spread[:50], *beyond])


def test_pchip_equals_scipy_on_flat_and_turning_data():
    # zero and sign-changing secants take the slope-limiting branches
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(3, 30))
        x = np.cumsum(rng.uniform(0.01, 1.0, n))
        y = np.round(rng.normal(size=(2, n)), 1)
        _assert_pchip_equals_scipy(x, y, [rng.uniform(x[0] - 1.0, x[-1] + 1.0, 100), x])


def test_pchip_refuses_unordered_nodes():
    with pytest.raises(NumericalFailure, match="strictly increasing"):
        _Pchip(np.array([0.0, 1.0, 1.0]), np.zeros((2, 3)))
    with pytest.raises(NumericalFailure, match="not finite"):
        _Pchip(np.array([0.0, 1.0, 2.0]), np.array([[0.0, np.nan, 1.0]]))


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
    tr = integrate_contrast(p, f_cap=1e6, controls=ToleranceSpec())
    mp = compute_g(tr, refine=4, thetas=(2.0,))
    w = terminal_window(mp, 1e6)
    eta2 = mp.eta[2.0]
    assert eta2[w].max() < 1e-3
    assert np.all(np.diff(eta2[-50:]) < 0.0)


def test_theta_hypothesis_rejected(traj):
    with pytest.raises(UsageError, match="decay hypothesis"):
        compute_g(traj, thetas=(4.5,))


def test_G_decay_fit(maps):
    rep = check_G_decay(maps)
    assert rep.slope >= 0.4
    assert rep.dchi_rel_err < 1e-3
    assert rep.n_points > 20
    # the deviation G is single-signed over the terminal decade
    assert not rep.zero_crossings_excised


def test_dchi_dt_numeric_equals_per_point_polyfit(maps):
    t, chi = maps.t_grid, maps.chi
    num = dchi_dt_numeric(maps)
    assert num.shape == (len(t) - 4,)
    for k, i in enumerate(range(2, len(t) - 2)):
        fit = np.polyfit(t[i - 2:i + 3] - t[i], chi[i - 2:i + 3], 4)[3]
        assert num[k] == pytest.approx(fit, rel=1e-9), i


def test_G_decay_flags_crossing(maps):
    # widening the window past the sign change of G must be flagged
    rep = check_G_decay(maps, decades=3.0)
    assert rep.zero_crossings_excised


def test_dchi_closed_form_at_t0(maps, params):
    # direct evaluation at the initial time, no differencing
    val = dchi_dt_analytic(maps)[0]
    a, c, B = params.ode_a, params.ode_c, params.B
    f, chi = params.beta, maps.chi[0]
    G = chi - params.chi_limit()
    expect = (-(3.0 - 2.0 * c) * G * np.sqrt(f * chi) / np.sqrt(B)
              - chi**1.5 / (np.sqrt(B) * np.sqrt(f))
              + 2.0 * (1.0 - a) * chi)
    assert val == pytest.approx(expect, rel=1e-12)
    assert np.isfinite(val)


def test_representation_mismatch_detection(traj):
    # corrupting the tolerance budget must raise rather than silently pass
    with pytest.raises(NumericalFailure, match="representation mismatch"):
        compute_g(traj, refine=2, mismatch_tol=1e-13)


def test_diagnostics_accept_arrays(maps):
    taus, ts = maps.tau[::97], maps.t_grid[::97]
    for fn, xs in ((maps.f_G_at_tau, taus), (maps.g_G_at, ts)):
        out = fn(xs[:, None])
        assert all(isinstance(o, np.ndarray) and o.shape == (len(xs), 1) for o in out)
        for x, u, v in zip(xs, out[0][:, 0], out[1][:, 0]):
            assert all(type(r) is float for r in (*fn(x), *fn(np.asarray(x))))
            assert fn(x) == (u, v)


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
    with pytest.raises(UsageError, match="refine"):
        _refined_grid(traj, 0)
