import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import integrate_contrast, terminal_window
from jeanslab import timemaps
from jeanslab.contrast_ode import ToleranceSpec
from jeanslab.errors import NumericalFailure
from jeanslab.params import params_from_iota3
from jeanslab.reference import COMPLEX_STEP
from jeanslab.timemaps import check_G_decay, compute_g, dchi_dt_terms

_EPS = float(np.finfo(float).eps)


def test_endpoints(maps, params):
    assert maps.g[0] == pytest.approx(1.0, abs=1e-14)
    assert maps.tau[0] == pytest.approx(-1.0, abs=1e-14)
    assert np.all(np.diff(maps.g) < 0.0)
    assert np.all((maps.g > 0.0) & (maps.g <= 1.0))
    assert maps.xi[0] == pytest.approx(1.0 / (1.0 + params.beta), rel=1e-12)


def test_representation_agreement(maps):
    assert maps.representation_gap < 1e-6


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
    assert maps_window.eta2[w].max() < 1e-2
    # xi decreasing near blowup
    tail = maps_window.xi[-50:]
    assert np.all(np.diff(tail) < 0.0)


def test_eta2_sub_1e3_for_fast_collapse():
    # eta_2 drops below 1e-3 by contrast 1e6 for strongly kicked data (A = 1)
    p = params_from_iota3(0.2, beta=0.1, gamma=1.0, lam=0.1, A=1.0)
    tr = integrate_contrast(p, f_cap=1e6, controls=ToleranceSpec())
    mp = compute_g(tr)
    w = terminal_window(mp, 1e6)
    eta2 = mp.eta2
    assert eta2[w].max() < 1e-3
    assert np.all(np.diff(eta2[-50:]) < 0.0)


def test_G_decay_fit(maps):
    rep = check_G_decay(maps)
    assert rep.slope >= 0.4
    assert rep.dchi_rel_err < 1e-3
    assert rep.n_points > 20
    # the deviation G is single-signed over the terminal decade
    assert not rep.zero_crossings_excised


def test_f00_solves_the_contrast_ode(traj, maps, params):
    # f'' of the dense output against the ODE's f'' of (t, f, f'): at the step ends,
    # where the continuous extension takes the step's end slope, to rounding; on the
    # whole record grid, to the accuracy of the continuous extension
    a, b, c = params.ode_a, params.ode_b, params.ode_c

    def ode_f00(t, f, f0):
        return -(a / t) * f0 + (b / t**2) * f * (1.0 + f) + c * f0**2 / (1.0 + f)

    ends = slice(1, -1)  # the last node is the cap crossing, inside its step
    t = traj.t_grid[ends]
    assert np.allclose(traj.f00_at_s(traj.s_grid[ends]), ode_f00(t, traj.f[ends], traj.f0[ends]),
                       rtol=1e-12, atol=0.0)
    assert np.allclose(maps.f00, ode_f00(maps.t_grid, maps.f, maps.f0), rtol=1e-9, atol=0.0)


def test_G_decay_flags_crossing(maps, monkeypatch):
    # widening the window past the sign change of G must be flagged
    monkeypatch.setattr(timemaps, "_G_DECAY_DECADES", 3.0)
    rep = check_G_decay(maps)
    assert rep.zero_crossings_excised


def test_dchi_closed_form_at_t0(maps, params):
    # direct evaluation at the initial time, no differencing
    first, second, third = dchi_dt_terms(maps)
    val = (first + second + third)[0]
    a, c, B = params.ode_a, params.ode_c, params.B
    f, chi = params.beta, maps.chi[0]
    G = chi - params.chi_limit()
    expect = (-(3.0 - 2.0 * c) * G * np.sqrt(f * chi) / np.sqrt(B)
              - chi**1.5 / (np.sqrt(B) * np.sqrt(f))
              + 2.0 * (1.0 - a) * chi)
    assert val == pytest.approx(expect, rel=1e-12)
    assert np.isfinite(val)


def test_representation_mismatch_detection(traj, monkeypatch):
    # corrupting the tolerance budget must raise rather than silently pass: the two
    # forms of g differ by about 5.8e-13 on this trajectory
    monkeypatch.setattr(timemaps, "_MISMATCH_TOL", 1e-14)
    with pytest.raises(NumericalFailure, match="representation mismatch"):
        compute_g(traj)


def test_diagnostics_accept_arrays(maps):
    taus, ts = maps.tau[::97], maps.t_grid[::97]
    for fn, xs in ((maps.f_G_at_tau, taus), (maps.g_G_at, ts)):
        out = fn(xs[:, None])
        assert all(isinstance(o, np.ndarray) and o.shape == (len(xs), 1) for o in out)
        for x, u, v in zip(xs, out[0][:, 0], out[1][:, 0]):
            assert all(type(r) is float for r in (*fn(x), *fn(np.asarray(x))))
            assert fn(x) == (u, v)


def _log_g_by_quad(traj, s):
    """ln g at the clock values s by scipy's quad of the quotient integrand
    f (1+f)/(t^2 f') dt/ds on the dense output, dt/ds = 2 e^(-s)/p, step by step: the
    oracle of the step polynomials.  On the clock t the integrand's reads at times are
    ill-conditioned near the blowup, and quad's error reached 5e-11 at f = 1e8."""
    A, nodes = traj.params.A, traj.s_grid

    def integrand(sq):
        t, p = traj.t_p_at_s(np.array(sq))
        f, f0 = np.expm1(2.0 * sq), p * np.exp(3.0 * sq)
        return f * (1.0 + f) / (t * t * f0) * 2.0 * np.exp(-sq) / p

    def integral(lo, hi):
        return quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]

    before = np.cumsum([0.0] + [integral(lo, hi) for lo, hi in zip(nodes[:-2], nodes[1:-1])])
    k = np.clip(np.searchsorted(nodes, s) - 1, 0, len(nodes) - 2)
    return np.array([-A * (before[i] + integral(nodes[i], si)) for i, si in zip(k, s)])


@pytest.mark.parametrize("which", ["traj", "traj_deep"])
def test_g_equals_quad_of_the_quotient_integrand(which, request):
    # 24 times drawn over the trajectory, t0, and 5 times inside the last step, which
    # is cut at the cap: its polynomial is in x over the cut length, not the solver's h
    traj = request.getfixturevalue(which)
    maps = compute_g(traj)
    nodes = traj.t_grid
    assert traj.s_grid[-1] - traj.s_grid[-2] < traj.h[-1]  # the last step is cut
    last = nodes[-2] + (nodes[-1] - nodes[-2]) * np.array([0.1, 0.3, 0.5, 0.9, 1.0])
    t = np.concatenate([np.random.default_rng(5).uniform(nodes[0], nodes[-1], 24),
                        nodes[:1], last])
    g = maps.g_G_at(t)[0]
    s = traj.s_p_at(t)[0]
    assert np.max(np.abs(g - np.exp(_log_g_by_quad(traj, s))) / g) < 1e-11


def test_tau_reads_give_back_tau(traj_deep, maps_deep):
    # g at the time found for each rung, geometric midpoint and tau 1e-5 |tau| to
    # either side of a rung (the first rung's outer one lies before t0) is -tau to
    # the rounding of that time: one ulp of t moves ln g by t |d ln g/dt| ulp
    m, p = maps_deep, maps_deep.params
    rungs = -(2.0 ** -np.arange(9))
    taus = np.concatenate([rungs, -np.sqrt(rungs[:-1] * rungs[1:]),
                           np.outer(rungs, 1.0 + 1e-5 * np.array([1.0, -1.0])).ravel()])
    t = m.t_at_tau(taus)
    assert t[np.argmin(taus)] < p.t0 < t[np.argmax(taus)]
    f, f0 = traj_deep.f_f0_at(t)
    conditioning = 1.0 + t * p.A * f * (1.0 + f) / (t * t * f0)
    assert np.all(np.abs(m.g_G_at(t)[0] / -taus - 1.0) <= 8.0 * _EPS * conditioning)
    # f_G_at_tau reads f at the clock value it finds, and G from chi's closed form with
    # g = -tau; f at the time read back agrees to that time's rounding
    f_read, G_read = m.f_G_at_tau(taus)
    assert np.array_equal(f_read, np.expm1(2.0 * m._s_at_tau(taus)))
    assert np.all(np.abs(f_read / f - 1.0) <= 8.0 * _EPS * (1.0 + t * f0 / f))
    assert np.allclose(G_read, m.g_G_at(t)[1], rtol=1e-12, atol=1e-12 * np.abs(m.G_frak).max())


def test_complex_tau_reads_give_the_tau_derivatives(maps_deep):
    # Im f_G_at_tau(tau + ih)/h is d(f, G)/dtau: central differences at dtau =
    # 1e-6 |tau| match it to 1e-5 relative (their truncation and rounding leave at
    # most 9e-7 on G, whose chi - 4B cancels) at 2,000 drawn tau and every record
    # point inside the maps; the real part is the real read to rounding
    m = maps_deep
    tau = np.concatenate([np.random.default_rng(8).uniform(m.tau[0], m.tau[-1], 2000),
                          m.tau[1:-1]])
    dtau = 1e-6 * np.abs(tau)
    tau, dtau = (v[(tau - dtau > m.tau[0]) & (tau + dtau < m.tau[-1])] for v in (tau, dtau))
    f_c, G_c = m.f_G_at_tau(tau + 1j * COMPLEX_STEP)
    (f_p, G_p), (f_m, G_m) = m.f_G_at_tau(tau + dtau), m.f_G_at_tau(tau - dtau)
    for stepped, central in ((f_c, (f_p - f_m) / (2.0 * dtau)),
                             (G_c, (G_p - G_m) / (2.0 * dtau))):
        assert np.all(np.abs(stepped.imag / COMPLEX_STEP - central) <= 1e-5 * np.abs(central))
    f, G = m.f_G_at_tau(tau)
    assert np.allclose(f_c.real, f, rtol=1e-14, atol=0.0)
    assert np.allclose(G_c.real, G, rtol=1e-12, atol=1e-12 * np.abs(m.G_frak).max())


def test_record_grid_is_solver_and_quadrature_nodes(traj, maps):
    # 7 points a step: the solver node, then its 6 Gauss-Legendre nodes on the clock s;
    # the record's g is ln g's step polynomial at its clock values, bit for bit, and
    # the readers at its times give it back to the rounding of those times
    n = len(traj.t_grid) - 1
    assert maps.t_grid.shape == maps.s_grid.shape == (7 * n + 1,)
    assert np.array_equal(maps.t_grid[::7], traj.t_grid)
    assert np.array_equal(maps.s_grid[::7], traj.s_grid)
    assert np.all(np.diff(maps.t_grid) > 0.0)
    k = np.append(np.repeat(np.arange(n), 7), n - 1)
    assert np.array_equal(maps._g(k, maps.s_grid), maps.g)
    g, G = maps.g_G_at(maps.t_grid)
    assert np.allclose(g, maps.g, rtol=1e-13, atol=0.0)
    assert np.allclose(G, maps.G_frak, rtol=0.0, atol=1e-12 * np.abs(maps.G_frak).max())


def test_gauss_legendre_rule_integrates_the_interpolant():
    # node values of x^m go to the coefficient 1/(m+1) of x^(m+1); at x = 1 the
    # integral is the rule, so each column of the matrix sums to its weight
    nodes, weights, to_integral = timemaps._gauss_legendre()
    assert not any(a.flags.writeable for a in (nodes, weights, to_integral))
    assert np.all((0.0 < nodes) & (nodes < 1.0)) and math.isclose(weights.sum(), 1.0)
    for m in range(timemaps._GL_NODES):
        expect = np.eye(timemaps._GL_NODES)[m] / (m + 1.0)
        assert np.allclose(to_integral @ nodes**m, expect, rtol=0.0, atol=1e-12)
    assert np.allclose(to_integral.sum(axis=0), weights, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("tau", [0.5, np.nan, -1e3])
def test_tau_without_a_time_is_refused(maps, tau):
    # tau >= 0 has no ln(-tau), and tau = -1e3 lies far before t0, where the first
    # step's polynomial has no root near its chord start
    with pytest.raises(NumericalFailure, match="no time found for tau"):
        maps.f_G_at_tau(np.array([-0.5, tau]))


def test_newton_residual_is_checked(maps_deep, monkeypatch):
    # one Newton iteration from the chord leaves a residual of about 1e-10 in ln g on
    # the ladder and its midpoints, far above rounding, and the read refuses it
    rungs = -(2.0 ** -np.arange(9))
    taus = np.concatenate([rungs, -np.sqrt(rungs[:-1] * rungs[1:])])
    maps_deep.f_G_at_tau(taus)
    monkeypatch.setattr(timemaps, "_NEWTON_STEPS", 1)
    with pytest.raises(NumericalFailure, match="Newton's residual"):
        maps_deep.f_G_at_tau(taus)
