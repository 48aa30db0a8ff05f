import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import qmc

from conftest import background_state
from jeanslab.contrast_ode import zero_trajectory
from jeanslab.errors import NumericalFailure
from jeanslab.reference import (COMPLEX_STEP, _scrambled_halton, _sources, euler_poisson_residual,
                                homogeneous_state, sample_annulus)

T_VALUES = [1.2, 1.5, 2.0]


def source_terms(t, x, state_fn, traj):
    """Momentum damping D (..., 3) and entropy production S (...) at x, S in its full
    displayed form, from the residual's own source code and its complex step."""
    x = np.asarray(x, dtype=float)
    space = state_fn(t, x[..., None, :] + 1j * COMPLEX_STEP * np.eye(3))
    d_vec, s_full, _ = _sources(t, x, state_fn(t, x), space, traj)
    return d_vec, s_full


@pytest.fixture(scope="module")
def pts():
    return sample_annulus(32, seed=1234)


@pytest.mark.parametrize("d", [3, 6])
def test_scrambled_halton_equals_scipy_qmc(d):
    for n in (32, 400, 2000):
        for seed in (1, 7, 20240):
            assert np.array_equal(_scrambled_halton(d, n, seed),
                                  qmc.Halton(d=d, scramble=True, seed=seed).random(n))


def test_annulus_in_range(pts):
    r = np.linalg.norm(pts, axis=1)
    assert r.min() >= 0.1 and r.max() <= 10.0
    # reproducible across calls
    assert np.array_equal(pts, sample_annulus(32, seed=1234))


def test_background_values(params):
    i3 = params.iota**3
    x = np.array([0.3, -0.4, 0.5])
    pt = background_state(1.0, x, params)
    assert pt.rho == pytest.approx(i3 / (6.0 * math.pi))
    assert np.allclose(pt.v, 2.0 * x / 3.0)
    assert pt.s == pytest.approx(math.log(float(x @ x)))
    # density scales as t^-2
    for t in (2.0, 4.0, 8.0):
        assert background_state(t, x, params).rho * t**2 == pytest.approx(pt.rho)
    # eos consistency by construction
    assert pt.p == pytest.approx(params.K * math.exp(pt.s) * pt.rho ** (4.0 / 3.0))


def test_background_poisson_closed_form(params):
    # quadratic potential: Laplacian equals 6 * coefficient = 4 pi rho
    t = 1.7
    x = np.array([1.0, 2.0, -1.0])
    pt = background_state(t, x, params)
    lap = 6.0 * params.iota**3 / (9.0 * t * t)
    assert lap == pytest.approx(4.0 * math.pi * pt.rho, rel=1e-14)


def test_background_origin_rejected(params):
    with pytest.raises(NumericalFailure, match="singular"):
        background_state(1.0, np.zeros(3), params)


def test_homogeneous_reduces_to_background(params):
    ztr = zero_trajectory(params)
    x = np.array([0.2, 0.1, -0.7])
    a = homogeneous_state(1.3, x, ztr)
    b = background_state(1.3, x, params)
    for name in ("rho", "phi", "s", "p"):
        assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-14)
    assert np.allclose(a.v, b.v)


def test_homogeneous_initial_data(traj, params):
    x = np.array([0.5, 0.5, 0.5])
    pt = homogeneous_state(1.0, x, traj)
    i3, beta, gamma = params.iota**3, params.beta, params.gamma
    assert pt.rho == pytest.approx(i3 * (1.0 + beta) / (6.0 * math.pi), rel=1e-12)
    assert np.allclose(pt.v, (2.0 / 3.0 - gamma) * x, rtol=1e-10)
    assert pt.s == pytest.approx(
        math.log((1.0 + beta) ** (2.0 / 3.0) * float(x @ x)), rel=1e-12)


def test_density_contrast_is_f(traj, params, pts):
    for t in T_VALUES:
        f = traj.f_f0_at(t)[0]
        for x in pts[:5]:
            rho_r = homogeneous_state(t, x, traj).rho
            rho_b = background_state(t, x, params).rho
            assert (rho_r - rho_b) / rho_b == pytest.approx(f, rel=1e-10)


def test_sources_vanish_on_exact_states(traj, params, pts):
    ztr = zero_trajectory(params)
    for t in (1.2, 1.9):
        d_h, s_h = source_terms(t, pts[0], lambda tt, xx: homogeneous_state(tt, xx, traj),
                                traj)
        d_b, s_b = source_terms(t, pts[0], lambda tt, xx: background_state(tt, xx, params),
                                ztr)
        assert np.max(np.abs(d_h)) < 1e-10 and abs(s_h) < 1e-10
        assert np.max(np.abs(d_b)) < 1e-10 and abs(s_b) < 1e-10


def test_damping_linear_in_relative_velocity(traj):
    x = np.array([1.0, 0.0, 0.0])
    t = 1.5

    def extra(xx):
        return np.stack([0.01 * xx[..., 1], -0.02 * xx[..., 0], 0.005 * xx[..., 2]], axis=-1)

    def doubled(tt, xx):
        pt = homogeneous_state(tt, xx, traj)
        hub_v = pt.v  # exact state has zero relative velocity
        return dataclasses.replace(pt, v=hub_v + extra(xx))

    def quadrupled(tt, xx):
        pt = homogeneous_state(tt, xx, traj)
        return dataclasses.replace(pt, v=pt.v + 2.0 * extra(xx))

    d1, _ = source_terms(t, x, doubled, traj)
    d2, _ = source_terms(t, x, quadrupled, traj)
    assert np.allclose(d2, 2.0 * d1, rtol=1e-12)


def test_source_form_agreement(traj, pts):
    rep = euler_poisson_residual(lambda t, x: homogeneous_state(t, x, traj),
                                 [1.5], pts[:1], traj)
    assert rep.source_gap_max < 1e-10


def test_exact_solution_residuals(traj, params, pts):
    ztr = zero_trajectory(params)
    rep_b = euler_poisson_residual(lambda t, x: background_state(t, x, params),
                                   T_VALUES, pts, ztr)
    rep_h = euler_poisson_residual(lambda t, x: homogeneous_state(t, x, traj),
                                   T_VALUES, pts, traj)
    for rep in (rep_b, rep_h):
        assert rep.verdict
        assert max(rep.max_norms.values()) < 1e-6
        assert rep.source_gap_max < 1e-9


def test_background_residuals_are_homogeneous_on_zero_trajectory(params, pts):
    # the background family is homogeneous_state on the zero trajectory: its report
    # equals the one of the closed-form background, field for field
    ztr = zero_trajectory(params)
    for t in (1.0, 1.3, 7.7, 1e3):
        a = homogeneous_state(t, pts, ztr)
        b = background_state(t, pts, params)
        for name in ("rho", "v", "phi", "s", "p"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), (t, name)
    rep_h = euler_poisson_residual(lambda t, x: homogeneous_state(t, x, ztr),
                                   T_VALUES, pts, ztr)
    rep_b = euler_poisson_residual(lambda t, x: background_state(t, x, params),
                                   T_VALUES, pts, ztr)
    assert rep_h == rep_b


def test_scaled_density_fails(traj, pts):
    def scaled(t, x):
        pt = homogeneous_state(t, x, traj)
        return dataclasses.replace(pt, rho=1.01 * pt.rho)

    rep = euler_poisson_residual(scaled, [1.5], pts[:8], traj)
    assert not rep.verdict
    # the uniform scaling is invisible to continuity (linear in density) and
    # is caught by the field equations instead
    assert rep.max_norms["continuity"] < 1e-9
    assert rep.max_norms["poisson"] > 1e-3
    assert rep.max_norms["momentum"] > 1e-3


def test_entropy_identity_for_transported_contrast(traj, params, pts):
    # a contrast profile frozen along the comoving log-coordinate satisfies
    # continuity with the homogeneous flow; the rebuilt entropy must then be
    # exactly transported while momentum is violated (it is not a solution)
    om = params.omega

    def transported(t, x):
        base = homogeneous_state(t, x, traj)
        f = traj.f_f0_at(t)[0]
        r2 = (x * x).sum(-1)  # unconjugated: the residual steps x by the complex step
        zeta = np.log(t ** (-2.0 / 3.0) * (1.0 + f) ** (1.0 / 3.0) * np.sqrt(r2))
        varrho = (1.0 + f) * (1.0 + 0.05 * np.cos(2.0 * math.pi * zeta)) - 1.0
        i3 = params.iota**3
        rho = i3 * (1.0 + varrho) / (6.0 * math.pi * t * t)
        s = np.log(t ** (-4.0 / 3.0) * (1.0 + varrho) ** (2.0 / 3.0 + om)
                   / (1.0 + f) ** om * r2)
        return dataclasses.replace(base, rho=rho, s=s,
                                   p=params.K * np.exp(s) * rho ** (4.0 / 3.0))

    rep = euler_poisson_residual(transported, [1.5], pts[:6], traj)
    assert rep.max_norms["entropy_transport"] < 1e-6
    assert rep.max_norms["continuity"] < 1e-6
    assert rep.max_norms["momentum"] > 1e-3


def test_homogeneous_origin_rejected(traj):
    # the origin is refused at a real point and under the complex step, whose
    # x . x = -h^2 has a non-positive real part; a sample 1e-4 from it gets its
    # residuals
    ztr = zero_trajectory(traj.params)
    for x in (np.zeros(3), 1j * COMPLEX_STEP * np.eye(3)):
        with pytest.raises(NumericalFailure, match="singular"):
            homogeneous_state(1.5, x, traj)
    rep = euler_poisson_residual(lambda t, x: homogeneous_state(t, x, ztr), [1.5],
                                 np.array([[1e-4, 0.0, 0.0]]), ztr)
    assert rep.verdict


def test_time_stencil_leaves_range_near_boundary(traj, pts):
    # a time past either end of the trajectory, by one float, or NaN, is refused
    # wherever it stands among the times, before any state call; the ends themselves
    # are read, since the complex step t + ih reads the step of t
    t0, t_end = float(traj.t_grid[0]), float(traj.t_end)
    calls = []

    def counting(t, x):
        calls.append(x.shape)
        return homogeneous_state(t, x, traj)

    for bad in (math.nextafter(t0, -math.inf), math.nextafter(t_end, math.inf), math.nan):
        for t_values in ([bad], [1.5, bad], [bad, 1.2, 2.0]):
            with pytest.raises(NumericalFailure, match="leaves the trajectory range"):
                euler_poisson_residual(counting, t_values, pts[:2], traj)
    assert calls == []
    euler_poisson_residual(counting, [t0, t_end], pts[:2], traj)
    assert len(calls) == 5


def test_array_time_outside_the_trajectory_is_refused(traj, params, pts):
    # one NaN or out-of-range time among valid ones refuses the whole call, as a
    # lone float time is refused
    ztr = zero_trajectory(params)
    for bad in (math.nan, 0.5, float(traj.t_end) * 1.01, math.inf):
        for t in (bad, np.array([bad]), np.array([[1.5], [bad], [1.2]])):
            with pytest.raises(NumericalFailure, match="outside trajectory range"):
                homogeneous_state(t, pts, traj)
    with pytest.raises(NumericalFailure, match="outside trajectory range"):
        homogeneous_state(np.array([1.5, math.nan]), pts[:2], ztr)


# ---------------------------------------------------------------------------
# one evaluation per derivative point, and the per-derivative difference formulas as oracle


def test_one_state_call_per_stencil_point(traj, pts):
    # 1 centre + 1 time + 1 space (its 3 axes) + 1 radial + 1 Gauss-Legendre call,
    # each over all m times and n sample points, however many times there are; 54
    # points per time and sample point
    calls = []

    def counting(t, x):
        calls.append(np.broadcast_shapes(np.shape(t), x.shape[:-1]))
        return homogeneous_state(t, x, traj)

    for t_values in ([1.5], [1.2, 2.0], T_VALUES):
        for n in (1, 3, 32):
            calls.clear()
            euler_poisson_residual(counting, t_values, pts[:n], traj)
            assert len(calls) == 5
            assert sum(math.prod(shape) for shape in calls) == len(t_values) * n * 54


_W = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
_O = np.array([-2.0, -1.0, 1.0, 2.0])


def _oracle_ddt(fn, t, h):
    return sum(w * fn(t + o * h) for w, o in zip(_W, _O)) / h


def _oracle_ddx(fn, x, axis, h):
    def shifted(o):
        xs = np.array(x, dtype=float)
        xs[axis] += o * h
        return fn(xs)

    return sum(w * shifted(o) for w, o in zip(_W, _O)) / h


def _oracle_grad(fn, x, h):
    return np.array([_oracle_ddx(fn, x, ax, h) for ax in range(3)])


def _oracle_hub(t, traj):
    f, f0 = traj.f_f0_at(t)
    return 2.0 / (3.0 * t) - f0 / (3.0 * (1.0 + f))


def _oracle_sources(t, x, state_fn, traj, h=1e-3):
    """(D, S full form, |S full - S relative-velocity form|), one lambda per derivative."""
    x = np.asarray(x, dtype=float)
    f, f0 = traj.f_f0_at(t)
    params = traj.params
    om, hub = params.omega, _oracle_hub(t, traj)
    pt = state_fn(t, x)
    v_check = pt.v - hub * x
    d_vec = -(params.kappa * f0 / (1.0 + f)) * v_check
    div_v = sum(_oracle_ddx(lambda xs, ax=ax: state_fn(t, xs).v[ax], x, ax, h)
                for ax in range(3))
    r2 = float(x @ x)
    s_val = (-(2.0 / 3.0 + om) * div_v + 2.0 * float(pt.v @ x) / r2
             + 3.0 * om * hub)
    div_vc = sum(_oracle_ddx(lambda xs, ax=ax: state_fn(t, xs).v[ax] - hub * xs[ax], x, ax, h)
                 for ax in range(3))
    s_vform = -(2.0 / 3.0 + om) * div_vc + 2.0 * float(v_check @ x) / r2
    return d_vec, s_val, abs(s_val - s_vform)


def _oracle_residual(state_fn, t_values, pts, traj, h=1e-3):
    gl_nodes, gl_w = np.polynomial.legendre.leggauss(48)
    cont, mom, ent, poi, gaps = [], [], [], [], []
    for tv in t_values:
        for x in pts:
            pt = state_fn(tv, x)
            dt_rho = _oracle_ddt(lambda s: state_fn(s, x).rho, tv, h)
            div_rho_v = sum(
                _oracle_ddx(lambda xs, ax=ax: (lambda q: q.rho * q.v[ax])(state_fn(tv, xs)),
                            x, ax, h)
                for ax in range(3))
            cont.append(dt_rho + div_rho_v)
            d_vec, s_src, gap = _oracle_sources(tv, x, state_fn, traj, h)
            dt_v = np.array([_oracle_ddt(lambda s, ax=ax: state_fn(s, x).v[ax], tv, h)
                             for ax in range(3)])
            jac_v = np.array([[_oracle_ddx(lambda xs, ax=ax: state_fn(tv, xs).v[ax], x, axj, h)
                               for axj in range(3)] for ax in range(3)])
            grad_p = _oracle_grad(lambda xs: state_fn(tv, xs).p, x, h)
            grad_phi = _oracle_grad(lambda xs: state_fn(tv, xs).phi, x, h)
            mom.extend(dt_v + jac_v @ pt.v + grad_p / pt.rho + grad_phi - d_vec)
            dt_s = _oracle_ddt(lambda s: state_fn(s, x).s, tv, h)
            grad_s = _oracle_grad(lambda xs: state_fn(tv, xs).s, x, h)
            ent.append(dt_s + float(pt.v @ grad_s) - s_src)
            gaps.append(gap)
            r = math.sqrt(float(x @ x))
            xhat = x / r
            dphi_dr = sum(w * state_fn(tv, x + o * h * xhat).phi for w, o in zip(_W, _O)) / h
            y = 0.5 * r * (gl_nodes + 1.0)
            rho_y = np.array([state_fn(tv, yi * xhat).rho for yi in y])
            integral = 0.5 * r * float(gl_w @ (rho_y * y**2))
            poi.append(dphi_dr - 4.0 * math.pi * integral / r**2)

    def max_norm(vals):
        return float(np.abs(np.asarray(vals, dtype=float)).max())

    return {"continuity": max_norm(cont), "momentum": max_norm(mom),
            "entropy_transport": max_norm(ent), "poisson": max_norm(poi)}, float(np.max(gaps))


@pytest.mark.parametrize("family", ["background", "homogeneous"])
def test_residual_equals_per_derivative_oracle(family, traj, params, pts):
    # the oracle's 4th-order differences at h = 1e-3 are off by their truncation
    # h^4 F^(5)/30 and their rounding, about eps |F| / h; both stay below 100 h^4 =
    # 1e-10 on these samples (the norms differ by at most 9e-12), while a wrong
    # derivative would be off by the size of the terms, 1e-2 to 10
    tr = zero_trajectory(params) if family == "background" else traj
    state_fn = {"background": lambda t, x: background_state(t, x, params),
                "homogeneous": lambda t, x: homogeneous_state(t, x, traj)}[family]
    # the oracle calls state_fn at one float time and one point per value
    h = 1e-3
    tol = 100.0 * h**4
    sample = pts[:4]
    rep = euler_poisson_residual(state_fn, T_VALUES, sample, tr)
    max_norms, source_gap_max = _oracle_residual(state_fn, T_VALUES, sample, tr, h)
    assert rep.max_norms == pytest.approx(max_norms, rel=0.0, abs=tol)
    assert rep.source_gap_max == pytest.approx(source_gap_max, rel=0.0, abs=tol)
    assert (rep.n_points, rep.t_values) == (4, tuple(T_VALUES))
    for x in sample:
        d_vec, s_val, _ = _oracle_sources(1.5, x, state_fn, tr, h)
        d_new, s_new = source_terms(1.5, x, state_fn, tr)
        assert np.allclose(d_new, d_vec, rtol=0.0, atol=tol) and abs(s_new - s_val) <= tol
