import dataclasses
import math

import numpy as np
import pytest

from jeanslab.contrast_ode import zero_trajectory
from jeanslab.reference import (background_state, euler_poisson_residual,
                                homogeneous_state, sample_annulus, source_terms)

T_VALUES = [1.2, 1.5, 2.0]


@pytest.fixture(scope="module")
def pts():
    return sample_annulus(32, seed=1234)


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
    with pytest.raises(ValueError, match="singular"):
        background_state(1.0, np.zeros(3), params)


def test_homogeneous_reduces_to_background(params):
    ztr = zero_trajectory(params)
    x = np.array([0.2, 0.1, -0.7])
    a = homogeneous_state(1.3, x, ztr, params)
    b = background_state(1.3, x, params)
    for name in ("rho", "phi", "s", "p"):
        assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-14)
    assert np.allclose(a.v, b.v)


def test_homogeneous_initial_data(traj, params):
    x = np.array([0.5, 0.5, 0.5])
    pt = homogeneous_state(1.0, x, traj, params)
    i3, beta, gamma = params.iota**3, params.beta, params.gamma
    assert pt.rho == pytest.approx(i3 * (1.0 + beta) / (6.0 * math.pi), rel=1e-12)
    assert np.allclose(pt.v, (2.0 / 3.0 - gamma) * x, rtol=1e-10)
    assert pt.s == pytest.approx(
        math.log((1.0 + beta) ** (2.0 / 3.0) * float(x @ x)), rel=1e-12)


def test_density_contrast_is_f(traj, params, pts):
    for t in T_VALUES:
        f = float(traj.f_at(t))
        for x in pts[:5]:
            rho_r = homogeneous_state(t, x, traj, params).rho
            rho_b = background_state(t, x, params).rho
            assert (rho_r - rho_b) / rho_b == pytest.approx(f, rel=1e-10)


def test_sources_vanish_on_exact_states(traj, params, pts):
    ztr = zero_trajectory(params)
    for t in (1.2, 1.9):
        d_h, s_h = source_terms(t, pts[0], lambda tt, xx: homogeneous_state(tt, xx, traj, params),
                                traj, params)
        d_b, s_b = source_terms(t, pts[0], lambda tt, xx: background_state(tt, xx, params),
                                ztr, params)
        assert np.max(np.abs(d_h)) < 1e-10 and abs(s_h) < 1e-10
        assert np.max(np.abs(d_b)) < 1e-10 and abs(s_b) < 1e-10


def test_damping_linear_in_relative_velocity(traj, params):
    x = np.array([1.0, 0.0, 0.0])
    t = 1.5

    def extra(xx):
        return np.stack([0.01 * xx[..., 1], -0.02 * xx[..., 0], 0.005 * xx[..., 2]], axis=-1)

    def doubled(tt, xx):
        pt = homogeneous_state(tt, xx, traj, params)
        hub_v = pt.v  # exact state has zero relative velocity
        return dataclasses.replace(pt, v=hub_v + extra(xx))

    def quadrupled(tt, xx):
        pt = homogeneous_state(tt, xx, traj, params)
        return dataclasses.replace(pt, v=pt.v + 2.0 * extra(xx))

    d1, _ = source_terms(t, x, doubled, traj, params)
    d2, _ = source_terms(t, x, quadrupled, traj, params)
    assert np.allclose(d2, 2.0 * d1, rtol=1e-12)


def test_source_form_agreement(traj, params, pts):
    rep = euler_poisson_residual(lambda t, x: homogeneous_state(t, x, traj, params),
                                 [1.5], pts[:1], traj, params)
    assert rep.source_gap_max < 1e-10


def test_exact_solution_residuals(traj, params, pts):
    ztr = zero_trajectory(params)
    rep_b = euler_poisson_residual(lambda t, x: background_state(t, x, params),
                                   T_VALUES, pts, ztr, params)
    rep_h = euler_poisson_residual(lambda t, x: homogeneous_state(t, x, traj, params),
                                   T_VALUES, pts, traj, params)
    for rep in (rep_b, rep_h):
        assert rep.verdict
        assert max(rep.max_norms.values()) < 1e-6
        assert rep.source_gap_max < 1e-9


def test_scaled_density_fails(traj, params, pts):
    def scaled(t, x):
        pt = homogeneous_state(t, x, traj, params)
        return dataclasses.replace(pt, rho=1.01 * pt.rho)

    rep = euler_poisson_residual(scaled, [1.5], pts[:8], traj, params)
    assert not rep.verdict
    # the uniform scaling is invisible to continuity (linear in density) and
    # is caught by the field equations instead
    assert rep.continuity[0] < 1e-9
    assert rep.poisson[0] > 1e-3
    assert rep.momentum[0] > 1e-3


def test_entropy_identity_for_transported_contrast(traj, params, pts):
    # a contrast profile frozen along the comoving log-coordinate satisfies
    # continuity with the homogeneous flow; the rebuilt entropy must then be
    # exactly transported while momentum is violated (it is not a solution)
    om = params.omega

    def transported(t, x):
        base = homogeneous_state(t, x, traj, params)
        f = float(traj.f_at(t))
        r2 = np.vecdot(x, x)
        zeta = np.log(t ** (-2.0 / 3.0) * (1.0 + f) ** (1.0 / 3.0) * np.sqrt(r2))
        varrho = (1.0 + f) * (1.0 + 0.05 * np.cos(2.0 * math.pi * zeta)) - 1.0
        i3 = params.iota**3
        rho = i3 * (1.0 + varrho) / (6.0 * math.pi * t * t)
        s = np.log(t ** (-4.0 / 3.0) * (1.0 + varrho) ** (2.0 / 3.0 + om)
                   / (1.0 + f) ** om * r2)
        return dataclasses.replace(base, rho=rho, s=s,
                                   p=params.K * np.exp(s) * rho ** (4.0 / 3.0))

    rep = euler_poisson_residual(transported, [1.5], pts[:6], traj, params)
    assert rep.entropy_transport[0] < 1e-6
    assert rep.continuity[0] < 1e-6
    assert rep.momentum[0] > 1e-3


def test_stencil_guard(traj, params):
    with pytest.raises(ValueError, match="stencil"):
        source_terms(1.5, np.array([1e-4, 0.0, 0.0]),
                     lambda t, x: homogeneous_state(t, x, traj, params),
                     traj, params)


def test_time_stencil_shrinks_near_boundary(traj, params, pts):
    # probing half a stencil width from t0 drops to second order, warns, and
    # still certifies the exact solution
    h = 1e-3
    with pytest.warns(UserWarning, match="second order"):
        rep = euler_poisson_residual(
            lambda t, x: homogeneous_state(t, x, traj, params),
            [1.0 + 1.5 * h], pts[:4], traj, params, h=h)
    assert max(rep.max_norms.values()) < 1e-4  # second-order stencil budget

    with pytest.raises(ValueError, match="leaves the trajectory range"):
        euler_poisson_residual(
            lambda t, x: homogeneous_state(t, x, traj, params),
            [1.0], pts[:2], traj, params, h=h)


# ---------------------------------------------------------------------------
# one evaluation per stencil point, and the per-derivative formulas as oracle


def test_one_state_call_per_stencil_point(traj, params, pts):
    # per time value: 1 centre + 4 time + 1 space + 1 radial + 1 Gauss-Legendre
    # calls, each over all n sample points; 69 stencil points per sample point
    calls = []

    def counting(t, x):
        calls.append(x.shape)
        return homogeneous_state(t, x, traj, params)

    for n in (1, 3, 32):
        calls.clear()
        euler_poisson_residual(counting, [1.2, 2.0], pts[:n], traj, params)
        assert len(calls) == 2 * 8
        assert sum(math.prod(shape[:-1]) for shape in calls) == 2 * n * 69
        # shrunk time stencil: 2 time calls, 67 stencil points per sample point
        calls.clear()
        with pytest.warns(UserWarning, match="second order"):
            euler_poisson_residual(counting, [1.0015], pts[:n], traj, params)
        assert len(calls) == 6
        assert sum(math.prod(shape[:-1]) for shape in calls) == n * 67


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
    return 2.0 / (3.0 * t) - float(traj.f0_at(t)) / (3.0 * (1.0 + float(traj.f_at(t))))


def _oracle_sources(t, x, state_fn, traj, params, h=1e-3):
    """(D, S full form, |S full - S relative-velocity form|), one lambda per derivative."""
    x = np.asarray(x, dtype=float)
    f, f0 = float(traj.f_at(t)), float(traj.f0_at(t))
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


def _oracle_residual(state_fn, t_values, pts, traj, params, h=1e-3):
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
            d_vec, s_src, gap = _oracle_sources(tv, x, state_fn, traj, params, h)
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

    def norms(vals):
        vals = np.abs(np.asarray(vals, dtype=float))
        return float(vals.max()), float(math.sqrt(np.mean(vals**2)))

    return {"continuity": norms(cont), "momentum": norms(mom),
            "entropy_transport": norms(ent), "poisson": norms(poi),
            "source_gap_max": float(np.max(gaps))}


@pytest.mark.parametrize("family", ["background", "homogeneous"])
def test_residual_equals_per_derivative_oracle(family, traj, params, pts):
    tr = zero_trajectory(params) if family == "background" else traj
    state_fn = {"background": lambda t, x: background_state(t, x, params),
                "homogeneous": lambda t, x: homogeneous_state(t, x, traj, params)}[family]
    sample = pts[:4]
    rep = euler_poisson_residual(state_fn, [1.5], sample, tr, params)
    oracle = _oracle_residual(state_fn, [1.5], sample, tr, params)
    for name in ("continuity", "momentum", "entropy_transport", "poisson",
                 "source_gap_max"):
        assert getattr(rep, name) == oracle[name], name
    assert (rep.n_points, rep.t_values) == (4, (1.5,))
    for x in sample:
        d_vec, s_val, _ = _oracle_sources(1.5, x, state_fn, tr, params)
        d_new, s_new = source_terms(1.5, x, state_fn, tr, params)
        assert np.array_equal(d_new, d_vec) and s_new == s_val
