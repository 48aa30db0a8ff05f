import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, simpson
from scipy.integrate._ivp import dop853_coefficients, rk

from conftest import (assert_order_conditions, cosine_profiles, flat_profiles,
                      integrate_contrast, traj_to_cap, traj_to_time)
from jeanslab import contrast_ode, pde
from jeanslab.errors import NumericalFailure, UsageError
from jeanslab.pde import (FieldState, compute_psi, data_smallness, diff1, diff2,
                          entropy_field, evolve, init_from_data, rhs, zeta_grid)


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


@pytest.mark.parametrize("n", [16, 128])
def test_stencils_along_the_last_axis_equal_row_by_row(n):
    rng = np.random.default_rng(n + 1)
    y = rng.standard_normal((3, n))
    for stencil in (diff1, diff2):
        out = stencil(y, 1.0 / n)
        assert out.shape == (3, n)
        for got, row in zip(out, y):
            assert np.array_equal(got, stencil(row, 1.0 / n))


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


def psi_brute_force(u_fn, zeta: np.ndarray, periods: int = 20, n_sub: int = 4096) -> np.ndarray:
    """Truncated multi-period tail integral of Psi, as an independent oracle.

    Direct Simpson evaluation of e^(-3 zeta) int_{zeta - periods}^{zeta} u e^(3z) dz;
    the truncation error is e^(-3 periods).
    """
    out = np.empty_like(zeta)
    for i, z in enumerate(zeta):
        zs = np.linspace(z - periods, z, n_sub + 1)
        out[i] = simpson(u_fn(zs) * np.exp(3.0 * (zs - z)), x=zs)
    return out


def test_psi_brute_force_oracle():
    n = 128
    z = zeta_grid(n)
    u = np.cos(2.0 * np.pi * z) + 0.3 * np.sin(4.0 * np.pi * z)
    psi = compute_psi(u)
    oracle = psi_brute_force(
        lambda zz: np.cos(2.0 * np.pi * zz) + 0.3 * np.sin(4.0 * np.pi * zz), z[:12])
    assert np.max(np.abs(psi[:12] - oracle)) < 1e-8


def test_psi_along_the_last_axis_equals_row_by_row():
    # the batched rfft of evolve's stored states gives each row's own bits
    rng = np.random.default_rng(3)
    u = rng.standard_normal((5, 128))
    psi = compute_psi(u)
    assert psi.shape == (5, 128)
    for got, row in zip(psi, u):
        assert np.array_equal(got, compute_psi(row))


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
# rhs's grid maps


@pytest.mark.parametrize("n", [16, 64, 128, 256])
def test_grid_operator_products_equal_stencils_and_psi(n):
    # the gathered product and the Psi matrix sum a row's terms in another order
    # than the stencil or the FFT: bound each map's error by 4 ulps of max|u| times
    # its largest absolute row sum (measured: at most 1.2 ulps)
    index, weights, psi_matrix = pde._grid_maps(n)
    assert index.shape == (5, 3 * n) and weights.shape == (2, 5)
    h, ulp = 1.0 / n, np.finfo(float).eps
    row_sums = (*np.abs(weights).sum(axis=1), np.abs(compute_psi(np.eye(n))).sum(axis=0).max())
    rng = np.random.default_rng(n + 7)
    for scale in (1e-3, 1.0, 1e3):
        u = scale * rng.standard_normal((3, n))
        got = [*weights.dot(u.take(index)).reshape(2, 3, n)]
        if psi_matrix is not None:  # above the cut rhs calls compute_psi itself
            got.append(u.dot(psi_matrix))
        for k, (g, want, row_sum) in enumerate(
                zip(got, (diff1(u, h), diff2(u, h), compute_psi(u)), row_sums)):
            assert np.max(np.abs(g - want)) <= 4.0 * ulp * np.max(np.abs(u)) * row_sum, (k, scale)


def test_grid_operator_is_read_only_and_cached():
    for n in (32, pde._DENSE_MAX_N + 2):
        maps = pde._grid_maps(n)
        assert pde._grid_maps(n) is maps
        index, weights, psi_matrix = maps
        assert (psi_matrix is None) == (n > pde._DENSE_MAX_N)
        for arr in (a for a in maps if a is not None):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1


@pytest.mark.parametrize("n", [64, 128, 256])
def test_grid_derivatives_differentiate_the_deviation(traj, n):
    # each row is differentiated in its deviation from its mean (f, f', 0): the
    # derivatives meet the extended-precision stencils of that deviation within 4
    # ulps of its size times the weights' row sums.  drho_dt differentiated in full
    # rounds at f' times the weights, about 1e3 times more
    t, y = _state_at(traj, 30.0, 1e-3, 1e-4, n)
    f, f0 = traj.f_f0_at(t)
    out = np.empty((4, n))
    got = pde._grid_derivatives(y, f, f0, out)
    dev = y.astype(np.longdouble) - np.array([[f], [f0], [0.0]], dtype=np.longdouble)
    h = np.longdouble(1) / n
    want = (diff1(dev[0], h), diff1(dev[1], h), diff1(dev[2], h), diff2(dev[0], h))
    weights = np.abs(pde._grid_maps(n)[1]).sum(axis=1)
    ulp = np.finfo(float).eps
    for g, w, row, k in zip(got, want, (0, 1, 2, 0), (0, 0, 0, 1)):
        bound = 4.0 * ulp * float(np.max(np.abs(dev[row]))) * weights[k]
        assert float(np.max(np.abs(g - w))) <= bound, (row, k)
    assert np.array_equal(out[:3], y - np.array([[f], [f0], [0.0]]))
    assert np.max(np.abs(out[3] - compute_psi(out[0]))) <= 4.0 * ulp * np.max(np.abs(out[0]))


# ---------------------------------------------------------------------------
# initial data


def test_homogeneous_init(params):
    st = init_from_data(params, *flat_profiles(64))
    assert np.allclose(st.rho_hat, params.beta, atol=1e-15)
    assert np.allclose(st.drho_dt, params.beta0, atol=1e-14)
    assert np.max(np.abs(st.nu)) == 0.0
    assert np.max(np.abs(st.psi)) < 1e-16


def test_cosine_init_mean(params):
    eps = 1e-3
    st = init_from_data(params, *cosine_profiles(128, eps))
    u = (st.rho_hat - params.beta) / params.beta
    # mean of u equals the eps-weighted mean of the profile deviation (= 0 here)
    assert abs(np.mean(u) - eps * np.mean(np.cos(2 * np.pi * st.zeta))) < 1e-14
    assert np.max(np.abs(u - eps * np.cos(2.0 * np.pi * st.zeta))) < 1e-14


def test_data_smallness_scales(params):
    st = init_from_data(params, *cosine_profiles(128, 1e-3))
    sm = data_smallness(st, params)
    assert 1e-3 < sm < 1.0  # dominated by the derivative of the cosine mode


def test_grid_validation():
    with pytest.raises(UsageError):
        zeta_grid(8)
    with pytest.raises(UsageError):
        zeta_grid(33)


@pytest.mark.parametrize("data,message", [
    ((np.ones(33), -np.ones(33)), "grid size"),
    ((np.ones(64), -np.ones(32)), "must both have shape"),
    ((np.full(64, np.nan), -np.ones(64)), "must be finite"),
    ((np.ones(64), np.full(64, -np.inf)), "must be finite"),
], ids=["odd-grid", "unequal-sizes", "nan-d", "inf-v"])
def test_init_from_data_refuses_unusable_values(params, data, message):
    with pytest.raises(UsageError, match=message):
        init_from_data(params, *data)


# ---------------------------------------------------------------------------
# right-hand side


def _y(st):
    return np.stack((st.rho_hat, st.drho_dt, st.nu))


def test_rhs_homogeneous_reduces_to_ode(traj, params):
    st = init_from_data(params, *flat_profiles(64))
    d_rho, d_drho, d_nu = rhs(st.t, _y(st), traj)
    t0, beta, beta0 = params.t0, params.beta, params.beta0
    fpp = (-(4.0 / (3.0 * t0)) * beta0 + (2.0 / (3.0 * t0**2)) * beta * (1.0 + beta)
           + (4.0 / 3.0) * beta0**2 / (1.0 + beta))
    assert np.max(np.abs(d_rho - beta0)) < 1e-14
    assert np.max(np.abs(d_drho - fpp)) / abs(fpp) < 1e-10
    assert np.max(np.abs(d_nu)) < 1e-14


def _wave_coefficients(t, rho_hat, nu, f, f0, params):
    """(gzz, g0z) of the reduced wave operator from the fields, in closed form."""
    om, i3 = params.omega, params.iota3
    one_pf = 1.0 + f
    gzz = ((2.0 + om) * (1.0 - i3) / (9.0 * t * t) * (1.0 + rho_hat) ** (om + 1.0) / one_pf**om
           - (f0**2 / (9.0 * one_pf**2)) * nu**2)
    return gzz, f0 * nu / (3.0 * one_pf)


def test_wave_speed_positive_homogeneous(traj, params):
    st = init_from_data(params, *flat_profiles(64))
    gzz, g0z = _wave_coefficients(st.t, st.rho_hat, st.nu, params.beta, params.beta0, params)
    i3, om = params.iota**3, params.omega
    expect = (2.0 + om) * (1.0 - i3) * (1.0 + params.beta) / 9.0
    assert np.allclose(gzz, expect, rtol=1e-13)
    assert np.all(gzz > 0.0)
    assert np.max(np.abs(g0z)) == 0.0


def test_rhs_translation_equivariance(traj, params):
    # no explicit zeta dependence: shifting the data shifts the flow exactly
    n = 64
    st = init_from_data(params, *cosine_profiles(n, 5e-3, eps_v=2e-3))
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
    st = init_from_data(params, *cosine_profiles(64, 1e-3, eps_v=4.0))  # huge speed perturbation
    with pytest.raises(pde.HyperbolicityLossError, match="hyperbolicity loss"):
        rhs(st.t, _y(st), traj)


def test_rhs_vacuum_guard(traj, params):
    # the typed error, with its message
    st = init_from_data(params, *flat_profiles(64))
    st.rho_hat = st.rho_hat - 2.0
    with pytest.raises(pde.VacuumError, match="vacuum formation: 1 \\+ rho_hat <= 0"):
        rhs(st.t, _y(st), traj)


def test_rhs_vacuum_guard_is_typed(traj, params):
    # exactly VacuumError, a NumericalFailure (so evolve stops with "vacuum"),
    # and not the hyperbolicity error
    st = init_from_data(params, *flat_profiles(64))
    st.rho_hat = st.rho_hat - 2.0
    with pytest.raises(NumericalFailure) as exc:
        rhs(st.t, _y(st), traj)
    assert type(exc.value) is pde.VacuumError
    assert not isinstance(exc.value, pde.HyperbolicityLossError)


def rhs_reference(t, y, traj, with_speed_scale=False):
    """The right-hand side term by term, each power and quotient written out as in
    the equations with no shared subexpressions: an independent oracle of ``rhs``.
    The speed row is the sum of eight terms, in order; with ``with_speed_scale`` it
    also returns the sum of their magnitudes (n,)."""
    f, f0 = traj.f_f0_at(t)
    om, i3, kap = traj.params.omega, traj.params.iota3, traj.params.kappa
    r, rt, nu = y
    h = 1.0 / y.shape[1]
    one_pf = 1.0 + f
    one_pr = 1.0 + r
    if np.any(one_pr <= 0.0):
        raise pde.VacuumError("vacuum formation: 1 + rho_hat <= 0 on the grid")
    one_pr_1om, nu2 = one_pr ** (om + 1.0), nu**2
    gzz, g0z = _wave_coefficients(t, r, nu, f, f0, traj.params)
    if np.any(gzz <= 0.0):
        raise pde.HyperbolicityLossError(
            f"hyperbolicity loss at t={t:.9g}: min gzz = {float(np.nanmin(gzz)):.3g}")

    d = r - f  # the stencils of the deviation: rho_hat, of mean f, would cancel in them
    rz, rtz, nuz = diff1(np.stack((d, rt, nu)), h)
    rzz = diff2(d, h)
    psi = compute_psi(d / f)
    ratio = one_pr / one_pf
    ratio_om, ratio_1om = ratio**om, ratio ** (1.0 + om)
    rz2 = rz**2
    z_rate = f0 / (3.0 * one_pf)

    f1 = (-(2.0 * f0**2 / (9.0 * one_pf**2)) * nu * rz
          + ((om + 1.0) * (om + 2.0) * (1.0 - i3) / (9.0 * t * t)) * ratio_om * rz2
          + (f0**2 / (9.0 * one_pf**2)) * nu2 * rz
          + (2.0 * (1.0 - i3) * one_pf / (9.0 * t * t)) * (ratio_1om - 1.0) * rz
          + (2.0 * i3 * f / (3.0 * t * t)) * rz * psi
          + 4.0 * f0**2 * nu2 * rz2 / (27.0 * one_pf**2 * one_pr)
          + 8.0 * f0 * nu * rz * rt / (9.0 * one_pf * one_pr)
          + (2.0 / 3.0) * one_pr * (f0 / one_pf - rt / one_pr
                                    - z_rate * nu * rz / one_pr
                                    - (f0 / one_pf) * nu) ** 2
          + (2.0 * (1.0 - i3) / (3.0 * t * t)) * (ratio_om - 1.0) * one_pr**2
          + ((8.0 + 5.0 * om) * (1.0 - i3) / (9.0 * t * t)) * one_pr_1om / one_pf**om * rz
          + kap * f0**2 * one_pr / one_pf**2)

    d_rt = (gzz * rzz - 2.0 * g0z * rtz
            - (4.0 / (3.0 * t) + kap * f0 / one_pf) * rt
            + (2.0 / (3.0 * t * t)) * r * one_pr
            + (4.0 / 3.0) * rt**2 / one_pr
            + f1)

    speed_terms = (-(2.0 * one_pf * f / (3.0 * t * t * f0)) * nu,
                   (1.0 / 3.0 - kap) * (f0 / one_pf) * nu,
                   -z_rate * nu2,
                   -((om + 2.0) * (1.0 - i3) * one_pf ** (1.0 - om) * one_pr**om
                     / (3.0 * t * t * f0)) * rz,
                   -(2.0 * (1.0 - i3) * one_pf**2 / (3.0 * t * t * f0)) * ratio_1om,
                   2.0 * (1.0 - i3) * one_pf**2 / (3.0 * t * t * f0),
                   -(2.0 * i3 * one_pf * f / (t * t * f0)) * psi,
                   -z_rate * nu * nuz)
    d_nu = sum(speed_terms)

    rows = np.stack((rt, d_rt, d_nu))
    return (rows, sum(np.abs(term) for term in speed_terms)) if with_speed_scale else rows


def _state_at(traj, f_target, eps, eps_v, n):
    """(t, y) of a cosine perturbation of the homogeneous state at f(t) = f_target;
    eps = eps_v = 0 gives the homogeneous state itself."""
    t = traj.time_of_contrast(f_target)
    f, f0 = traj.f_f0_at(t)
    z = 2.0 * np.pi * zeta_grid(n)
    return t, np.stack((f * (1.0 + eps * np.cos(z)), f0 * (1.0 + eps * np.sin(z)),
                        eps_v * np.cos(z + 0.3)))


def _assert_rhs_equals_reference(traj, f_target, eps, eps_v, n, oracle_dtype=float):
    """rhs against rhs_reference, evaluated on the same state cast to oracle_dtype."""
    t, y = _state_at(traj, f_target, eps, eps_v, n)
    got = rhs(t, y, traj)
    want, speed_scale = rhs_reference(t, y.astype(oracle_dtype), traj, with_speed_scale=True)
    assert got.shape == want.shape == y.shape
    assert np.array_equal(got[0], want[0])
    scale1, scale2 = np.max(np.abs(want[1])), np.max(np.abs(want[2]))
    assert np.max(np.abs(got[1] - want[1])) <= 1e-13 * scale1, f_target
    err2 = np.max(np.abs(got[2] - want[2]))
    if eps >= 1e-2:
        # the speed row's terms cancel (near f = beta with nu ~ 0 the row is about
        # 1e-3 of them), so its rounding floor is set by the sum of their magnitudes,
        # not by its own size: 1500 drawn states read at most 0.94 eps of that sum
        assert err2 <= 4.0 * np.finfo(float).eps * np.max(speed_scale), f_target
    elif eps == eps_v == 0.0:
        # the speed equation balances to rounding on the homogeneous state
        assert err2 <= 1e-15 and scale2 < 1e-14, f_target
    else:
        # cancellation in a small row: bound the error absolutely
        assert err2 <= 1e-14, f_target


@pytest.mark.parametrize("n", [32, 128, 192, 256])
@pytest.mark.parametrize("eps,eps_v", [(0.0, 0.0), (1e-3, 1e-4), (5e-2, 1e-2)])
def test_rhs_equals_reference_formula(traj, params, n, eps, eps_v):
    # the oracle in extended precision, where the platform has it: in double its
    # own rounding is of the size of rhs's
    for f_target in (params.beta, 1.0, 30.0, 1e3):
        _assert_rhs_equals_reference(traj, f_target, eps, eps_v, n, oracle_dtype=np.longdouble)


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="the oracle needs a long double wider than double")
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from([32, 64, 128, 192, 256]), log_f=st.floats(0.0, 1.0),
       eps=st.floats(0.0, 0.05), eps_v=st.floats(0.0, 0.01))
def test_rhs_equals_reference_formula_on_drawn_states(traj, params, n, log_f, eps, eps_v):
    # f log-uniform in [beta, 1e3], under the bounds of the fixed cases above.  The
    # oracle, like rhs, differentiates the deviation rho_hat - f.  rhs applies the
    # stencils and Psi as products, which round otherwise than the oracle's
    # stencils and FFT, so the oracle runs in extended precision, as in the fixed
    # cases.
    f_target = params.beta * (1e3 / params.beta) ** log_f
    _assert_rhs_equals_reference(traj, f_target, eps, eps_v, n, oracle_dtype=np.longdouble)


@pytest.mark.parametrize("n", [128, 256])
def test_rhs_leaves_its_input_and_returns_a_fresh_array(traj, n):
    # called as evolve calls it, on a (3, n) view of a flat state; no buffer of
    # one call is shared with the next
    t, y = _state_at(traj, 30.0, 1e-3, 1e-4, n)
    flat = y.reshape(-1).copy()
    a = rhs(t, flat.reshape(3, n), traj)
    b = rhs(t, flat.reshape(3, n), traj)
    assert np.array_equal(flat, y.reshape(-1))
    assert a.shape == b.shape == (3, n)
    assert np.array_equal(a, b)
    assert not np.shares_memory(a, b)
    assert not np.shares_memory(a, flat) and not np.shares_memory(b, flat)


@pytest.mark.parametrize("n,calls", [(64, 0), (128, 0), (192, 0), (256, 0), (384, 1)])
def test_rhs_takes_the_dense_operator_up_to_its_crossover(traj, monkeypatch, n, calls):
    # rhs takes its derivatives from the cached gathered product on every grid, and
    # Psi from the cached matrix up to pde._DENSE_MAX_N; above it, from one FFT
    assert (n > pde._DENSE_MAX_N) == calls
    t, y = _state_at(traj, 30.0, 1e-3, 1e-4, n)
    rhs(t, y, traj)  # builds the maps of the grid
    counts = dict.fromkeys(("diff1", "diff2", "compute_psi"), 0)
    for name in counts:
        def counted(*args, _name=name, _fun=getattr(pde, name)):
            counts[_name] += 1
            return _fun(*args)
        monkeypatch.setattr(pde, name, counted)
    rhs(t, y, traj)
    assert counts == {"diff1": 0, "diff2": 0, "compute_psi": calls}


def test_rhs_guards_see_past_nan(traj, params):
    # a NaN entry makes min() NaN, which compares false: each guard must still
    # see the offending entry next to it
    t, y = _state_at(traj, 1.0, 1e-3, 1e-4, 32)
    vac = y.copy()
    vac[0, 5], vac[0, 6] = np.nan, -3.0
    assert np.isnan((1.0 + vac[0]).min())
    for fun in (rhs, rhs_reference):
        with pytest.raises(pde.VacuumError, match="vacuum"):
            fun(t, vac, traj)
    hyp = y.copy()
    hyp[2, 5], hyp[2, 6] = np.nan, 1e3  # nu: gzz NaN at 5, negative at 6
    gzz, _ = _wave_coefficients(t, hyp[0], hyp[2], *traj.f_f0_at(t), params)
    assert np.isnan(gzz[5]) and gzz[6] <= 0.0 and np.isnan(gzz.min())
    # the message reports the offending entry, not the NaN beside it
    gzz_min = re.escape(f"min gzz = {float(gzz[gzz <= 0.0].min()):.3g}")
    for fun in (rhs, rhs_reference):
        with pytest.raises(pde.HyperbolicityLossError, match=f"hyperbolicity loss.*{gzz_min}"):
            fun(t, hyp, traj)


# ---------------------------------------------------------------------------
# evolution


def test_homogeneous_manifold_preserved(params):
    traj = traj_to_cap(params, 100.0)
    st = init_from_data(params, *flat_profiles(64))
    res = evolve(st, traj)
    assert res.stop_reason == "f_cap"
    dev = max(float(np.max(np.abs(s.rho_hat - traj.f_f0_at(s.t)[0]))) for s in res.states)
    nu_sup = max(float(np.max(np.abs(s.nu))) for s in res.states)
    assert dev < 1e-6
    assert nu_sup < 1e-8
    # and at every step end, through the monitors
    assert res.monitors["rho_dev_sup"].max() < 1e-6 and res.monitors["nu_sup"].max() < 1e-8


def test_homogeneous_preserved_second_parameter_set():
    from jeanslab.contrast_ode import ToleranceSpec
    from jeanslab.params import params_from_iota3

    p = params_from_iota3(0.05, beta=0.5, gamma=0.7, lam=0.3, A=0.8)
    tr = integrate_contrast(p, f_cap=100.0, controls=ToleranceSpec())
    st = init_from_data(p, *flat_profiles(64))
    res = evolve(st, tr)
    assert res.stop_reason == "f_cap"
    dev = max(float(np.max(np.abs(s.rho_hat - tr.f_f0_at(s.t)[0]))) for s in res.states)
    assert dev < 1e-6
    assert max(float(np.max(np.abs(s.nu))) for s in res.states) < 1e-8
    assert res.monitors["rho_dev_sup"].max() < 1e-6 and res.monitors["nu_sup"].max() < 1e-8


def test_perturbed_ratio_envelope(params):
    st = init_from_data(params, *cosine_profiles(64, 1e-3))
    res = evolve(st, traj_to_cap(params, 1e3))
    m = res.monitors
    assert np.all(m["ratio_rho_min"] > 0.9)
    assert np.all(m["ratio_rho_max"] < 1.1)
    assert m["continuity_residual"].max() < 1e-6


def test_self_convergence_order(params, monkeypatch):
    traj = traj_to_time(params, 1.35)
    monkeypatch.setattr(pde, "_SNAPSHOTS", 2)
    finals = {}
    for n in (32, 64, 128):
        st = init_from_data(params, *cosine_profiles(n, 0.05))
        finals[n] = evolve(st, traj).final
    d1 = np.max(np.abs(finals[32].rho_hat - finals[64].rho_hat[::2]))
    d2 = np.max(np.abs(finals[64].rho_hat - finals[128].rho_hat[::2]))
    assert np.log2(d1 / d2) >= 3.5


def test_error_proportional_to_pde_rtol(params, monkeypatch):
    # fixed grid and snapshot schedule, tolerance refined: against a tight
    # reference the largest error in rho_hat/f stays below pde_rtol and falls
    # about in proportion to it, leaving the stepper's own accuracy
    traj = traj_to_cap(params, 100.0)
    monkeypatch.setattr(pde, "_SNAPSHOTS", 8)
    st = init_from_data(params, *cosine_profiles(32, 0.05))

    def states(rtol):
        return evolve(st, traj, pde_rtol=rtol).states

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
def test_evolve_matches_fine_rk4_reference(params, monkeypatch, vacuum_after):
    # every stored state, dense-output snapshots and step ends alike, agrees
    # with a fine fixed-step RK4 run to well within pde_rtol; a vacuum stop
    # mid-run ends with the last accepted state, off the snapshot schedule
    traj = traj_to_time(params, 1.5)
    st = init_from_data(params, *cosine_profiles(32, 0.05))
    monkeypatch.setattr(pde, "_SNAPSHOTS", 4)
    if vacuum_after is not None:
        counted, calls = _vacuum_after(vacuum_after)
        monkeypatch.setattr(pde, "rhs", counted)
    res = evolve(st, traj)
    monkeypatch.undo()
    schedule = pde.snapshot_times(traj, st.t, 4)
    assert schedule[-1] == 1.5
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
    # a monitor row per step end and per snapshot; the last stored state is a
    # step end, so the count has one row fewer than their sum
    m = res.monitors
    assert np.all(np.diff(m["t"]) > 0) and {st.t, *times} <= set(m["t"].tolist())
    assert len(m["t"]) == 1 + res.n_steps + len(times) - 1


def _failing_rhs(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def test_evolve_stops_on_vacuum(params, monkeypatch):
    st = init_from_data(params, *flat_profiles(64))
    monkeypatch.setattr(pde, "rhs", _failing_rhs(pde.VacuumError("vacuum formation")))
    res = evolve(st, traj_to_time(params, 2.0))
    assert res.stop_reason == "vacuum"
    assert res.n_steps == 0


def test_evolve_stops_on_vacuum_in_a_dense_output(params, monkeypatch):
    # the dense output of an accepted step raises: the run stops with "vacuum",
    # and that step's end, not the snapshots it holds, is the last monitor row
    # and the stored final state
    traj = traj_to_cap(params, 5.0)
    st = init_from_data(params, *cosine_profiles(32, 1e-2, eps_v=1e-3))
    calls, inner = [0], contrast_ode._Dop853.dense_coefficients

    def fail_third(self):
        calls[0] += 1
        if calls[0] == 3:
            raise pde.VacuumError("vacuum formation")
        return inner(self)

    monkeypatch.setattr(contrast_ode._Dop853, "dense_coefficients", fail_third)
    res = evolve(st, traj)
    monkeypatch.undo()
    assert res.stop_reason == "vacuum" and res.n_dense == 2 and calls[0] == 3
    ends = dict(_scipy_step_ends(st, traj))
    t_stop, mon_t = res.final.t, res.monitors["t"]
    assert mon_t[-1] == t_stop and np.array_equal(_y(res.final), ends[t_stop])
    schedule = pde.snapshot_times(traj, st.t, pde._SNAPSHOTS)
    held = [s.t for s in res.states[1:-1]]
    assert held == list(schedule[:len(held)])
    assert mon_t[-2] < schedule[len(held)] <= t_stop  # the step held the next snapshot


def test_evolve_propagates_other_value_errors(params, monkeypatch):
    # only VacuumError means vacuum; any other ValueError from a step is a fault
    st = init_from_data(params, *flat_profiles(64))
    monkeypatch.setattr(pde, "rhs", _failing_rhs(ValueError("not a vacuum")))
    with pytest.raises(ValueError, match="not a vacuum"):
        evolve(st, traj_to_time(params, 2.0))


def test_evolve_dt_underflow_diagnostic(params, monkeypatch):
    # an rhs that turns to NaN after the solver's two start-up calls fails
    # every error test until the step size underflows: the diagnostic stop,
    # with the initial state intact and every trial step counted as rejected
    st = init_from_data(params, *flat_profiles(64))
    calls, inner = [0], pde.rhs

    def nan_after_start(*args, **kwargs):
        calls[0] += 1
        out = inner(*args, **kwargs)
        return out if calls[0] <= 2 else np.full_like(out, np.nan)

    monkeypatch.setattr(pde, "rhs", nan_after_start)
    res = evolve(st, traj_to_time(params, 2.0))
    assert res.stop_reason == "dt_underflow"
    assert res.final is st and len(res.states) == 1
    assert res.n_steps == 0 and res.n_rejected >= 10
    assert res.n_rhs == calls[0] == 2 + 12 * res.n_rejected


def test_evolve_stops_on_nan_derivatives_from_the_start(params, monkeypatch):
    # NaN at the first call makes the first step size NaN, which no error test
    # can reject down to the underflow limit: the march stops before any trial
    st = init_from_data(params, *flat_profiles(64))
    monkeypatch.setattr(pde, "rhs", lambda t, y, *args: np.full_like(y, np.nan))
    res = evolve(st, traj_to_time(params, 2.0))
    assert res.stop_reason == "dt_underflow"
    assert res.final is st and (res.n_steps, res.n_rejected, res.n_rhs) == (0, 0, 2)


def test_dop853_start_refuses_a_first_step_that_underflows():
    # under numpy's default error state an infinite derivative gives an infinite
    # slope norm, not an overflow error, and so a first step size of 0
    stepper = pde._Dop853(lambda t, y: np.full_like(y, np.inf), 1.0, np.ones(24), 2.0,
                          rtol=1e-8, atol=1e-12)
    assert np.geterr() == {"divide": "warn", "over": "warn", "under": "ignore",
                           "invalid": "warn"}
    with pytest.raises(NumericalFailure, match=r"the first step size underflows to 0 at t=1\.0"):
        stepper.start()


def _scipy_step_ends(st, traj, pde_rtol=pde.PDE_RTOL):
    """(t, y) at each accepted step end of scipy's DOP853 marching the flattened
    state to traj.t_end, y of shape (3, n)."""
    n = st.n
    solver = DOP853(lambda t, y: rhs(t, y.reshape(3, n), traj).reshape(-1), st.t,
                    _y(st).reshape(-1), traj.t_end, rtol=pde_rtol,
                    atol=pde._ATOL_PER_RTOL * pde_rtol)
    ends = []
    while solver.status == "running":
        solver.step()
        ends.append((solver.t, solver.y.reshape(3, n)))
    return ends


def test_evolve_reports_its_work(params, monkeypatch):
    traj = traj_to_cap(params, 100.0)
    st = init_from_data(params, *cosine_profiles(32, 1e-3))
    calls, inner = [0], pde.rhs

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(pde, "rhs", counted)
    monkeypatch.setattr(pde, "_SNAPSHOTS", 3)
    res = evolve(st, traj)
    # two start-up calls, 12 stages per trial step, 3 extra on each step that
    # holds a snapshot time: step i holds those in (ends[i-1], ends[i]]
    assert res.n_rhs == calls[0] == 2 + 12 * (res.n_steps + res.n_rejected) + 3 * res.n_dense
    assert res.final.t == traj.t_end
    ends = np.array([t for t, _ in _scipy_step_ends(st, traj)])
    out_t = pde.snapshot_times(traj, st.t, 3)
    assert res.n_dense == len(np.unique(np.searchsorted(ends, out_t, side="left")))
    assert 0.0 < res.dt_min <= res.dt_max


def test_dop853_tableau_and_controller_equal_scipy():
    co = contrast_ode
    for mine, theirs in ((co._D8_C, dop853_coefficients.C), (co._D8_A, dop853_coefficients.A),
                         (co._D8_B, DOP853.B), (co._D8_E3, DOP853.E3),
                         (co._D8_E5, DOP853.E5), (co._D8_D, DOP853.D)):
        assert mine.shape == theirs.shape and np.array_equal(mine, theirs)
    assert co._D8_STAGES == DOP853.n_stages
    # the stepper is the contrast integration's, read through pde
    assert pde._Dop853 is co._Dop853
    assert (co._SAFETY, co._MIN_FACTOR, co._MAX_FACTOR) == (rk.SAFETY, rk.MIN_FACTOR, rk.MAX_FACTOR)
    assert co._D8_ERROR_EXPONENT == -1 / (DOP853.error_estimator_order + 1)


def test_dop853_order_conditions():
    assert_order_conditions(contrast_ode._D8_C, contrast_ode._D8_A, contrast_ode._D8_B, 8)


def _scipy_dop853(st, traj, pde_rtol):
    """scipy's DOP853 marching the flattened state to traj.t_end as evolve did through
    scipy: the dense-output states at the snapshot times and its own count of the work."""
    n, calls = st.n, [0]

    def fun(t, y):
        calls[0] += 1
        return rhs(t, y.reshape(3, n), traj).reshape(-1)

    out_t = pde.snapshot_times(traj, st.t, pde._SNAPSHOTS)
    solver = DOP853(fun, st.t, np.stack((st.rho_hat, st.drho_dt, st.nu)).reshape(-1),
                    traj.t_end, rtol=pde_rtol, atol=pde._ATOL_PER_RTOL * pde_rtol)
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
def test_evolve_equals_scipy_dop853(params, n, pde_rtol):
    # every stored state and the reported work, rejected steps included
    traj = traj_to_cap(params, 100.0)
    st = init_from_data(params, *cosine_profiles(n, 0.05))
    res = evolve(st, traj, pde_rtol=pde_rtol)
    states, work = _scipy_dop853(st, traj, pde_rtol)
    assert (res.n_steps, res.n_rejected, res.n_rhs, res.dt_min, res.dt_max) == work
    assert len(res.states) == 1 + len(states) == 1 + pde._SNAPSHOTS == 21
    for s, (t, y) in zip(res.states[1:], states):
        assert s.t == t
        assert np.array_equal(np.stack((s.rho_hat, s.drho_dt, s.nu)), y.reshape(3, n))
    assert res.n_rejected > 0


def test_snapshot_schedule(traj, params, monkeypatch):
    # _SNAPSHOTS states after the initial one, at the precomputed times, which
    # are uniform in ln(1+f) and end exactly at the stop time: the trajectory's
    # cap crossing, which is the crossing a longer trajectory finds
    capped = traj_to_cap(params, 100.0)
    st = init_from_data(params, *cosine_profiles(32, 1e-3))
    monkeypatch.setattr(pde, "_SNAPSHOTS", 7)
    res = evolve(st, capped)
    t_stop = traj.time_of_contrast(100.0)
    assert capped.t_end == t_stop
    schedule = pde.snapshot_times(capped, st.t, 7)
    assert len(res.states) == 8
    assert [s.t for s in res.states[1:]] == list(schedule)
    # the monitors add a row per step end; the last one is the last snapshot
    assert {s.t for s in res.states} <= set(res.monitors["t"].tolist())
    assert len(res.monitors["t"]) == 1 + res.n_steps + 7 - 1
    assert res.final.t == schedule[-1] == t_stop
    gaps = np.diff(np.log1p(traj.f_f0_at(np.array([st.t, *schedule]))[0]))
    assert np.max(np.abs(gaps / gaps[0] - 1.0)) < 1e-9


def test_monitor_times_are_step_ends_and_snapshots(params):
    # one monitor row per time, strictly increasing: the initial time, every
    # accepted step end and every snapshot time, and nothing else
    traj = traj_to_cap(params, 100.0)
    st = init_from_data(params, *cosine_profiles(32, 1e-3))
    res = evolve(st, traj)
    ends = [t for t, _ in _scipy_step_ends(st, traj)]
    snaps = pde.snapshot_times(traj, st.t, pde._SNAPSHOTS)
    t = res.monitors["t"].tolist()
    assert len(ends) == res.n_steps and len(snaps) == len(res.states) - 1 == 20
    assert np.all(np.diff(t) > 0)
    assert t == sorted({st.t, *ends, *snaps.tolist()})


def test_evolve_rejects_empty_schedule(params):
    # a trajectory that ends at the initial time leaves nothing to march
    traj = traj_to_time(params, 2.0)
    st = dataclasses.replace(init_from_data(params, *flat_profiles(32)), t=traj.t_end)
    with pytest.raises(UsageError, match="not after the initial time"):
        evolve(st, traj)


def test_solution_shift_equivariance(params, monkeypatch):
    # integer grid shifts of the data shift the whole evolution: the discrete
    # counterpart of solutions being periodic modulo unit translations
    n, m = 64, 11
    st = init_from_data(params, *cosine_profiles(n, 2e-3, eps_v=1e-3))
    shifted = FieldState(t=st.t, zeta=st.zeta, rho_hat=np.roll(st.rho_hat, m),
                         drho_dt=np.roll(st.drho_dt, m), nu=np.roll(st.nu, m),
                         psi=np.roll(st.psi, m))
    traj = traj_to_time(params, 1.2)
    monkeypatch.setattr(pde, "_SNAPSHOTS", 2)
    r1 = evolve(st, traj)
    r2 = evolve(shifted, traj)
    assert r1.final.t == r2.final.t
    assert np.max(np.abs(np.roll(r1.final.rho_hat, m) - r2.final.rho_hat)) < 1e-12
    assert np.max(np.abs(np.roll(r1.final.nu, m) - r2.final.nu)) < 1e-12


def test_psi_consistency_along_run(params):
    # the stored gravity satisfies its defining relation at every output time
    traj = traj_to_cap(params, 20.0)
    st = init_from_data(params, *cosine_profiles(64, 1e-2))
    res = evolve(st, traj)
    for s in res.states[:: max(1, len(res.states) // 6)]:
        f = traj.f_f0_at(s.t)[0]
        u = (s.rho_hat - f) / f
        defect = diff1(s.psi, 1.0 / s.n) - (u - 3.0 * s.psi)
        assert np.max(np.abs(defect)) < 1e-5 * max(1.0, np.max(np.abs(u)))


@pytest.mark.parametrize("vacuum_after", [None, 40])
def test_monitors_equal_per_state_recomputation(params, monkeypatch, vacuum_after):
    # evolve records all monitor rows in one batch; every row, the step ends
    # included, and every stored psi equals the per-state formulas, the early
    # stop's last state included; a step end that is also a snapshot time is
    # the stored dense state
    traj = traj_to_cap(params, 5.0)
    st = init_from_data(params, *cosine_profiles(32, 1e-2, eps_v=1e-3))
    monkeypatch.setattr(pde, "_SNAPSHOTS", 30)
    if vacuum_after is not None:
        monkeypatch.setattr(pde, "rhs", _vacuum_after(vacuum_after)[0])
    res = evolve(st, traj)
    monkeypatch.undo()
    assert res.stop_reason == ("f_cap" if vacuum_after is None else "vacuum")
    ends = _scipy_step_ends(st, traj)
    at = {t: y for t, y in ends if t <= res.final.t} | {s.t: _y(s) for s in res.states}
    mon = res.monitors
    assert mon["t"].tolist() == sorted(at) and len(mon["t"]) > len(res.states) > 2
    assert all(col.dtype == np.float64 and col.shape == (len(at),) for col in mon.values())
    for i, t in enumerate(mon["t"].tolist()):
        s = FieldState(t=t, zeta=st.zeta, rho_hat=at[t][0], drho_dt=at[t][1], nu=at[t][2],
                       psi=None)  # no monitor reads psi
        f, f0 = traj.f_f0_at(t)
        rr, rd = s.rho_hat / f, s.drho_dt / f0
        uz = (params.c_scale / (1.0 + f)) * diff1(s.rho_hat - f, 1.0 / s.n)
        expect = {"t": t, "ratio_rho_min": float(rr.min()), "ratio_rho_max": float(rr.max()),
                  "ratio_drho_min": float(rd.min()), "ratio_drho_max": float(rd.max()),
                  "uz_sup": float(np.max(np.abs(uz))), "nu_sup": float(np.max(np.abs(s.nu))),
                  "rho_dev_sup": float(np.max(np.abs(s.rho_hat - f))),
                  "continuity_residual": _continuity_max(s, traj)}
        assert list(expect) == list(mon)
        for k, val in expect.items():
            assert mon[k][i] == val, (i, k)
    for s in res.states[1:]:
        f = traj.f_f0_at(s.t)[0]
        assert np.array_equal(s.psi, compute_psi((s.rho_hat - f) / f))


# ---------------------------------------------------------------------------
# continuity identity and entropy


def _continuity_max(state, traj):
    """Max-norm defect of the reduced continuity identity at one state."""
    f, f0 = traj.f_f0_at(state.t)
    defect = pde._continuity_defect(f, f0, state.rho_hat, state.drho_dt, state.nu,
                                    1.0 / state.n)
    return float(np.max(np.abs(defect)))


def test_continuity_homogeneous_zero(traj, params):
    st = init_from_data(params, *flat_profiles(64))
    assert _continuity_max(st, traj) < 1e-12


def test_continuity_detects_corruption(traj, params):
    st = init_from_data(params, *cosine_profiles(64, 1e-3))
    base = _continuity_max(st, traj)
    assert base < 1e-10  # construction enforces the identity at t0
    st.nu[7] += 0.1
    assert _continuity_max(st, traj) > 1e-2


def test_continuity_propagated(params):
    st = init_from_data(params, *cosine_profiles(64, 1e-3))
    res = evolve(st, traj_to_cap(params, 100.0))
    assert res.monitors["continuity_residual"].max() < 1e-7


def test_entropy_reduces_to_reference(traj, params):
    st = init_from_data(params, *flat_profiles(64))
    t = st.t
    f = traj.f_f0_at(t)[0]
    s = entropy_field(st, traj)
    x_abs = t ** (2.0 / 3.0) * (1.0 + f) ** (-1.0 / 3.0) * np.exp(st.zeta)
    s_ref = np.log(t ** (-4.0 / 3.0) * (1.0 + f) ** (2.0 / 3.0) * x_abs**2)
    assert np.max(np.abs(s - s_ref)) < 1e-12


def test_entropy_matches_initial_data(traj, params):
    eps = 1e-2
    st = init_from_data(params, *cosine_profiles(64, eps))
    om = params.omega
    beta = params.beta
    x_abs = (1.0 + beta) ** (-1.0 / 3.0) * np.exp(st.zeta)
    d_vals = 1.0 + eps * np.cos(2.0 * np.pi * st.zeta)
    s_data = np.log((1.0 + beta * d_vals) ** (2.0 / 3.0 + om)
                    / (1.0 + beta) ** om * x_abs**2)
    assert np.max(np.abs(entropy_field(st, traj) - s_data)) < 1e-12


def test_entropy_monotone_in_contrast(traj, params):
    st = init_from_data(params, *flat_profiles(64))
    s0 = entropy_field(st, traj)
    st.rho_hat = st.rho_hat + 0.05
    s1 = entropy_field(st, traj)
    assert np.all(s1 < s0)  # negative contrast exponent
