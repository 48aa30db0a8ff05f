import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import cosine_profiles, flat_profiles, integrate_contrast, traj_to_cap
from jeanslab import fuchsian, pde
from jeanslab.cli import main
from jeanslab.errors import NumericalFailure, UsageError
from jeanslab.fuchsian import (DomainError, assemble_matrices, find_certified_radius,
                               fuchsian_fields, gamma_constants, q_lower_bound,
                               q_quantity, system_residual, verify_conditions,
                               wave_block_weight)
from jeanslab.params import ModelParams, params_from_iota3
from jeanslab.reference import COMPLEX_STEP
from jeanslab.pde import diff1, evolve, init_from_data
from jeanslab.timemaps import compute_g


@pytest.fixture(scope="module")
def gconsts(params, maps_deep):
    g_range = (float(maps_deep.G_frak.min()), float(maps_deep.G_frak.max()))
    return gamma_constants(params, g_range)


# ---------------------------------------------------------------------------
# field extraction


def test_fields_vanish_on_homogeneous(traj, maps, params):
    st = init_from_data(params, *flat_profiles(64))
    F = fuchsian_fields(st, traj, maps)
    assert np.max(np.abs(F.U)) < 1e-13
    assert F.tau == pytest.approx(-1.0, abs=1e-10)


def test_uz_consistency(traj, maps, params):
    st = init_from_data(params, *cosine_profiles(128, 1e-2))
    F = fuchsian_fields(st, traj, maps)
    u0_, uz_, u_, nu_, psi_ = F.U
    h = 1.0 / st.n
    cs = params.c_scale
    f = F.f
    expect = (cs * f / (1.0 + f)) * diff1(u_, h)
    assert np.max(np.abs(uz_ - expect)) < 1e-12


def test_psi_field_bound(traj, maps, params):
    st = init_from_data(params, *cosine_profiles(128, 1e-2, eps_v=5e-3))
    F = fuchsian_fields(st, traj, maps)
    assert np.max(np.abs(F.U[4])) <= np.max(np.abs(F.U[2])) / 3.0 + 1e-14


def test_blocks_at_zero(params):
    ev = assemble_matrices(-0.5, np.zeros(5), 0.0, 2.0, params)
    lam, i3 = params.lam, params.iota**3
    assert np.max(np.abs(ev.Z)) == 0.0
    assert np.max(np.abs(ev.H)) == 0.0
    assert np.max(np.abs(ev.F)) == 0.0
    # singular-block diagonal entries at the origin
    q = lam + (3.0 - 8.0 * i3) / 30.0
    assert ev.B0[2, 2] == pytest.approx(q)
    assert ev.frakB[2, 2] == pytest.approx((4.0 * lam + 2.0 * (3.0 - 8.0 * i3) / 15.0)
                                           / params.A)
    assert ev.frakB[2, 2] == pytest.approx(0.5866666666666667 / params.A)
    # derivative-block diagonal carries the wave weight (see ledger: the
    # sound-speed factor (2+omega)(1-iota^3) replaces the fixed 1/4)
    q_w = wave_block_weight(params)
    f, G = 2.0, 1.0
    ev2 = assemble_matrices(-0.5, np.zeros(5), G, f, params)
    assert ev2.B0[1, 1] == pytest.approx(q_w * (1.0 + 1.0 / f) / (4.0 + G / params.B))


def test_symmetry_exact(params):
    rng = np.random.default_rng(5)
    for _ in range(20):
        U = rng.uniform(-0.2, 0.2, 5)
        ev = assemble_matrices(-0.3, U, 1.5, 3.0, params)
        assert np.array_equal(ev.Bz, ev.Bz.T)
        assert np.array_equal(ev.B0, ev.B0.T)


def test_z_vanish_at_origin_all_tau(params):
    for tau in (-1.0, -0.25, -0.01):
        ev = assemble_matrices(tau, np.zeros(5), 0.7, 11.0, params)
        assert np.max(np.abs(ev.Z)) == 0.0


def test_z_shrinks_with_radius(params):
    rng = np.random.default_rng(2)
    direc = rng.uniform(-1.0, 1.0, 5)
    direc /= np.linalg.norm(direc)
    prev = np.inf
    for r in (1e-2, 1e-3, 1e-4, 1e-6):
        ev = assemble_matrices(-0.4, r * direc, 1.0, 4.0, params)
        assert ev.sum_abs_z < prev
        prev = ev.sum_abs_z
    assert prev < 1e-4  # linear in the radius near the origin


def test_domain_guards(params):
    with pytest.raises(DomainError, match="fractional-power"):
        assemble_matrices(-0.5, np.array([0.0, 0.0, -3.0, 0.0, 0.0]), 0.0, 10.0, params)
    with pytest.raises(DomainError, match="chi must stay positive"):
        assemble_matrices(-0.5, np.zeros(5), -5.0 * params.B, 1.0, params)


def system_rhs_direct(tau: float, U_point, dU_dzeta, G_frak_val: float,
                      f_val: float, params: ModelParams) -> np.ndarray:
    """Right sides of the five transformed equations, written out literally.

    Independent of the matrix bookkeeping: each row is the transformed
    equation term by term with its zeta-derivative terms moved right, i.e.
    this returns what B0 dU/dtau must equal.  Agreement with the assembled
    path certifies the z-correction algebra.
    """
    u0, uz, u, nu, psi = (float(v) for v in np.asarray(U_point, float))
    du0_dz, duz_dz, du_dz, dnu_dz, dpsi_dz = (float(v) for v in np.asarray(dU_dzeta, float))
    lam, i3, om, A, B = params.lam, params.iota3, params.omega, params.A, params.B
    cs = params.c_scale
    kap = params.kappa
    f = f_val
    g = -tau
    X = 4.0 + G_frak_val / B
    chi_over_B = X
    xi = 1.0 / (g * (1.0 + f))
    a = f / (1.0 + f)
    phi = 1.0 + a * u
    GB = G_frak_val / B
    q = lam + (3.0 - 8.0 * i3) / 30.0
    alpha_b = (3.0 * i3 + 2.0) ** 2 / (6.0 * (10.0 * lam + i3 + 9.0))

    # row 1: contrast-velocity equation
    f2 = (-(2.0 * chi_over_B / (9.0 * A * g)) * (1.0 / cs) * nu * uz
          + (chi_over_B / (9.0 * A * g)) * (1.0 / cs) * nu**2 * uz
          + (5.0 * (om + 2.0) * (1.0 - i3) * (1.0 + f) / (9.0 * cs * A * f * g))
          * (phi ** (1.0 + om) - 1.0) * uz
          + ((om + 1.0) * (2.0 + om) * (1.0 - i3) / (9.0 * A * f * g))
          * phi**om * (1.0 + f) * uz**2 / cs**2
          + (2.0 * i3 / (3.0 * A * g)) * (1.0 / cs) * uz * psi
          + 4.0 * chi_over_B * nu**2 * uz**2 / (27.0 * A * g * cs**2 * phi)
          + 8.0 * chi_over_B * nu * uz * (1.0 + u0) / (9.0 * A * g * cs * phi)
          + (2.0 * chi_over_B / (3.0 * A * g)) * phi
          * ((a * u - u0 - nu * uz / (3.0 * cs)) / phi - nu) ** 2
          + (2.0 * (1.0 - i3) * (1.0 + f) / (3.0 * A * f * g))
          * (phi ** (om + 2.0) * (1.0 - phi**-om) - om * a * u)
          + (2.0 / (3.0 * A * (1.0 + f) * g)) * f * u**2
          + (4.0 * chi_over_B / (3.0 * A * g * phi)) * (u0 - a * u) ** 2)
    r1 = ((1.0 / (A * tau)) * (4.0 * kap - 14.0 / 3.0 + (kap - 4.0 / 3.0) * GB) * u0
          - ((8.0 + 5.0 * om) * (1.0 - i3) / (9.0 * cs * A * tau)) * uz
          + (1.0 / (A * tau)) * (4.0 - 4.0 * kap + (4.0 / 3.0 - kap) * GB
                                 - 2.0 * om * (1.0 - i3) / 3.0) * u
          - (1.0 / A) * xi * (4.0 * kap - 14.0 / 3.0 + (kap - 4.0 / 3.0) * GB) * u
          + ((8.0 + 5.0 * om) * (1.0 - i3) / (9.0 * cs * A)) * xi * (1.0 + 1.0 / f) * uz
          + f2
          + (2.0 / (3.0 * A * B * tau)) * chi_over_B * B * nu * du0_dz
          - (1.0 / (A * tau)) * cs * (wave_block_weight(params) * (1.0 + 1.0 / f)
                                      + _z0_of(tau, U_point, G_frak_val, f_val, params)) * duz_dz)

    # row 2: derivative-compatibility equation
    z0 = _z0_of(tau, U_point, G_frak_val, f_val, params)
    q_w = wave_block_weight(params)
    r2 = ((1.0 / (A * tau)) * (q_w + z0) * uz
          - (q_w / A) * xi * (1.0 + 1.0 / f) * uz
          - (1.0 / (A * tau)) * cs * (q_w * (1.0 + 1.0 / f) + z0) * du0_dz)

    # row 3: contrast identity equation (times its diagonal weight q)
    r3 = q * (-(1.0 / (A * tau)) * X * u0 + (1.0 / (A * tau)) * X * u
              + (1.0 / A) * xi * (1.0 + 1.0 / f) * X * u0
              - (1.0 / A) * xi * (1.0 + 1.0 / f) * X * u)

    # row 4: rescaled-speed equation
    r4 = ((2.0 * (1.0 + om) * (1.0 - i3) / (3.0 * A * tau)) * u
          + (1.0 / (A * tau)) * (4.0 * kap - 2.0 / 3.0 + (kap - 1.0 / 3.0) * GB) * nu
          + (2.0 * i3 / (A * tau)) * psi
          + ((2.0 + om) * (1.0 - i3) / (3.0 * cs * A * tau)) * uz
          - ((2.0 + om) * (1.0 - i3) / (3.0 * cs * A)) * xi * (1.0 + 1.0 / f)
          * phi**om * uz
          + ((2.0 + om) * (1.0 - i3) / (3.0 * cs * A * tau)) * (phi**om - 1.0) * uz
          + (2.0 * (1.0 - i3) * (1.0 + f) / (3.0 * A * tau * f))
          * (phi ** (1.0 + om) - 1.0 - (1.0 + om) * a * u)
          + (1.0 / (3.0 * A * tau)) * X * nu**2
          + (1.0 / (3.0 * A * tau)) * X * nu
          * (3.0 * a * u / phi - 3.0 * u0 / phi - nu * uz / (cs * phi) - 3.0 * nu))

    # row 5: gravity equation
    r5 = (-(alpha_b / (A * tau)) * u + (3.0 * alpha_b / (A * tau)) * psi
          + (1.0 / (3.0 * A * tau)) * X * phi * nu
          - (X / (3.0 * A)) * xi * (1.0 + 1.0 / f) * phi * nu
          - (X / A) * xi * (1.0 + 1.0 / f) * psi
          + (alpha_b / (A * tau)) * dpsi_dz)

    return np.array([r1, r2, r3, r4, r5])


def _z0_of(tau, U_point, G_frak_val, f_val, params) -> float:
    u0, uz, u, nu, psi = (float(v) for v in np.asarray(U_point, float))
    om = params.omega
    f = f_val
    X = 4.0 + G_frak_val / params.B
    a = f / (1.0 + f)
    phi = 1.0 + a * u
    return (wave_block_weight(params) * (1.0 + 1.0 / f) * (phi ** (1.0 + om) - 1.0)
            - (X / (9.0 * params.c_scale**2)) * nu**2)


def test_two_path_agreement(params):
    # the assembled blocks must reproduce the literally transcribed equations
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        tau = -(10.0 ** rng.uniform(-2, 0))
        U = rng.uniform(-0.3, 0.3, 5)
        dUdz = rng.uniform(-0.5, 0.5, 5)
        f = 10.0 ** rng.uniform(-1, 5)
        G = rng.uniform(-1.5, 12.0)
        if 4.0 + G / params.B <= 0.05:
            continue
        ev = assemble_matrices(tau, U, G, f, params)
        rhs_mat = ev.frakB @ ev.U / tau + ev.H + (-tau) ** -0.5 * ev.F - ev.Bz @ dUdz
        rhs_dir = system_rhs_direct(tau, U, dUdz, G, f, params)
        scale = np.maximum(np.abs(rhs_dir), 1.0)
        worst = max(worst, float(np.max(np.abs(rhs_mat - rhs_dir) / scale)))
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# constants and conditions


def test_gamma_closed_forms(gconsts):
    # candidate list and the frozen minima for lam = 0.1, iota^3 = 0.2
    c1, c2, c3 = gconsts.candidates
    assert c1 == pytest.approx(0.8 / 415.0, rel=1e-12)           # 0.0019277...
    assert c2 == pytest.approx(1.0 / 1500.0, rel=1e-15)          # 0.0006667
    assert c3 == pytest.approx(1.0 / (27.0 * 13.3 * 10.2**2), rel=1e-12)  # 2.6766e-5
    assert gconsts.gamma1 == pytest.approx(0.5 * c3, rel=1e-15)
    assert gconsts.gamma1 == pytest.approx(1.3383e-5, abs=1e-9)
    assert gconsts.gamma2 == pytest.approx(6.4 + gconsts.gamma1, rel=1e-15)
    assert gconsts.gamma2 == pytest.approx(6.40001, abs=1e-5)
    assert 0.0 < gconsts.gamma1 < gconsts.gamma2
    assert gconsts.kappa_const == pytest.approx(
        gconsts.gamma1 / (1.0 * gconsts.gamma2_hat), rel=1e-15)
    assert gconsts.beta1_budget > 0.0


def test_gamma_randomized_order():
    rng = np.random.default_rng(9)
    for _ in range(20):
        lam = 10.0 ** rng.uniform(-3, 1)
        i3 = rng.uniform(1e-3, 0.2)
        p = params_from_iota3(i3, beta=0.1, gamma=0.5, lam=lam)
        gc = gamma_constants(p, (0.0, 5.0))
        assert gc.gamma1 > 0.0
        assert gc.gamma2 > gc.gamma1


def test_gamma_rejects_bad_G_range(params):
    with pytest.raises(NumericalFailure, match="positivity"):
        gamma_constants(params, (-4.1 * params.B, 1.0))


def test_q_positivity_sampled():
    rng = np.random.default_rng(1)
    for _ in range(100):
        lam = 10.0 ** rng.uniform(-3, 1)
        i3 = rng.uniform(1e-4, 0.2)
        assert q_quantity(lam, i3) > q_lower_bound(lam, i3)


def test_certified_radius_and_conditions(maps_deep, gconsts):
    r = find_certified_radius(maps_deep, gconsts)
    assert r > 0.0
    rep = verify_conditions(maps_deep, gconsts, r_tilde=r, n_samples=1000)
    assert rep.all_ok, rep.verdict
    assert rep.max_sum_abs_z < gconsts.gamma1
    assert rep.sandwich_margin > 0.0
    assert rep.H_at_zero_max == 0.0
    # |G|/sqrt(-tau) finite and stable under ladder refinement
    assert rep.G_halforder_stable
    assert 0.0 < rep.G_halforder_sup < 100.0
    # fitted singular orders: the 1/tau pieces sit near slope -1
    assert -1.35 < rep.divB_orders["b_singular"] < -0.65
    assert -1.35 < rep.divB_orders["c_dUBz"] < -0.65
    # half-order pieces never steeper than tau^(-3/4)
    assert rep.divB_orders["d_dtauB0"] > -0.75
    assert rep.divB_orders["e_halforder"] > -0.75


def test_sandwich_violated_outside_ball(maps_deep, gconsts):
    # far outside the certified ball the smallness budget must fail
    rep = verify_conditions(maps_deep, gconsts, r_tilde=0.3, n_samples=200)
    assert not rep.sum_z_ok


def test_noncertified_params_refused(gconsts):
    # the maps carry their params, so the refusal reads the model they were built from
    from jeanslab.params import build_params, k_from_iota

    loose = build_params(k_from_iota(0.7), beta=0.1, gamma=0.5, force=True)
    maps_loose = compute_g(integrate_contrast(loose, 1e8))
    with pytest.raises(UsageError, match="certified"):
        verify_conditions(maps_loose, gconsts, r_tilde=1e-7, n_samples=10)


# ---------------------------------------------------------------------------
# equivalence with the evolved system


def test_run_extraction_satisfies_system(traj_deep, maps_deep, params, monkeypatch):
    # the run stops at f = 50 and its fields are read against the deep maps
    st = init_from_data(params, *cosine_profiles(64, 1e-3))
    monkeypatch.setattr(pde, "_SNAPSHOTS", 400)
    res = evolve(st, traj_to_cap(params, 50.0))
    states = res.states
    mid = len(states) // 2
    win = states[mid - 2:mid + 3]
    fields = [fuchsian_fields(s, traj_deep, maps_deep) for s in win]
    taus = np.array([F.tau for F in fields])
    stack = np.stack([F.U for F in fields])
    center = 2
    dU = np.empty_like(fields[center].U)
    for i in range(5):
        for j in range(fields[center].n):
            dU[i, j] = np.polyfit(taus - taus[center], stack[:, i, j], 4)[3]
    Fc = fields[center]
    h = 1.0 / Fc.n
    dUdz = np.stack([diff1(Fc.U[i], h) for i in range(5)])
    # one call over all columns: the points are the rows of U.T
    ev = assemble_matrices(Fc.tau, Fc.U.T, Fc.G_frak, Fc.f, params)
    defect = system_residual(ev, dU.T, dUdz.T)
    assert defect.shape == (Fc.n, 5)
    assert float(np.max(np.abs(defect))) < 1e-8


# ---------------------------------------------------------------------------
# the batched (..., 5) form against single points and the per-sample loops


def test_batched_slices_equal_single_points(params):
    rng = np.random.default_rng(11)
    tau = -np.array([[1.0], [0.25], [0.02], [1e-3]])
    G = np.array([[0.3], [-1.2], [4.0], [11.5]])
    f = np.array([[0.2], [5.0], [3e3], [8e7]])
    # radii from 1e-9 to 0.3 mix the series and direct branches of _pow_ratio*
    direc = rng.uniform(-1.0, 1.0, (4, 12, 5))
    U = direc * np.geomspace(1e-9, 0.3, 12)[None, :, None]
    U[:, 0] = 0.0
    ev = assemble_matrices(tau, U, G, f, params)
    assert ev.B0.shape == ev.Bz.shape == ev.frakB.shape == (4, 12, 5, 5)
    assert ev.Z.shape == (4, 12, 8) and ev.H.shape == ev.F.shape == (4, 12, 5)
    for i in range(4):
        for j in range(12):
            one = assemble_matrices(float(tau[i, 0]), U[i, j], float(G[i, 0]),
                                    float(f[i, 0]), params)
            for fld in dataclasses.fields(one):
                assert np.array_equal(getattr(ev, fld.name)[i, j],
                                      getattr(one, fld.name)), fld.name
            assert ev.sum_abs_z[i, j] == one.sum_abs_z


def test_system_residual_batched_equals_per_point(params):
    rng = np.random.default_rng(12)
    tau = -np.geomspace(1.0, 1e-3, 6)[:, None]
    U = rng.uniform(-0.05, 0.05, (6, 9, 5))
    dU_dtau, dU_dzeta = rng.standard_normal((2, 6, 9, 5))
    ev = assemble_matrices(tau, U, 0.4, 20.0, params)
    batched = system_residual(ev, dU_dtau, dU_dzeta)
    assert batched.shape == (6, 9, 5)
    for i in range(6):
        for j in range(9):
            one = assemble_matrices(float(tau[i, 0]), U[i, j], 0.4, 20.0, params)
            assert np.array_equal(batched[i, j],
                                  system_residual(one, dU_dtau[i, j], dU_dzeta[i, j]))


def test_domain_errors_are_typed(params):
    with pytest.raises(DomainError, match="fractional-power"):
        assemble_matrices(-0.5, np.array([[0.0] * 5, [0.0, 0.0, -3.0, 0.0, 0.0]]),
                          0.0, 10.0, params)
    with pytest.raises(DomainError, match="chi must stay positive"):
        assemble_matrices(-0.5, np.zeros((3, 5)), [0.0, -5.0 * params.B, 0.0], 1.0, params)


def test_corrections_equal_assembled_Z(maps_deep, params):
    # 9 rungs x 400 samples, at the largest radius and at the certified one
    tau = fuchsian._tau_ladder(maps_deep)[:, None]
    f_val, G_val = maps_deep.f_G_at_tau(tau)
    unit, radial = fuchsian._ball_directions(400, 20240)
    for r in (1e-2, 1e-2 * 0.5**17):
        U = unit * (r * radial)[:, None]
        Z = fuchsian._corrections(tau, U, G_val, f_val, params).Z
        ev = assemble_matrices(tau, U, G_val, f_val, params)
        assert Z.shape == (9, 400, 8) and np.array_equal(Z, ev.Z)
        for i, j in ((0, 0), (4, 123), (8, 399)):
            one = fuchsian._corrections(float(tau[i, 0]), U[j], float(G_val[i, 0]),
                                        float(f_val[i, 0]), params).Z
            assert one.shape == (8,) and np.array_equal(one, ev.Z[i, j])


def test_corrections_raise_the_domain_errors_of_assembly(params):
    cases = [(np.array([[0.0] * 5, [0.0, 0.0, -3.0, 0.0, 0.0]]), 0.0, 10.0, "fractional-power"),
             (np.zeros((3, 5)), [0.0, -5.0 * params.B, 0.0], 1.0, "chi must stay positive")]
    for U, G, f, match in cases:
        with pytest.raises(DomainError, match=match) as direct:
            fuchsian._corrections(-0.5, U, G, f, params)
        with pytest.raises(DomainError) as assembled:
            assemble_matrices(-0.5, U, G, f, params)
        assert str(direct.value) == str(assembled.value)


def test_radius_search_assembles_no_blocks(maps_deep, gconsts, monkeypatch):
    # it evaluates only the corrections: no assemble_matrices call, the same
    # radius, and well under the 3 MiB that assembling every try held
    def refused(*args):
        raise AssertionError("the radius search assembled the blocks")

    monkeypatch.setattr(fuchsian, "assemble_matrices", refused)
    tracemalloc.start()
    try:
        r_tilde = find_certified_radius(maps_deep, gconsts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r_tilde == 1e-2 * 0.5**17
    assert peak <= 2**20


def _count_corrections(monkeypatch) -> list:
    """Patch fuchsian._corrections to append the leading shape of each call to the
    list returned."""
    real = fuchsian._corrections
    leads = []

    def counted(*args):
        c = real(*args)
        leads.append(c.lead)
        return c

    monkeypatch.setattr(fuchsian, "_corrections", counted)
    return leads


def test_radius_search_work_counts(maps_deep, gconsts, monkeypatch):
    # one _corrections call: the 5 complex steps at each of the 9 rungs
    leads = _count_corrections(monkeypatch)
    assert find_certified_radius(maps_deep, gconsts) == 1e-2 * 0.5**17
    assert leads == [(9, 5)]


def _radius_loop(maps, constants, seed=20240, n_samples=400, r_start=1e-2,
                 shrink=0.5, max_iter=40):
    """The per-sample loop find_certified_radius used before the batched form."""
    params = maps.params
    tau_ladder = fuchsian._tau_ladder(maps)
    r = r_start
    for _ in range(max_iter):
        samples = fuchsian._ball_samples(n_samples, r, seed)
        worst = 0.0
        for tau in tau_ladder:
            f_val, G_val = maps.f_G_at_tau(tau)
            for U in samples:
                try:
                    ev = assemble_matrices(float(tau), U, G_val, f_val, params)
                except DomainError:
                    worst = math.inf
                    break
                worst = max(worst, ev.sum_abs_z)
            if worst > constants.gamma1:
                break
        if worst < constants.gamma1:
            return r
        r *= shrink
    raise RuntimeError("no certified radius found down to the shrink floor")


def _halving_reference(maps, constants, seed=20240, n_samples=400, r_start=1e-2):
    """The sampled halving search find_certified_radius made before it took the
    linearised corrections: the first of the radii r_start * 2^-k, k < 40, at which no
    sample of the ball breaks the budget or leaves the domain at any rung."""
    tau = fuchsian._tau_ladder(maps)[:, None]
    f_val, G_val = maps.f_G_at_tau(tau)
    unit, radial = fuchsian._ball_directions(n_samples, seed)
    r = r_start
    for _ in range(40):
        samples = unit * (r * radial)[:, None]
        try:
            worst = np.abs(fuchsian._corrections(tau, samples, G_val, f_val,
                                                 maps.params).Z).sum(-1).max()
        except DomainError:
            worst = math.inf
        if worst < constants.gamma1:
            return r
        r *= 0.5
    raise NumericalFailure("no certified radius found down to the shrink floor")


def _conditions_loop(maps, constants, r_tilde, n_samples, seed=20240, eig_tol=1e-12,
                     rung_batches=False):
    """The per-sample loop verify_conditions used before the batched form.

    Each point is assembled alone, so the loop also checks the batched assembly on
    the ladder.  With ``rung_batches`` each rung's points are assembled in one call,
    the same bits (test_batched_slices_equal_single_points) in a fifth of the time,
    for the cases that check the eigenvalue screen on many samples."""
    params = maps.params
    tau_ladder = fuchsian._tau_ladder(maps)
    samples = fuchsian._ball_samples(n_samples, r_tilde, seed)
    samples[0] = 0.0
    gb1, gb2 = constants.gamma_bar1, constants.gamma_bar2
    kap = constants.kappa_const
    sandwich_ok = True
    margin = math.inf
    worst = None
    max_sum_z = 0.0
    eig_b0 = [math.inf, -math.inf]
    eig_fb = [math.inf, -math.inf]
    h_at_zero = 0.0
    finite = True
    symmetric = True
    per_tau = max(1, len(samples) // len(tau_ladder))
    idx = 0
    for tau in tau_ladder:
        f_val, G_val = maps.f_G_at_tau(tau)
        chunk = samples[idx:idx + per_tau] if idx + per_tau <= len(samples) else samples[:per_tau]
        idx += per_tau
        points = np.vstack([np.zeros(5), chunk])
        if rung_batches:
            rung = assemble_matrices(float(tau), points, G_val, f_val, params)
            evs = [fuchsian.FuchsianEval(*(getattr(rung, f.name)[k]
                                           for f in dataclasses.fields(rung)))
                   for k in range(len(points))]
        else:
            evs = [assemble_matrices(float(tau), U, G_val, f_val, params) for U in points]
        for U, ev in zip(points, evs):
            symmetric &= bool(np.array_equal(ev.B0, ev.B0.T) and np.array_equal(ev.Bz, ev.Bz.T))
            finite &= bool(np.isfinite(ev.B0).all() and np.isfinite(ev.Bz).all()
                           and np.isfinite(ev.frakB).all() and np.isfinite(ev.H).all()
                           and np.isfinite(ev.F).all())
            if not np.any(U):
                h_at_zero = max(h_at_zero, float(np.max(np.abs(ev.H))))
            sym_fb = 0.5 * (ev.frakB + ev.frakB.T)
            w_fb = np.linalg.eigvalsh(sym_fb)
            w_b0 = np.sort(np.diag(ev.B0))
            eig_b0 = [min(eig_b0[0], w_b0[0]), max(eig_b0[1], w_b0[-1])]
            eig_fb = [min(eig_fb[0], w_fb[0]), max(eig_fb[1], w_fb[-1])]
            m1 = w_b0[0] - gb1
            m2 = float(np.linalg.eigvalsh(sym_fb / kap - ev.B0).min())
            m3 = gb2 - w_fb[-1] / kap
            m = min(m1, m2, m3)
            if m < margin:
                margin, worst = m, (float(tau), U.copy())
            if m < -eig_tol:
                sandwich_ok = False
            max_sum_z = max(max_sum_z, ev.sum_abs_z)
    return dict(sandwich_ok=sandwich_ok, sandwich_margin=float(margin), worst_sample=worst,
                eig_B0_range=tuple(eig_b0), eig_frakB_range=tuple(eig_fb),
                max_sum_abs_z=max_sum_z, H_at_zero_max=h_at_zero,
                entries_finite=finite, symmetry_exact=symmetric)


@pytest.mark.parametrize("n_samples", [10, 60])
def test_radius_search_equals_per_sample_loop(maps_deep, gconsts, n_samples):
    # the sampled oracle, point by point, finds the same radius on the defaults
    assert (find_certified_radius(maps_deep, gconsts)
            == _radius_loop(maps_deep, gconsts, n_samples=n_samples)
            == _halving_reference(maps_deep, gconsts, n_samples=n_samples))


@functools.cache
def _deep_maps_and_constants(**changes):
    """The time maps to f = 1e8 and the sandwich constants of the test defaults
    with ``changes``, once per session."""
    kw = {**dict(iota3=0.2, beta=0.1, gamma=0.5, lam=0.1, A=1.0), **changes}
    p = params_from_iota3(kw.pop("iota3"), **kw)
    m = compute_g(traj_to_cap(p, 1e8))
    return m, gamma_constants(p, (float(m.G_frak.min()), float(m.G_frak.max())))


@pytest.mark.parametrize("seed", [1, 2, 3, 20240])
@pytest.mark.parametrize("changes", [{}, {"gamma": 0.9}, {"lam": 1.0}],
                         ids=["defaults", "gamma0.9", "lam1"])
def test_radius_search_equals_halving_reference(changes, seed):
    # the same float as the sampled search at each of its seeds
    m, gc = _deep_maps_and_constants(**changes)
    assert find_certified_radius(m, gc) == _halving_reference(m, gc, seed=seed)


# parameter sets where the sampled search over-claims: its radius puts the worst
# first-order direction over gamma1 (1.033 gamma1 and 1.019 gamma1 at tau = -1)
_OVERCLAIMED = [{"iota3": 0.15, "beta": 0.02, "gamma": 1.0}, {"lam": 10.0}]


@pytest.mark.parametrize("seed", [1, 20240])
@pytest.mark.parametrize("changes", _OVERCLAIMED, ids=["iota0.15", "lam10"])
def test_radius_search_never_above_halving_reference(changes, seed):
    m, gc = _deep_maps_and_constants(**changes)
    assert find_certified_radius(m, gc) == 0.5 * _halving_reference(m, gc, seed=seed)


def test_radius_search_fails_as_the_halving_reference(monkeypatch):
    # gamma1 ~ 1.4e-23 at lam = 1e6: no radius down to 1e-2 * 2^-39 fits
    m, gc = _deep_maps_and_constants(lam=1e6)
    assert gc.gamma1 < 1e-22
    with pytest.raises(NumericalFailure) as reference:
        _halving_reference(m, gc)
    leads = _count_corrections(monkeypatch)
    with pytest.raises(NumericalFailure) as linearised:
        find_certified_radius(m, gc)
    assert str(linearised.value) == str(reference.value)
    assert len(leads) == 1


def _central_jacobians(maps, h=1e-7):
    """dZ/dU (rungs, 8, 5) at U = 0 on the tau ladder by central differences of
    _corrections, independent of the complex step."""
    tau = fuchsian._tau_ladder(maps)[:, None]
    f_val, G_val = maps.f_G_at_tau(tau)
    steps = h * np.concatenate([np.eye(5), -np.eye(5)])
    Z = fuchsian._corrections(tau, steps, G_val, f_val, maps.params).Z
    return (Z[:, :5] - Z[:, 5:]).swapaxes(-1, -2) / (2.0 * h)


@pytest.mark.parametrize("changes", [{}, *_OVERCLAIMED], ids=["defaults", "iota0.15", "lam10"])
def test_correction_jacobians_equal_central_differences(changes):
    m, _ = _deep_maps_and_constants(**changes)
    J = fuchsian._correction_jacobians(m)
    assert J.shape == (len(fuchsian._tau_ladder(m)), 8, 5) and J.dtype == float
    central = _central_jacobians(m)
    for rung in range(len(J)):
        scale = np.abs(J[rung]).max()
        assert np.abs(J[rung] - central[rung]).max() <= 1e-8 * scale, rung


def test_corrections_take_complex_steps_and_keep_real_calls_real(params, traj, maps):
    # a real call keeps its dtype and its array; the complex step's imaginary part is
    # the derivative, and its real part the value at U = 0 (zero) to order h^2
    U = np.array([[1e-8, -2e-8, 3e-8, 0.0, 1e-9]])
    assert fuchsian._inexact(U) is U
    assert fuchsian._inexact([[0, 1]]).dtype == float
    assert fuchsian._pow_ratio(0.5, 1.5, [0, 1]).dtype == float
    assert fuchsian._corrections(-0.5, U, 0.2, 3.0, params).Z.dtype == float
    stepped = fuchsian._corrections(-0.5, 1e-20j * np.eye(5), 0.2, 3.0, params).Z
    assert stepped.dtype == complex and np.abs(stepped.real).max() < 1e-30
    # assemble_matrices likewise, with C-ordered blocks; a complex tau, G or f steps too
    ev = assemble_matrices(-0.5, U, 0.2, 3.0, params)
    for args in ((-0.5, U + 1e-20j, 0.2, 3.0), (-0.5 + 1e-20j, U, 0.2 + 1e-20j, 3.0 + 1e-20j)):
        ev_c = assemble_matrices(*args, params)
        for name in ("B0", "Bz", "frakB", "H", "F", "Z"):
            real, cplx = getattr(ev, name), getattr(ev_c, name)
            assert real.dtype == float and real.flags.c_contiguous, name
            assert cplx.dtype == complex and cplx.flags.c_contiguous, name
    # and the reads of the trajectory and the time maps: float in, float out
    t, tau = np.array([1.2, 2.0]), np.array([-0.9, -0.5])
    for read, x in ((traj.f_f0_at, t), (maps.f_G_at_tau, tau)):
        assert all(v.dtype == float for v in read(x))
        assert all(v.dtype == complex for v in read(x + 1e-20j))
    assert all(type(v) is float for v in maps.f_G_at_tau(-0.5))
    assert all(type(v) is complex for v in maps.f_G_at_tau(-0.5 + 1e-20j))


def test_jacobian_norm_bounds_every_drawn_direction(maps_deep):
    # ||J x||_1 over 20,000 drawn unit directions never exceeds ||J||_{2->1}, and the
    # direction J^T s* / ||J^T s*|| of the best sign vector attains it
    J = fuchsian._correction_jacobians(maps_deep)
    norms = fuchsian._norm_2to1(J)
    x = np.random.default_rng(5).standard_normal((20000, 5))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    drawn = np.abs(J[:, None] @ x[..., None])[..., 0].sum(-1).max(-1)
    assert np.all(drawn <= norms) and np.all(drawn > 0.99 * norms)
    best = np.abs((J @ _worst_first_order_direction(J)[..., None])[..., 0]).sum(-1)
    assert np.allclose(best, norms, rtol=1e-14)


def _worst_first_order_direction(J):
    """x* = J^T s* / ||J^T s*|| (rungs, 5), s* the sign vector of largest ||J^T s||,
    by enumeration of all 256 sign vectors."""
    signs = np.array(np.meshgrid(*[[1.0, -1.0]] * 8, indexing="ij")).reshape(8, -1).T
    v = signs @ J
    best = v[np.arange(len(J)), np.vecdot(v, v).argmax(-1)]
    return best / np.linalg.norm(best, axis=-1, keepdims=True)


@pytest.mark.parametrize("changes", [{}, _OVERCLAIMED[0]], ids=["defaults", "iota0.15"])
def test_worst_first_order_point_keeps_the_budget(changes):
    # at r_tilde x*_tau, the first-order worst point of each rung, sum |z| stays under
    # gamma1; at the iota^3 = 0.15 set the sampled search's radius put the first rung's
    # at 1.033 gamma1, a direction none of its samples came near
    m, gc = _deep_maps_and_constants(**changes)
    r = find_certified_radius(m, gc)
    x = _worst_first_order_direction(_central_jacobians(m))
    tau = fuchsian._tau_ladder(m)[:, None]
    f_val, G_val = m.f_G_at_tau(tau)
    Z = fuchsian._corrections(tau, (r * x)[:, None], G_val, f_val, m.params).Z
    assert np.all(np.abs(Z).sum(-1) < gc.gamma1)


@pytest.mark.parametrize("seed", [1, 2, 20240])
def test_radius_search_draws_its_samples_once(maps_deep, gconsts, monkeypatch, seed):
    # the radius comes from the Jacobian alone and draws no samples; the one draw
    # of a seed is the conditions', and the radius holds on the samples of each seed
    draws = []
    halton = fuchsian._scrambled_halton
    monkeypatch.setattr(fuchsian, "_scrambled_halton",
                        lambda *args: draws.append(args) or halton(*args))
    r = find_certified_radius(maps_deep, gconsts)
    assert r == 1e-2 * 0.5**17
    assert draws == []
    rep = verify_conditions(maps_deep, gconsts, r_tilde=r, n_samples=400, seed=seed)
    assert draws == [(6, 400, seed)]
    assert rep.sandwich_ok and rep.sum_z_ok


def test_one_ball_draw_serves_both_searches(maps_deep, gconsts, monkeypatch, tmp_path):
    # a fuchsian-check run finds the radius and checks the conditions on one
    # Halton draw, the conditions', since the radius search draws none
    draws = []
    halton = fuchsian._scrambled_halton
    monkeypatch.setattr(fuchsian, "_scrambled_halton",
                        lambda *args: draws.append(args) or halton(*args))
    assert main(["fuchsian-check", "--output-dir", str(tmp_path / "o")]) == 0
    assert draws == [(6, 2000, 20240)]


@pytest.mark.parametrize("seed", [1, 20240])
@pytest.mark.parametrize("n_samples", [1, 2000])
def test_conditions_draw_their_samples_once(maps_deep, gconsts, monkeypatch, n_samples, seed):
    # one draw of at least 3 points: the samples are its prefix, the div B point its point 2
    calls = []
    draw = fuchsian._scrambled_halton

    def counted(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(fuchsian, "_scrambled_halton", counted)
    verify_conditions(maps_deep, gconsts, r_tilde=1e-2 * 0.5**17, n_samples=n_samples, seed=seed)
    assert calls == [(6, max(n_samples, 3), seed)]


def _assert_conditions_equal_loop(maps, constants, r_tilde, n_samples, rung_batches=False):
    rep = verify_conditions(maps, constants, r_tilde=r_tilde, n_samples=n_samples)
    loop = _conditions_loop(maps, constants, r_tilde, n_samples, rung_batches=rung_batches)
    tau_w, U_w = loop.pop("worst_sample")
    assert rep.worst_sample[0] == tau_w and np.array_equal(rep.worst_sample[1], U_w)
    for k, v in loop.items():
        assert getattr(rep, k) == v, k


# rungs that wrap (5 samples on 9 rungs) and rungs that do not (10); radii where the
# eigenvalue screen leaves nearly every sample to the exact solve (0.05); and the
# certified radius (r_tilde None), where it leaves about 2 of 2,007.  The 2,000-sample
# case assembles the oracle's points rung by rung for time; the others point by point
@pytest.mark.parametrize("changes,n_samples,r_tilde", [
    *(pytest.param({}, n, r, id=f"{r}-{n}") for r in (5e-8, 0.05) for n in (5, 10, 200)),
    pytest.param({}, 2000, None, id="certified-2000"),
    *(pytest.param(changes, n, r, id=f"{name}-{r or 'certified'}-{n}")
      for name, changes in (("gamma0.9", {"gamma": 0.9}), ("lam1", {"lam": 1.0}))
      for n, r in ((10, 5e-8), (200, 0.05), (200, None))),
])
def test_conditions_equal_per_sample_loop(changes, n_samples, r_tilde):
    m, gc = _deep_maps_and_constants(**changes)
    assert changes or len(fuchsian._tau_ladder(m)) == 9
    if r_tilde is None:
        r_tilde = find_certified_radius(m, gc)
    _assert_conditions_equal_loop(m, gc, r_tilde, n_samples, rung_batches=n_samples == 2000)


@pytest.mark.parametrize("meets", ["m2", "m3"])
def test_conditions_equal_per_sample_loop_where_margins_meet(meets):
    # gamma_bar1 (or gamma_bar2) moved so that m1 equals m2 (or m3) at the origin of the
    # median rung.  m1 is the same at every sample, so at the certified radius many
    # samples fall below it: the screen sends about half of them (m3) to nearly all
    # (m2, whose Weyl bound is as wide as its spread) to eigvalsh
    m, gc = _deep_maps_and_constants()
    r_tilde = find_certified_radius(m, gc)
    tau = fuchsian._tau_ladder(m)
    f_val, G_val = m.f_G_at_tau(tau)
    ev = assemble_matrices(tau, np.zeros(5), G_val, f_val, m.params)
    kap = gc.kappa_const
    sym = 0.5 * (ev.frakB + ev.frakB.swapaxes(-1, -2))
    b0_min = np.diagonal(ev.B0, axis1=-2, axis2=-1).min(-1)
    if meets == "m2":
        gc = dataclasses.replace(gc, gamma_bar1=float(np.median(
            b0_min - np.linalg.eigvalsh(sym / kap - ev.B0)[:, 0])))
    else:
        gc = dataclasses.replace(gc, gamma_bar2=float(np.median(
            b0_min - gc.gamma_bar1 + np.linalg.eigvalsh(sym)[:, -1] / kap)))
    _assert_conditions_equal_loop(m, gc, r_tilde, 200, rung_batches=True)


def test_conditions_first_minimum_where_m3_ties_at_every_sample():
    # gamma_bar2 so far below lambda_max/kappa that m3 rounds to gamma_bar2 at every
    # sample: the least margin is then first met at the first sample, whose lambda_max
    # is not the largest, so the m3 screen must send it to eigvalsh
    m, gc = _deep_maps_and_constants()
    r_tilde = find_certified_radius(m, gc)
    gc = dataclasses.replace(gc, gamma_bar2=-1e20)
    _assert_conditions_equal_loop(m, gc, r_tilde, 200, rung_batches=True)


def test_conditions_solve_few_eigenvalue_problems_at_the_certified_radius(monkeypatch):
    # certify's setting: 9 rungs of 223 samples at r_tilde and seed 1.  The full solve
    # passed all 2,007 matrices to eigvalsh twice; the screen passes the 9 origins of
    # M/kappa - B0 and the few samples that can set a reported value
    m, gc = _deep_maps_and_constants()
    r = find_certified_radius(m, gc)
    assert r == 1e-2 * 0.5**17
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        solved.append(np.shape(a)[:-2])
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    rep = verify_conditions(m, gc, r_tilde=r, n_samples=2000, seed=1)
    assert rep.all_ok, rep.verdict
    assert sum(math.prod(shape) for shape in solved) <= 20


def _divB_pieces_loop(tau, U, W, maps):
    """_divB_pieces at one rung, point by point: one read of the maps at tau + ih,
    the real point's blocks, then one assemble_matrices call per derivative."""
    params, h = maps.params, COMPLEX_STEP
    f_c, G_c = maps.f_G_at_tau(tau + 1j * h)
    f_val, G_val = f_c.real, G_c.real
    ev = assemble_matrices(tau, U, G_val, f_val, params)
    b0_inv = np.linalg.inv(ev.B0)
    rhs_parts = {
        "a_flux": -ev.Bz @ W,
        "b_singular": ev.frakB @ U / tau,
        "e_halforder": (-tau) ** -0.5 * ev.F,
    }

    def along(v, block="B0"):  # the block's derivative along v
        return getattr(assemble_matrices(tau, U + 1j * h * v, G_val, f_val, params),
                       block).imag / h

    pieces = {k: along(b0_inv @ v) for k, v in rhs_parts.items()}
    pieces["c_dUBz"] = along(W, "Bz")
    pieces["d_dtauB0"] = assemble_matrices(tau + 1j * h, U, G_c, f_c, params).B0.imag / h
    return {k: float(np.linalg.norm(v)) for k, v in pieces.items()}


@pytest.mark.parametrize("zero_W", [False, True])
def test_divB_pieces_equal_per_point_loop(maps_deep, zero_W):
    # one call over the whole ladder; each rung equals the per-point loop at that rung
    U = fuchsian._ball_samples(4, 5e-8, 20240)[2]
    W = np.zeros(5) if zero_W else np.random.default_rng(3).standard_normal(5) * 1e-8
    ladder = fuchsian._tau_ladder(maps_deep)
    pieces = fuchsian._divB_pieces(ladder, U, W, maps_deep)
    assert all(v.shape == ladder.shape for v in pieces.values())
    for i, tau in enumerate(ladder):
        assert ({k: v[i] for k, v in pieces.items()}
                == _divB_pieces_loop(float(tau), U, W, maps_deep))


def test_divB_pieces_read_the_maps_once_per_rung(maps_deep, monkeypatch):
    # one tau read over the ladder, at tau + ih: the first rung, tau = -1 at t0, is
    # read at the maps' first point and not before it
    reads = []
    read = type(maps_deep).f_G_at_tau

    def recorded(self, tau):
        reads.append(np.array(tau))
        return read(self, tau)

    monkeypatch.setattr(type(maps_deep), "f_G_at_tau", recorded)
    ladder = fuchsian._tau_ladder(maps_deep)
    fuchsian._divB_pieces(ladder, np.full(5, 1e-8), np.full(5, 1e-8), maps_deep)
    assert ladder[0] == maps_deep.tau[0] == -1.0
    assert len(reads) == 1 and np.array_equal(reads[0], ladder + 1j * COMPLEX_STEP)


@pytest.mark.parametrize("beta", [1e-3, 0.1])
def test_divB_tau_derivative_at_the_first_rung_equals_a_fine_forward_difference(beta):
    # at tau = -1 (t0) the second-order forward difference at dtau = 1e-10 meets the
    # complex step to 1e-6 relative: 3.6e-8 at beta = 1e-3, and 5.7e-7 at beta = 0.1,
    # most of it the difference's rounding, 8 eps max|B0| / (2 dtau) = 8.8e-6 of a
    # derivative of 7.0.  The forward difference at 1e-5 |tau| that the pieces once
    # took read 224.0 for 691.5 at beta = 1e-3, 0.68 off
    m, _ = _deep_maps_and_constants(beta=beta)
    U, W = fuchsian._ball_samples(4, 1e-2 * 0.5**17, 20240)[2], np.zeros(5)
    stepped = fuchsian._divB_pieces(fuchsian._tau_ladder(m), U, W, m)["d_dtauB0"][0]
    dtau = 1e-10
    taus = -1.0 + dtau * np.arange(3.0)
    f_val, G_val = m.f_G_at_tau(taus)
    B0 = assemble_matrices(taus[:, None], U, G_val[:, None], f_val[:, None], m.params).B0[:, 0]
    forward = np.linalg.norm((-3.0 * B0[0] + 4.0 * B0[1] - B0[2]) / (2.0 * dtau))
    assert abs(stepped - forward) <= 1e-6 * forward


def _divB_order_fit_loop(maps, r_tilde, seed):
    """The per-rung fit _divB_order_fit made before the pieces took the whole ladder."""
    rng = np.random.default_rng(seed)
    ladder = fuchsian._tau_ladder(maps)
    U = fuchsian._ball_samples(4, r_tilde, seed)[2]
    W = rng.standard_normal(5)
    W *= r_tilde / np.linalg.norm(W)
    norms = {k: [] for k in ("a_flux", "b_singular", "c_dUBz", "d_dtauB0", "e_halforder")}
    for tau in ladder:
        piece = _divB_pieces_loop(float(tau), U, W, maps)
        for k in norms:
            norms[k].append(piece[k])
    logt = np.log(-ladder)
    orders = {}
    for k, vals in norms.items():
        v = np.asarray(vals)
        mask = v > 0.0
        orders[k] = (float(np.polyfit(logt[mask], np.log(v[mask]), 1)[0])
                     if mask.sum() > 2 else 0.0)
    stable = True
    for k in ("d_dtauB0", "e_halforder"):
        v = np.asarray(norms[k]) * np.sqrt(-ladder)
        half = v[: max(2, len(v) // 2)]
        stable &= bool(np.max(v) <= 1.5 * max(np.max(half), 1e-300))
    for k in ("a_flux", "b_singular", "c_dUBz"):
        v = np.asarray(norms[k]) * (-ladder)
        if np.all(v > 0.0):
            stable &= bool(np.max(v) / np.min(v) < 50.0)
    return orders, stable


@pytest.mark.parametrize("seed", [1, 20240])
@pytest.mark.parametrize("r_tilde", [1e-2 * 0.5**17, 0.05])
def test_divB_order_fit_equals_per_rung_loop(maps_deep, seed, r_tilde):
    U = fuchsian._ball_samples(4, r_tilde, seed)[2]
    orders, stable = fuchsian._divB_order_fit(maps_deep, U, r_tilde, seed)
    orders_loop, stable_loop = _divB_order_fit_loop(maps_deep, r_tilde, seed)
    assert list(orders.items()) == list(orders_loop.items())
    assert stable == stable_loop


def test_conditions_make_three_assemble_calls(maps_deep, gconsts, monkeypatch):
    # one over the sandwich samples, one over the div B centres, one over its complex
    # points
    calls = []
    assemble = fuchsian.assemble_matrices

    def counted(*args):
        calls.append(args)
        return assemble(*args)

    monkeypatch.setattr(fuchsian, "assemble_matrices", counted)
    rep = verify_conditions(maps_deep, gconsts, r_tilde=1e-2 * 0.5**17, n_samples=200)
    assert rep.all_ok, rep.verdict
    assert len(calls) == 3
