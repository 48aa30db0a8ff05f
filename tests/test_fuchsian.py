import dataclasses
import math

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from conftest import cosine_profiles, flat_profiles
from jeanslab import fuchsian, pde
from jeanslab.contrast_ode import integrate_contrast
from jeanslab.errors import NumericalFailure, UsageError
from jeanslab.fuchsian import (DomainError, assemble_matrices, find_certified_radius,
                               fuchsian_fields, gamma_constants, q_lower_bound,
                               q_quantity, system_residual, system_rhs_direct,
                               verify_conditions, wave_block_weight)
from jeanslab.pde import EvolveControls, diff1, evolve, init_from_data
from jeanslab.timemaps import compute_g


@pytest.fixture(scope="module")
def gconsts(params, maps_deep):
    g_range = (float(maps_deep.G_frak.min()), float(maps_deep.G_frak.max()))
    return gamma_constants(params, g_range)


# ---------------------------------------------------------------------------
# field extraction


def test_fields_vanish_on_homogeneous(traj, maps, params):
    d = lambda r: np.ones_like(np.asarray(r, float))
    v = lambda r: -np.ones_like(np.asarray(r, float))
    st = init_from_data(params, d, v, 64)
    F = fuchsian_fields(st, traj, maps)
    assert np.max(np.abs(F.U)) < 1e-13
    assert F.tau == pytest.approx(-1.0, abs=1e-10)


def test_uz_consistency(traj, maps, params):
    d, v = cosine_profiles(params, 1e-2)
    st = init_from_data(params, d, v, 128)
    F = fuchsian_fields(st, traj, maps)
    u0_, uz_, u_, nu_, psi_ = F.U
    h = 1.0 / st.n
    cs = params.c_scale
    f = F.f
    expect = (cs * f / (1.0 + f)) * diff1(u_, h)
    assert np.max(np.abs(uz_ - expect)) < 1e-12


def test_psi_field_bound(traj, maps, params):
    d, v = cosine_profiles(params, 1e-2, eps_v=5e-3)
    st = init_from_data(params, d, v, 128)
    F = fuchsian_fields(st, traj, maps)
    assert np.max(np.abs(F.U[4])) <= np.max(np.abs(F.U[2])) / 3.0 + 1e-14


def test_time_map_interpolants_built_once(traj_deep, params, gconsts):
    # each reader equals one scipy PCHIP per quantity, at scalar and array arguments
    m = compute_g(traj_deep, refine=2)
    log1pf = PchipInterpolator(m.tau, np.log1p(m.f))
    G_of_tau = PchipInterpolator(m.tau, m.G_frak)
    log_g = PchipInterpolator(m.t_grid, np.log(m.g))
    G_of_t = PchipInterpolator(m.t_grid, m.G_frak)
    taus = np.concatenate([m.tau[::40], -np.geomspace(1.0, -m.tau[-1], 9)])
    ts = np.append(m.t_grid[::40], [1.5, m.t_grid[-1]])
    for reader, xs, (post, u), v in ((m.f_G_at_tau, taus, (np.expm1, log1pf), G_of_tau),
                                     (m.g_G_at, ts, (np.exp, log_g), G_of_t)):
        for x in xs:
            assert reader(x) == (float(post(u(x))), float(v(x)))
        for arr in (xs, xs[:, None]):
            got_u, got_v = reader(arr)
            assert np.array_equal(got_u, post(u(arr))) and np.array_equal(got_v, v(arr))

    before = dict(vars(m))
    st = init_from_data(params, *flat_profiles(), 32)
    F = fuchsian_fields(st, traj_deep, m)
    assert (F.tau, F.G_frak) == (-float(np.exp(log_g(st.t))), float(G_of_t(st.t)))
    r = find_certified_radius(m, gconsts, n_samples=20)
    verify_conditions(m, gconsts, r_tilde=r, n_samples=20)
    assert vars(m).keys() == before.keys()
    assert all(vars(m)[k] is v for k, v in before.items())
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.chi = m.chi


# ---------------------------------------------------------------------------
# matrix assembly


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
    from jeanslab.params import params_from_iota3

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
    r = find_certified_radius(maps_deep, gconsts, n_samples=200)
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
    rep = verify_conditions(maps_deep, gconsts, r_tilde=0.3,
                            n_samples=200, divB_check=False)
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


def test_run_extraction_satisfies_system(traj_deep, maps_deep, params):
    d, v = cosine_profiles(params, 1e-3)
    st = init_from_data(params, d, v, 64)
    res = evolve(st, traj_deep, f_cap=50.0,
                 controls=EvolveControls(out_target=400))
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


def test_radius_search_halves_only_on_domain_errors(maps_deep, gconsts, monkeypatch):
    real = fuchsian.assemble_matrices
    calls = []

    def out_of_domain_once(*args):
        calls.append(args)
        if len(calls) == 1:
            raise DomainError("fractional-power argument non-positive")
        return real(*args)

    monkeypatch.setattr(fuchsian, "assemble_matrices", out_of_domain_once)
    assert find_certified_radius(maps_deep, gconsts, n_samples=20,
                                 r_start=1e-8) == 0.5e-8
    assert len(calls) == 2

    def broken(*args):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(fuchsian, "assemble_matrices", broken)
    with pytest.raises(ValueError, match="broadcast"):
        find_certified_radius(maps_deep, gconsts, n_samples=20, r_start=1e-8)


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
            f_val, g_val = maps.f_G_at_tau(tau)
            for U in samples:
                try:
                    ev = assemble_matrices(float(tau), U, g_val, f_val, params)
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


def _conditions_loop(maps, constants, r_tilde, n_samples, seed=20240, eig_tol=1e-12):
    """The per-sample loop verify_conditions used before the batched form."""
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
        f_val, g_val = maps.f_G_at_tau(tau)
        chunk = samples[idx:idx + per_tau] if idx + per_tau <= len(samples) else samples[:per_tau]
        idx += per_tau
        for U in np.vstack([np.zeros(5), chunk]):
            ev = assemble_matrices(float(tau), U, g_val, f_val, params)
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
    assert (find_certified_radius(maps_deep, gconsts, n_samples=n_samples)
            == _radius_loop(maps_deep, gconsts, n_samples=n_samples))


@pytest.mark.parametrize("seed", [1, 2, 20240])
def test_radius_search_draws_its_samples_once(maps_deep, gconsts, monkeypatch, seed):
    # the samples of every try are one draw rescaled; the radius is the one the
    # search found when it drew them anew on each of its 18 tries
    calls = []
    draw = fuchsian._scrambled_halton

    def counted(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(fuchsian, "_scrambled_halton", counted)
    assert find_certified_radius(maps_deep, gconsts, seed=seed) == 1e-2 * 0.5**17
    assert calls == [(6, 400, seed)]


@pytest.mark.parametrize("n_samples", [5, 10, 200])
@pytest.mark.parametrize("r_tilde", [5e-8, 0.05])
def test_conditions_equal_per_sample_loop(maps_deep, gconsts, n_samples, r_tilde):
    # 9 rungs: with 5 samples rungs 5..8 wrap to the first chunk, with 10 none do
    assert len(fuchsian._tau_ladder(maps_deep)) == 9
    rep = verify_conditions(maps_deep, gconsts, r_tilde=r_tilde,
                            n_samples=n_samples, divB_check=False)
    loop = _conditions_loop(maps_deep, gconsts, r_tilde, n_samples)
    tau_w, U_w = loop.pop("worst_sample")
    assert rep.worst_sample[0] == tau_w and np.array_equal(rep.worst_sample[1], U_w)
    for k, v in loop.items():
        assert getattr(rep, k) == v, k


def _divB_pieces_loop(tau, U, W, maps, eps=1e-7):
    """The per-point central differences _divB_pieces used before the batched form."""
    params = maps.params
    f_val, g_val = maps.f_G_at_tau(tau)

    def b0_at(tt, uu):
        f_tt, g_tt = maps.f_G_at_tau(tt)
        return assemble_matrices(float(tt), uu, g_tt, f_tt, params).B0

    ev = assemble_matrices(float(tau), U, g_val, f_val, params)
    b0_inv = np.linalg.inv(ev.B0)
    rhs_parts = {
        "a_flux": -ev.Bz @ W,
        "b_singular": ev.frakB @ U / tau,
        "e_halforder": (-tau) ** -0.5 * ev.F,
    }

    def db0_dir(v):
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return np.zeros((5, 5))
        e = v / nv
        plus = assemble_matrices(float(tau), U + eps * e, g_val, f_val, params).B0
        minus = assemble_matrices(float(tau), U - eps * e, g_val, f_val, params).B0
        return nv * (plus - minus) / (2.0 * eps)

    pieces = {k: db0_dir(b0_inv @ v) for k, v in rhs_parts.items()}
    dtau = 1e-5 * abs(tau)
    pieces["d_dtauB0"] = (b0_at(tau + dtau, U) - b0_at(tau - dtau, U)) / (2.0 * dtau)
    nw = np.linalg.norm(W)
    if nw > 0.0:
        e = W / nw
        bzp = assemble_matrices(float(tau), U + eps * e, g_val, f_val, params).Bz
        bzm = assemble_matrices(float(tau), U - eps * e, g_val, f_val, params).Bz
        pieces["c_dUBz"] = nw * (bzp - bzm) / (2.0 * eps)
    else:
        pieces["c_dUBz"] = np.zeros((5, 5))
    return {k: float(np.linalg.norm(v)) for k, v in pieces.items()}


@pytest.mark.parametrize("zero_W", [False, True])
def test_divB_pieces_equal_per_point_loop(maps_deep, zero_W):
    U = fuchsian._ball_samples(4, 5e-8, 20240)[2]
    W = np.zeros(5) if zero_W else np.random.default_rng(3).standard_normal(5) * 1e-8
    for tau in fuchsian._tau_ladder(maps_deep):
        assert (fuchsian._divB_pieces(float(tau), U, W, maps_deep)
                == _divB_pieces_loop(float(tau), U, W, maps_deep))
