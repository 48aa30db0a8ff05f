"""Singular-system fields, coefficient matrices and condition verification.

The reduced evolution, rewritten in the compactified time tau and the scaled
fields U = (u0, u_zeta, u, nu, Psi), takes the singular symmetric form

    B0 d_tau U + Bz d_zeta U = (1/tau) M U + H + (-tau)^(-1/2) F,

with B0, Bz symmetric.  M splits into a field-independent part plus
corrections z_ell that are analytic in U and vanish at U = 0; the corrections
carry no closed forms of their own and are pinned operationally here by
matching the block structure against the full transformed equations term by
term (the attribution of a quadratic term to a matrix slot is a bookkeeping
choice; every property used downstream - symmetry, z(tau, 0) = 0, the
smallness budget sum |z_ell| - is attribution-independent).

Two independent evaluation paths are provided: `assemble_matrices` builds the
blocks, and `system_rhs_direct` evaluates the right side of each transformed
equation literally.  Their agreement to rounding is a unit-level audit of the
algebra; the acceptance-level audit applies the assembled system to fields
extracted from an actual PDE run.

`assemble_matrices` is array-valued: U has shape (..., 5), tau, G and f
broadcast against U[..., 0], and every FuchsianEval field carries that leading
shape (blocks (..., 5, 5), corrections Z (..., 8)); one point is shape ().
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contrast_ode import OdeTrajectory
from .errors import NumericalFailure, UsageError
from .params import ModelParams
from .pde import FieldState, compute_psi, diff1
from .reference import _scrambled_halton
from .timemaps import TimeMaps


# ---------------------------------------------------------------------------
# stable ratios ((1+a u)^p - 1)/u and the doubly-cancelled variant


def _pow_ratio(a, p, u):
    """((1 + a u)^p - 1) / u, analytic continuation through u = 0."""
    a, u = np.broadcast_arrays(np.asarray(a, float), np.asarray(u, float))
    au = a * u
    small = np.abs(au) < 1e-6
    with np.errstate(divide="ignore", invalid="ignore"):
        big = (np.power(1.0 + au, p) - 1.0) / np.where(small, 1.0, u)
    series = p * a * (1.0 + 0.5 * (p - 1.0) * au
                      + (p - 1.0) * (p - 2.0) * (au * au) / 6.0)
    return np.where(small, series, big)


def _pow_ratio2(a, p, u):
    """((1 + a u)^p - 1 - p a u) / u, analytic through u = 0 (O(u) there)."""
    a, u = np.broadcast_arrays(np.asarray(a, float), np.asarray(u, float))
    au = a * u
    small = np.abs(au) < 1e-5
    with np.errstate(divide="ignore", invalid="ignore"):
        big = (np.power(1.0 + au, p) - 1.0 - p * au) / np.where(small, 1.0, u)
    series = 0.5 * p * (p - 1.0) * a * au * (1.0 + (p - 2.0) * au / 3.0
                                             + (p - 2.0) * (p - 3.0) * (au * au) / 12.0)
    return np.where(small, series, big)


# ---------------------------------------------------------------------------
# field extraction


@dataclass
class FuchsianFields:
    tau: float
    t: float
    f: float
    G_frak: float
    U: np.ndarray  # shape (5, n): rows u0, u_zeta, u, nu, psi

    @property
    def n(self) -> int:
        return self.U.shape[1]


def fuchsian_fields(state: FieldState, traj: OdeTrajectory, maps: TimeMaps) -> FuchsianFields:
    """Scaled singular-system fields extracted from one PDE state (model ``traj.params``)."""
    t = state.t
    f, f0 = traj.f_f0_at(t)
    if f <= 0.0:
        raise NumericalFailure("degenerate pre-perturbation state: f = 0")
    h = 1.0 / state.n
    u = (state.rho_hat - f) / f
    u0 = (state.drho_dt - f0) / f0
    uz = (traj.params.c_scale / (1.0 + f)) * diff1(state.rho_hat, h)
    psi = compute_psi(u)
    g, G = maps.g_G_at(t)
    return FuchsianFields(tau=-g, t=t, f=f, G_frak=G,
                          U=np.vstack([u0, uz, u, state.nu, psi]))


# ---------------------------------------------------------------------------
# matrix assembly


def wave_block_weight(params: ModelParams) -> float:
    """Weight (25/9)(2+omega)(1-iota^3) of the derivative-field diagonal block.

    Carries the squared sound-speed factor of the underlying wave operator
    into the scaled system; equals 25/36 exactly when (2+omega)(1-iota^3)
    happens to be 1/4.
    """
    return (25.0 / 9.0) * (2.0 + params.omega) * (1.0 - params.iota3)


class DomainError(NumericalFailure):
    """A point outside the domain of the system: chi <= 0 or 1 + f u/(1+f) <= 0."""


@dataclass
class FuchsianEval:
    tau: np.ndarray
    U: np.ndarray  # (..., 5)
    B0: np.ndarray  # (..., 5, 5)
    Bz: np.ndarray  # (..., 5, 5)
    frakB: np.ndarray  # (..., 5, 5)
    H: np.ndarray  # (..., 5)
    F: np.ndarray  # (..., 5)
    Z: np.ndarray  # (..., 8): z_0 .. z_7

    @property
    def sum_abs_z(self) -> np.ndarray:
        return np.abs(self.Z).sum(-1)


def _stack_last(parts, lead: tuple) -> np.ndarray:
    """The parts, each broadcast to the leading shape, stacked on a new last axis."""
    return np.stack([np.broadcast_to(p, lead) for p in parts], axis=-1)


def assemble_matrices(tau, U, G_frak_val, f_val, params: ModelParams) -> FuchsianEval:
    """Evaluate every block of the singular system at points (tau, U).

    U has shape (..., 5); tau, G_frak_val (the contrast diagnostics at tau)
    and f_val broadcast against U[..., 0].  The compactified-time relation
    g = -tau supplies xi = 1/((-tau)(1+f)) internally.  DomainError is raised
    unless chi > 0 and 1 + f u/(1+f) > 0 (the fractional powers) everywhere.
    Non-integer powers use the np.power ufunc even for one point, which makes
    a point bit-identical alone and inside any batch.
    """
    U = np.asarray(U, float)
    tau, G, f = (np.asarray(v, float) for v in (tau, G_frak_val, f_val))
    lead = np.broadcast_shapes(U.shape[:-1], tau.shape, G.shape, f.shape)
    u0, uz, u, nu, psi = (U[..., k] for k in range(5))
    lam, i3, om, A, B = params.lam, params.iota3, params.omega, params.A, params.B
    X = 4.0 + G / B
    if np.any(X <= 0.0):
        raise DomainError(f"chi must stay positive: 4 + G/B = {np.min(X):.3g} <= 0")
    a = f / (1.0 + f)
    phi = 1.0 + a * u
    if np.any(phi <= 0.0):
        raise DomainError("fractional-power argument non-positive: "
                          f"1 + f u/(1+f) = {np.min(phi):.3g}")
    xi = 1.0 / ((-tau) * (1.0 + f))
    q = lam + (3.0 - 8.0 * i3) / 30.0
    alpha_b = (3.0 * i3 + 2.0) ** 2 / (6.0 * (10.0 * lam + i3 + 9.0))
    inv_f = 1.0 / f
    # wave-block weight: (25/9)(2+om)(1-i3); the sound-speed factor of the
    # second-order equation must reappear here or the singular system stops
    # being equivalent to it (cross-checked by the run-extraction audit)
    q_w = wave_block_weight(params)
    phi_om = np.power(phi, om)
    phi_1om = np.power(phi, 1.0 + om)
    nu2 = nu * nu

    z0 = q_w * (1.0 + inv_f) * (phi_1om - 1.0) - (25.0 / 9.0) * X * nu2
    b11 = q_w * (1.0 + inv_f) + z0

    B0 = _stack_last([1.0, b11 / X, q, 1.0, 1.0], lead)[..., None] * np.eye(5)

    Bz = np.zeros(lead + (5, 5))
    Bz[..., 0, 0] = -(2.0 / 3.0) * X * nu
    Bz[..., 0, 1] = Bz[..., 1, 0] = 0.2 * b11
    Bz[..., 4, 4] = -alpha_b
    Bz /= (A * tau)[..., None, None]

    two_815 = 2.0 * (3.0 - 8.0 * i3) / 15.0
    tilde = np.array([
        [4.0 * lam, 0.0, two_815 - 4.0 * lam, 0.0, 0.0],
        [0.0, q_w, 0.0, 0.0, 0.0],
        [-two_815 - 4.0 * lam, 0.0, 4.0 * lam + two_815, 0.0, 0.0],
        [0.0, 2.0 * (1.0 - i3) / 3.0, -2.0 * (1.0 - i3) / 5.0,
         4.0 * lam + 4.0, 2.0 * i3],
        [0.0, 0.0, -alpha_b, 4.0 / 3.0, 3.0 * alpha_b],
    ]) / A

    big_k = (a * u - u0 - (5.0 / 3.0) * nu * uz) / phi - nu
    m_dev = u0 - a * u
    z1 = (2.0 * X / 3.0) * big_k - (4.0 * X / 3.0) * m_dev / phi
    z2 = ((10.0 / 9.0) * X * nu
          - (5.0 / 9.0) * X * nu2
          - (10.0 / 9.0) * (1.0 - i3) * (1.0 + inv_f) * (phi_1om - 1.0)
          + (2.0 / 3.0) * (1.0 - i3) * (1.0 + inv_f) * phi_om * uz
          - (100.0 / 27.0) * X * nu2 * uz / phi
          - (40.0 / 9.0) * X * nu * (1.0 + u0) / phi
          - (10.0 / 3.0) * i3 * psi
          + (10.0 / 9.0) * X * nu * big_k)
    # the (om+2)-power brace is O(u^2): its u-cofactor via cancelled ratios
    brace_ratio = _pow_ratio2(a, om + 2.0, u) - a * a * u
    z3 = (-(2.0 * X / 3.0) * a * big_k + (4.0 * X / 3.0) * a * m_dev / phi
          - (2.0 / 3.0) * a * u
          - (2.0 * (1.0 - i3) * (1.0 + f) / (3.0 * f)) * brace_ratio)
    z4 = (2.0 * X / 3.0) * phi * big_k
    z5 = ((2.0 * (1.0 - i3) / 3.0) * _pow_ratio(a, om, u) * uz
          + (2.0 * (1.0 - i3) * (1.0 + f) / (3.0 * f)) * _pow_ratio2(a, 1.0 + om, u))
    z6 = (X / 3.0) * (3.0 * (phi - 1.0) / phi - 3.0 * u0 / phi
                      - 5.0 * nu * uz / phi - 2.0 * nu)
    z7 = (X / 3.0) * (phi - 1.0)

    frakB = np.broadcast_to(tilde, lead + (5, 5)).copy()
    frakB[..., 0, 0] += z1 / A
    frakB[..., 0, 1] += z2 / A
    frakB[..., 0, 2] += z3 / A
    frakB[..., 0, 3] += z4 / A
    frakB[..., 1, 1] += z0 / A
    frakB[..., 3, 2] += z5 / A
    frakB[..., 3, 3] += z6 / A
    frakB[..., 4, 3] += z7 / A

    xi1f = xi * (1.0 + inv_f)
    H = _stack_last([
        -(1.0 / A) * xi * (4.0 * lam + (lam - 1.0 / 6.0) * G / B) * u,
        -(q_w / A) * xi1f * uz,
        q * (1.0 / A) * xi1f * X * (u0 - u),
        -(2.0 * (1.0 - i3) / (3.0 * A)) * xi1f * phi_om * uz,
        -(X / (3.0 * A)) * xi1f * phi * nu - (X / A) * xi1f * psi,
    ], lead)

    root = np.power(-tau, -0.5)
    F = _stack_last([
        -(1.0 / (A * B)) * (lam - 1.0 / 6.0) * root * G * (u0 - u),
        0.0,
        -(1.0 / (4.0 * A * B)) * (-two_815 - 4.0 * lam) * root * G * (u0 - u),
        -(1.0 / (A * B)) * (lam + 5.0 / 6.0) * root * G * nu,
        -(1.0 / (3.0 * A * B)) * root * G * nu,
    ], lead)

    return FuchsianEval(tau=np.broadcast_to(tau, lead), U=np.broadcast_to(U, lead + (5,)),
                        B0=B0, Bz=Bz, frakB=frakB, H=H, F=F,
                        Z=_stack_last([z0, z1, z2, z3, z4, z5, z6, z7], lead))


def system_residual(ev: FuchsianEval, dU_dtau: np.ndarray, dU_dzeta: np.ndarray) -> np.ndarray:
    """Defect B0 dU/dtau + Bz dU/dzeta - (M U / tau + H + (-tau)^(-1/2) F) at ev's points."""
    tau = ev.tau[..., None]
    rhs = (ev.frakB @ ev.U[..., None])[..., 0] / tau + ev.H + (-tau) ** -0.5 * ev.F
    return (ev.B0 @ dU_dtau[..., None] + ev.Bz @ dU_dzeta[..., None])[..., 0] - rhs


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


# ---------------------------------------------------------------------------
# constants of the eigenvalue sandwich


@dataclass(frozen=True)
class GammaConstants:
    gamma1: float
    gamma2: float
    gamma1_hat: float
    gamma2_hat: float
    kappa_const: float
    gamma_bar1: float
    gamma_bar2: float
    beta1_budget: float
    candidates: tuple
    G_range: tuple


def gamma_constants(params: ModelParams, G_range: tuple[float, float]) -> GammaConstants:
    """Closed-form sandwich constants from the smallness lemmas.

    ``G_range`` is the (min, max) of the chi deviation along the run used to
    bound the singular-block diagonal; its lower end must stay above the
    positivity floor -4B.
    """
    lam, i3, beta, A, B = params.lam, params.iota3, params.beta, params.A, params.B
    g_min, g_max = float(G_range[0]), float(G_range[1])
    if g_min <= -4.0 * B:
        raise NumericalFailure(f"G range minimum {g_min:.4g} <= -4B = {-4.0 * B:.4g}: "
                               "chi positivity violated")
    cands = (8.0 * lam / (5.0 * (3.0 + 800.0 * lam)), 1.0 / 1500.0, q_lower_bound(lam, i3))
    gamma1 = 0.5 * min(cands)
    gamma2 = max(8.0 * lam + 1.0 + gamma1, 4.0 * lam + 6.0 + gamma1)
    q_w = wave_block_weight(params)
    g1_hat = min(7.0 / 150.0,
                 (q_w - gamma1) / (4.0 + g_max / B))
    g2_hat = max(1.0, lam + 0.1,
                 (q_w * (1.0 + 1.0 / beta) + gamma1) / (4.0 + g_min / B))
    kappa_const = gamma1 / (A * g2_hat)
    return GammaConstants(
        gamma1=gamma1, gamma2=gamma2, gamma1_hat=g1_hat, gamma2_hat=g2_hat,
        kappa_const=kappa_const, gamma_bar1=g1_hat,
        gamma_bar2=gamma2 * g2_hat / gamma1,
        beta1_budget=2.0 * gamma1 * g1_hat / (A * g2_hat),
        candidates=cands, G_range=(g_min, g_max),
    )


def q_quantity(lam: float, iota3: float) -> float:
    """Positivity quantity of the diagonal-dominance estimate (iota^3 < 3/13)."""
    s = 3.0 * iota3 + 2.0
    d = 10.0 * lam + iota3 + 9.0
    return (s**2 / (2.0 * d)
            - 25.0 * s**4 / (216.0 * (3.0 - 13.0 * iota3) * d**2)
            - 35.0 * s / (36.0 * (13.0 * lam + 12.0)))


def q_lower_bound(lam: float, iota3: float) -> float:
    return 1.0 / (27.0 * (13.0 * lam + 12.0) * (10.0 * lam + iota3 + 9.0) ** 2)


# ---------------------------------------------------------------------------
# condition verification


@dataclass
class ConditionReport:
    constants: GammaConstants
    r_tilde: float
    n_samples: int
    tau_ladder: tuple
    sandwich_ok: bool
    sandwich_margin: float
    worst_sample: tuple | None
    eig_B0_range: tuple
    eig_frakB_range: tuple
    max_sum_abs_z: float
    sum_z_ok: bool
    H_at_zero_max: float
    entries_finite: bool
    symmetry_exact: bool
    divB_orders: dict
    divB_stable: bool
    G_halforder_sup: float = 0.0
    G_halforder_stable: bool = True
    p_trivial_note: str = ("projector is the identity: conditions on its complement "
                           "hold vacuously and only the full-block order bound is checked")

    @property
    def verdict(self) -> dict:
        return {
            "F1_projector": True,
            "F2_remainder_vanishes": self.H_at_zero_max < 1e-14,
            # the half-order remainder stays continuous iff |G|/sqrt(-tau)
            # stays bounded down the ladder
            "F3_regularity": self.entries_finite and self.G_halforder_stable,
            "F4_symmetry": self.symmetry_exact,
            "F5_sandwich": self.sandwich_ok,
            "F6_block_structure": True,
            "F7_divB_orders": self.divB_stable,
            "smallness_sum_z": self.sum_z_ok,
        }

    @property
    def all_ok(self) -> bool:
        return all(self.verdict.values())


def _ball_directions(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions (n, 5) and radial factors u^(1/5) (n,) of n scrambled Halton
    points of the 5-ball; the points of radius r are directions * (r * factors)."""
    u = _scrambled_halton(6, n, seed)
    direc = u[:, :5] * 2.0 - 1.0
    norms = np.linalg.norm(direc, axis=1)
    norms[norms == 0.0] = 1.0
    return direc / norms[:, None], u[:, 5] ** (1.0 / 5.0)


def _ball_samples(n: int, radius: float, seed: int) -> np.ndarray:
    unit, radial = _ball_directions(n, seed)
    return unit * (radius * radial)[:, None]


_TAU_RUNGS = 12  # the tau ladder is -2^-k for k < _TAU_RUNGS, above the terminal tau
_EIG_TOL = 1e-12  # eigenvalue deficit the sandwich check forgives
_RADIUS_SHRINK, _RADIUS_TRIES = 0.5, 40  # the radius search's factor and its number of tries
_DIVB_EPS = 1e-7  # step of _divB_pieces' central differences along each U-direction


def _tau_ladder(maps: TimeMaps) -> np.ndarray:
    floor = float(-maps.tau[-1]) * 1.05
    ladder = [2.0**-k for k in range(_TAU_RUNGS) if 2.0**-k >= floor]
    return -np.asarray(ladder)


def verify_conditions(maps: TimeMaps, constants: GammaConstants, r_tilde: float,
                      n_samples: int = 2000, seed: int = 20240,
                      divB_check: bool = True) -> ConditionReport:
    """Sample the coefficient conditions over the ball ||U|| <= r_tilde.

    Checks per sample: exact symmetry of B0 and Bz, finiteness, the
    eigenvalue sandwich gb1 <= B0 <= M/kappa <= gb2, and the smallness budget
    sum |z_ell| < gamma1.  The remainder H is evaluated at U = 0 on the
    ladder, and the order split of the divergence bound is fitted across the
    tau ladder when ``divB_check`` is set.  Refuses maps of non-certified params.
    """
    if not maps.params.certified:
        raise UsageError("parameters are outside the certified stiffness range")
    tau_ladder = _tau_ladder(maps)
    samples = _ball_samples(n_samples, r_tilde, seed)
    samples[0] = 0.0

    # rung i takes the i-th chunk of per_tau samples (the first chunk once
    # the samples run out) behind the origin
    per_tau = max(1, len(samples) // len(tau_ladder))
    starts = np.arange(len(tau_ladder)) * per_tau
    starts[starts + per_tau > len(samples)] = 0
    chunks = samples[starts[:, None] + np.arange(per_tau)]
    U = np.concatenate([np.zeros((len(tau_ladder), 1, 5)), chunks], axis=1)
    tau = tau_ladder[:, None]
    f_val, g_val = maps.f_G_at_tau(tau)
    ev = assemble_matrices(tau, U, g_val, f_val, maps.params)

    symmetric = bool(np.array_equal(ev.B0, ev.B0.swapaxes(-1, -2))
                     and np.array_equal(ev.Bz, ev.Bz.swapaxes(-1, -2)))
    finite = all(bool(np.isfinite(m).all()) for m in (ev.B0, ev.Bz, ev.frakB, ev.H, ev.F))
    h_at_zero = float(np.max(np.abs(ev.H[~np.any(U, axis=-1)])))
    sym_fb = 0.5 * (ev.frakB + ev.frakB.swapaxes(-1, -2))
    w_fb = np.linalg.eigvalsh(sym_fb)
    w_b0 = np.sort(np.diagonal(ev.B0, axis1=-2, axis2=-1), axis=-1)
    kap = constants.kappa_const
    margins = np.minimum.reduce([
        w_b0[..., 0] - constants.gamma_bar1,
        np.linalg.eigvalsh(sym_fb / kap - ev.B0).min(-1),
        constants.gamma_bar2 - w_fb[..., -1] / kap,
    ])
    i, j = np.unravel_index(np.argmin(margins), margins.shape)  # first minimum in loop order
    max_sum_z = float(ev.sum_abs_z.max())

    divB_orders, divB_stable = {}, True
    if divB_check:
        divB_orders, divB_stable = _divB_order_fit(maps, r_tilde, seed)
    g_sup, g_stable = _G_halforder_bound(maps, tau_ladder)

    return ConditionReport(
        constants=constants, r_tilde=r_tilde, n_samples=len(samples),
        tau_ladder=tuple(float(x) for x in tau_ladder),
        sandwich_ok=not np.any(margins < -_EIG_TOL), sandwich_margin=float(margins[i, j]),
        worst_sample=(float(tau_ladder[i]), U[i, j].copy()),
        eig_B0_range=(float(w_b0[..., 0].min()), float(w_b0[..., -1].max())),
        eig_frakB_range=(float(w_fb[..., 0].min()), float(w_fb[..., -1].max())),
        max_sum_abs_z=max_sum_z, sum_z_ok=max_sum_z < constants.gamma1,
        H_at_zero_max=h_at_zero, entries_finite=finite, symmetry_exact=symmetric,
        divB_orders=divB_orders, divB_stable=divB_stable,
        G_halforder_sup=g_sup, G_halforder_stable=g_stable,
    )


def _G_halforder_bound(maps: TimeMaps, tau_ladder: np.ndarray) -> tuple[float, bool]:
    """Sup of |G|/sqrt(-tau) over the ladder; stable under 2x refinement."""
    def weighted_sup(taus):
        return float(np.max(np.abs(maps.f_G_at_tau(taus)[1]) / np.sqrt(-taus)))

    coarse = weighted_sup(tau_ladder)
    mids = -np.sqrt(tau_ladder[:-1] * tau_ladder[1:])  # geometric midpoints
    fine = weighted_sup(np.concatenate([tau_ladder, mids]))
    return fine, bool(fine <= 1.5 * coarse and math.isfinite(fine))


def find_certified_radius(maps: TimeMaps, constants: GammaConstants, seed: int = 20240,
                          n_samples: int = 400, r_start: float = 1e-2) -> float:
    """Largest sampled radius with sum |z_ell| < gamma1 over the ladder.

    A radius is halved when any sample breaks the budget or leaves the
    domain of the system (DomainError) at any rung.  The samples are drawn once
    and rescaled to each radius tried.
    """
    tau = _tau_ladder(maps)[:, None]
    f_val, g_val = maps.f_G_at_tau(tau)
    unit, radial = _ball_directions(n_samples, seed)
    r = r_start
    for _ in range(_RADIUS_TRIES):
        samples = unit * (r * radial)[:, None]
        try:
            worst = assemble_matrices(tau, samples, g_val, f_val, maps.params).sum_abs_z.max()
        except DomainError:
            worst = math.inf
        if worst < constants.gamma1:
            return r
        r *= _RADIUS_SHRINK
    raise NumericalFailure("no certified radius found down to the shrink floor")


# ---------------------------------------------------------------------------
# divergence-order bound (condition on div B)


def _divB_pieces(tau, U, W, maps):
    f_val, g_val = maps.f_G_at_tau(tau)
    ev = assemble_matrices(tau, U, g_val, f_val, maps.params)
    b0_inv = np.linalg.inv(ev.B0)
    # U-directions: B0^-1 times each right-side part a, b, e (for B0), W (for Bz)
    dirs = np.array([b0_inv @ (-ev.Bz @ W), b0_inv @ (ev.frakB @ U / tau),
                     b0_inv @ ((-tau) ** -0.5 * ev.F), W])
    norms = np.array([np.linalg.norm(v) for v in dirs])
    unit = dirs / np.where(norms > 0.0, norms, 1.0)[:, None]
    # stencil points: U + eps e, U - eps e per direction (eps = _DIVB_EPS), then U at tau +- dtau
    dtau = 1e-5 * abs(tau)
    taus = np.array([tau] * 8 + [tau + dtau, tau - dtau])
    pts = np.concatenate([U + _DIVB_EPS * unit, U - _DIVB_EPS * unit, [U, U]])
    f_st, g_st = maps.f_G_at_tau(taus)
    st = assemble_matrices(taus, pts, g_st, f_st, maps.params)
    pieces = {k: norms[n] * (st.B0[n] - st.B0[4 + n]) / (2.0 * _DIVB_EPS)
              for n, k in enumerate(("a_flux", "b_singular", "e_halforder"))}
    pieces["c_dUBz"] = norms[3] * (st.Bz[3] - st.Bz[7]) / (2.0 * _DIVB_EPS)
    pieces["d_dtauB0"] = (st.B0[8] - st.B0[9]) / (2.0 * dtau)
    return {k: float(np.linalg.norm(v)) for k, v in pieces.items()}


def _divB_order_fit(maps, r_tilde, seed) -> tuple[dict, bool]:
    rng = np.random.default_rng(seed)
    ladder = _tau_ladder(maps)
    U = _ball_samples(4, r_tilde, seed)[2]
    W = rng.standard_normal(5)
    W *= r_tilde / np.linalg.norm(W)
    norms = {k: [] for k in ("a_flux", "b_singular", "c_dUBz", "d_dtauB0", "e_halforder")}
    for tau in ladder:
        piece = _divB_pieces(float(tau), U, W, maps)
        for k in norms:
            norms[k].append(piece[k])
    logt = np.log(-ladder)
    orders = {}
    for k, vals in norms.items():
        v = np.asarray(vals)
        mask = v > 0.0
        slope = float(np.polyfit(logt[mask], np.log(v[mask]), 1)[0]) if mask.sum() > 2 else 0.0
        orders[k] = slope
    # stability of the half-order weighted sups under ladder refinement
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
