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

`assemble_matrices` builds the blocks.  The tests audit its algebra against an
independent literal evaluation of the right side of each transformed equation,
and the acceptance-level audit applies the assembled system to fields
extracted from an actual PDE run.

`assemble_matrices` is array-valued: U has shape (..., 5), tau, G and f
broadcast against U[..., 0], and every FuchsianEval field carries that leading
shape (blocks (..., 5, 5), corrections Z (..., 8)); one point is shape ().
Both take complex tau, U, G and f as well, and every derivative the
certificates take of them is a complex step Im F(x + i h d) / h with
h = COMPLEX_STEP (Squire & Trapp, SIAM Review 40, 1998): the certified radius is
read from the Jacobian dZ/dU at U = 0, which one complex-step `_corrections`
call gives at every rung, `verify_conditions` samples the ball of that radius,
and the div B pieces step U along their directions and tau through the time
maps' complex reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .contrast_ode import OdeTrajectory, _inexact
from .errors import NumericalFailure, UsageError
from .params import ModelParams
from .pde import FieldState, compute_psi, diff1
from .reference import COMPLEX_STEP, _scrambled_halton
from .timemaps import TimeMaps


# ---------------------------------------------------------------------------
# stable ratios ((1+a u)^p - 1)/u and the doubly-cancelled variant


def _pow_ratio(a, p, u):
    """((1 + a u)^p - 1) / u, analytic continuation through u = 0."""
    a, u = np.broadcast_arrays(_inexact(a), _inexact(u))
    au = a * u
    small = np.abs(au) < 1e-6
    with np.errstate(divide="ignore", invalid="ignore"):
        big = (np.power(1.0 + au, p) - 1.0) / np.where(small, 1.0, u)
    series = p * a * (1.0 + 0.5 * (p - 1.0) * au
                      + (p - 1.0) * (p - 2.0) * (au * au) / 6.0)
    return np.where(small, series, big)


def _pow_ratio2(a, p, u):
    """((1 + a u)^p - 1 - p a u) / u, analytic through u = 0 (O(u) there)."""
    a, u = np.broadcast_arrays(_inexact(a), _inexact(u))
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
    uz = (traj.params.c_scale / (1.0 + f)) * diff1(state.rho_hat - f, h)
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


class _Corrections(NamedTuple):
    """The corrections Z (..., 8) at points (tau, U), and the pieces the blocks share
    with them: the inputs as arrays, their broadcast leading shape, chi/B (X), the
    power base phi = 1 + f u/(1+f) and its power phi^omega, 1/f and the wave weight."""
    Z: np.ndarray
    lead: tuple
    tau: np.ndarray
    U: np.ndarray
    G: np.ndarray
    f: np.ndarray
    X: np.ndarray
    phi: np.ndarray
    phi_om: np.ndarray
    inv_f: np.ndarray
    q_w: float


def _corrections(tau, U, G_frak_val, f_val, params: ModelParams) -> _Corrections:
    """The corrections z_0 .. z_7 at points (tau, U), with the domain checks of
    ``assemble_matrices``; it builds none of the blocks.  Complex inputs are taken as
    they are, their domain checked on the real part."""
    tau, U, G, f = (_inexact(v) for v in (tau, U, G_frak_val, f_val))
    lead = np.broadcast_shapes(U.shape[:-1], tau.shape, G.shape, f.shape)
    u0, uz, u, nu, psi = (U[..., k] for k in range(5))
    i3, om, B = params.iota3, params.omega, params.B
    X = 4.0 + G / B
    if np.any(X.real <= 0.0):
        raise DomainError(f"chi must stay positive: 4 + G/B = {np.min(X.real):.3g} <= 0")
    a = f / (1.0 + f)
    phi = 1.0 + a * u
    if np.any(phi.real <= 0.0):
        raise DomainError("fractional-power argument non-positive: "
                          f"1 + f u/(1+f) = {np.min(phi.real):.3g}")
    inv_f = 1.0 / f
    # wave-block weight: (25/9)(2+om)(1-i3); the sound-speed factor of the
    # second-order equation must reappear here or the singular system stops
    # being equivalent to it (cross-checked by the run-extraction audit)
    q_w = wave_block_weight(params)
    phi_om = np.power(phi, om)
    phi_1om = np.power(phi, 1.0 + om)
    nu2 = nu * nu

    z0 = q_w * (1.0 + inv_f) * (phi_1om - 1.0) - (25.0 / 9.0) * X * nu2
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
    return _Corrections(Z=_stack_last([z0, z1, z2, z3, z4, z5, z6, z7], lead), lead=lead,
                        tau=tau, U=U, G=G, f=f, X=X, phi=phi, phi_om=phi_om, inv_f=inv_f,
                        q_w=q_w)


# frakB's slot of each correction z_ell: frakB = tilde + z_ell / A at these entries
_Z_SLOTS = ((1, 1), (0, 0), (0, 1), (0, 2), (0, 3), (3, 2), (3, 3), (4, 3))


def assemble_matrices(tau, U, G_frak_val, f_val, params: ModelParams) -> FuchsianEval:
    """Evaluate every block of the singular system at points (tau, U).

    U has shape (..., 5); tau, G_frak_val (the contrast diagnostics at tau)
    and f_val broadcast against U[..., 0].  The compactified-time relation
    g = -tau supplies xi = 1/((-tau)(1+f)) internally.  DomainError is raised
    unless chi > 0 and 1 + f u/(1+f) > 0 (the fractional powers) everywhere,
    on the real part of complex inputs, whose blocks come out complex (and
    C-ordered, as real ones).  Non-integer powers use the np.power ufunc even for
    one point, which makes a point bit-identical alone and inside any batch.
    """
    c = _corrections(tau, U, G_frak_val, f_val, params)
    tau, U, G, f, lead, X, phi, inv_f, q_w = (c.tau, c.U, c.G, c.f, c.lead, c.X, c.phi,
                                              c.inv_f, c.q_w)
    u0, uz, u, nu, psi = (U[..., k] for k in range(5))
    lam, i3, A, B = params.lam, params.iota3, params.A, params.B
    xi = 1.0 / ((-tau) * (1.0 + f))
    q = lam + (3.0 - 8.0 * i3) / 30.0
    alpha_b = (3.0 * i3 + 2.0) ** 2 / (6.0 * (10.0 * lam + i3 + 9.0))
    b11 = q_w * (1.0 + inv_f) + c.Z[..., 0]

    B0 = _stack_last([1.0, b11 / X, q, 1.0, 1.0], lead)[..., None] * np.eye(5)

    Bz = np.zeros(lead + (5, 5), c.Z.dtype)
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

    frakB = np.full(lead + (5, 5), tilde, c.Z.dtype)
    for ell, (i, j) in enumerate(_Z_SLOTS):
        frakB[..., i, j] += c.Z[..., ell] / A

    xi1f = xi * (1.0 + inv_f)
    H = _stack_last([
        -(1.0 / A) * xi * (4.0 * lam + (lam - 1.0 / 6.0) * G / B) * u,
        -(q_w / A) * xi1f * uz,
        q * (1.0 / A) * xi1f * X * (u0 - u),
        -(2.0 * (1.0 - i3) / (3.0 * A)) * xi1f * c.phi_om * uz,
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
                        B0=B0, Bz=Bz, frakB=frakB, H=H, F=F, Z=c.Z)


def system_residual(ev: FuchsianEval, dU_dtau: np.ndarray, dU_dzeta: np.ndarray) -> np.ndarray:
    """Defect B0 dU/dtau + Bz dU/dzeta - (M U / tau + H + (-tau)^(-1/2) F) at ev's points."""
    tau = ev.tau[..., None]
    rhs = (ev.frakB @ ev.U[..., None])[..., 0] / tau + ev.H + (-tau) ** -0.5 * ev.F
    return (ev.B0 @ dU_dtau[..., None] + ev.Bz @ dU_dzeta[..., None])[..., 0] - rhs


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
    positivity floor -4B.  gamma1, which every other constant divides or scales,
    must be positive: NumericalFailure where a huge lam leaves q_lower_bound no
    positive float.
    """
    lam, i3, beta, A, B = params.lam, params.iota3, params.beta, params.A, params.B
    g_min, g_max = float(G_range[0]), float(G_range[1])
    if g_min <= -4.0 * B:
        raise NumericalFailure(f"G range minimum {g_min:.4g} <= -4B = {-4.0 * B:.4g}: "
                               "chi positivity violated")
    try:
        q_bound = q_lower_bound(lam, i3)
    except OverflowError:  # its square, for lam above about 1.3e153
        q_bound = 0.0
    cands = (8.0 * lam / (5.0 * (3.0 + 800.0 * lam)), 1.0 / 1500.0, q_bound)
    gamma1 = 0.5 * min(cands)
    if not gamma1 > 0.0:  # q_bound is 1/inf for lam above about 1.7e101
        raise NumericalFailure(f"gamma1 is not positive at lam = {lam!r}: q_lower_bound "
                               "leaves the range of floats")
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
    n_samples: int
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
    G_halforder_sup: float
    G_halforder_stable: bool
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
# rounding slack of the eigenvalue screen per unit of Frobenius norm.  LAPACK's syevd,
# behind eigh and eigvalsh, is backward stable: the values it returns are the exact
# eigenvalues of a matrix within a few eps ||A|| of its input (n = 5), and eigh's
# vectors are orthonormal to a few eps.  The perturbation E, its norm and the Rayleigh
# quotients are rounded by a few eps ||A|| more.  Over 20,000 drawn origins, with
# repeated and nearly repeated eigenvalues and perturbations from 1e-17 to 1 times
# ||A0||, the bounds without slack missed eigvalsh's value by at most 7.8 eps ||A||;
# 64 eps is eight times that.  At the certified radius, where ||E|| ~ 1e-6, it
# widens no bound measurably.
_EIG_SLACK = 64.0 * np.finfo(float).eps


def _eig_bounds(A, A0, out=None):
    """Bounds lo <= eigvalsh(A) <= hi, (..., m, 5) each, of the m symmetric matrices
    A (..., m, 5, 5) near each symmetric A0 (..., 5, 5), from one eigh (w0, V0) of A0.

    With E = A - A0 (written into ``out`` when given), each eigenvalue is bounded by
    the tighter of Weyl, |lambda_a(A) - w0_a| <= ||E||_F, and Kato–Temple about the
    Rayleigh quotient rho_a = w0_a + v_a^T E v_a, |lambda_a(A) - rho_a| <=
    ||E||_F^2 / (delta_a - 2 ||E||_F), which holds where the gap delta_a of w0_a to
    its neighbours exceeds 2 ||E||_F; elsewhere Weyl stands alone.  v_a^T E v_a is E's
    flattened entries times those of v_a v_a^T, one matrix product per A0.  ||E||_F is
    widened by s = _EIG_SLACK (||A0||_F + ||E||_F) >= _EIG_SLACK ||A||_F, which counts
    eigh's rounding as part of the perturbation, and both bounds by s again for
    eigvalsh's own rounding and that of rho.  The norms are plain sums of squares,
    so the bounds hold while those do not underflow (||A||_F above about 1e-150).
    Non-finite entries give NaN or infinite bounds.  Returns lo, hi and ||E||_F
    (..., m).
    """
    w0, V0 = np.linalg.eigh(A0)
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite entries
        E = np.subtract(A, A0[..., None, :, :], out=out).reshape(A.shape[:-2] + (25,))
        e = np.sqrt(np.vecdot(E, E))
        proj = (V0[..., :, None, :] * V0[..., None, :, :]).reshape(V0.shape[:-2] + (25, 5))
        rho = w0[..., None, :] + E @ proj
        s = (_EIG_SLACK * (np.linalg.norm(A0, axis=(-2, -1))[..., None] + e))[..., None]
        gaps = np.diff(w0, axis=-1)[..., None, :]
        ends = np.full(gaps.shape[:-1] + (1,), math.inf)
        delta = np.minimum(np.concatenate([ends, gaps], -1), np.concatenate([gaps, ends], -1))
        e1 = e[..., None] + s
        room = delta - 2.0 * e1
        kt = np.divide(e1 * e1, room, out=np.full(room.shape, math.inf), where=room > 0.0)
        w0 = w0[..., None, :]
        return np.maximum(w0 - e1, rho - kt) - s, np.minimum(w0 + e1, rho + kt) + s, e


def _margin2_floor(A0, B0_0, d, e, kap):
    """Lower bounds (..., m) on lambda_min(fl(A/kap) - diag(d)) for the m samples of
    each origin, where A (..., m, 5, 5) is symmetric with ||A - A0||_F <= e (..., m),
    the third output of ``_eig_bounds``, and diag(d) (..., m, 5) is diagonal.

    Weyl about the origin C0 = A0/kap - B0_0, with B0_0 (..., 5, 5) diagonal:
    ||E2||_F <= e/kap + ||d - diag(B0_0)||_F, widened by _EIG_SLACK times
    ||A0||_F/kap + ||B0_0||_F + ||E2||_F, the scale at which fl(A/kap) - diag(d)
    is rounded, which exceeds ||C0||_F where the two cancel.
    """
    C0 = A0 / kap - B0_0
    dd = d - np.diagonal(B0_0, axis1=-2, axis2=-1)[..., None, :]
    e2 = e / kap + np.sqrt(np.vecdot(dd, dd))
    scale = np.linalg.norm(A0, axis=(-2, -1)) / kap + np.linalg.norm(B0_0, axis=(-2, -1))
    return np.linalg.eigvalsh(C0)[..., :1] - e2 - _EIG_SLACK * (scale[..., None] + e2)


def _tau_ladder(maps: TimeMaps) -> np.ndarray:
    """The rungs tau = -2^-k, k < _TAU_RUNGS, at or above 1.05 times the terminal tau.

    Every reader reduces over the rungs, so a ladder without one raises
    NumericalFailure: the maps end too far from tau = 0 (small A or f_cap)."""
    floor = float(-maps.tau[-1]) * 1.05
    ladder = [2.0**-k for k in range(_TAU_RUNGS) if 2.0**-k >= floor]
    if not ladder:
        raise NumericalFailure(f"the tau ladder has no rung: its first, tau = -1, needs time "
                               f"maps that reach tau >= {-1.0 / 1.05:.6g}, and these end at "
                               f"tau = {float(maps.tau[-1]):.6g}; take a larger f_cap or A")
    return -np.asarray(ladder)


def verify_conditions(maps: TimeMaps, constants: GammaConstants, r_tilde: float,
                      n_samples: int = 2000, seed: int = 20240) -> ConditionReport:
    """Sample the coefficient conditions over the ball ||U|| <= r_tilde.

    Checks per sample: exact symmetry of B0 and Bz, finiteness, the
    eigenvalue sandwich gb1 <= B0 <= M/kappa <= gb2, and the smallness budget
    sum |z_ell| < gamma1.  The remainder H is evaluated at U = 0 on the
    ladder, and the order split of the divergence bound is fitted across the
    tau ladder.  Refuses maps of non-certified params.  The samples are the
    Halton points of ``seed``.

    The sandwich margin at a sample is min(m1, m2, m3): m1 = min diag(B0) - gb1,
    m2 = lambda_min(M/kappa - B0) and m3 = gb2 - lambda_max(M)/kappa, with M the
    symmetric part of frakB.  m1 is computed at every sample.  The eigenvalues of
    every sample of a rung are bounded from the rung's origin U = 0: those of M by
    ``_eig_bounds`` (Weyl and Kato–Temple), and those of M/kappa - B0 by Weyl alone
    (``_margin2_floor``), with ||E2||_F <= ||E||_F/kappa + ||B0 - B0(0)||_F since B0
    is diagonal.
    eigvalsh runs only where the bounds leave a reported value open: where m2 or
    m3 cannot be shown to exceed m1, and, for the range of M's eigenvalues, where
    a sample's bound reaches the best bound over all samples.  Every other margin
    is m1 itself.  The least m3 sits at the sample of largest lambda_max, which the
    range test always solves, but the m3 screen is still needed for the first
    argmin: samples whose lambda_max differ can round to the same m3.  eigvalsh
    gives a matrix the same value alone as in any batch, so every field equals
    the full solve's bit for bit.  At the certified radius about 2 of the 2,007
    samples are solved; far outside the ball nearly all are.

    A sample whose blocks are not finite enters no eigen-solve.  entries_finite
    and sandwich_ok are then false, and the margin, worst sample and ranges are
    taken over the finite samples (NumericalFailure if there is none).
    """
    if not maps.params.certified:
        raise UsageError("parameters are outside the certified stiffness range")
    tau_ladder = _tau_ladder(maps)
    # one draw: its point 2 is _divB_order_fit's, as Halton draws are prefix-stable
    points = _ball_samples(max(n_samples, 3), r_tilde, seed)
    samples = points[:n_samples]
    samples[0] = 0.0

    # rung i takes the i-th chunk of per_tau samples (the first chunk once
    # the samples run out) behind the origin
    per_tau = max(1, len(samples) // len(tau_ladder))
    starts = np.arange(len(tau_ladder)) * per_tau
    starts[starts + per_tau > len(samples)] = 0
    chunks = samples[starts[:, None] + np.arange(per_tau)]
    U = np.concatenate([np.zeros((len(tau_ladder), 1, 5)), chunks], axis=1)
    tau = tau_ladder[:, None]
    f_val, G_val = maps.f_G_at_tau(tau)
    ev = assemble_matrices(tau, U, G_val, f_val, maps.params)

    symmetric = bool(np.array_equal(ev.B0, ev.B0.swapaxes(-1, -2))
                     and np.array_equal(ev.Bz, ev.Bz.swapaxes(-1, -2)))
    ok = np.logical_and.reduce([np.isfinite(m).reshape(U.shape[:2] + (-1,)).all(-1)
                                for m in (ev.B0, ev.Bz, ev.frakB, ev.H, ev.F)])
    if not ok.any():
        raise NumericalFailure("the blocks of the singular system are finite at no sample")
    h_at_zero = float(np.max(np.abs(ev.H[~np.any(U, axis=-1)])))
    max_sum_z = float(ev.sum_abs_z.max())
    B0, frakB = ev.B0, ev.frakB
    del ev  # Bz, H and F are not read again
    sym_fb = 0.5 * (frakB + frakB.swapaxes(-1, -2))
    kap, gb2 = constants.kappa_const, constants.gamma_bar2
    d = np.diagonal(B0, axis1=-2, axis2=-1)
    w_b0 = np.sort(d, axis=-1)
    m1 = w_b0[..., 0] - constants.gamma_bar1

    # each rung's origin; zero where it is not finite, which bounds the rung truly but loosely
    A0, B0_0 = (np.where(ok[:, 0, None, None], m[:, 0], 0.0) for m in (sym_fb, B0))
    lo, hi, e = _eig_bounds(sym_fb, A0, out=frakB)  # frakB is not read again
    lo2 = _margin2_floor(A0, B0_0, d, e, kap)
    # the samples whose bounds leave a reported value open; a NaN bound leaves it open
    need2 = ok & ~(lo2 > m1)
    solve = ok & (~(gb2 - hi[..., -1] / kap > m1)
                  | ~(lo[..., 0] > hi[..., 0][ok].min())
                  | ~(hi[..., -1] < lo[..., -1][ok].max()))
    w_fb = np.linalg.eigvalsh(sym_fb[solve])
    margins = np.where(ok, m1, math.inf)
    margins[solve] = np.minimum(margins[solve], gb2 - w_fb[:, -1] / kap)
    margins[need2] = np.minimum(margins[need2], np.linalg.eigvalsh(
        sym_fb[need2] / kap - B0[need2]).min(-1))
    i, j = np.unravel_index(np.argmin(margins), margins.shape)  # first minimum in loop order
    finite = bool(ok.all())

    divB_orders, divB_stable = _divB_order_fit(maps, points[2], r_tilde, seed)
    G_sup, G_stable = _G_halforder_bound(maps, tau_ladder)

    return ConditionReport(
        n_samples=len(samples),
        sandwich_ok=finite and not np.any(margins < -_EIG_TOL),
        sandwich_margin=float(margins[i, j]),
        worst_sample=(float(tau_ladder[i]), U[i, j].copy()),
        eig_B0_range=(float(w_b0[ok, 0].min()), float(w_b0[ok, -1].max())),
        eig_frakB_range=(float(w_fb[:, 0].min()), float(w_fb[:, -1].max())),
        max_sum_abs_z=max_sum_z, sum_z_ok=max_sum_z < constants.gamma1,
        H_at_zero_max=h_at_zero, entries_finite=finite, symmetry_exact=symmetric,
        divB_orders=divB_orders, divB_stable=divB_stable,
        G_halforder_sup=G_sup, G_halforder_stable=G_stable,
    )


def _G_halforder_bound(maps: TimeMaps, tau_ladder: np.ndarray) -> tuple[float, bool]:
    """Sup of |G|/sqrt(-tau) over the ladder; stable under 2x refinement.  One read
    covers the ladder and its geometric midpoints; the coarse sup is over the first."""
    taus = np.concatenate([tau_ladder, -np.sqrt(tau_ladder[:-1] * tau_ladder[1:])])
    weighted = np.abs(maps.f_G_at_tau(taus)[1]) / np.sqrt(-taus)
    coarse, fine = float(np.max(weighted[:len(tau_ladder)])), float(np.max(weighted))
    return fine, bool(fine <= 1.5 * coarse and math.isfinite(fine))


def _correction_jacobians(maps: TimeMaps) -> np.ndarray:
    """J_tau = dZ/dU at U = 0, (rungs, 8, 5), at every rung of the tau ladder, from one
    ``_corrections`` call at U = i h e_k by the complex step: Z is analytic in U and
    real on real U, so Im Z(tau, i h e_k) / h is dZ/dU_k with a relative error of
    order h^2, and no difference cancels."""
    tau = _tau_ladder(maps)[:, None]
    f_val, G_val = maps.f_G_at_tau(tau)
    Z = _corrections(tau, 1j * COMPLEX_STEP * np.eye(5), G_val, f_val, maps.params).Z
    return Z.imag.swapaxes(-1, -2) / COMPLEX_STEP


def _norm_2to1(J) -> np.ndarray:
    """||J||_{2->1} = max of ||J x||_1 over ||x||_2 <= 1, (...,), for J (..., m, n).

    ||J x||_1 = max over sign vectors s of s^T J x, so the norm is the max over s of
    ||J^T s||_2, exact over the 2^(m-1) vectors s in {+-1}^m with s_0 = 1 (s and -s
    give the same norm)."""
    m = J.shape[-2]
    bits = (np.arange(2 ** (m - 1))[:, None] >> np.arange(m - 1)) & 1
    signs = np.hstack([np.ones((len(bits), 1)), 1.0 - 2.0 * bits])
    v = signs @ J
    return np.sqrt(np.vecdot(v, v).max(-1))


def find_certified_radius(maps: TimeMaps, constants: GammaConstants) -> float:
    """Largest radius r = 1e-2 * 2^-k, k < 40, with r * max_tau ||J_tau||_{2->1} < gamma1.

    J_tau = dZ/dU at U = 0 on the tau ladder (``_correction_jacobians``).  Z(tau, 0) = 0,
    so at a point r x of the ball, ||x|| <= 1, sum |z_ell| = ||r J_tau x||_1 + O(r^2),
    and the radius keeps that first order under gamma1 in every direction, the worst
    one included, which sampling can miss.  Only the halvings of 1e-2 are taken, so
    r_tilde is one of a fixed set of floats.  NumericalFailure if none fits (or the
    Jacobian's norm is not finite).  verify_conditions stays the sampled check of the
    ball, second order included.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        norm = float(_norm_2to1(_correction_jacobians(maps)).max())
    if not math.isfinite(norm):
        raise NumericalFailure(f"the Jacobian of the corrections has no finite norm: {norm}")
    radii = 1e-2 * 0.5 ** np.arange(40)
    fits = radii * norm < constants.gamma1
    if not fits.any():
        raise NumericalFailure("no certified radius found down to the shrink floor")
    return float(radii[fits.argmax()])


# ---------------------------------------------------------------------------
# divergence-order bound (condition on div B)


def _divB_pieces(tau, U, W, maps) -> dict:
    """The five div B pieces at every rung of tau (k,), for one point U and flux W.

    Returns name -> (k,) norms of the derivatives of B0 along each of B0^-1 times
    the right-side parts a (-Bz W), b (frakB U / tau) and e ((-tau)^(-1/2) F), of
    Bz along W, and of B0 along tau, all by the complex step (Im F(x + i h d) / h,
    h = COMPLEX_STEP).  One read of the time maps at tau + i h gives each rung's
    (f, G) as its real part and h d(f, G)/dtau as its imaginary part.  One
    ``assemble_matrices`` call covers the k real centres, which give the
    directions, and one the (k, 5) complex points: U + i h d along the four
    U-directions at the real (tau, f, G), and U at the complex ones for tau.
    Norms are sqrt(vecdot) over the flattened entries, which sums them in the
    order np.linalg.norm does for one point.
    """
    tau = np.asarray(tau, float)
    f_c, G_c = maps.f_G_at_tau(tau + 1j * COMPLEX_STEP)
    ev = assemble_matrices(tau, U, G_c.real, f_c.real, maps.params)
    b0_inv = np.linalg.inv(ev.B0)

    def mv(m, v):
        return (m @ v[..., None])[..., 0]

    # directions (k, 5, 5) in the order of the pieces: B0^-1 times a and b for B0, W for
    # Bz, none for the tau point, B0^-1 times e for B0
    dirs = np.stack([mv(b0_inv, -mv(ev.Bz, W)), mv(b0_inv, mv(ev.frakB, U) / tau[:, None]),
                     np.broadcast_to(W, (len(tau), 5)), np.zeros((len(tau), 5)),
                     mv(b0_inv, (-tau[:, None]) ** -0.5 * ev.F)], axis=1)
    at_tau = np.arange(5) == 3  # the point that steps tau, f and G
    tau5, G5, f5 = (np.where(at_tau, v[:, None], v.real[:, None])
                    for v in (tau + 1j * COMPLEX_STEP, G_c, f_c))
    st = assemble_matrices(tau5, U + 1j * COMPLEX_STEP * dirs, G5, f5, maps.params)
    blocks = np.where((np.arange(5) == 2)[:, None, None], st.Bz, st.B0)  # Bz along W
    pieces = (blocks.imag / COMPLEX_STEP).swapaxes(0, 1).reshape(5, len(tau), 25)
    return dict(zip(("a_flux", "b_singular", "c_dUBz", "d_dtauB0", "e_halforder"),
                    np.sqrt(np.vecdot(pieces, pieces))))


def _divB_order_fit(maps, U, r_tilde, seed) -> tuple[dict, bool]:
    """The fitted orders of the div B pieces at the point U, with a flux W of norm
    r_tilde drawn from ``seed``, and their stability under ladder refinement."""
    rng = np.random.default_rng(seed)
    ladder = _tau_ladder(maps)
    W = rng.standard_normal(5)
    W *= r_tilde / np.linalg.norm(W)
    pieces = _divB_pieces(ladder, U, W, maps)
    logt = np.log(-ladder)
    orders = {}
    for k, v in pieces.items():
        mask = v > 0.0
        slope = float(np.polyfit(logt[mask], np.log(v[mask]), 1)[0]) if mask.sum() > 2 else 0.0
        orders[k] = slope
    # stability of the half-order weighted sups under ladder refinement
    stable = True
    for k in ("d_dtauB0", "e_halforder"):
        v = pieces[k] * np.sqrt(-ladder)
        half = v[: max(2, len(v) // 2)]
        stable &= bool(np.max(v) <= 1.5 * max(np.max(half), 1e-300))
    for k in ("a_flux", "b_singular", "c_dUBz"):
        v = pieces[k] * (-ladder)
        if np.all(v > 0.0):
            stable &= bool(np.max(v) / np.min(v) < 50.0)
    return orders, stable
