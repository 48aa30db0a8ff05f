"""Log-periodic spherically symmetric evolution of (density contrast, velocity).

State variables on the unit-period grid in the logarithmic radial coordinate
zeta: the contrast rho_hat, its time derivative, and the rescaled speed nu.
The second-order contrast equation is reduced to first order and marched as
one (3, n) system by the module's own error-controlled Dormand-Prince 8(5,3)
pair (DOP853; Hairer, Norsett and Wanner, Solving ODEs I, II.10), whose steps
and dense output equal scipy's ``DOP853`` bit for bit; the nonlocal rescaled
gravity Psi is re-evaluated from the current contrast at every stage.
Snapshots come from the pair's order-7 dense output at times fixed in
advance.

The wave operator acting on rho_hat is

    d_t^2 - gzz d_zeta^2 + 2 g0z d_zeta d_t,

and the run stops hard if the effective squared wave speed gzz loses
positivity anywhere (the equation leaves the hyperbolic regime).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .contrast_ode import OdeTrajectory, _initial_step, _step_factor
from .errors import NumericalFailure, UsageError
from .params import ModelParams


class HyperbolicityLossError(NumericalFailure):
    """The reduced wave operator lost hyperbolicity: gzz <= 0 somewhere on the grid."""


class VacuumError(NumericalFailure):
    """The contrast reached vacuum: 1 + rho_hat <= 0 somewhere on the grid."""


# ---------------------------------------------------------------------------
# periodic grid operators


def zeta_grid(n: int) -> np.ndarray:
    if n < 16 or n % 2:
        raise UsageError(f"grid size must be even and >= 16, got {n!r}")
    return np.arange(n) / n


def diff1(u: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order centered first derivative on the periodic grid."""
    p = np.concatenate((u[-2:], u, u[:2]))  # two periodic ghosts a side: p[j+2] = u[j]
    return (-p[4:] + 8.0 * p[3:-1] - 8.0 * p[1:-3] + p[:-4]) / (12.0 * h)


def diff2(u: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order centered second derivative on the periodic grid."""
    p = np.concatenate((u[-2:], u, u[:2]))
    return (-p[4:] + 16.0 * p[3:-1] - 30.0 * u
            + 16.0 * p[1:-3] - p[:-4]) / (12.0 * h * h)


# read by no code of the package: the benchmark's tracer test still looks the
# stencils up here
_DERIV_MODES = {"fd4": (diff1, diff2)}


@functools.lru_cache(maxsize=None)
def _psi_divisor(n: int) -> np.ndarray:
    """Mode-k divisor 3 + 2 pi i k of compute_psi on an n-point grid (read-only)."""
    k = np.fft.rfftfreq(n, d=1.0 / n)
    div = 3.0 + 2.0j * math.pi * k
    div.flags.writeable = False
    return div


def compute_psi(u_grid: np.ndarray) -> np.ndarray:
    """Rescaled gravity from the contrast deviation u on the periodic grid.

    Psi solves d_zeta Psi = u - 3 Psi with unit period; equivalently it is the
    one-period closed form of the infinite-tail integral,

        Psi(zeta) = e^(-3 zeta) (1 - e^-3)^(-1) * int_{zeta-1}^{zeta} u(z) e^(3z) dz,

    evaluated with the trigonometric interpolant of the grid values, for which
    the weighted integral is exact mode by mode: mode k of u maps to mode k of
    Psi divided by (3 + 2 pi i k).  The output is periodic by construction and
    shift-equivariant under whole-grid-point shifts.
    """
    n = len(u_grid)
    return np.fft.irfft(np.fft.rfft(u_grid) / _psi_divisor(n), n=n)


def psi_brute_force(u_fn, zeta: np.ndarray, periods: int = 20, n_sub: int = 4096) -> np.ndarray:
    """Truncated multi-period tail integral of Psi, as an independent oracle.

    Direct Simpson evaluation of e^(-3 zeta) int_{zeta - periods}^{zeta} u e^(3z) dz;
    the truncation error is e^(-3 periods).
    """
    from scipy.integrate import simpson

    out = np.empty_like(zeta)
    for i, z in enumerate(zeta):
        zs = np.linspace(z - periods, z, n_sub + 1)
        out[i] = simpson(u_fn(zs) * np.exp(3.0 * (zs - z)), x=zs)
    return out


# ---------------------------------------------------------------------------
# state and controls


@dataclass
class FieldState:
    t: float
    zeta: np.ndarray
    rho_hat: np.ndarray
    drho_dt: np.ndarray
    nu: np.ndarray
    psi: np.ndarray

    @property
    def n(self) -> int:
        return len(self.zeta)


@dataclass(frozen=True)
class EvolveControls:
    pde_rtol: float = 1e-10  # relative local error tolerance of the DOP853 pair
    out_target: int = 400    # stored snapshots after the initial state


# absolute tolerance per unit of pde_rtol: the error floor of components near
# zero, chiefly nu, which vanishes on the homogeneous manifold
_ATOL_PER_RTOL = 1e-3
_PERIODICITY_TOL = 1e-10  # endpoint mismatch init_from_data admits in a periodic profile
_N_CHECK = 64  # grid points at which profile_endpoint_mismatch compares the profile


@dataclass
class MonitorSeries:
    t: list = field(default_factory=list)
    ratio_rho_min: list = field(default_factory=list)
    ratio_rho_max: list = field(default_factory=list)
    ratio_drho_min: list = field(default_factory=list)
    ratio_drho_max: list = field(default_factory=list)
    uz_sup: list = field(default_factory=list)
    nu_sup: list = field(default_factory=list)
    continuity_residual: list = field(default_factory=list)

    def as_arrays(self) -> dict:
        return {k: np.asarray(v) for k, v in self.__dict__.items()}


@dataclass
class EvolveResult:
    states: list
    monitors: MonitorSeries
    stop_reason: str
    n_steps: int     # accepted steps
    n_rejected: int  # trial steps rejected by the error test
    n_rhs: int       # rhs calls, dense-output stages included
    dt_min: float
    dt_max: float

    @property
    def final(self) -> FieldState:
        return self.states[-1]


# ---------------------------------------------------------------------------
# initial data


def profile_endpoint_mismatch(profile, params: ModelParams) -> float:
    """Sup over grid points of |F(y1(zeta+1)) - F(y1(zeta))| for a radial profile."""
    z = np.linspace(0.0, 1.0, _N_CHECK, endpoint=False)
    r0 = (1.0 + params.beta) ** (-1.0 / 3.0) * np.exp(z)
    r1 = (1.0 + params.beta) ** (-1.0 / 3.0) * np.exp(z + 1.0)
    return float(np.max(np.abs(np.asarray(profile(r1)) - np.asarray(profile(r0)))))


def data_smallness(state: FieldState, params: ModelParams) -> float:
    """Sup-norm proxy of the perturbation size of the initial data.

    Reports max over |u|, |nu| and their first two grid derivatives at t = t0,
    the quantity the smallness budget of the stability theorem constrains.
    """
    h = 1.0 / state.n
    f = params.beta
    u = (state.rho_hat - f) / f
    vals = [u, state.nu]
    vals += [diff1(u, h), diff1(state.nu, h), diff2(u, h), diff2(state.nu, h)]
    return float(max(np.max(np.abs(v)) for v in vals))


def init_from_data(params: ModelParams, d_profile, v_profile, n: int) -> FieldState:
    """Build the t = t0 state from radial profiles d(|x|), v(|x|).

    The contrast and speed come straight from the data map; the time
    derivative of the contrast is reconstructed from the continuity identity
    (the evolution preserves that identity, so prescribing it independently
    would inject an inconsistent mode).  Profiles must be 1-log-periodic.
    """
    zeta = zeta_grid(n)
    h = 1.0 / n
    for name, prof in (("d", d_profile), ("v", v_profile)):
        gap = profile_endpoint_mismatch(prof, params)
        if gap > _PERIODICITY_TOL:
            raise UsageError(f"profile {name!r} is not 1-log-periodic: "
                             f"endpoint mismatch {gap:.3g} > {_PERIODICITY_TOL:.3g}")
    r_phys = (1.0 + params.beta) ** (-1.0 / 3.0) * np.exp(zeta)
    f = params.beta
    f0 = params.beta0
    rho_hat = f * np.asarray(d_profile(r_phys), dtype=float)
    nu = 1.0 + np.asarray(v_profile(r_phys), dtype=float)
    one_pr = 1.0 + rho_hat
    if np.any(one_pr <= 0.0):
        raise UsageError("initial data reaches vacuum: 1 + rho_hat <= 0")
    z_rate = f0 / (3.0 * (1.0 + f))
    drho_dt = (one_pr * f0 / (1.0 + f)
               - z_rate * nu * diff1(rho_hat, h)
               - one_pr * (f0 / (1.0 + f)) * nu
               - one_pr * z_rate * diff1(nu, h))
    psi = compute_psi((rho_hat - f) / f)
    return FieldState(t=params.t0, zeta=zeta, rho_hat=rho_hat,
                      drho_dt=drho_dt, nu=nu, psi=psi)


# ---------------------------------------------------------------------------
# right-hand side


def wave_coefficients(state_t: float, rho_hat: np.ndarray, nu: np.ndarray,
                      f: float, f0: float, params: ModelParams):
    """(gzz, g0z) of the reduced wave operator at one time level."""
    om, i3 = params.omega, params.iota3
    t = state_t
    one_pf = 1.0 + f
    one_pr = 1.0 + rho_hat
    gzz = ((2.0 + om) * (1.0 - i3) / (9.0 * t * t) * one_pr ** (om + 1.0) / one_pf**om
           - (f0**2 / (9.0 * one_pf**2)) * nu**2)
    g0z = f0 * nu / (3.0 * one_pf)
    return gzz, g0z


def rhs(t: float, y: np.ndarray, traj: OdeTrajectory) -> np.ndarray:
    """Time derivative of the state y = (rho_hat, drho_dt, nu), shape (3, n).

    Raises HyperbolicityLossError if gzz <= 0 anywhere and VacuumError on
    vacuum (1 + rho_hat <= 0).  Psi is evaluated from the instantaneous
    contrast.
    """
    f, f0 = traj.f_f0_at(t)
    om, i3, kap = traj.params.omega, traj.params.iota3, traj.params.kappa
    r, rt, nu = y
    h = 1.0 / y.shape[1]
    one_pf = 1.0 + f
    one_pr = 1.0 + r
    if np.any(one_pr <= 0.0):
        raise VacuumError("vacuum formation: 1 + rho_hat <= 0 on the grid")
    gzz, g0z = wave_coefficients(t, r, nu, f, f0, traj.params)
    if np.any(gzz <= 0.0):
        raise HyperbolicityLossError(
            f"hyperbolicity loss at t={t:.9g}: min gzz = {float(gzz.min()):.3g}")

    rz, rzz, rtz, nuz = diff1(r, h), diff2(r, h), diff1(rt, h), diff1(nu, h)
    psi = compute_psi((r - f) / f)
    ratio = one_pr / one_pf
    ratio_om, ratio_1om = ratio**om, ratio ** (1.0 + om)
    nu2, rz2 = nu**2, rz**2
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
          + ((8.0 + 5.0 * om) * (1.0 - i3) / (9.0 * t * t)) * one_pr ** (om + 1.0) / one_pf**om * rz
          + kap * f0**2 * one_pr / one_pf**2)

    d_rt = (gzz * rzz - 2.0 * g0z * rtz
            - (4.0 / (3.0 * t) + kap * f0 / one_pf) * rt
            + (2.0 / (3.0 * t * t)) * r * one_pr
            + (4.0 / 3.0) * rt**2 / one_pr
            + f1)

    g1 = (-(2.0 * one_pf * f / (3.0 * t * t * f0)) * nu
          + (1.0 / 3.0 - kap) * (f0 / one_pf) * nu
          - z_rate * nu2
          - ((om + 2.0) * (1.0 - i3) * one_pf ** (1.0 - om) * one_pr**om
             / (3.0 * t * t * f0)) * rz
          - (2.0 * (1.0 - i3) * one_pf**2 / (3.0 * t * t * f0)) * (ratio_1om - 1.0)
          - (2.0 * i3 * one_pf * f / (t * t * f0)) * psi)
    d_nu = g1 - z_rate * nu * nuz

    return np.stack((rt, d_rt, d_nu))


def continuity_residual(state: FieldState, traj: OdeTrajectory) -> float:
    """Max-norm defect of the reduced continuity identity at one time level."""
    f, f0 = traj.f_f0_at(state.t)
    h = 1.0 / state.n
    one_pf, one_pr = 1.0 + f, 1.0 + state.rho_hat
    z_rate = f0 / (3.0 * one_pf)
    defect = (f0 / one_pf
              - state.drho_dt / one_pr
              - z_rate * state.nu * diff1(state.rho_hat, h) / one_pr
              - (f0 / one_pf) * state.nu
              - z_rate * diff1(state.nu, h))
    return float(np.max(np.abs(defect)))


def entropy_field(state: FieldState, traj: OdeTrajectory) -> np.ndarray:
    """Specific entropy on the grid from the algebraic reduction.

    With the model's entropy-production exponent the transport equation
    collapses to s = ln(t^(-4/3) (1+rho_hat)^(2/3+omega) (1+f)^(-omega) |x|^2);
    |x| is reconstructed from zeta through the time-dependent exp-log map.
    """
    t = state.t
    f, _ = traj.f_f0_at(t)
    om = traj.params.omega
    if np.any(1.0 + state.rho_hat <= 0.0):
        raise VacuumError("entropy undefined at vacuum: 1 + rho_hat <= 0")
    x_abs = t ** (2.0 / 3.0) * (1.0 + f) ** (-1.0 / 3.0) * np.exp(state.zeta)
    return np.log(t ** (-4.0 / 3.0) * (1.0 + state.rho_hat) ** (2.0 / 3.0 + om)
                  * (1.0 + f) ** (-om) * x_abs**2)


# ---------------------------------------------------------------------------
# time marching


def _record(mon: MonitorSeries, state: FieldState, traj):
    f, f0 = traj.f_f0_at(state.t)
    rr = state.rho_hat / f
    rd = state.drho_dt / f0
    uz = (traj.params.c_scale / (1.0 + f)) * diff1(state.rho_hat, 1.0 / state.n)
    mon.t.append(state.t)
    mon.ratio_rho_min.append(float(rr.min()))
    mon.ratio_rho_max.append(float(rr.max()))
    mon.ratio_drho_min.append(float(rd.min()))
    mon.ratio_drho_max.append(float(rd.max()))
    mon.uz_sup.append(float(np.max(np.abs(uz))))
    mon.nu_sup.append(float(np.max(np.abs(state.nu))))
    mon.continuity_residual.append(continuity_residual(state, traj))


def snapshot_times(traj: OdeTrajectory, t_start: float, t_stop: float,
                   count: int) -> np.ndarray:
    """count output times in (t_start, t_stop], uniform in ln(1+f), the last exactly t_stop.

    Newton's method on ln(1+f(t)) = target (slope f'/(1+f)), started from
    linear interpolation on the trajectory's grid, reaches rounding level in
    three iterations.
    """
    lo, hi = np.log1p(traj.f_f0_at(np.array([t_start, t_stop]))[0])
    target = lo + (hi - lo) * np.arange(1, count) / count
    t = np.interp(target, np.log1p(traj.f), traj.t_grid)
    for _ in range(3):
        f, f0 = traj.f_f0_at(t)
        t -= (np.log1p(f) - target) * (1.0 + f) / f0
    return np.append(t, t_stop)


def _lower_triangle(rows) -> np.ndarray:
    """Square matrix with zero diagonal whose row s + 1 starts with rows[s] (len s + 1)."""
    a = np.zeros((len(rows) + 1, len(rows) + 1))
    for s, row in enumerate(rows, start=1):
        a[s, :s] = row
    return a


# The DOP853 pair (Hairer, Norsett and Wanner I, II.10) with the coefficients
# of scipy's dop853_coefficients: 12 stages, the 13th the derivative at the
# step's end, whose weights are the solution's (_D8_B), and 3 more stages for
# the order-7 dense output.  _D8_E5 and _D8_E3 weigh the 13 stages into the
# 5th- and 3rd-order error estimates, _D8_D the 16 into the dense output.
_D8_STAGES = 12
_D8_C = np.array([
    0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
    0.8571428571428571, 1.0, 1.0, 0.1, 0.2, 0.7777777777777778])
_D8_A = _lower_triangle((
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0, 0.08876275643042054),
    (0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
    (0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
    (0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298),
    (0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0, 0, 0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
))
_D8_B = _D8_A[_D8_STAGES, :_D8_STAGES]
_D8_E3 = np.array([
    -0.18980075407240762, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082, 0])
_D8_E5 = np.array([
    0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294, 0])
_D8_D = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564]])
_D8_ERROR_EXPONENT = -1 / (7 + 1)  # of the step controller, as the error estimate is 7th-order


class _Dop853:
    """The DOP853 pair marching y' = fun(t, y) for a (3, n) state from t to t_bound.

    It replays the arithmetic of scipy's ``DOP853`` (its ``RungeKutta`` step
    controller, ``select_initial_step`` and ``Dop853DenseOutput``), so its
    steps, states and dense output equal scipy's bit for bit.  The stage
    derivatives are the rows of one flat (16, 3n) array and every stage sum,
    norm and dense-output product is the numpy call scipy makes on the same
    layout, because BLAS decides the order, and so the last bit, of each sum.
    ``fun`` sees (3, n) views.  It counts its own work: ``n_rhs`` calls of fun
    and ``n_trials`` trial steps, accepted or rejected.
    """

    def __init__(self, fun, t: float, y: np.ndarray, t_bound: float, rtol: float,
                 atol: float):
        self.fun, self.shape = fun, y.shape
        self.t, self.y, self.t_bound, self.rtol, self.atol = t, y.reshape(-1), t_bound, rtol, atol
        self.t_old = self.y_old = self.h = self.h_abs = None
        self.n_rhs = self.n_trials = 0
        self.K = K = np.empty((16, self.y.size))
        self._stages = [(K[:s].T, _D8_A[s, :s], _D8_C[s]) for s in range(1, 16)]

    def _call(self, t: float, y: np.ndarray) -> np.ndarray:
        """fun(t, y) for a flat y, flat."""
        self.n_rhs += 1
        return self.fun(t, y.reshape(self.shape)).reshape(-1)

    def start(self) -> None:
        """Evaluate fun at the start and pick the first step (Hairer, Norsett and
        Wanner I, II.4), as scipy's ``select_initial_step`` does."""
        f0 = self._call(self.t, self.y)
        self.K[_D8_STAGES] = f0  # the row the next step starts from
        self.h_abs = _initial_step(self._call, self.t, self.y, f0, self.t_bound, self.rtol,
                                   self.atol, _D8_ERROR_EXPONENT)

    def step(self) -> bool:
        """Take one accepted step; False when the step size underflows first."""
        t, y, K, rtol = self.t, self.y, self.K, self.rtol
        K[0] = K[_D8_STAGES]
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # a NaN step size, from NaN derivatives, stops too
                return False
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            for s, (k, a, c) in enumerate(self._stages[:_D8_STAGES - 1], start=1):
                K[s] = self._call(t + c * h, y + np.dot(k, a) * h)
            y_new = y + h * np.dot(K[:_D8_STAGES].T, _D8_B)
            K[_D8_STAGES] = self._call(t + h, y_new)
            self.n_trials += 1
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5_norm_2 = np.linalg.norm(np.dot(K[:_D8_STAGES + 1].T, _D8_E5) / scale) ** 2
            err3_norm_2 = np.linalg.norm(np.dot(K[:_D8_STAGES + 1].T, _D8_E3) / scale) ** 2
            if err5_norm_2 == 0 and err3_norm_2 == 0:
                error = 0.0
            else:
                denom = err5_norm_2 + 0.01 * err3_norm_2
                error = np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))
            factor = _step_factor(error, _D8_ERROR_EXPONENT, rejected)
            if error < 1:
                self.h_abs = h_abs * factor
                break
            h_abs *= factor  # a NaN error fails the test and shrinks the step by _MIN_FACTOR
            rejected = True
        self.t_old, self.y_old, self.h = t, y, h
        self.t, self.y = t_new, y_new
        return True

    def dense(self, tq: np.ndarray) -> np.ndarray:
        """States at the times tq (1-d) of the last step, shape (len(tq), 3n), from the
        order-7 continuous extension, which costs 3 more stages."""
        K, h, t_old, y_old = self.K, self.h, self.t_old, self.y_old
        for s, (k, a, c) in enumerate(self._stages[_D8_STAGES:], start=_D8_STAGES + 1):
            K[s] = self._call(t_old + c * h, y_old + np.dot(k, a) * h)
        F = np.empty((7, y_old.size))
        delta_y = self.y - y_old
        F[0] = delta_y
        F[1] = h * K[0] - delta_y
        F[2] = 2 * delta_y - h * (K[_D8_STAGES] + K[0])
        F[3:] = h * np.dot(_D8_D, K)
        x = ((tq - t_old) / (self.t - t_old))[:, None]
        y = np.zeros((len(x), y_old.size))
        for i, f in enumerate(F[::-1]):
            y += f
            y *= x if i % 2 == 0 else 1 - x
        y += y_old
        return y


def evolve(state: FieldState, traj: OdeTrajectory, t_end: float | None = None,
           f_cap: float | None = None, controls: EvolveControls = EvolveControls()) -> EvolveResult:
    """March the reduced system with the error-controlled DOP853 pair (``_Dop853``).

    The contrast and the model constants come from ``traj`` and its ``params``.
    Each step keeps the local error estimate below atol + pde_rtol * |y|
    componentwise, with atol = _ATOL_PER_RTOL * pde_rtol.  Snapshots are read
    from the dense output at out_target times after the initial state, uniform
    in ln(1+f) and ending exactly at the stop time.  Stops at t_end, when the
    reference contrast reaches f_cap, when rhs raises on any stage
    (hyperbolicity loss or vacuum), or when the solver's step size underflows;
    an early stop also stores the last accepted state.
    """
    if t_end is None and f_cap is None:
        raise UsageError("need t_end or f_cap as a stopping rule")
    if controls.out_target < 1:
        raise UsageError(f"out_target must be >= 1, got {controls.out_target!r}")
    t_stop = traj.t_end if t_end is None else min(t_end, traj.t_end)
    if f_cap is not None:
        if not f_cap > traj.params.beta:
            raise UsageError(f"f_cap must exceed beta, got {f_cap!r} <= {traj.params.beta!r}")
        if traj.f[-1] < f_cap:
            raise NumericalFailure(f"trajectory only reaches f = {traj.f[-1]:.3g} < f_cap")
        t_stop = min(t_stop, traj.time_of_contrast(f_cap))
    if t_stop <= state.t:
        raise UsageError(f"stop time {t_stop!r} is not after the initial time {state.t!r}")
    n = state.n
    out_t = snapshot_times(traj, state.t, t_stop, controls.out_target)

    mon = MonitorSeries()
    states = [state]
    _record(mon, state, traj)

    def store(t, y):
        y = y.reshape(3, n)
        f = traj.f_f0_at(t)[0]
        st = FieldState(t=float(t), zeta=state.zeta, rho_hat=y[0], drho_dt=y[1], nu=y[2],
                        psi=compute_psi((y[0] - f) / f))
        states.append(st)
        _record(mon, st, traj)

    stop_reason = "t_end"
    n_steps = 0
    dt_min, dt_max = math.inf, 0.0
    march = _Dop853(lambda t, y: rhs(t, y, traj), state.t,
                    np.stack((state.rho_hat, state.drho_dt, state.nu)), t_stop,
                    controls.pde_rtol, _ATOL_PER_RTOL * controls.pde_rtol)
    k = 0  # next output time
    try:
        march.start()
        while march.t < t_stop:
            if not march.step():
                stop_reason = "dt_underflow"
                break
            n_steps += 1
            dt_min, dt_max = min(dt_min, march.h), max(dt_max, march.h)
            m = int(np.searchsorted(out_t, march.t, side="right"))  # out_t[k:m] in this step
            if m > k:
                for t_out, y_out in zip(out_t[k:m], march.dense(out_t[k:m])):
                    store(t_out, y_out)
                k = m
    except HyperbolicityLossError:
        stop_reason = "hyperbolicity_loss"
    except VacuumError:
        stop_reason = "vacuum"
    if stop_reason == "t_end" and f_cap is not None and t_stop < (t_end or math.inf):
        stop_reason = "f_cap"
    if march.t > states[-1].t:
        store(march.t, march.y)
    return EvolveResult(states=states, monitors=mon, stop_reason=stop_reason,
                        n_steps=n_steps, n_rejected=march.n_trials - n_steps,
                        n_rhs=march.n_rhs, dt_min=dt_min, dt_max=dt_max)
