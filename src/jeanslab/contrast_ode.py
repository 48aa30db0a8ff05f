"""Blowup ODE for the homogeneous density contrast f(t).

The contrast of the reference solution solves

    f'' + (a/t) f' - (b/t^2) f (1+f) - c (f')^2 / (1+f) = 0,
    f(t0) = beta,  f'(t0) = beta0 = 3 (1+beta) gamma,

with (a, b, c) = (4/3, 2/3, 4/3).  f blows up at a finite time t_m, so the
time t is a poor clock for it: its steps shrink without bound as t nears t_m.
We march on the clock s = (1/2) ln(1+f) instead, with the state (t, p),
p = f' / (1+f)^(3/2) and w = e^(-s):

    dt/ds = 2 w / p,
    dp/ds = 2 (c - 3/2) p - 2 a w / t + (2 b / (t^2 p)) (1 - w^2).

The system is regular for every s while p > 0: t(s) tends to t_m with
t_m - t = O(e^(-s)) and p t_m / 2 to 1 (Stuart and Floater, "On the computation
of blow-up", Eur. J. Appl. Math. 1 (1990) 47-71), so
``ContrastMarch.blowup_time`` reads t_m off the march itself.  f = e^(2s) - 1
and f' = p e^(3s) come back in closed form; f' overflows near f = 1e205.

It is integrated by the package's one Runge-Kutta class, the Dormand-Prince
8(5,3) pair (DOP853; Hairer, Norsett and Wanner, Solving ODEs I, II.10) with
its order-7 dense output, equal bit for bit to scipy's DOP853 run through
``solve_ivp`` on the same system; ``pde`` marches its fields with the same
class.  Its sums over the stages and its error norms are the BLAS calls scipy
makes, since BLAS sets the last bit of a sum, and the rest of its step is
scipy's elementwise work on float64 arrays; only the contrast's slopes read
their state of two numbers as Python floats, which round each + - * / as numpy
does.  A ``ContrastMarch`` integrates a model once, and every trajectory
a run reads is cut from it: a contrast cap is the clock value s = (1/2)
ln(1 + f_cap), and a contrast time is a dense-output read of t(s).  A read at a
time t inverts the monotone t(s) of the step that holds t (``_read_at_time``), and
everything downstream (time maps, PDE coefficients, bound certificates) reads
the trajectory that way.  The envelope bracket's t_star needs no search either:
the pinned exponents make it the cube of the largest real root of a quintic.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NumericalFailure, UsageError, in_float_range
from .params import ModelParams

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ToleranceSpec:
    """Error tolerances of the contrast integration and the time it may not pass.

    Infinite tolerances are refused, and so is a relative one below 100 eps: double
    precision cannot meet it (scipy raises such a value to 100 eps with a warning).
    A relative tolerance of 1 or more asks for no correct digit and is refused too.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-14
    t_ceiling: float = 1e6

    def __post_init__(self):
        if not 100.0 * _EPS <= self.rel_tol < 1.0:
            raise UsageError(f"rel_tol must be at least 100 eps = {100.0 * _EPS:.6g} "
                             f"and below 1, got {self.rel_tol!r}")
        if not 0.0 < self.abs_tol < math.inf:
            raise UsageError(f"abs_tol must be positive and finite, got {self.abs_tol!r}")


def _dense_at(x, F, y_old):
    """The order-7 continuous extension of one DOP853 step at x = (t - t_old) / h, from
    the step's coefficients F = (F0, ..., F6) and its initial state y_old.

    The sum is nested in x and 1 - x from F6 down, elementwise, in the order in
    which scipy's ``Dop853DenseOutput`` accumulates it from zeros, so a value
    equals scipy's bit for bit whether it is read alone, on Python floats, or
    with others, on arrays whose axes broadcast (times, components, steps).
    """
    f0, f1, f2, f3, f4, f5, f6 = F
    u = 1 - x
    return ((((((((0.0 + f6) * x + f5) * u + f4) * x + f3) * u + f2) * x + f1) * u + f0) * x
            + y_old)


def _dense_dx(x, F):
    """The derivative in x of ``_dense_at``, carried through its nested sum."""
    v, d = F[6], 0.0
    for w, dw, fk in zip((x, 1 - x) * 3 + (x,), (1, -1) * 3 + (1,), (*F[5::-1], 0.0)):
        v, d = v * w + fk, d * w + dw * v
    return d


_NEWTON_STEPS = 3  # Newton iterations of a read at a time, from the step's Hermite inverse
_LN_MAX = math.log(float(np.finfo(float).max))  # e^x overflows for x above this


def _hermite(Ft):
    """(e1, e2, e3) of the cubic Hermite inverse x = ((e3 r + e2) r + e1) r, r = dt/F0, of
    a step's dense t, ``_dense_at(x, Ft, t_k) = t_k + dt``: it meets the polynomial at
    both ends of the step, x = 0 and 1, with its slopes there, F0 + F1 and F0 - F1 - F2
    (h dt/ds = 2 h e^(-s)/p at the step's two states)."""
    f0, f1, f2 = Ft[:3]
    d0, d1 = f0 / (f0 + f1), f0 / (f0 - f1 - f2)
    return d0, 3.0 - 2.0 * d0 - d1, d0 + d1 - 2.0


def _read_at_time(t, t_k, e1, e2, e3, s_k, h, Ft, Fp, p_k):
    """(s, p) at the time t of a step that starts at (s_k, t_k, p_k) and is h long in s,
    with the dense-output coefficients Ft and Fp of t and p and the Hermite
    coefficients e of ``_hermite``.

    x = (s - s_k)/h is where the step's dense t, ``_dense_at(x, Ft, t_k)``, meets t:
    _NEWTON_STEPS Newton iterations from the cubic Hermite inverse, with the
    derivative carried through the nested sum.  p is read at s as ``OdeSolution``
    reads it.  Only + - * /, elementwise, so floats and arrays give the same values.
    """
    f0, f1, f2, f3, f4, f5, f6 = Ft
    dt = t - t_k
    r = dt / f0
    x = ((e3 * r + e2) * r + e1) * r
    for _ in range(_NEWTON_STEPS):
        u = 1 - x
        v5 = f6 * x + f5
        v4 = v5 * u + f4
        v3 = v4 * x + f3
        v2 = v3 * u + f2
        v1 = v2 * x + f1
        v0 = v1 * u + f0
        d3 = (f6 * u - v5) * x + v4
        d1 = (d3 * u - v3) * x + v2
        x = x - (v0 * x - dt) / ((d1 * u - v1) * x + v0)
    s = s_k + x * h
    return s, _dense_at((s - s_k) / h, Fp, p_k)


def _inexact(x) -> np.ndarray:
    """x as a float array, or as a complex one where it is complex (a complex-step read);
    a float64 array comes back as itself."""
    x = np.asarray(x)
    return x.astype(np.result_type(x, float), copy=False)


def _holding_step(grid: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The step between the breakpoints grid that holds each value of the array v: a
    breakpoint grid[k] belongs to step k - 1, a value outside the grid to the first
    or the last step.  A complex value is held by the step of its real part (searchsorted
    orders complex values lexicographically, which would put t + ih past t)."""
    return np.clip(np.searchsorted(grid, np.real(v), side="left") - 1, 0, len(grid) - 2)


def _f_f0(s, p):
    """(f, f') = (e^(2s) - 1, p e^(3s)) at arrays of clock values s and rates p;
    NumericalFailure where f' overflows (near f = 1e205)."""
    try:
        with np.errstate(over="raise"):
            return np.expm1(2.0 * s), p * np.exp(3.0 * s)
    except FloatingPointError as exc:
        raise NumericalFailure(f"f' = p e^(3s) overflows at s = {np.max(s)!r}") from exc


@dataclass
class OdeTrajectory:
    """Dense-output record of a contrast march of the model ``params``.

    Readers of a trajectory take the model constants from its ``params``.
    ``s_grid`` holds the accepted solver steps on the clock s = ln(1+f)/2, the
    last one cut at the cap or at the time ceiling; ``t_grid``, ``p``, ``f`` and
    ``f0`` hold t, p, f and f' there.  Step k starts at s_grid[k] from
    (t, p) = y_old[:, k] and is h[k] long, the last one whole; F[:, :, k] holds
    its (7, 2) dense-output coefficients.  ``t_p_at_s`` reads (t, p) at clock
    values by the one formula ``_dense_at``, as scipy's ``OdeSolution`` reads
    one alone, bit for bit, and ``time_of_contrast`` is such a read.
    ``f00_at_s`` reads f'' at clock values.  ``f_f0_at`` gives (f, f') at a time
    or at an array of times inside [t0, t_end]: it inverts the monotone t(s) of
    the step that holds the time (``_read_at_time``) and reads p at the clock
    value found; ``s_p_at`` returns that clock value and p.  The scalar and the
    array path run the same arithmetic, so each value is the same either way.  A
    time at a breakpoint t_grid[k] belongs to step k - 1, and a time outside
    [t0, t_end] to the first or the last step; so does a clock value.  The array
    readers take complex times and clock values too, on the step of the real part:
    the reads are analytic there, so Im f(t + ih)/h is the derivative of the read
    f(t) (the complex step).
    """

    params: ModelParams
    s_grid: np.ndarray
    t_grid: np.ndarray
    p: np.ndarray
    f: np.ndarray
    f0: np.ndarray
    f_cap: float
    t_end: float
    reached_cap: bool
    h: np.ndarray = field(repr=False)
    F: np.ndarray = field(repr=False)
    y_old: np.ndarray = field(repr=False)

    @cached_property
    def _inverse(self) -> np.ndarray:
        """Rows (t_k, e1, e2, e3) of each step's read at a time."""
        return np.array([self.y_old[0], *_hermite(self.F[:, 0])])

    # Python floats for the scalar path, built on its first read (array readers skip
    # them): the breakpoints, and one _read_at_time tuple per step
    @cached_property
    def _ts(self) -> list:
        return self.t_grid.tolist()

    @cached_property
    def _steps(self) -> list:
        return list(zip(*self._inverse.tolist(), self.s_grid[:-1].tolist(), self.h.tolist(),
                        self.F[:, 0].T.tolist(), self.F[:, 1].T.tolist(), self.y_old[1].tolist()))

    def s_p_at(self, t):
        """(s, p) at t: two arrays of t's shape for a numpy array t, and two floats by
        the scalar path otherwise."""
        if type(t) is np.ndarray:
            k = _holding_step(self.t_grid, t)
            return _read_at_time(t, *self._inverse[:, k], self.s_grid[k], self.h[k],
                                 self.F[:, 0, k], self.F[:, 1, k], self.y_old[1, k])
        k = min(max(bisect.bisect_left(self._ts, t) - 1, 0), len(self.h) - 1)
        return _read_at_time(t, *self._steps[k])

    def f_f0_at(self, t):
        """(f(t), f'(t)): arrays of t's shape for a numpy array t, and floats by the
        scalar path otherwise; each value is the same either way.  NumericalFailure
        where f' overflows."""
        s, p = self.s_p_at(t)
        if type(t) is np.ndarray:
            return _f_f0(s, p)
        f0 = float(p) * float(np.exp(3.0 * s)) if 3.0 * s <= _LN_MAX else math.inf
        if f0 == math.inf:
            raise NumericalFailure(f"f' = p e^(3s) overflows at s = {s!r}")
        return float(np.expm1(2.0 * s)), f0

    def f00_at_s(self, s: np.ndarray) -> np.ndarray:
        """f'' at an array of clock values s: f' = p e^(3s) differentiated along the
        dense output, (dp/dx + 3 p h) e^(3s) / (dt/dx) with x = (s - s_k)/h and both
        derivatives in x by ``_dense_dx``."""
        k = _holding_step(self.s_grid, s)
        x, F, h = (s - self.s_grid[k]) / self.h[k], self.F[:, :, k], self.h[k]
        p = _dense_at(x, F[:, 1], self.y_old[1, k])
        return (_dense_dx(x, F[:, 1]) + 3.0 * p * h) * np.exp(3.0 * s) / _dense_dx(x, F[:, 0])

    def t_p_at_s(self, s: np.ndarray) -> np.ndarray:
        """(t, p) at an array of clock values s, shape (2,) + s.shape."""
        k = _holding_step(self.s_grid, s)
        return _dense_at((s - self.s_grid[k]) / self.h[k], self.F[:, :, k], self.y_old[:, k])

    def time_of_contrast(self, f_target: float) -> float:
        """Smallest t with f(t) = f_target: t(s) read at s = ln(1 + f_target)/2 on the
        solver step that holds it, so it does not depend on how far the trajectory
        was integrated.  f_target = f_cap gives t_end."""
        lo, hi = float(self.f[0]), float(self.f[-1])
        if f_target < lo * (1.0 - 1e-9) or f_target > hi * (1.0 + 1e-9):
            raise NumericalFailure(f"contrast {float(f_target)} outside computed range "
                                   f"[{lo:.6g}, {hi:.6g}]")
        s = 0.5 * math.log1p(f_target)
        if s >= self.s_grid[-1]:
            return self.t_end
        return float(self.t_p_at_s(np.array(max(s, self.s_grid[0])))[0])


_ZERO_T_END = 1e9  # zero_trajectory's end time


class _ZeroTrajectory(OdeTrajectory):
    """``OdeTrajectory`` of f = f' = 0, which no clock s = ln(1+f)/2 can march: every
    read at a time is s = p = 0."""

    def s_p_at(self, t):
        if type(t) is np.ndarray:
            return np.zeros(t.shape), np.zeros(t.shape)
        return 0.0, 0.0


def zero_trajectory(params: ModelParams) -> OdeTrajectory:
    """Trajectory of the unperturbed background family: f = f' = 0 for all t.

    The exact background universe is the beta = gamma = 0 member, for which
    the source terms carry f = 0; residual checks of that solution consume
    this trivial trajectory, and every read of it is an exact zero.
    """
    zeros = np.zeros(2)
    return _ZeroTrajectory(
        params=params, s_grid=zeros, t_grid=np.array([params.t0, _ZERO_T_END]), p=zeros,
        f=zeros, f0=zeros, f_cap=0.0, t_end=_ZERO_T_END, reached_cap=False,
        h=np.ones(1), F=np.zeros((7, 2, 1)), y_old=np.zeros((2, 1)),
    )


def _rhs_s(s, y, a, b, c):
    """(dt/ds, dp/ds) of the contrast ODE on the clock s = ln(1+f)/2, for the state
    y = (t, p), p = f'/(1+f)^(3/2), with w = e^(-s); the march passes y as a list.

    The slopes are taken on Python floats, and again on numpy scalars where they are
    not finite, so that numpy's error state meets an overflow.
    """
    t, p = y
    w = math.exp(-s)
    dt = 2.0 * w / p
    dp = 2.0 * (c - 1.5) * p - 2.0 * a * w / t + (2.0 * b / (t * t * p)) * (1.0 - w * w)
    if math.isfinite(dt) and math.isfinite(dp):
        return dt, dp
    t, p = np.float64(t), np.float64(p)
    return (2.0 * w / p,
            2.0 * (c - 1.5) * p - 2.0 * a * w / t + (2.0 * b / (t * t * p)) * (1.0 - w * w))


# scipy's step controller: safety factor, limits of one step's change, and the
# error exponent -1/(7+1) of the DOP853 pair, whose error estimate is 7th-order
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _D8_ERROR_EXPONENT = 0.9, 0.2, 10, -1 / 8


def _rms(v: np.ndarray) -> float:
    """RMS norm of a vector, through the ``ddot`` that ``np.linalg.norm`` makes."""
    return math.sqrt(v.dot(v)) / v.size ** 0.5


def _initial_step(fun, t, y, f, t_bound, rtol, atol) -> float:
    """First step size toward t_bound > t (Hairer, Norsett and Wanner I, II.4), as
    scipy's ``select_initial_step`` computes it for y' = fun(t, y) from the state y
    with derivative f, for the DOP853 pair."""
    interval = t_bound - t
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    if h0 == 0.0:  # the norm of the derivative overflowed
        raise NumericalFailure(f"the first step size underflows to 0 at t={t!r}")
    f1 = fun(t + h0, y + h0 * f)
    d2 = _rms((f1 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_D8_ERROR_EXPONENT
    return min(100 * h0, h1, interval)


def _step_factor(error, rejected: bool):
    """scipy's factor on the step size after a trial step with this error norm: an
    accepted one (error < 1) grows it up to _MAX_FACTOR, but not after a rejection
    on the same step; any other, a NaN error too, shrinks it down to _MIN_FACTOR."""
    if error < 1:
        factor = (_MAX_FACTOR if error == 0
                  else min(_MAX_FACTOR, _SAFETY * error ** _D8_ERROR_EXPONENT))
        return min(1, factor) if rejected else factor
    return max(_MIN_FACTOR, _SAFETY * error ** _D8_ERROR_EXPONENT)


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


def _error_norm(h: float, err5_norm_2: float, err3_norm_2: float, size: int) -> float:
    """scipy's error of a trial step of h, from the squared norms of its 5th- and
    3rd-order error estimates over a state of this size: on Python floats, or on
    numpy scalars where an overflow, a zero divisor or a NaN is to meet numpy's
    error state."""
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    if 0 < denom * size < math.inf and abs(h) * err5_norm_2 < math.inf:
        return abs(h) * err5_norm_2 / math.sqrt(denom * size)
    h, err5_norm_2 = np.float64(h), np.float64(err5_norm_2)
    return float(np.abs(h) * err5_norm_2 / np.sqrt((err5_norm_2 + 0.01 * err3_norm_2) * size))


class _Dop853:
    """The DOP853 pair marching y' = fun(t, y) for a flat state y from t to t_bound.

    It replays the arithmetic of scipy's ``DOP853`` (its ``RungeKutta`` step
    controller, ``select_initial_step`` and ``Dop853DenseOutput``), so its
    steps, states and dense output equal scipy's bit for bit.  The stage
    derivatives are the rows of one (16, size) array.  Each weighted sum over
    the stages (the stage inputs, the new state, the two error estimates, the
    dense output's _D8_D product) and each error norm is the BLAS ``dot`` that
    scipy calls on the same layout, because BLAS decides the order, and so the
    last bit, of a sum.  The elementwise work between them runs on the float64
    arrays of the state, as scipy writes it, and the step scalars (t, h, the
    error norm) are Python floats.  ``fun`` takes the state as a flat float64
    array and returns a sequence of its size.  The stepper counts its own work:
    ``n_rhs`` calls of fun and ``n_trials`` trial steps, accepted or rejected.
    """

    def __init__(self, fun, t: float, y: np.ndarray, t_bound: float, rtol: float,
                 atol: float):
        self.fun, self.t, self.y, self.t_bound = fun, float(t), y, float(t_bound)
        self.rtol, self.atol = rtol, atol
        self.t_old = self.y_old = self.h = self.h_abs = None
        self.n_rhs = self.n_trials = 0
        self.K = K = np.empty((16, y.size))
        stages = [(s, K[:s].T, _D8_A[s, :s], float(_D8_C[s])) for s in range(1, 16)]
        self._trial_stages, self._dense_stages = stages[:_D8_STAGES - 1], stages[_D8_STAGES:]
        self._new_state_rows, self._error_rows = K[:_D8_STAGES].T, K[:_D8_STAGES + 1].T

    def _call(self, t: float, y: np.ndarray):
        """fun(t, y), counted in n_rhs."""
        self.n_rhs += 1
        return self.fun(t, y)

    def _fill(self, stages, t: float, y: np.ndarray, h: float) -> None:
        """The derivatives K[s] at the given stages of a step of h from y at t."""
        K = self.K
        for s, k, a, c in stages:
            K[s] = self._call(t + c * h, y + k.dot(a) * h)

    def start(self) -> None:
        """Evaluate fun at the start and pick the first step (Hairer, Norsett and
        Wanner I, II.4), as scipy's ``select_initial_step`` does."""
        f0 = self.K[_D8_STAGES]  # the row the next step starts from
        f0[:] = self._call(self.t, self.y)
        self.h_abs = _initial_step(self._call, self.t, self.y, f0, self.t_bound, self.rtol,
                                   self.atol)

    def step(self) -> bool:
        """Take one accepted step; False when the step size underflows first, with
        the step size that failed left in h_abs."""
        t, y, K = self.t, self.y, self.K
        K[0] = K[_D8_STAGES]
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # a NaN step size, from NaN derivatives, stops too
                self.h_abs = h_abs
                return False
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            h_abs = abs(h)
            self._fill(self._trial_stages, t, y, h)
            y_new = y + self._new_state_rows.dot(_D8_B) * h
            K[_D8_STAGES] = self._call(t + h, y_new)
            self.n_trials += 1
            E = self._error_rows
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            err5, err3 = E.dot(_D8_E5) / scale, E.dot(_D8_E3) / scale
            error = _error_norm(h, math.sqrt(err5.dot(err5)) ** 2,
                                math.sqrt(err3.dot(err3)) ** 2, y.size)
            factor = _step_factor(error, rejected)
            if error < 1:
                self.h_abs = h_abs * factor
                break
            h_abs *= factor  # a NaN error fails the test and shrinks the step by _MIN_FACTOR
            rejected = True
        self.t_old, self.y_old, self.h = t, y, h
        self.t, self.y = t_new, y_new
        return True

    def dense_coefficients(self) -> np.ndarray:
        """The (7, size) coefficients F of the last step's order-7 continuous
        extension, which ``_dense_at`` reads; they cost 3 more stages."""
        K, h, y_old = self.K, self.h, self.y_old
        self._fill(self._dense_stages, self.t_old, y_old, h)
        F = np.empty((7, y_old.size))
        delta_y = self.y - y_old
        F[0], F[1], F[2] = delta_y, h * K[0] - delta_y, 2 * delta_y - h * (K[_D8_STAGES] + K[0])
        F[3:] = h * _D8_D.dot(K)
        return F

    def dense(self, tq: np.ndarray) -> np.ndarray:
        """States at the times tq (1-d) of the last step, shape (len(tq), size)."""
        x = ((tq - self.t_old) / (self.t - self.t_old))[:, None]
        return _dense_at(x, self.dense_coefficients(), self.y_old)


BLOWUP_CONTRAST = 1e300  # blowup_time reads t_m where f reaches this


class ContrastMarch:
    """The one integration of the contrast ODE of ``params`` that a run's trajectories
    and its blowup time are cut from: ``_Dop853`` marches (t, p) on the clock s from
    s0 = ln(1+beta)/2, and each accepted step is kept with its dense output.  No step
    depends on where a request stops.  The march ends in the step where t crosses the
    time ceiling, cut there by ``_read_at_time``.  An overflow, a NaN step size
    (non-finite slopes) and a step size below the float spacing near s raise
    NumericalFailure; the march then takes no further step.
    """

    def __init__(self, params: ModelParams, controls: ToleranceSpec = ToleranceSpec()):
        t, self._ceiling = float(params.t0), float(controls.t_ceiling)
        if not self._ceiling > t:
            raise UsageError(f"t_ceiling must exceed t0, got {self._ceiling!r} <= {t!r}")
        a, b, c = params.ode_a, params.ode_b, params.ode_c
        try:
            s, y = 0.5 * math.log1p(params.beta), [t, params.beta0 / (1.0 + params.beta) ** 1.5]
        except OverflowError as exc:
            raise NumericalFailure(
                f"(1 + beta)^(3/2) overflows at beta = {params.beta!r}") from exc
        self.params, self._failed = params, False
        self._stepper = _Dop853(lambda sq, yq: _rhs_s(sq, yq.tolist(), a, b, c), s,
                                np.array(y), math.inf, controls.rel_tol, controls.abs_tol)
        self._ss, self._ys = [s], [y]  # (s, [t, p]) at s0 and at each accepted step's end
        self._steps = []  # (h, F) of each accepted step k, which starts at _ss[k] from _ys[k]
        self._cut = None  # (s, [t_ceiling, p]) in the last step, once t crossed the ceiling

    def _step(self) -> None:
        """Take one more accepted step and keep it."""
        march, s, (t, _) = self._stepper, self._ss[-1], self._ys[-1]
        if self._failed:
            raise NumericalFailure(f"the contrast march failed before, at t={t!r}")
        self._failed = True  # until the step is kept
        if march.h_abs is None:
            march.start()
        if not march.step():
            if math.isnan(march.h_abs):
                raise NumericalFailure(f"the step size at t={t:.12g} is NaN: the contrast "
                                       "ODE's slopes are not finite")
            raise NumericalFailure(
                f"stiffness failure: integrator stopped at t={t:.12g} with "
                f"f={math.expm1(2.0 * s):.6g}: Required step size is less than spacing "
                "between numbers.")
        h, F = march.h, march.dense_coefficients()
        self._steps.append((h, F))
        self._ss.append(float(march.t))
        self._ys.append(march.y.tolist())
        s0, (t0, p0), t1 = self._ss[-2], self._ys[-2], self._ys[-1][0]
        if t1 >= self._ceiling:
            Ft, Fp = F.T.tolist()
            s, p = _read_at_time(self._ceiling, t0, *_hermite(Ft), s0, h, Ft, Fp, p0)
            self._cut = (s, [self._ceiling, p])
        self._failed = False

    @np.errstate(over="raise")  # numpy's overflows raise FloatingPointError, as a float's ** does
    def _reach(self, s_cap: float, t_reach: float = math.inf):
        """(k, s, [t, p], reached_cap) of the first step k whose end reaches s_cap or
        t_reach, or that crosses the ceiling, stepping on only if the steps taken fall
        short: the march ends in it at s_cap on the step's dense output, where t crosses
        the ceiling, or at the step's end.  NumericalFailure on an overflow."""
        try:
            k = 0
            while True:
                k += 1
                if k == len(self._ss):
                    self._step()
                if (self._ss[k] >= s_cap or self._ys[k][0] >= t_reach
                        or k == len(self._steps) and self._cut):
                    break
            cut = self._cut if k == len(self._steps) else None
            if self._ss[k] >= s_cap and (cut is None or s_cap <= cut[0]):
                h, F = self._steps[k - 1]
                x = (s_cap - self._ss[k - 1]) / h
                return k, s_cap, _dense_at(x, F, np.array(self._ys[k - 1])).tolist(), True
            return (k, *(cut or (self._ss[k], self._ys[k])), False)
        except (OverflowError, FloatingPointError, ZeroDivisionError) as exc:
            raise NumericalFailure(f"contrast ODE overflowed near t={self._ys[-1][0]!r}") from exc

    def trajectory(self, f_cap: float, t_reach: float = math.inf) -> OdeTrajectory:
        """The trajectory to the step that crosses f = f_cap (cut there, at
        s = ln(1 + f_cap)/2), meets the ceiling (cut there), or ends at or past t_reach
        (kept whole), stepping on only if the steps taken fall short; f, f' > 0 is
        asserted."""
        if not self.params.beta < f_cap < math.inf:
            raise UsageError(f"f_cap must exceed beta = {self.params.beta!r} and be finite, "
                             f"got {f_cap!r}")
        k, s, y, reached_cap = self._reach(0.5 * math.log1p(f_cap), t_reach)
        h, F = zip(*self._steps[:k])
        s_grid = np.array(self._ss[:k] + [s])
        y_grid = np.array(self._ys[:k] + [y]).T
        f_grid, f0_grid = _f_f0(s_grid, y_grid[1])
        if np.any(f_grid <= 0.0) or np.any(f0_grid <= 0.0):
            raise NumericalFailure("internal-consistency error: f or f' non-positive on an "
                                   "accepted step (contradicts positivity of the contrast)")
        return OdeTrajectory(
            params=self.params, s_grid=s_grid, t_grid=y_grid[0], p=y_grid[1], f=f_grid,
            f0=f0_grid, f_cap=f_cap, t_end=float(y_grid[0, -1]), reached_cap=reached_cap,
            h=np.array(h), F=np.stack(F, axis=-1), y_old=y_grid[:, :-1],
        )

    def blowup_time(self) -> tuple[float, float]:
        """(t_m, p t_m / 2): t and p t/2 where the march reaches f = BLOWUP_CONTRAST, at
        s = 345.4, where t_m - t = O(e^(-s)) is far below rounding and p t_m / 2 tends
        to 1.  NumericalFailure if p leaves (0, inf) or t meets the ceiling first."""
        k, s, (t_m, p_m), reached = self._reach(0.5 * math.log1p(BLOWUP_CONTRAST))
        if not reached:
            raise NumericalFailure(f"no blowup detected in window: t reaches the ceiling "
                                   f"{self._ceiling!r} at f = {math.expm1(2.0 * s):.6g}")
        bad = [y for y in self._ys[:k] + [[t_m, p_m]] if not 0.0 < y[1] < math.inf]
        if bad:
            raise NumericalFailure(f"p = f'/(1+f)^(3/2) left (0, inf): p = {bad[0][1]!r} "
                                   f"at t = {bad[0][0]!r}")
        return t_m, p_m * t_m / 2.0


@dataclass(frozen=True)
class EnvelopeConstants:
    """Data-dependent constants of the contrast envelopes.

    ``a_bar = 1 - a``, ``c_bar = 1 - c`` and ``triangle = sqrt((1-a)^2 + 4b)``
    together with the five envelope constants; cA and cB shape the algebraic
    bracket whose first root past t0 is t_star, cE the improved lower bound
    whose root (when the data is ``supercritical``: beta0 > a_bar (1+beta)/(c_bar t0))
    caps the blowup time.
    """

    a_bar: float
    c_bar: float
    triangle: float
    cA: float
    cB: float
    cC: float
    cD: float
    cE: float
    supercritical: bool

    @property
    def p_minus(self) -> float:
        return 0.5 * (self.a_bar - self.triangle)

    @property
    def p_plus(self) -> float:
        return 0.5 * (self.a_bar + self.triangle)

    def bracket_fn(self, t):
        return self.cA * t**self.p_minus + self.cB * t**self.p_plus + 1.0


def envelope_constants(params: ModelParams) -> EnvelopeConstants:
    a, b, c = params.ode_a, params.ode_b, params.ode_c
    a_bar = 1.0 - a
    c_bar = 1.0 - c
    tri = math.sqrt((1.0 - a) ** 2 + 4.0 * b)
    t0, beta, beta0 = params.t0, params.beta, params.beta0
    p_minus = 0.5 * (a_bar - tri)
    p_plus = 0.5 * (a_bar + tri)
    cA = (t0**-p_minus / tri) * (t0 * beta0 / (1.0 + beta) ** 2
                                 - p_plus * beta / (1.0 + beta))
    cB = (t0**-p_plus / tri) * (p_minus * beta / (1.0 + beta)
                                - t0 * beta0 / (1.0 + beta) ** 2)
    cC = (2.0 / (2.0 + a_bar + tri)) * (
        math.log1p(beta) + (p_plus / b) * t0 * beta0 / (1.0 + beta)
    ) * t0**-p_plus
    cD = ((a_bar + tri) / (2.0 + a_bar + tri)) * (
        math.log1p(beta) - t0 * beta0 / (b * (1.0 + beta))
    ) * t0
    cE = c_bar * beta0 * t0 ** (1.0 - a_bar) / (a_bar * (1.0 + beta))
    supercritical = beta0 > a_bar * (1.0 + beta) / (c_bar * t0)
    out = EnvelopeConstants(a_bar, c_bar, tri, cA, cB, cC, cD, cE, supercritical)
    if not (out.cB < 0.0 and out.cC > 0.0 and out.cE > 0.0):
        raise NumericalFailure(f"envelope constants out of sign: need cB < 0 < cC, cE; "
                               f"got cB={cB:.6g}, cC={cC:.6g}, cE={cE:.6g}")
    return out


LADDER_RUNGS = 5  # blowup_ladder's crossing contrasts are f_cap / 2^k, k < LADDER_RUNGS


@in_float_range
def blowup_bracket(params: ModelParams) -> tuple[float, float | None]:
    """Bracket [t_star, t_star_upper) for the blowup time.

    t_star is the one root past t0 of the algebraic bracket function.  The model
    pins the ODE's ``ode_a`` and ``ode_b``, so p_minus = -1, p_plus = 2/3 and
    h(t) = t bracket_fn(t) = cA + t + cB t^(5/3).  h(t0) = t0/(1+beta) > 0, and
    ``envelope_constants`` enforces cB < 0, which makes h strictly concave, so h has
    exactly one root past t0 and no larger one: the cube of the largest real root of
    the quintic cB u^5 + u^3 + cA (u = t^(1/3)), an eigenvalue of its companion
    matrix (``np.roots``).  One Newton step on bracket_fn itself takes off the
    eigenvalue's few ulps and the rounding of p_plus, so t_star is the root of the
    denominator the upper envelope reads.  NumericalFailure where the root lies past
    the largest float.
    The upper end exists only for supercritical data beta0 > a_bar (1+beta)/(c_bar t0)
    (gamma > 1/3 at t0 = 1) and is closed form.
    """
    ec = envelope_constants(params)
    u = np.roots([ec.cB, 0.0, 1.0, 0.0, 0.0, ec.cA])
    t = u.real[u.imag == 0.0].max() ** 3
    slope = (ec.p_minus * ec.cA * t**ec.p_minus + ec.p_plus * ec.cB * t**ec.p_plus) / t
    t_star = float(t - ec.bracket_fn(t) / slope)
    t_star_upper = None
    if ec.supercritical and params.t0**ec.a_bar > 1.0 / ec.cE:
        t_star_upper = (params.t0**ec.a_bar - 1.0 / ec.cE) ** (1.0 / ec.a_bar)
    return t_star, t_star_upper


@dataclass
class BoundReport:
    """Per-grid-point envelope certificates of the contrast bounds."""

    constants: EnvelopeConstants
    t_star: float
    t_star_upper: float | None
    lower_envelope: np.ndarray  # exp(cC t^p_plus + cD / t) at each grid point
    lower_ok: np.ndarray
    upper_ok: np.ndarray
    improved_ok: np.ndarray
    improved_applicable: bool
    first_violation: tuple[str, float] | None

    @property
    def all_ok(self) -> bool:
        return bool(self.lower_ok.all() and self.upper_ok.all() and self.improved_ok.all())


@in_float_range
def bound_certificates(traj: OdeTrajectory) -> BoundReport:
    """Check the lower/upper/improved envelopes at every accepted grid point.

    The upper bound applies on (t0, t_star) only; the improved lower bound
    only when its data hypothesis holds.  At t0 the lower bound degenerates
    to equality by construction, so the strict check starts past t0.
    """
    params = traj.params
    ec = envelope_constants(params)
    t_star, t_star_up = blowup_bracket(params)
    t = traj.t_grid
    one_pf = 1.0 + traj.f
    interior = t > params.t0 * (1.0 + 1e-12)

    lower_env = np.exp(ec.cC * t**ec.p_plus + ec.cD / t)
    lower_ok = ~interior | (lower_env < one_pf)

    upper_ok = np.ones_like(lower_ok)
    on_window = interior & (t < t_star)
    denom = ec.bracket_fn(t[on_window])
    upper_ok[on_window] = one_pf[on_window] < 1.0 / denom

    improved_ok = np.ones_like(lower_ok)
    if ec.supercritical:
        base = 1.0 - ec.cE * params.t0**ec.a_bar + ec.cE * t**ec.a_bar
        improved_env = (1.0 + params.beta) * base ** (1.0 / ec.c_bar)
        improved_ok = ~interior | (improved_env < one_pf)

    first = None
    for name, ok in (("lower", lower_ok), ("upper", upper_ok), ("improved", improved_ok)):
        bad = np.flatnonzero(~ok)
        if bad.size:
            cand = (name, float(t[bad[0]]))
            if first is None or cand[1] < first[1]:
                first = cand
    return BoundReport(
        constants=ec, t_star=t_star, t_star_upper=t_star_up,
        lower_envelope=lower_env, lower_ok=lower_ok, upper_ok=upper_ok, improved_ok=improved_ok,
        improved_applicable=ec.supercritical, first_violation=first,
    )


def blowup_ladder(traj: OdeTrajectory) -> tuple[float, float, int]:
    """Blowup time by geometric-ladder extrapolation of cap-crossing times.

    The crossing times t_k of f = f_cap / 2^k behave like t_m - C f^{-q};
    halving the contrast multiplies the distance to t_m by 2^q, so from three
    consecutive rungs r = (t2 - t1)/(t3 - t2) = 2^q and

        t_m = t3 + (t3 - t2) / (r - 1).

    A triplet with r <= 1 does not shrink toward a blowup and is dropped, and so
    is one whose last two rungs are the same float.
    Returns (t_m estimate, relative spread of the kept triplet extrapolants,
    number of dropped triplets); the estimate is the last kept extrapolant.
    """
    if not traj.reached_cap:
        raise NumericalFailure("no blowup detected in window: trajectory never reached f_cap")
    caps = traj.f_cap / 2.0 ** np.arange(LADDER_RUNGS - 1, -1, -1)
    times = np.array([traj.time_of_contrast(c) for c in caps])
    ests = []
    for i in range(len(times) - 2):
        t1, t2, t3 = times[i], times[i + 1], times[i + 2]
        if not t2 - t1 > t3 - t2 > 0.0:  # r <= 1, or rungs that t cannot tell apart
            continue
        r = (t2 - t1) / (t3 - t2)
        ests.append(t3 + (t3 - t2) / (r - 1.0))
    if not ests:
        raise NumericalFailure("no blowup detected in window: extrapolation ladder degenerate")
    est = ests[-1]
    spread = (max(ests) - min(ests)) / est
    return float(est), float(spread), len(times) - 2 - len(ests)
