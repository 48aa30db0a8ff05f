"""Blowup ODE for the homogeneous density contrast f(t).

The contrast of the reference solution solves

    f'' + (a/t) f' - (b/t^2) f (1+f) - c (f')^2 / (1+f) = 0,
    f(t0) = beta,  f'(t0) = beta0 = 3 (1+beta) gamma,

with (a, b, c) = (4/3, 2/3, 4/3).  We integrate y = ln(1+f) instead of f:
the derivative-quadratic term becomes polynomial in y' and the solution,
which grows faster than exponentially, stays representable up to very large
contrast caps.  In the y variable the equation reads

    y'' = -(a/t) y' + (b/t^2) (e^y - 1) + (c - 1) (y')^2.

It is integrated by a Dormand-Prince 5(4) pair with Shampine's quartic dense
output, stepped here and equal bit for bit to scipy's RK45 run through
``solve_ivp`` with the cap crossing as its terminal event.  The roots of the
module (the cap crossing, contrast times, the envelope bracket) come from its
own Brent's method, equal bit for bit to scipy's ``brentq``.  Everything
downstream (time maps, PDE coefficients, bound certificates) is driven by the
dense output stored on the returned trajectory, which reads every time by one
formula, as scipy's ``OdeSolution`` reads one time alone.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailure, UsageError
from .params import ModelParams

_EPS = float(np.finfo(float).eps)
_BRENT_MAXITER = 100  # scipy brentq's default


@dataclass(frozen=True)
class ToleranceSpec:
    """Error tolerances of the contrast integration and the time it may not pass.

    A relative tolerance below 100 eps cannot be met in double precision (scipy
    raises such a value to 100 eps with a warning), so it is refused.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-14
    t_ceiling: float = 1e6

    def __post_init__(self):
        if not self.rel_tol >= 100.0 * _EPS:
            raise UsageError(f"rel_tol must be at least 100 eps = {100.0 * _EPS:.6g}, "
                             f"got {self.rel_tol!r}")
        if not self.abs_tol > 0.0:
            raise UsageError(f"abs_tol must be positive, got {self.abs_tol!r}")


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float) -> float:
    """Root of f between xa and xb, where f changes sign, by Brent's method (Brent 1973,
    ch. 4), step for step as scipy's ``brentq`` takes it (its C routine, with inverse
    quadratic extrapolation through the last three points and a bisection fallback)."""
    xpre, xcur, xtol, rtol = float(xa), float(xb), float(xtol), float(rtol)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise NumericalFailure(f"no sign change of the root function on [{xpre!r}, {xcur!r}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if stry is not None and 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry  # a short interpolation step
        else:
            spre = scur = sbis  # bisection
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise NumericalFailure(f"Brent's method did not converge in {_BRENT_MAXITER} iterations")


def _quartic_at(t, t_old, h, Q, y_old):
    """(y, y') at t of the interpolant of one step, summed as
    (q0 x + q2 x^3) + (q1 x^2 + q3 x^4): the order in which BLAS sums scipy's
    ``np.dot(Q, p)`` for one time.  Floats and nested lists for one time, or
    arrays with the step data on the leading axes (Q of shape (2, 4) + t.shape)."""
    (q, r), (y, yp) = Q, y_old
    x = (t - t_old) / h
    x2 = x * x
    x3 = x2 * x
    x4 = x3 * x
    return (h * ((q[0] * x + q[2] * x3) + (q[1] * x2 + q[3] * x4)) + y,
            h * ((r[0] * x + r[2] * x3) + (r[1] * x2 + r[3] * x4)) + yp)


class _DenseRK45:
    """Dense output of an RK45 integration, evaluated for any number of times at once.

    On each accepted step it is the quartic continuous extension of the
    Dormand-Prince pair (Shampine, "Some Practical Runge-Kutta Formulas",
    Math. Comp. 46, 1986): with x = (t - t_old[k]) / h[k] on step k,

        y(t) = h[k] ((q0 x + q2 x^3) + (q1 x^2 + q3 x^4)) + y_old[k],   q = Q[k] row by row.

    A time at a breakpoint ts[k] belongs to step k - 1, and a time outside
    [ts[0], ts[-1]] to the first or the last step.  Every time is read by the
    one formula ``_quartic_at``, so a value does not depend on which other
    times share the call, and it equals scipy's ``OdeSolution`` read at that
    one time bit for bit, which the tests check with scipy as the oracle.
    """

    def __init__(self, ts, t_old, h, Q, y_old):
        self.ts, self.t_old, self.h, self.Q, self.y_old = ts, t_old, h, Q, y_old
        # Python floats for the scalar path
        self._ts = ts.tolist()
        self._steps = list(zip(t_old.tolist(), h.tolist(), Q.tolist(), y_old.tolist()))

    def __call__(self, t) -> tuple[np.ndarray, np.ndarray]:
        """(y, y') at the times t (any shape), as two arrays of t's shape."""
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(self.ts, t, side="left") - 1, 0, len(self.h) - 1)
        return _quartic_at(t, self.t_old[k], self.h[k], np.moveaxis(self.Q[k], (-2, -1), (0, 1)),
                           np.moveaxis(self.y_old[k], -1, 0))

    def scalar(self, t: float) -> tuple[float, float]:
        """(y, y') at one time; equal to ``self(t)`` for a 0-d t."""
        k = min(max(bisect.bisect_left(self._ts, t) - 1, 0), len(self._steps) - 1)
        return _quartic_at(t, *self._steps[k])


@dataclass
class OdeTrajectory:
    """Dense-output record of one contrast integration of the model ``params``.

    Readers of a trajectory take the model constants from its ``params``.
    ``t_grid`` holds the accepted solver steps.  ``f_f0_at`` is the one reader
    of the dense output: it gives (f, f') at a time or at an array of times
    inside [t0, t_end].  It, and the root search of ``time_of_contrast``, go
    through one evaluator of the RK45 interpolant on every step
    (``_DenseRK45``), which reads each time as scipy's ``OdeSolution`` reads
    it alone, bit for bit.
    The record holds no blowup-time estimate; ``blowup_ladder`` extrapolates
    one from it on request.
    """

    params: ModelParams
    t_grid: np.ndarray
    f: np.ndarray
    f0: np.ndarray
    f_cap: float
    t_end: float
    reached_cap: bool
    _sol: _DenseRK45 | None = field(default=None, repr=False)

    def f_f0_at(self, t):
        """(f(t), f'(t)) from one dense-output read: arrays of t's shape for a numpy
        array t, and floats by the scalar path otherwise; each value is the same
        either way."""
        if type(t) is np.ndarray:
            y, yp = self._sol(t)
            return np.expm1(y), yp * np.exp(y)
        y, yp = self._sol.scalar(t)
        return float(np.expm1(y)), float(yp * np.exp(y))

    def time_of_contrast(self, f_target: float) -> float:
        """Smallest t with f(t) = f_target (f is strictly increasing).

        The root is searched in the solver step that holds it, so it does not
        depend on how far the trajectory was integrated.  That step is found
        from the dense output at the step ends, not from the stored f, which
        can differ from it in the last bit.
        """
        lo, hi = float(self.f[0]), float(self.f[-1])
        if f_target < lo * (1.0 - 1e-9) or f_target > hi * (1.0 + 1e-9):
            raise NumericalFailure(f"contrast {float(f_target)} outside computed range "
                                   f"[{lo:.6g}, {hi:.6g}]")
        f_target = min(max(f_target, lo), hi)
        if f_target == hi:
            return self.t_end
        y_t = math.log1p(f_target)

        def gap(t):
            return self._sol.scalar(t)[0] - y_t

        k = bisect.bisect_left(self.t_grid, 0.0, key=gap)  # gap(t[k-1]) < 0 <= gap(t[k])
        if k == 0:
            return float(self.t_grid[0])
        if k == len(self.t_grid):
            return self.t_end
        return _brentq(gap, self.t_grid[k - 1], self.t_grid[k], xtol=1e-14, rtol=8.9e-16)


_ZERO_T_END = 1e9  # zero_trajectory's end time


def zero_trajectory(params: ModelParams) -> OdeTrajectory:
    """Trajectory of the unperturbed background family: f = f' = 0 for all t.

    The exact background universe is the beta = gamma = 0 member, for which
    the source terms carry f = 0; residual checks of that solution consume
    this trivial trajectory.  Its dense output is the evaluator with zero
    coefficients on one step, so every read is an exact zero.
    """
    t_grid = np.array([params.t0, _ZERO_T_END])
    zero_sol = _DenseRK45(t_grid, t_grid[:1], np.diff(t_grid), np.zeros((1, 2, 4)),
                          np.zeros((1, 2)))
    return OdeTrajectory(
        params=params, t_grid=t_grid, f=np.zeros(2), f0=np.zeros(2),
        f_cap=0.0, t_end=_ZERO_T_END, reached_cap=False, _sol=zero_sol,
    )


def _rhs_y(t, y, a, b, c):
    return (y[1], -(a / t) * y[1] + (b / t**2) * np.expm1(y[0]) + (c - 1.0) * y[1] ** 2)


# The Dormand-Prince 5(4) pair (Dormand & Prince 1980) and Shampine's quartic
# dense output (Math. Comp. 46, 1986), written as scipy's RK45.C, A, B, E and P.
_DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
# scipy's step controller, for this pair and pde's: safety factor, limits of one
# step's change; and the error exponent -1/(4+1) of this pair
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ERROR_EXPONENT = 0.9, 0.2, 10, -1 / 5


def _rms(v: np.ndarray) -> float:
    """RMS norm of a vector, through the ``ddot`` that ``np.linalg.norm`` makes."""
    return math.sqrt(v.dot(v)) / v.size ** 0.5


def _initial_step(fun, t, y, f, t_bound, rtol, atol, error_exponent) -> float:
    """First step size toward t_bound > t (Hairer, Norsett and Wanner I, II.4), as
    scipy's ``select_initial_step`` computes it for y' = fun(t, y) from the state y
    with derivative f, for a pair whose step controller has this error exponent."""
    y, f = np.asarray(y), np.asarray(f)
    interval = t_bound - t
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    if h0 == 0.0:  # the norm of the derivative overflowed
        raise NumericalFailure(f"the first step size underflows to 0 at t={t!r}")
    f1 = np.asarray(fun(t + h0, y + h0 * f))
    d2 = _rms((f1 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -error_exponent
    return min(100 * h0, h1, interval)


def _step_factor(error, error_exponent, rejected: bool):
    """scipy's factor on the step size after a trial step with this error norm: an
    accepted one (error < 1) grows it up to _MAX_FACTOR, but not after a rejection
    on the same step; any other, a NaN error too, shrinks it down to _MIN_FACTOR."""
    if error < 1:
        factor = (_MAX_FACTOR if error == 0
                  else min(_MAX_FACTOR, _SAFETY * error ** error_exponent))
        return min(1, factor) if rejected else factor
    return max(_MIN_FACTOR, _SAFETY * error ** error_exponent)


@np.errstate(over="raise")  # numpy's overflows raise FloatingPointError, as a float's ** does
def integrate_contrast(
    params: ModelParams,
    f_cap: float = 1e6,
    controls: ToleranceSpec = ToleranceSpec(),
    t_reach: float = math.inf,
) -> OdeTrajectory:
    """Integrate the contrast ODE adaptively until f >= f_cap, the ceiling or t_reach.

    Steps the Dormand-Prince 5(4) pair with scipy's error control and first
    step, and replays the arithmetic of scipy's RK45 run through ``solve_ivp``
    with the cap as its terminal event, so the steps, the states and the dense
    output equal scipy's bit for bit.  The stage sums, the error and the
    dense-output coefficients stay ``np.dot`` and the error norm the ``ddot``
    of ``np.linalg.norm``, because BLAS sums them with fused multiply-adds that
    Python floats cannot reproduce; the rest is Python floats.  On the step
    that crosses y = ln(1 + f_cap) the crossing is found by ``_brentq`` on that
    step's interpolant, which stays whole in the dense output.  It also stops
    after the first accepted step that ends at or past t_reach, kept whole,
    with ``reached_cap`` False unless that step crosses the cap too.  No step
    depends on where the run stops, so the dense output on [t0, t_reach]
    equals the full run's bit for bit (the ceiling, by contrast, shortens the
    step that meets it).  Positivity of f and f' on every accepted step is
    asserted (an interior violation would contradict the monotonicity of the
    contrast and signals an integration fault).  An overflow anywhere in the
    integration, and a step size that is NaN because the slopes are not
    finite, raise NumericalFailure.
    """
    if not f_cap > params.beta:
        raise UsageError(f"f_cap must exceed beta, got {f_cap!r} <= {params.beta!r}")
    t, t_bound = float(params.t0), float(controls.t_ceiling)
    if not t_bound > t:
        raise UsageError(f"t_ceiling must exceed t0, got {t_bound!r} <= {t!r}")
    a, b, c = params.ode_a, params.ode_b, params.ode_c
    rtol, atol = controls.rel_tol, controls.abs_tol
    y0, y1 = math.log1p(params.beta), params.beta0 / (1.0 + params.beta)
    y_cap = math.log1p(f_cap)
    try:
        K = np.empty((7, 2))  # stage derivatives by row; K[0] at the step's start, K[6] at its end
        K[0] = _rhs_y(t, (y0, y1), a, b, c)
        h_abs = _initial_step(lambda tq, yq: _rhs_y(tq, yq, a, b, c), t, (y0, y1), K[0],
                              t_bound, rtol, atol, _ERROR_EXPONENT)
        KT, KB = K.T, K[:6].T
        stages = [(s, KT[:, :s], _DP_A[s, :s], float(_DP_C[s])) for s in range(1, 6)]
        v = np.empty(2)
        ts, ys, t_old, hs, Qs, y_old = [t], [(y0, y1)], [], [], [], []
        status = None  # scipy's: 0 at the ceiling (or t_reach), 1 at the cap
        while status is None:
            min_step = 10 * (math.nextafter(t, math.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if math.isnan(h_abs):
                    raise NumericalFailure(f"the step size at t={t:.12g} is NaN: the contrast "
                                           "ODE's slopes are not finite")
                if not h_abs >= min_step:
                    raise NumericalFailure(
                        f"stiffness failure: integrator stopped at t={t:.12g} with "
                        f"f={math.expm1(y0):.6g}: Required step size is less than spacing "
                        "between numbers.")
                t_new = min(t + h_abs, t_bound)
                h_abs = h = t_new - t
                for s, k, row, c_s in stages:
                    d0, d1 = k.dot(row).tolist()
                    K[s] = _rhs_y(t + c_s * h, (y0 + d0 * h, y1 + d1 * h), a, b, c)
                d0, d1 = KB.dot(_DP_B).tolist()
                n0, n1 = y0 + h * d0, y1 + h * d1
                K[6] = _rhs_y(t + h, (n0, n1), a, b, c)
                d0, d1 = KT.dot(_DP_E).tolist()
                v[0] = d0 * h / (atol + max(abs(y0), abs(n0)) * rtol)
                v[1] = d1 * h / (atol + max(abs(y1), abs(n1)) * rtol)
                error = _rms(v)
                h_abs *= _step_factor(error, _ERROR_EXPONENT, rejected)
                if error < 1:
                    break
                rejected = True
            t_old.append(t)
            hs.append(h)
            # as floats: one small array per step, all held until the loop ends,
            # fragments the heap the work after the integration allocates from
            Qs.append(KT.dot(_DP_P).tolist())
            y_old.append((y0, y1))
            t, y0, y1 = t_new, n0, n1
            K[0] = K[6]
            if t == t_bound or t >= t_reach:
                status = 0
            if y0 >= y_cap:  # scipy's g <= 0 <= g_new for g = y - y_cap; g <= 0 held before
                step = (t_old[-1], h, Qs[-1], y_old[-1])
                t = _brentq(lambda tq: _quartic_at(tq, *step)[0] - y_cap, step[0], t,
                            xtol=4 * _EPS, rtol=4 * _EPS)
                y0, y1 = _quartic_at(t, *step)
                status = 1
            ts.append(t)
            ys.append((y0, y1))
        t_grid = np.array(ts)
        y = np.array(ys).T
        f_grid = np.expm1(y[0])
        f0_grid = y[1] * np.exp(y[0])
        if np.any(f_grid <= 0.0) or np.any(f0_grid <= 0.0):
            raise NumericalFailure("internal-consistency error: f or f' non-positive on an "
                                   "accepted step (contradicts positivity of the contrast)")
        return OdeTrajectory(
            params=params, t_grid=t_grid, f=f_grid, f0=f0_grid,
            f_cap=f_cap, t_end=float(t_grid[-1]), reached_cap=status == 1,
            _sol=_DenseRK45(t_grid, np.array(t_old), np.array(hs), np.array(Qs), np.array(y_old)),
        )
    except (OverflowError, FloatingPointError) as exc:
        raise NumericalFailure(f"contrast ODE overflowed near t={t!r}") from exc


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


_BRACKET_SEARCH_CEILING = 1e12  # blowup_bracket scans t up to here for a sign change
LADDER_RUNGS = 5  # blowup_ladder's crossing contrasts are f_cap / 2^k, k < LADDER_RUNGS


def blowup_bracket(params: ModelParams) -> tuple[float, float | None]:
    """Bracket [t_star, t_star_upper) for the blowup time.

    t_star is the first root past t0 of the algebraic bracket function,
    located by geometric scan plus bisection to 1e-10 relative.  The upper
    end exists only for supercritical data beta0 > a_bar (1+beta)/(c_bar t0)
    (gamma > 1/3 at t0 = 1) and is closed form.
    """
    ec = envelope_constants(params)
    t = params.t0
    fac = 1.0 + 2.0 ** -6
    t_hi = t * fac
    while ec.bracket_fn(t_hi) > 0.0:
        t, t_hi = t_hi, t_hi * fac
        fac = min(fac * fac, 2.0)
        if t_hi > _BRACKET_SEARCH_CEILING:
            raise NumericalFailure(f"no bracket: no sign change of the envelope "
                                   f"denominator below t={_BRACKET_SEARCH_CEILING:.3g}")
    t_star = _brentq(ec.bracket_fn, t, t_hi, xtol=1e-13, rtol=1e-11)
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

    A triplet with r <= 1 does not shrink toward a blowup and is dropped.
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
        r = (t2 - t1) / (t3 - t2)
        if r <= 1.0:
            continue
        ests.append(t3 + (t3 - t2) / (r - 1.0))
    if not ests:
        raise NumericalFailure("no blowup detected in window: extrapolation ladder degenerate")
    est = ests[-1]
    spread = (max(ests) - min(ests)) / est
    return float(est), float(spread), len(times) - 2 - len(ests)
