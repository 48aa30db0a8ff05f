"""Model constants: the stiffness root iota, data-derived constants, and range checks.

Every other module consumes a frozen :class:`ModelParams`.  The equation-of-state
constant ``iota`` is the unique root in (0, 1) of

    iota^3 + 9 (k_tilde / 6)^(1/3) iota - 1 = 0,

a strictly decreasing function of ``k_tilde`` with limits iota -> 1 as
k_tilde -> 0 and iota -> 0 as k_tilde -> inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from .errors import NumericalFailure, UsageError

IOTA_RESIDUAL_TOL = 1e-12
IOTA3_MAX = 0.2  # certified range of the stiffness parameter


def _cubic_residual(iota: float, k_tilde: float) -> float:
    return iota**3 + 9.0 * (k_tilde / 6.0) ** (1.0 / 3.0) * iota - 1.0


def solve_iota(k_tilde: float) -> float:
    """Solve the cubic identity for iota by bisection refined with Newton steps.

    Raises UsageError for non-positive ``k_tilde`` and NumericalFailure if
    the root does not converge.
    """
    if not (k_tilde > 0.0) or not math.isfinite(k_tilde):
        raise UsageError(f"k_tilde must be positive and finite, got {k_tilde!r}")
    p = 9.0 * (k_tilde / 6.0) ** (1.0 / 3.0)
    lo, hi = 0.0, 1.0
    # residual is -1 at 0 and p > 0 at 1, strictly increasing in iota
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _cubic_residual(mid, k_tilde) < 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(6):
        r = x**3 + p * x - 1.0
        x -= r / (3.0 * x * x + p)
    if not abs(_cubic_residual(x, k_tilde)) < IOTA_RESIDUAL_TOL:  # a NaN residual fails too
        raise NumericalFailure(f"iota root did not converge for k_tilde={k_tilde!r}")
    return x


def k_from_iota(iota: float) -> float:
    """Invert the cubic: k_tilde = 6 * ((1 - iota^3) / (9 iota))^3.

    Accepts iota in (0, 1]; iota = 1 maps to k_tilde = 0.
    """
    if not (0.0 < iota <= 1.0):
        raise UsageError(f"iota must lie in (0, 1], got {iota!r}")
    return 6.0 * ((1.0 - iota**3) / (9.0 * iota)) ** 3


@dataclass(frozen=True)
class ModelParams:
    """All constants of the model, fixed at construction time.

    ``t0``, ``omega``, ``c_scale`` and the ODE exponents are pinned by the model
    and are class constants; ``lam`` (the damping margin above 7/6) and ``A``
    (the compactification rate) are free inputs with documented defaults.
    """

    k_tilde: float
    iota: float
    beta: float
    gamma: float
    lam: float = 0.1
    A: float = 1.0
    certified: bool = True
    t0: ClassVar[float] = 1.0
    omega: ClassVar[float] = -8.0 / 5.0
    c_scale: ClassVar[float] = 0.2
    ode_a: ClassVar[float] = 4.0 / 3.0
    ode_b: ClassVar[float] = 2.0 / 3.0
    ode_c: ClassVar[float] = 4.0 / 3.0

    @property
    def iota3(self) -> float:
        return self.iota**3

    @property
    def beta0(self) -> float:
        """Initial contrast velocity f'(t0) = 3 (1 + beta) gamma."""
        return 3.0 * (1.0 + self.beta) * self.gamma

    @property
    def B(self) -> float:
        """Data constant (1 + beta)^(1/3) / (3 gamma) of the time transform."""
        return (1.0 + self.beta) ** (1.0 / 3.0) / (3.0 * self.gamma)

    @property
    def kappa(self) -> float:
        """Damping strength 7/6 + lam (> 7/6)."""
        return 7.0 / 6.0 + self.lam

    @property
    def K(self) -> float:
        """Equation-of-state constant, k_tilde = K^3 / pi."""
        return (math.pi * self.k_tilde) ** (1.0 / 3.0)

    def chi_limit(self) -> float:
        """Terminal value 2 b B / (3 - 2 c) of chi (= 4 B for the model exponents)."""
        return 2.0 * self.ode_b * self.B / (3.0 - 2.0 * self.ode_c)


def build_params(
    k_tilde: float,
    beta: float,
    gamma: float,
    lam: float = 0.1,
    A: float = 1.0,
    force: bool = False,
) -> ModelParams:
    """Validate ranges, solve for iota and assemble a ModelParams.

    ``force=True`` admits iota^3 > 1/5 for exploration; the result is marked
    non-certified and downstream condition checks will refuse it.
    """
    iota = solve_iota(k_tilde)
    for name, value in (("beta", beta), ("gamma", gamma), ("lambda", lam)):
        if not 0.0 < value < math.inf:
            raise UsageError(f"{name} must be positive and finite, got {value!r}")
    if not (0.0 < A < 2.0):
        raise UsageError(f"A out of hypothesis range (0, 2), got {A!r}")
    certified = True
    if iota**3 > IOTA3_MAX + 1e-12:
        if not force:
            raise UsageError(
                f"iota3 out of theorem range: iota^3 = {iota**3:.6g} > 1/5 "
                "(pass force=True for non-certified exploration)"
            )
        certified = False
    return ModelParams(
        k_tilde=k_tilde, iota=iota, beta=beta, gamma=gamma, lam=lam, A=A,
        certified=certified,
    )


def params_from_iota3(
    iota3: float,
    beta: float,
    gamma: float,
    lam: float = 0.1,
    A: float = 1.0,
    force: bool = False,
) -> ModelParams:
    """Convenience constructor pinning iota^3 directly (k_tilde derived)."""
    if not (0.0 < iota3 < 1.0):
        raise UsageError(f"iota3 must lie in (0, 1), got {iota3!r}")
    return build_params(k_from_iota(iota3 ** (1.0 / 3.0)), beta, gamma, lam, A, force)
