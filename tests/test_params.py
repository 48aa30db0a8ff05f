import math

import numpy as np
import pytest

from jeanslab.errors import NumericalFailure, UsageError
from jeanslab.params import build_params, k_from_iota, params_from_iota3, solve_iota


def iota_radical(k_tilde: float) -> float:
    """Closed radical form of the cubic root.

    Loses precision for very small ``k_tilde`` (cancellation between the two
    cube roots), so it serves as a cross-check rather than the primary solver.
    """
    s = 0.5 * math.sqrt(1.0 + 18.0 * k_tilde)
    return (s + 0.5) ** (1.0 / 3.0) - (s - 0.5) ** (1.0 / 3.0)


def bisect_k_for_iota3(target_iota3, lo=1e-6, hi=1.0, iters=200):
    # independent oracle: bisection on iota(k)^3 - target over k
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if solve_iota(mid) ** 3 > target_iota3:
            lo = mid  # iota decreasing in k: too-large iota3 means k too small
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_small_k_limit():
    assert abs(solve_iota(1e-12) - 1.0) < 1e-3


def test_iota3_one_fifth_oracle():
    k = bisect_k_for_iota3(0.2)
    assert abs(k - 0.0211) < 2e-4
    assert abs(solve_iota(k) - 5.0 ** (-1.0 / 3.0)) < 1e-6
    assert abs(solve_iota(k) - 0.58480) < 1e-5


def test_monotone_decreasing():
    ks = np.logspace(-8, 1, 50)
    iotas = [solve_iota(k) for k in ks]
    assert all(a > b for a, b in zip(iotas, iotas[1:]))


def test_radical_form_agrees():
    for k in (1e-6, 1e-3, 0.021, 0.5, 10.0):
        assert abs(solve_iota(k) - iota_radical(k)) < 1e-10


def test_cubic_residual_everywhere():
    for k in np.logspace(-8, 1, 50):
        i = solve_iota(k)
        assert abs(i**3 + 9.0 * (k / 6.0) ** (1.0 / 3.0) * i - 1.0) < 1e-12


def test_solve_iota_rejects_nonpositive():
    with pytest.raises(UsageError):
        solve_iota(0.0)
    with pytest.raises(UsageError):
        solve_iota(-1.0)


def test_k_from_iota():
    assert k_from_iota(1.0) == 0.0
    assert abs(k_from_iota(5.0 ** (-1.0 / 3.0)) - 0.0211) < 2e-4
    # round trip
    assert abs(solve_iota(k_from_iota(0.5)) - 0.5) < 1e-10
    with pytest.raises(UsageError):
        k_from_iota(1.5)
    with pytest.raises(UsageError):
        k_from_iota(0.0)


def test_build_params_example():
    p = params_from_iota3(0.2, beta=0.1, gamma=0.5, lam=0.1, A=1.0)
    assert p.beta0 == pytest.approx(1.65, abs=1e-12)
    assert p.B == pytest.approx(1.1 ** (1.0 / 3.0) / 1.5, abs=1e-14)
    assert p.B == pytest.approx(0.68819, abs=1e-5)
    assert p.kappa > 7.0 / 6.0
    assert p.chi_limit() == pytest.approx(4.0 * p.B)
    # equation-of-state constant consistent with the dimensionless group
    assert p.K**3 / math.pi == pytest.approx(p.k_tilde)


def test_build_params_rejections():
    k = k_from_iota(0.2 ** (1.0 / 3.0))
    with pytest.raises(UsageError):
        build_params(k, beta=0.0, gamma=0.5)
    with pytest.raises(UsageError):
        build_params(k, beta=0.1, gamma=0.0)
    with pytest.raises(UsageError):
        build_params(k, beta=0.1, gamma=0.5, lam=0.0)
    with pytest.raises(UsageError):
        build_params(k, beta=0.1, gamma=0.5, A=2.0)
    for inf in ({"beta": math.inf, "gamma": 0.5}, {"beta": 0.1, "gamma": math.inf},
                {"beta": 0.1, "gamma": 0.5, "lam": math.inf}):
        with pytest.raises(UsageError, match="must be positive and finite"):
            build_params(k, **inf)
    with pytest.raises(UsageError, match="iota3 out of theorem range"):
        build_params(k_from_iota(0.7), beta=0.1, gamma=0.5)
    # escape hatch marks the result non-certified
    p = build_params(k_from_iota(0.7), beta=0.1, gamma=0.5, force=True)
    assert not p.certified


def test_solve_iota_refuses_a_nan_residual(monkeypatch):
    # a residual that compares false both ways is no converged root
    from jeanslab import params as params_mod

    monkeypatch.setattr(params_mod, "_cubic_residual", lambda iota, k_tilde: math.nan)
    with pytest.raises(NumericalFailure, match="iota root did not converge"):
        solve_iota(k_from_iota(0.2 ** (1.0 / 3.0)))


def test_deterministic():
    a = params_from_iota3(0.2, 0.1, 0.5)
    b = params_from_iota3(0.2, 0.1, 0.5)
    assert a == b


def test_no_function_takes_params_beside_a_trajectory():
    # a trajectory and its time maps carry their ModelParams, so a function that
    # takes one of them reads the model there and takes no second copy of it
    import ast
    from pathlib import Path

    import jeanslab

    model, carriers = {"params", "ModelParams"}, {"traj", "maps", "OdeTrajectory", "TimeMaps"}
    offenders = []
    for path in sorted(Path(jeanslab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                tags = {a.arg for a in args} | {ast.unparse(a.annotation) for a in args
                                                if a.annotation is not None}
                if tags & model and tags & carriers:
                    offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"params passed beside a trajectory or time maps at {offenders}"
