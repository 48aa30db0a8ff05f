"""Command-line driver: reproducible runs, manifests, CSV/JSON artifacts.

Every subcommand writes a ``manifest.json`` (full configuration echo plus
environment versions) and a ``summary.json`` whose ``verdicts`` block maps
named invariants to booleans and whose ``digests`` block carries sha256 of
every data artifact.  Re-running from an emitted manifest reproduces the
verdicts and digests bit for bit.  ``simulate`` stores its states in one
``snapshots.npy`` (``numpy.load``), float64 of shape (n_states, 6, grid_n): the states
at ``snapshot_t`` in ``summary.json``; fields zeta, rho_hat, drho_dt, nu, psi, s.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 ``UsageError``
(invalid command line, config, profile or parameter range), 3
``NumericalFailure`` (a computation failed or left its domain, including
``VacuumError``, ``HyperbolicityLossError`` and ``DomainError``).  The raised
class sets the exit code and the ``kind`` of the run's ``error.json``; any
other exception is a bug and ends the run with a traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import typing
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .contrast_ode import (LADDER_RUNGS, ContrastMarch, OdeTrajectory, ToleranceSpec,
                           blowup_bracket, blowup_ladder, bound_certificates,
                           envelope_constants, zero_trajectory)
from .errors import JeanslabError, NumericalFailure, UsageError
from .fuchsian import (find_certified_radius, gamma_constants, q_lower_bound,
                       q_quantity, verify_conditions)
from .params import ModelParams, build_params, params_from_iota3, solve_iota
from .pde import PDE_RTOL, data_smallness, entropy_field, evolve, init_from_data, zeta_grid
from .reference import euler_poisson_residual, homogeneous_state, sample_annulus
from .timemaps import check_G_decay, compute_g


@dataclass
class RunConfig:
    command: str
    iota3: float | None = 0.2
    k_tilde: float | None = None
    beta: float = 0.1
    gamma: float = 0.5
    lam: float = 0.1
    A: float = 1.0
    profile: dict = field(default_factory=lambda: {"kind": "homogeneous", "eps": 0.0, "eps_v": 0.0})
    grid_n: int = 128
    f_cap: float = 1e6
    pde_f_cap: float = 1e3
    rel_tol: float = ToleranceSpec.rel_tol
    abs_tol: float = ToleranceSpec.abs_tol
    pde_rtol: float = PDE_RTOL
    n_fuchsian_samples: int = 2000
    output_dir: str = "runs/out"
    seed: int = 20240
    svg: bool = False
    force: bool = False  # admit iota^3 > 1/5, marked non-certified


_CONFIG_TYPES = typing.get_type_hints(RunConfig)
# keys of the fixed-step PDE stepper, which error control replaced
_RETIRED_KEYS = {"cfl", "growth_cap"}
# the two parameterisations of the stiffness: a config or command line names one
_STIFFNESS_KEYS = {"iota3", "k_tilde"}
# the exact solutions whose residuals ``residuals`` checks
_FAMILIES = ("background", "homogeneous", "both")
# the profile keys each initial-data kind reads, with their defaults (None: no
# default); a profile also carries its "kind" and the residual "family"
_PROFILE_KINDS = {
    "homogeneous": {},
    "cosine": {"eps": 0.0, "eps_v": 0.0},
    "square": {"eps": 0.0, "eps_v": 0.0, "delta": 0.15},
    "table": {"path": None},
}
# the value of each profile key a run takes when the profile leaves it out
_PROFILE_DEFAULTS = {"kind": "homogeneous", "eps": 0.0, "eps_v": 0.0, "family": "both"}
# the subcommands whose runs read the residual family; the other profile keys
# describe the initial data, which only simulate reads (report gives its
# simulate child a profile of its own)
_FAMILY_READERS = ("residuals", "report")


def _profile_setting(cfg: RunConfig, key: str):
    """The profile's ``kind`` or ``family``, with its default when the profile names none."""
    return cfg.profile.get(key, _PROFILE_DEFAULTS[key])


def _name_stiffness(cfg: RunConfig, given, source: str) -> None:
    """Clear the stiffness key that ``given`` does not name; both named is a usage error."""
    named = _STIFFNESS_KEYS & set(given)
    if len(named) > 1:
        raise UsageError(f"{source} names both iota3 and k_tilde; give one of them")
    if named:
        (other,) = _STIFFNESS_KEYS - named
        setattr(cfg, other, None)


def load_config(path: str | Path, command: str | None = None) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: malformed JSON or text
        raise UsageError(f"cannot read config {str(path)!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"config {str(path)!r} is not a JSON object")
    if isinstance(raw.get("config"), dict):
        raw = raw["config"]  # accept a manifest as a config source
    retired = _RETIRED_KEYS & set(raw)
    if retired:
        raise UsageError(f"retired config keys {sorted(retired)}: the PDE stepper is "
                         "error-controlled; set its relative tolerance with 'pde_rtol'")
    unknown = set(raw) - set(_CONFIG_TYPES)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for key, value in raw.items():
        want = _CONFIG_TYPES[key]
        # a JSON integer is a number wherever a float is expected; a JSON
        # boolean is no integer, although Python's bool subclasses int
        if (not (isinstance(value, want) or (type(value) is int and isinstance(0.0, want)))
                or (type(value) is bool and want is not bool)):
            raise UsageError(f"config key {key!r} has the wrong type: {value!r}")
    if command is not None:
        raw["command"] = command
    if "command" not in raw:
        raise UsageError("config missing 'command'")
    cfg = RunConfig(**raw)
    _name_stiffness(cfg, [k for k in _STIFFNESS_KEYS if raw.get(k) is not None],
                    f"config {str(path)!r}")
    return cfg


# ---------------------------------------------------------------------------
# artifact helpers


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """A header line and one line of '.17g' numbers per row, each ended by CRLF, as
    ``csv.writer`` writes them (no field needs quoting).  Each row is one ``%``
    format of a line template built once per file."""
    line = ",".join(["%.17g"] * len(columns)) + "\r\n"
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(line % row for row in zip(*[c.tolist() for c in columns]))


def write_svg_lines(path: Path, x: np.ndarray, series: dict[str, np.ndarray],
                    title: str = "", logy: bool = False) -> None:
    """Minimal standalone SVG polyline chart (data inspection, no dependencies)."""
    w_px, h_px, pad = 720, 420, 50
    xs = np.asarray(x, dtype=float)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_px}" height="{h_px}">',
             f'<text x="{w_px // 2}" y="20" text-anchor="middle">{title}</text>']
    ys_all = np.concatenate([np.asarray(v, dtype=float) for v in series.values()])
    if logy:
        ys_all = np.log10(np.abs(ys_all[ys_all != 0.0]) + 1e-300)
    lo, hi = float(ys_all.min()), float(ys_all.max())
    if hi == lo:
        hi = lo + 1.0
    x0, x1 = float(xs.min()), float(xs.max())
    if x1 == x0:
        x1 = x0 + 1.0
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    for i, (name, ys) in enumerate(series.items()):
        ys = np.asarray(ys, dtype=float)
        if logy:
            ys = np.log10(np.abs(ys) + 1e-300)
        px = pad + (xs - x0) / (x1 - x0) * (w_px - 2 * pad)
        py = h_px - pad - (ys - lo) / (hi - lo) * (h_px - 2 * pad)
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        c = colors[i % len(colors)]
        parts.append(f'<polyline fill="none" stroke="{c}" stroke-width="1.2" points="{pts}"/>')
        parts.append(f'<text x="{pad}" y="{pad + 14 * i}" fill="{c}">{name}</text>')
    parts.append(f'<rect x="{pad}" y="{pad}" width="{w_px - 2 * pad}" height="{h_px - 2 * pad}" '
                 'fill="none" stroke="#888"/></svg>')
    path.write_text("\n".join(parts))


class RunDir:
    """One run: its config, params, contrast marches, verdicts, values and artifacts."""

    def __init__(self, cfg: RunConfig, parent: RunDir | None = None):
        self.cfg = cfg
        self.values: dict[str, object] = {}
        if parent is not None:  # a child run shares its parent's outputs and marches
            self.path, self.verdicts = parent.path, parent.verdicts
            self.artifacts, self._marches = parent.artifacts, parent._marches
            return
        self.path = Path(cfg.output_dir)
        self.path.mkdir(parents=True, exist_ok=True)
        self.verdicts: dict[str, bool] = {}
        self.artifacts: list[Path] = []
        self._marches: dict[tuple, ContrastMarch] = {}

    @cached_property
    def params(self) -> ModelParams:
        """The model parameters of this run's config, built on first use."""
        c = self.cfg
        if c.k_tilde is not None:
            return build_params(c.k_tilde, c.beta, c.gamma, c.lam, c.A, force=c.force)
        return params_from_iota3(c.iota3, c.beta, c.gamma, c.lam, c.A, force=c.force)

    def march(self) -> ContrastMarch:
        """The one contrast march of this run's params and tolerances."""
        key = (self.params, ToleranceSpec(self.cfg.rel_tol, self.cfg.abs_tol))
        if key not in self._marches:
            self._marches[key] = ContrastMarch(*key)
        return self._marches[key]

    def trajectory(self, f_cap: float, t_reach: float = math.inf) -> OdeTrajectory:
        """The contrast trajectory to f_cap, or only past t_reach, cut from the march."""
        return self.march().trajectory(f_cap, t_reach)

    def run_child(self, **changes) -> dict[str, object]:
        """Run the pipeline of this config with ``changes`` inside this run; return its values."""
        child = RunDir(replace(self.cfg, **changes), parent=self)
        _COMMANDS[child.cfg.command](child)
        return child.values

    def manifest(self) -> None:
        doc = {
            "config": asdict(self.cfg),
            "package_version": __version__,
            "python_version": sys.version.split()[0],
            "numpy_version": np.__version__,
            "created_utc": datetime.now(timezone.utc).isoformat(),
        }
        (self.path / "manifest.json").write_text(_dumps(doc))

    def add_artifact(self, name: str) -> Path:
        p = self.path / name
        self.artifacts.append(p)
        return p

    def verdict(self, name: str, ok: bool) -> None:
        self.verdicts[name] = bool(ok)

    def finish(self) -> int:
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in self.artifacts if p.exists()}
        summary = {
            "command": self.cfg.command,
            "verdicts": self.verdicts,
            "values": self.values,
            "digests": digests,
            "all_pass": all(self.verdicts.values()),
        }
        (self.path / "summary.json").write_text(_dumps(summary))
        return 0 if summary["all_pass"] else 1


def _dumps(obj) -> str:
    return json.dumps(_jsonable(obj), indent=2, sort_keys=True, allow_nan=False)


def _jsonable(obj):
    """Plain JSON values; non-finite floats become "inf", "-inf" and "nan"."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


# ---------------------------------------------------------------------------
# profiles


def make_profiles(cfg: RunConfig, zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The configured initial data (d, v) on the grid zeta, one period of the log radius."""
    kind = _profile_setting(cfg, "kind")
    try:
        eps, eps_v, delta = (float(cfg.profile.get(k, v))
                             for k, v in _PROFILE_KINDS["square"].items())
    except (TypeError, ValueError) as exc:
        raise UsageError(f"profile eps, eps_v and delta must be numbers: {exc}") from exc
    if kind == "homogeneous":
        return np.ones_like(zeta), -np.ones_like(zeta)
    if kind in ("cosine", "square"):
        shape = np.cos(2.0 * math.pi * zeta)
        if kind == "square":
            if not delta > 0.0:
                raise UsageError(f"square profile delta must be positive, got {delta}")
            shape = np.tanh(shape / delta) / math.tanh(1.0 / delta)
        return 1.0 + eps * shape, -1.0 + eps_v * shape
    if kind == "table":
        try:
            zs, ds, vs = np.loadtxt(cfg.profile["path"], delimiter=",", unpack=True,
                                    skiprows=1, ndmin=2)
        except (KeyError, OSError, ValueError) as exc:
            raise UsageError(f"cannot read the profile table: {exc!r}") from exc
        return np.interp(zeta, zs, ds, period=1.0), np.interp(zeta, zs, vs, period=1.0)
    raise UsageError(f"unknown profile kind {kind!r}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_iota(run: RunDir) -> None:
    k_grid = np.logspace(-8, 1, 50)
    iotas = np.array([solve_iota(k) for k in k_grid])
    resid = np.abs(iotas**3 + 9.0 * (k_grid / 6.0) ** (1.0 / 3.0) * iotas - 1.0)
    _write_csv(run.add_artifact("iota_scan.csv"), ["k_tilde", "iota", "residual"],
               [k_grid, iotas, resid])
    run.verdict("iota_cubic_residual_below_1e12", bool(resid.max() < 1e-12))
    run.verdict("iota_strictly_decreasing", bool(np.all(np.diff(iotas) < 0.0)))
    run.verdict("iota_small_k_limit", bool(abs(solve_iota(1e-12) - 1.0) < 1e-3))
    run.values["iota_at_1e-12"] = solve_iota(1e-12)
    if run.cfg.svg:
        write_svg_lines(run.add_artifact("iota.svg"), np.log10(k_grid),
                        {"iota": iotas}, title="iota vs log10 k_tilde")


def _ladder_trajectory(run: RunDir) -> OdeTrajectory:
    """The trajectory to f_cap, refused when the blowup ladder's lowest rung is below beta."""
    lowest = run.cfg.f_cap / 2.0 ** (LADDER_RUNGS - 1)
    if lowest < run.params.beta:
        raise UsageError(f"f_cap {run.cfg.f_cap!r} is too small: the lowest rung of the blowup "
                         f"ladder, {lowest:.6g}, is below beta = {run.params.beta!r}")
    return run.trajectory(run.cfg.f_cap)


def cmd_ode(run: RunDir) -> None:
    params = run.params
    traj = _ladder_trajectory(run)
    maps = compute_g(traj)
    _write_csv(run.add_artifact("trajectory.csv"),
               ["t", "f", "f0", "g", "tau", "chi", "xi", "G_frak", "eta_2"],
               [maps.t_grid, maps.f, maps.f0, maps.g, maps.tau, maps.chi,
                maps.xi, maps.G_frak, maps.eta2])
    ec = envelope_constants(params)
    t_star, t_star_up = blowup_bracket(params)
    est, spread, dropped = blowup_ladder(traj)
    t_m, p_t_m_half = run.march().blowup_time()
    sidecar = {
        "A": ec.cA, "B": ec.cB, "C": ec.cC, "D": ec.cD, "E": ec.cE,
        "t_star": t_star, "t_star_upper": t_star_up,
        "t_m_estimate": est, "ladder_spread": spread, "t_m": t_m,
    }
    p = run.add_artifact("constants.json")
    p.write_text(_dumps(sidecar))
    # identity verdicts along the trajectory
    a, b, c, A, B = params.ode_a, params.ode_b, params.ode_c, params.A, params.B
    f0_pred = (1.0 / B) * maps.t_grid**-a * maps.g ** (-b / A) * (1.0 + maps.f) ** c
    rel_f0 = float(np.max(np.abs(f0_pred - maps.f0) / maps.f0))
    lhs = maps.f0**2 / (1.0 + maps.f) ** 2
    rhs = maps.f * maps.chi / (B * maps.t_grid**2)
    rel_limf = float(np.max(np.abs(lhs - rhs) / rhs))
    run.verdict("contrast_rate_identity_rel_1e-4", rel_f0 < 1e-4)
    run.verdict("terminal_rate_identity_rel_1e-4", rel_limf < 1e-4)
    run.verdict("g_representation_agreement_rel_1e-4", maps.representation_gap < 1e-4)
    gd = check_G_decay(maps)
    run.verdict("G_decay_exponent_ge_0.4", gd.slope >= 0.4)
    run.verdict("dchi_identity_rel_1e-3", gd.dchi_rel_err < 1e-3)
    run.values.update({
        "t_m_estimate": est, "ladder_spread": spread, "ladder_dropped": dropped,
        "t_m": t_m, "p_t_m_half": p_t_m_half, "t_star": t_star,
        "t_star_upper": t_star_up, "g_end": float(maps.g[-1]),
        "G_decay_slope": gd.slope, "dchi_rel_err": gd.dchi_rel_err,
        "f0_identity_rel": rel_f0, "limf_identity_rel": rel_limf,
        "g_representation_gap": maps.representation_gap,
    })
    if run.cfg.svg:
        write_svg_lines(run.add_artifact("contrast.svg"), maps.t_grid,
                        {"f": maps.f}, title="contrast growth", logy=True)


def cmd_blowup(run: RunDir) -> None:
    traj = _ladder_trajectory(run)
    rep = bound_certificates(traj)
    est, spread, dropped = blowup_ladder(traj)
    t_m, p_t_m_half = run.march().blowup_time()
    ladder_error = abs(est - t_m) / t_m
    t = traj.t_grid
    _write_csv(run.add_artifact("envelopes.csv"),
               ["t", "one_plus_f", "lower_envelope",
                "lower_ok", "upper_ok", "improved_ok"],
               [t, 1.0 + traj.f, rep.lower_envelope, rep.lower_ok.astype(float),
                rep.upper_ok.astype(float), rep.improved_ok.astype(float)])
    t_upper = rep.t_star_upper or math.inf
    doc = {
        "t_star": rep.t_star, "t_star_upper": rep.t_star_upper,
        "t_m_estimate": est, "ladder_spread": spread,
        "t_m": t_m, "p_t_m_half": p_t_m_half, "ladder_error": ladder_error,
        "improved_bound_applicable": rep.improved_applicable,
        "first_violation": rep.first_violation,
    }
    run.add_artifact("blowup.json").write_text(_dumps(doc))
    run.verdict("envelopes_hold_everywhere", rep.all_ok)
    run.verdict("estimate_inside_bracket", rep.t_star <= est < t_upper)
    run.verdict("ladder_spread_below_1e-3", bool(spread < 1e-3))
    run.verdict("blowup_time_inside_bracket", rep.t_star <= t_m < t_upper)
    run.verdict("ladder_error_within_spread", ladder_error <= spread)
    run.values.update(doc)
    run.values["ladder_dropped"] = dropped


def cmd_residuals(run: RunDir) -> None:
    # background is the f = 0 member of the homogeneous family: both read
    # homogeneous_state, on the zero trajectory and on the run's contrast trajectory
    family = _profile_setting(run.cfg, "family")
    pts = sample_annulus(32, seed=run.cfg.seed)
    t_values = [1.2, 1.5, 2.0]
    t_need = t_values[-1]
    out = {}
    for name in ("background", "homogeneous"):
        if family not in (name, "both"):
            continue
        traj = (zero_trajectory(run.params) if name == "background"
                else run.trajectory(run.cfg.f_cap, t_reach=t_need))
        if traj.t_end < t_need:
            raise UsageError(f"f_cap {run.cfg.f_cap!r} is too small for the residual times: "
                             f"its trajectory ends at t = {traj.t_end:.6g} < {t_need:.6g}")
        rep = euler_poisson_residual(lambda t, x: homogeneous_state(t, x, traj),
                                     t_values, pts, traj)
        out[name] = {"max_norms": rep.max_norms, "verdict": rep.verdict,
                     "source_gap_max": rep.source_gap_max}
        run.verdict(f"{name}_residuals_below_1e-6", rep.verdict)
    run.add_artifact("residuals.json").write_text(_dumps(out))
    run.values.update(out)


def cmd_simulate(run: RunDir) -> None:
    cfg = run.cfg
    params = run.params
    traj = run.trajectory(cfg.pde_f_cap)
    if not (traj.reached_cap and traj.t_end > params.t0):
        raise NumericalFailure(f"the contrast trajectory reaches f = {traj.f[-1]:.3g} at "
                               f"t = {traj.t_end!r}, not f = {cfg.pde_f_cap!r} after "
                               f"t0 = {params.t0!r}")
    state0 = init_from_data(params, *make_profiles(cfg, zeta_grid(cfg.grid_n)))
    run.values["data_smallness"] = data_smallness(state0, params)
    res = evolve(state0, traj, pde_rtol=cfg.pde_rtol)

    fields = np.array([(st.zeta, st.rho_hat, st.drho_dt, st.nu, st.psi, entropy_field(st, traj))
                       for st in res.states])
    np.save(run.add_artifact("snapshots.npy"), fields, allow_pickle=False)
    mon = res.monitors
    _write_csv(run.add_artifact("monitors.csv"), list(mon), list(mon.values()))

    dev_rho, dev_nu, continuity = (float(mon[k].max()) for k in
                                   ("rho_dev_sup", "nu_sup", "continuity_residual"))
    run.values.update({
        "stop_reason": res.stop_reason, "n_steps": res.n_steps,
        "rhs_calls": res.n_rhs, "rejected_steps": res.n_rejected, "dense_steps": res.n_dense,
        "dt_min": res.dt_min, "dt_max": res.dt_max, "snapshot_t": [st.t for st in res.states],
        "final_t": res.final.t, "final_f": traj.f_f0_at(res.final.t)[0],
        "homogeneous_deviation": dev_rho, "nu_sup": dev_nu,
        "continuity_residual_max": continuity,
    })
    run.verdict("run_completed", res.stop_reason in ("t_end", "f_cap"))
    run.verdict("hyperbolicity_preserved", res.stop_reason != "hyperbolicity_loss")
    run.verdict("continuity_identity_small", continuity < 1e-4)
    if _profile_setting(cfg, "kind") == "homogeneous":
        run.verdict("homogeneous_manifold_dev_below_1e-6", dev_rho < 1e-6)
        run.verdict("homogeneous_nu_below_1e-8", dev_nu < 1e-8)
    if run.cfg.svg:
        write_svg_lines(run.add_artifact("monitors.svg"), mon["t"],
                        {"ratio_rho_max": mon["ratio_rho_max"],
                         "ratio_rho_min": mon["ratio_rho_min"]},
                        title="contrast ratio envelope")


def cmd_fuchsian(run: RunDir) -> None:
    cfg = run.cfg
    maps = compute_g(run.trajectory(max(cfg.f_cap, 1e8)))
    g_range = (float(np.min(maps.G_frak)), float(np.max(maps.G_frak)))
    gc = gamma_constants(maps.params, g_range)
    r_tilde = find_certified_radius(maps, gc)
    rep = verify_conditions(maps, gc, r_tilde, n_samples=cfg.n_fuchsian_samples, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    pairs = [(10 ** rng.uniform(-3, 1), rng.uniform(1e-4, 0.2)) for _ in range(100)]
    q_ok = all(q_quantity(lam_, i3_) > q_lower_bound(lam_, i3_) for lam_, i3_ in pairs)
    doc = {
        "constants": asdict(gc), "r_tilde": r_tilde,
        "verdicts": rep.verdict, "sandwich_margin": rep.sandwich_margin,
        "eig_B0_range": rep.eig_B0_range, "eig_frakB_range": rep.eig_frakB_range,
        "max_sum_abs_z": rep.max_sum_abs_z, "divB_orders": rep.divB_orders,
        "G_halforder_sup": rep.G_halforder_sup,
        "q_positivity_100_samples": q_ok,
        "projector_note": rep.p_trivial_note,
    }
    run.add_artifact("fuchsian.json").write_text(_dumps(doc))
    for k, v in rep.verdict.items():
        run.verdict(f"fuchsian_{k}", v)
    run.verdict("fuchsian_q_positivity", q_ok)
    run.values.update(doc)


def cmd_report(run: RunDir) -> None:
    """Desk-scale sweep of every pipeline with a combined verdict set."""
    for fn in (cmd_iota, cmd_ode, cmd_blowup, cmd_residuals):
        fn(run)
    run.values["simulate"] = run.run_child(command="simulate", grid_n=64, pde_f_cap=50.0,
                                           profile={"kind": "cosine", "eps": 1e-3})
    run.values["fuchsian"] = run.run_child(command="fuchsian-check", n_fuchsian_samples=500)


_COMMANDS = {
    "iota": cmd_iota,
    "ode": cmd_ode,
    "blowup": cmd_blowup,
    "residuals": cmd_residuals,
    "simulate": cmd_simulate,
    "fuchsian-check": cmd_fuchsian,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    """One parser for every command: the flags are the same for all of them."""
    ap = argparse.ArgumentParser(
        prog="jeanslab", argument_default=argparse.SUPPRESS,
        description="Gravitational-instability laboratory: contrast blowup, "
                    "log-periodic evolution, and coefficient certification.")
    ap.add_argument("command", choices=list(_COMMANDS))
    ap.add_argument("--config", type=str, help="JSON config (a manifest.json also works)")
    ap.add_argument("--output-dir", type=str)
    for flag in ("--iota3", "--k-tilde", "--beta", "--gamma", "--lam", "--A"):
        ap.add_argument(flag, type=float)
    ap.add_argument("--grid-n", type=int)
    for flag in ("--f-cap", "--pde-f-cap"):
        ap.add_argument(flag, type=float)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--profile-kind", dest="profile.kind", type=str,
                    choices=list(_PROFILE_KINDS))
    ap.add_argument("--eps", dest="profile.eps", metavar="EPS", type=float)
    ap.add_argument("--family", dest="profile.family", type=str, choices=_FAMILIES)
    ap.add_argument("--svg", action="store_true")
    ap.add_argument("--force", action="store_true",
                    help="admit iota^3 > 1/5 (results marked non-certified)")
    return ap


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The --config file or the defaults, then each flag given (the namespace holds
    only those, under their config keys; ``profile.*`` keys go into ``profile``)."""
    given = dict(vars(args))
    command, path = given.pop("command"), given.pop("config", None)
    cfg = load_config(path, command=command) if path else RunConfig(command=command)
    _name_stiffness(cfg, given, "the command line")
    for key, value in given.items():
        if key.startswith("profile."):
            cfg.profile = {**cfg.profile, key.removeprefix("profile."): value}
        else:
            setattr(cfg, key, value)
    # refuse settings that no run can use, before the run directory exists
    if cfg.iota3 is None and cfg.k_tilde is None:
        raise UsageError("the config sets neither iota3 nor k_tilde")
    family = _profile_setting(cfg, "family")
    if family not in _FAMILIES:
        raise UsageError(f"profile family {family!r} is not one of {list(_FAMILIES)}")
    # a profile key its kind does not read would be ignored; zero amplitudes pass,
    # as the default config carries them, and make_profiles refuses an unknown kind
    kind = _profile_setting(cfg, "kind")
    known = {k for keys in _PROFILE_KINDS.values() for k in keys}
    reads = _PROFILE_KINDS.get(kind, known) if isinstance(kind, str) else known
    for key, value in cfg.profile.items():
        if key not in known | {"kind", "family"}:
            raise UsageError(f"unknown profile key {key!r}: a profile takes kind, family "
                             f"and {sorted(known)}")
        readers = _FAMILY_READERS if key == "family" else ("simulate",)
        if cfg.command not in readers and value != _PROFILE_DEFAULTS.get(key):
            raise UsageError(f"{cfg.command} does not read profile {key!r} = {value!r}; "
                             f"only {' and '.join(readers)} read it")
        if key in known and key not in reads and not (key in ("eps", "eps_v") and value == 0):
            raise UsageError(f"profile kind {kind!r} does not read {key!r} = {value!r}")
    if cfg.seed < 0:
        raise UsageError(f"seed must be >= 0, got {cfg.seed!r}")
    if cfg.n_fuchsian_samples < 1:
        raise UsageError(f"n_fuchsian_samples must be >= 1, got {cfg.n_fuchsian_samples!r}")
    ToleranceSpec(cfg.rel_tol, cfg.abs_tol)  # refuses tolerances the integrator cannot meet
    if not 0.0 < cfg.pde_rtol < 1.0:  # a relative tolerance of 1 asks for no correct digit
        raise UsageError(f"pde_rtol must be positive and below 1, got {cfg.pde_rtol!r}")
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    run = None
    try:
        run = RunDir(config_from_args(args))
        run.manifest()
        _COMMANDS[run.cfg.command](run)
    except JeanslabError as exc:
        if run is not None:
            (run.path / "error.json").write_text(
                json.dumps({"error": str(exc), "kind": exc.kind}, allow_nan=False))
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    return run.finish()


if __name__ == "__main__":
    raise SystemExit(main())
