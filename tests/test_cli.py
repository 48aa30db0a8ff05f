import csv
import json
import math

import numpy as np
import pytest

from jeanslab.cli import (RunConfig, RunDir, _jsonable, _write_csv, build_parser,
                          config_from_args, load_config, main, make_profiles)
from jeanslab.contrast_ode import ContrastMarch, OdeTrajectory, ToleranceSpec
from jeanslab.errors import NumericalFailure, UsageError
from jeanslab.fuchsian import DomainError
from jeanslab.params import params_from_iota3
from jeanslab.pde import entropy_field, evolve, init_from_data, zeta_grid


def read_summary(path):
    return json.loads((path / "summary.json").read_text())


def test_iota_command(tmp_path):
    out = tmp_path / "iota"
    assert main(["iota", "--output-dir", str(out)]) == 0
    s = read_summary(out)
    assert s["all_pass"]
    assert (out / "manifest.json").exists()
    assert "iota_scan.csv" in s["digests"]
    assert abs(s["values"]["iota_at_1e-12"] - 1.0) < 1e-3


def test_blowup_command(tmp_path):
    # at f_cap = 1e4 the ladder's estimate is off t_m by 1.04e-4 of it, more than its
    # spread of 7.0e-5: that verdict alone fails.  At the default 1e6 all pass
    out = tmp_path / "blowup"
    assert main(["blowup", "--output-dir", str(out), "--f-cap", "1e4"]) == 1
    s = read_summary(out)
    assert [k for k, ok in s["verdicts"].items() if not ok] == ["ladder_error_within_spread"]
    assert s["verdicts"]["estimate_inside_bracket"] and s["verdicts"]["blowup_time_inside_bracket"]
    assert abs(s["values"]["t_star"] - 2.01) < 1e-2
    v = s["values"]
    assert v["ladder_spread"] < v["ladder_error"] == abs(v["t_m_estimate"] - v["t_m"]) / v["t_m"]
    assert abs(v["t_m"] - 4.18980836099986) < 1e-11 and abs(v["p_t_m_half"] - 1.0) < 1e-9
    out = tmp_path / "default"
    assert main(["blowup", "--output-dir", str(out)]) == 0
    assert read_summary(out)["values"]["t_m"] == v["t_m"]


def test_simulate_homogeneous(tmp_path):
    out = tmp_path / "sim"
    rc = main(["simulate", "--output-dir", str(out), "--grid-n", "64",
               "--pde-f-cap", "50"])
    assert rc == 0
    s = read_summary(out)
    assert s["verdicts"]["homogeneous_manifold_dev_below_1e-6"]
    assert s["values"]["homogeneous_deviation"] < 1e-6
    assert (out / "monitors.csv").exists()
    snapshots = np.load(out / "snapshots.npy", allow_pickle=False)
    assert snapshots.shape == (len(s["values"]["snapshot_t"]), 6, 64) == (21, 6, 64)


def test_simulate_reports_stepper_work(tmp_path):
    out = tmp_path / "work"
    assert main(["simulate", "--output-dir", str(out), "--grid-n", "32",
                 "--pde-f-cap", "10"]) == 0
    v = read_summary(out)["values"]
    assert v["n_steps"] >= 1 and v["rejected_steps"] >= 0
    # two start-up calls, 12 stages per trial step, 3 per step whose dense output is read
    assert v["rhs_calls"] == 2 + 12 * (v["n_steps"] + v["rejected_steps"]) + 3 * v["dense_steps"]
    assert 1 <= v["dense_steps"] <= min(v["n_steps"], 20)
    assert 0.0 < v["dt_min"] <= v["dt_max"]


@pytest.fixture(scope="module")
def collapse_run(tmp_path_factory):
    """The output directory of the N = 128 cosine run to f = 1e3, run once."""
    out = tmp_path_factory.mktemp("collapse")
    assert main(["simulate", "--grid-n", "128", "--profile-kind", "cosine", "--eps", "1e-3",
                 "--pde-f-cap", "1e3", "--output-dir", str(out)]) == 0
    return out


def test_collapse_work_counts(collapse_run):
    # the step sequence of the N = 128 cosine run to f = 1e3: a change to rhs
    # that moves a step shows here; 2 + 12 (71 + 1) + 3 (20) calls, the dense
    # output read on the 20 steps that hold a snapshot time
    out = collapse_run
    s = read_summary(out)
    v = s["values"]
    assert (v["n_steps"], v["rejected_steps"], v["rhs_calls"], v["dense_steps"]) \
        == (71, 1, 926, 20)
    # a monitor row for the initial state, each of the 71 step ends and each of
    # the 20 snapshot times, the last of which is the last step end
    assert np.load(out / "snapshots.npy", allow_pickle=False).shape == (21, 6, 128)
    assert len((out / "monitors.csv").read_text().splitlines()) == 1 + 91
    assert s["verdicts"] == {"run_completed": True, "hyperbolicity_preserved": True,
                             "continuity_identity_small": True}


def test_snapshots_file_holds_the_stored_states(collapse_run):
    # the collapse run's stored states, one (zeta, rho_hat, drho_dt, nu, psi, s) block
    # each, as little-endian float64 exactly as evolve returns them, at snapshot_t
    out = collapse_run
    cosine = {"kind": "cosine", "eps": 1e-3}
    snapshots = np.load(out / "snapshots.npy", allow_pickle=False)
    assert snapshots.dtype == np.dtype("<f8") and snapshots.shape == (21, 6, 128)
    params = params_from_iota3(0.2, beta=0.1, gamma=0.5, lam=0.1, A=1.0)
    traj = ContrastMarch(params, ToleranceSpec()).trajectory(1e3)
    state0 = init_from_data(params, *make_profiles(RunConfig(command="simulate",
                                                             profile=cosine), zeta_grid(128)))
    res = evolve(state0, traj)
    assert read_summary(out)["values"]["snapshot_t"] == [st.t for st in res.states]
    for got, st in zip(snapshots, res.states, strict=True):
        want = (st.zeta, st.rho_hat, st.drho_dt, st.nu, st.psi, entropy_field(st, traj))
        for row, field in zip(got, want, strict=True):
            assert np.array_equal(row, field)


def test_early_stop_replaces_a_longer_runs_snapshots(tmp_path, monkeypatch):
    # a run stopped by vacuum into the directory of a full run leaves its own states
    # (the initial one, the snapshots it passed, the last accepted one), not the
    # full run's 21
    import jeanslab.pde as pde

    argv = ["simulate", "--grid-n", "32", "--pde-f-cap", "10", "--output-dir", str(tmp_path)]
    assert main(argv) == 0
    assert np.load(tmp_path / "snapshots.npy", allow_pickle=False).shape == (21, 6, 32)
    calls, inner = [0], pde.rhs

    def vacuum_after_40(*args):
        calls[0] += 1
        if calls[0] > 40:
            raise pde.VacuumError("vacuum formation")
        return inner(*args)

    monkeypatch.setattr(pde, "rhs", vacuum_after_40)
    assert main(argv) == 1
    v = read_summary(tmp_path)["values"]
    assert v["stop_reason"] == "vacuum" and v["snapshot_t"][-1] == v["final_t"]
    snapshots = np.load(tmp_path / "snapshots.npy", allow_pickle=False)
    assert snapshots.shape == (len(v["snapshot_t"]), 6, 32) and len(v["snapshot_t"]) < 21


def test_simulate_reads_no_f_cap(tmp_path):
    # simulate integrates the contrast to pde_f_cap and does not read --f-cap
    args = ["simulate", "--grid-n", "32", "--pde-f-cap", "0.15"]
    assert main([*args, "--f-cap", "1.0", "--output-dir", str(tmp_path / "low")]) == 0
    assert main([*args, "--output-dir", str(tmp_path / "default")]) == 0
    low, default = read_summary(tmp_path / "low"), read_summary(tmp_path / "default")
    assert low["values"] == default["values"] and low["digests"] == default["digests"]


def record_marches(monkeypatch):
    """The contrast marches a run makes and the trajectories they serve, in order."""
    import jeanslab.cli as cli

    marches, served = [], []

    class Recording(ContrastMarch):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            marches.append(self)

        def trajectory(self, *args, **kwargs):
            served.append(super().trajectory(*args, **kwargs))
            return served[-1]

    monkeypatch.setattr(cli, "ContrastMarch", Recording)
    return marches, served


@pytest.mark.parametrize("argv,steps,served_steps,reached", [
    # ode and blowup march on to f = 1e300 for t_m, past their trajectory to 1e6
    (["ode"], 96, [37], [True]),
    (["blowup"], 96, [37], [True]),
    (["residuals", "--family", "both"], 8, [8], [False]),  # stops past t = 2.0
    (["simulate", "--grid-n", "32", "--pde-f-cap", "10"], 14, [14], [True]),
    (["fuchsian-check"], 41, [41], [True]),
    # every trajectory of report is a prefix of the march to t_m
    (["report"], 96, [37, 37, 8, 21, 41], [True, True, False, True, True]),
], ids=["ode", "blowup", "residuals", "simulate", "fuchsian-check", "report"])
def test_one_integration_per_trajectory(tmp_path, monkeypatch, argv, steps, served_steps,
                                        reached):
    # each run integrates the contrast once, as deep as its deepest request, and
    # every request it makes is served the steps up to its own stop and no more
    marches, served = record_marches(monkeypatch)
    assert main([*argv, "--output-dir", str(tmp_path / "out")]) == 0
    assert [len(m._steps) for m in marches] == [steps]
    assert [traj.reached_cap for traj in served] == reached
    assert [len(traj.h) for traj in served] == served_steps
    t_need = 2.0  # the residuals' last time
    for traj in served:
        if traj.reached_cap:  # cut at the cap's clock value s = ln(1 + f_cap)/2
            assert traj.f[-2] < traj.f_cap
            assert traj.s_grid[-1] == 0.5 * math.log1p(traj.f_cap)
        else:
            assert traj.t_grid[-2] < t_need <= traj.t_end


def test_residuals_integrate_only_past_their_last_time(tmp_path, monkeypatch):
    # standalone, residuals stop the contrast ODE after the step that passes
    # t = 2.0; in report they read a prefix of fuchsian-check's march
    marches, served = record_marches(monkeypatch)
    assert main(["residuals", "--family", "both", "--output-dir", str(tmp_path / "res")]) == 0
    (march,), (traj,) = marches, served
    assert (len(traj.t_grid), traj.reached_cap, len(march._steps)) == (9, False, 8)
    assert traj.t_grid[-2] < 2.0 <= traj.t_end


@pytest.mark.parametrize("argv,cap,points", [
    (["simulate", "--grid-n", "128", "--profile-kind", "cosine", "--eps", "1e-3",
      "--pde-f-cap", "1e3"], 1e3, 30),
    (["report"], 50.0, 22),  # its simulate child, at pde_f_cap = 50
], ids=["collapse", "report"])
def test_simulate_integrates_only_to_pde_f_cap(tmp_path, monkeypatch, argv, cap, points):
    # simulate is served the contrast up to its cap crossing, where evolve stops; a
    # trajectory to 10 pde_f_cap would hold 34 and 26 points
    _, served = record_marches(monkeypatch)
    assert main([*argv, "--output-dir", str(tmp_path / "out")]) == 0
    (traj,) = [t for t in served if t.f_cap == cap]
    assert (len(traj.t_grid), traj.reached_cap) == (points, True)
    assert traj.f[-2] < cap and abs(traj.f[-1] / cap - 1.0) < 1e-14


@pytest.mark.parametrize("argv", [
    # the contrast stops at the time ceiling, below the cap
    ["simulate", "--beta", "1e-12", "--gamma", "1e-15", "--pde-f-cap", "1e-4", "--grid-n", "16"],
    # the cap crossing cannot be told from t0
    ["simulate", "--beta", "1e-300", "--pde-f-cap", "1e-299", "--grid-n", "16"],
], ids=["ceiling", "crossing-at-t0"])
def test_simulate_refuses_a_trajectory_short_of_its_cap(tmp_path, argv):
    out = tmp_path / "o"
    assert main([*argv, "--output-dir", str(out)]) == 3
    error = json.loads((out / "error.json").read_text())
    assert error["kind"] == "numerical" and "not f = " in error["error"]


def test_report_children_equal_standalone_runs(tmp_path):
    assert main(["report", "--output-dir", str(tmp_path / "report")]) == 0
    report = read_summary(tmp_path / "report")
    fuchsian_cfg = tmp_path / "fuchsian.json"
    fuchsian_cfg.write_text(json.dumps({"command": "fuchsian-check", "n_fuchsian_samples": 500}))
    standalone = {
        "iota": ["iota"], "ode": ["ode"], "blowup": ["blowup"], "residuals": ["residuals"],
        "simulate": ["simulate", "--grid-n", "64", "--pde-f-cap", "50",
                     "--profile-kind", "cosine", "--eps", "1e-3"],
        "fuchsian": ["fuchsian-check", "--config", str(fuchsian_cfg)],
    }
    runs = {}
    for name, argv in standalone.items():
        assert main([*argv, "--output-dir", str(tmp_path / name)]) == 0
        runs[name] = read_summary(tmp_path / name)
    digests = {k: v for s in runs.values() for k, v in s["digests"].items()}
    verdicts = {k: v for s in runs.values() for k, v in s["verdicts"].items()}
    flat = {k: v for name in ("iota", "ode", "blowup", "residuals")
            for k, v in runs[name]["values"].items()}
    assert report["digests"] == digests
    assert report["verdicts"] == verdicts
    assert report["values"] == {**flat, "simulate": runs["simulate"]["values"],
                                "fuchsian": runs["fuchsian"]["values"]}


def test_ladder_dropped_reported(tmp_path):
    # blowup exits 1 at f_cap = 1e4: its ladder error exceeds the spread (test_blowup_command)
    for cmd, code in (("ode", 0), ("blowup", 1)):
        out = tmp_path / cmd
        assert main([cmd, "--output-dir", str(out), "--f-cap", "1e4"]) == code
        assert read_summary(out)["values"]["ladder_dropped"] == 0


def test_manifest_roundtrip_reproducible(tmp_path):
    # simulate's snapshots.npy is binary: a format that stamps the time would fail here
    for command, flags in (("ode", ["--f-cap", "1e4"]),
                           ("simulate", ["--grid-n", "32", "--pde-f-cap", "10"])):
        out1, out2 = tmp_path / command / "a", tmp_path / command / "b"
        assert main([command, "--output-dir", str(out1), *flags]) == 0
        # re-run FROM the emitted manifest into a fresh directory
        cfg = load_config(out1 / "manifest.json", command=command)
        cfg.output_dir = str(out2)
        (tmp_path / command / "cfg.json").write_text(json.dumps(cfg.__dict__))
        assert main([command, "--config", str(tmp_path / command / "cfg.json")]) == 0
        s1, s2 = read_summary(out1), read_summary(out2)
        assert s1["verdicts"] == s2["verdicts"]
        assert s1["digests"] == s2["digests"]


def test_config_file_and_overrides(tmp_path):
    cfg = RunConfig(command="iota", output_dir=str(tmp_path / "x"), seed=7)
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg.__dict__))
    loaded = load_config(p)
    assert loaded.seed == 7
    with pytest.raises(UsageError, match="unknown config keys"):
        load_config_bad(tmp_path)


@pytest.mark.parametrize("key,value", [("cfl", 0.4), ("growth_cap", 0.005)])
def test_retired_stepper_keys_are_usage_errors(tmp_path, key, value):
    # a config or manifest of the fixed-step stepper names the key that replaced it
    cfg = {"command": "simulate", key: value, "output_dir": str(tmp_path / "r")}
    for name, doc in (("cfg.json", cfg), ("manifest.json", {"config": cfg})):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        with pytest.raises(UsageError, match=f"retired config keys \\['{key}'\\].*'pde_rtol'"):
            load_config(p)
        assert main(["simulate", "--config", str(p)]) == 2


def load_config_bad(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"command": "iota", "bogus_key": 1}))
    return load_config(p)


def test_usage_error_exit_code(tmp_path):
    # f_cap below beta violates the integrator precondition -> usage error
    rc = main(["ode", "--output-dir", str(tmp_path / "u"), "--f-cap", "0.01"])
    assert rc == 2
    assert (tmp_path / "u" / "error.json").exists()


def test_numerical_error_exit_code(tmp_path, monkeypatch):
    import jeanslab.cli as cli

    def boom(*a, **k):
        raise NumericalFailure("stiffness failure (synthetic)")

    monkeypatch.setattr(cli.ContrastMarch, "_step", boom)
    rc = main(["ode", "--output-dir", str(tmp_path / "n")])
    assert rc == 3
    err = json.loads((tmp_path / "n" / "error.json").read_text())
    assert err["kind"] == "numerical"


def test_non_finite_block_fails_regularity_and_sandwich(tmp_path, monkeypatch):
    # an infinite frakB entry at one sandwich sample: a verdict, not a LinAlgError from
    # an eigen-solve; the margin and ranges are those of the finite samples
    from jeanslab import fuchsian

    assemble = fuchsian.assemble_matrices

    def planted(*args):
        ev = assemble(*args)
        if ev.frakB.shape[:2] == (9, 223):  # the sandwich samples, not the div B stencils
            ev.frakB[3, 7, 1, 1] = math.inf
        return ev

    monkeypatch.setattr(fuchsian, "assemble_matrices", planted)
    out = tmp_path / "inf"
    assert main(["fuchsian-check", "--f-cap", "1e8", "--seed", "1",
                 "--output-dir", str(out)]) == 1
    failed = {k for k, v in read_summary(out)["verdicts"].items() if not v}
    assert failed == {"fuchsian_F3_regularity", "fuchsian_F5_sandwich"}
    text = (out / "fuchsian.json").read_text()
    assert "nan" not in text and "inf" not in text
    doc = json.loads(text)
    assert 0.0 < doc["sandwich_margin"] < math.inf
    assert all(math.isfinite(v) for v in doc["eig_B0_range"] + doc["eig_frakB_range"])


def test_domain_error_exits_as_numerical_failure(tmp_path, monkeypatch):
    # DomainError leaves the system's domain: a numerical failure, not a usage error
    import jeanslab.cli as cli

    def out_of_domain(*a, **k):
        raise DomainError("chi must stay positive (synthetic)")

    monkeypatch.setattr(cli, "verify_conditions", out_of_domain)
    out = tmp_path / "d"
    assert main(["fuchsian-check", "--output-dir", str(out)]) == 3
    assert json.loads((out / "error.json").read_text())["kind"] == "numerical"


def test_other_exceptions_propagate(tmp_path, monkeypatch):
    # an exception outside the hierarchy is a bug: no exit code, no error.json
    import jeanslab.cli as cli

    def bug(*a, **k):
        raise TypeError("synthetic bug")

    monkeypatch.setattr(cli.ContrastMarch, "_step", bug)
    out = tmp_path / "b"
    with pytest.raises(TypeError, match="synthetic bug"):
        main(["ode", "--output-dir", str(out)])
    assert not (out / "error.json").exists()


@pytest.mark.parametrize("config", [
    '{"command": "iota", "bogus_key": 1}',
    '{"command": "iota", "cfl": 0.4}',
    '{"command": "iota", "beta": "0.1"}',
    '{"command": "iota",',
    '[1, 2]',
    None,  # no config file
    '{"command": "iota", "seed": true}',  # a boolean is no integer
], ids=["unknown-key", "retired-key", "wrong-type", "malformed-json", "not-an-object",
        "missing-file", "boolean-seed"])
def test_config_errors_exit_2(tmp_path, config):
    p = tmp_path / "cfg.json"
    if config is not None:
        p.write_text(config)
    assert main(["iota", "--config", str(p), "--output-dir", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()  # rejected before the run directory is made


@pytest.mark.parametrize("profile", [
    {"kind": "bogus"},
    {"kind": "cosine", "eps": "large"},
    {"kind": "square", "eps": 1e-3, "delta": 0.0},
    {"kind": "table", "path": "no-such-table.csv"},
    {"kind": "cosine", "eps": math.nan},  # json.dumps writes NaN, which load_config reads
], ids=["unknown-kind", "non-numeric-eps", "zero-delta", "missing-table", "nan-eps"])
def test_profile_errors_exit_2(tmp_path, profile):
    out = tmp_path / "p"
    cfg = {"command": "simulate", "grid_n": 32, "pde_f_cap": 5.0, "profile": profile,
           "output_dir": str(out)}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(p)]) == 2
    assert json.loads((out / "error.json").read_text())["kind"] == "usage"


def test_stiffness_flag_clears_the_configs_other_key(tmp_path):
    # a --k-tilde run's manifest re-run with --iota3 runs at that iota3 and records only it
    first, second = tmp_path / "k", tmp_path / "i"
    assert main(["iota", "--k-tilde", "0.05", "--output-dir", str(first)]) == 0
    argv = ["iota", "--config", str(first / "manifest.json"), "--iota3", "0.1",
            "--output-dir", str(second)]
    assert main(argv) == 0
    recorded = json.loads((second / "manifest.json").read_text())["config"]
    assert (recorded["iota3"], recorded["k_tilde"]) == (0.1, None)
    run = RunDir(config_from_args(build_parser().parse_args(argv)))
    assert run.params.iota**3 == pytest.approx(0.1, rel=1e-12)


def test_config_naming_k_tilde_clears_iota3(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"command": "iota", "k_tilde": 0.05}))
    cfg = load_config(p)
    assert (cfg.iota3, cfg.k_tilde) == (None, 0.05)


@pytest.mark.parametrize("config,flags", [
    ({"iota3": 0.1, "k_tilde": 0.05}, []),
    ({"iota3": None, "k_tilde": None}, []),
    ({}, ["--iota3", "0.1", "--k-tilde", "0.05"]),
], ids=["both-in-config", "neither-in-config", "both-flags"])
def test_stiffness_named_once(tmp_path, config, flags):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"command": "iota", **config}))
    out = tmp_path / "o"
    assert main(["iota", "--config", str(p), *flags, "--output-dir", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("setting", [
    {"profile": {"kind": "homogeneous", "family": "bogus"}},
    {"seed": -1},
    {"n_fuchsian_samples": 0},
    {"pde_rtol": 0.0},
    {"pde_rtol": -1e-10},
    {"abs_tol": -1e-14},
    {"rel_tol": -1.0},
    {"rel_tol": 0.0},
    {"rel_tol": 1e-15, "profile": {"family": "both"}},  # below 100 eps
    # a relative tolerance of 1 or more asks for no correct digit
    {"rel_tol": 1e10},
    {"rel_tol": 1.0},
    {"pde_rtol": 1.0},
    # json.dumps writes Infinity, which load_config reads
    {"pde_rtol": math.inf},
    {"rel_tol": math.inf},
    {"abs_tol": math.inf},
], ids=lambda d: "-".join(f"{k}={v}" for k, v in d.items()))
def test_out_of_range_settings_exit_2(tmp_path, setting):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"command": "residuals", **setting}))
    out = tmp_path / "o"
    assert main(["residuals", "--config", str(p), "--output-dir", str(out)]) == 2
    assert not out.exists()  # refused before the run directory is made


@pytest.mark.parametrize("profile", [
    {"kind": "cosine", "epz": 0.1},
    {"kind": "cosine", "eps": 1e-3, "delta": 0.2},
    {"kind": "homogeneous", "path": "profile.csv"},
    {"kind": "homogeneous", "eps": 0.1},
    {"kind": "table", "path": "profile.csv", "eps_v": 0.1},
], ids=["unknown-key", "delta-without-square", "path-without-table",
        "eps-with-homogeneous", "eps_v-with-table"])
def test_unread_profile_settings_exit_2(tmp_path, profile):
    # a setting the run would ignore is refused before the run directory is made
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"command": "simulate", "grid_n": 32, "pde_f_cap": 2.0,
                             "profile": profile}))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(p), "--output-dir", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["residuals", "--family", "background", "--profile-kind", "cosine", "--eps", "0.1"],
    ["simulate", "--grid-n", "32", "--pde-f-cap", "5", "--family", "background"],
    ["report", "--profile-kind", "cosine", "--eps", "1e-3"],
    ["ode", "--family", "homogeneous"],
    ["fuchsian-check", "--profile-kind", "cosine"],
], ids=["residuals-data", "simulate-family", "report-data", "ode-family", "fuchsian-kind"])
def test_profile_settings_of_other_commands_exit_2(tmp_path, argv):
    # only simulate reads the initial data, only residuals and report the family
    out = tmp_path / "o"
    assert main([*argv, "--output-dir", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["iota", "ode", "blowup", "residuals", "simulate",
                                     "fuchsian-check", "report"])
def test_default_profile_accepted_by_every_command(tmp_path, command):
    # the defaults, given or left out, are no setting a command ignores
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"command": command, "profile": {
        "kind": "homogeneous", "eps": 0.0, "eps_v": 0, "family": "both"}}))
    for argv in ([command], [command, "--config", str(p)]):
        assert config_from_args(build_parser().parse_args(argv)).command == command


def test_homogeneous_verdicts_for_a_profile_without_kind(tmp_path):
    # the kind defaults to homogeneous for the data, and so for the verdicts
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"command": "simulate", "grid_n": 32, "pde_f_cap": 5.0,
                             "profile": {}}))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(p), "--output-dir", str(out)]) == 0
    verdicts = read_summary(out)["verdicts"]
    assert verdicts["homogeneous_manifold_dev_below_1e-6"]
    assert verdicts["homogeneous_nu_below_1e-8"]


def test_step_size_underflow_exits_3(tmp_path):
    # at a rate 1e-100 the clock s = ln(1+f)/2 needs steps below the spacing of the
    # floats near s0 while t moves (dt/ds = 2 e^(-s)/p)
    out = tmp_path / "o"
    assert main(["ode", "--gamma", "1e-100", "--beta", "2.0", "--output-dir", str(out)]) == 3
    error = json.loads((out / "error.json").read_text())
    assert error["kind"] == "numerical"
    assert "Required step size is less than spacing between numbers" in error["error"]


@pytest.mark.parametrize("gamma,message", [
    # the march reaches the cap at once: the ladder's rungs are one float, no triplet
    # is kept, and no 0/0 of equal rungs warns first
    ("1e100", "no blowup detected in window: extrapolation ladder degenerate"),
    ("1e150", "no blowup detected in window: extrapolation ladder degenerate"),
    ("1e-200", "contrast ODE overflowed"),  # dt/ds = 2 e^(-s)/p at p = 1e-200
    ("1e-300", "contrast ODE overflowed"),
    ("1e300", "f' = p e^(3s) overflows"),  # f' at the cap
], ids=["1e100", "1e150", "1e-200", "1e-300", "1e300"])
def test_contrast_overflow_exits_3_with_one_line(tmp_path, capsys, gamma, message):
    # an overflow in the contrast integration, or data that leave it no room, is a
    # classified failure: stderr holds its one line and no numpy warning (the suite
    # turns warnings into errors)
    out = tmp_path / "o"
    assert main(["ode", "--gamma", gamma, "--beta", "2.0", "--output-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"NumericalFailure: {message}")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("argv,message", [
    # at A = 0.001 the maps end at tau = -0.994, short of the ladder's first rung, -1
    (["fuchsian-check", "--A", "0.001"], "the tau ladder has no rung"),
    (["report", "--A", "0.001"], "the tau ladder has no rung"),
    # chi is about 1/f: at a subnormal f = 1e-310 it overflows on the record grid
    (["fuchsian-check", "--beta", "1e-310"], "compute_g left the range of floats"),
    # chi is about 1/f = 1e300 at t0: the chain-rule dchi/dt overflows (until the time
    # maps read off-grid values from polynomials, the slopes of a chi interpolant did)
    (["ode", "--beta", "1e-300", "--k-tilde", "0.9", "--A", "0.99"],
     "check_G_decay left the range of floats"),
    # the closed-form dchi/dt is about f^-2 = 1e398 at t0
    (["ode", "--beta", "1e-199", "--k-tilde", "0.9", "--A", "0.99"],
     "check_G_decay left the range of floats"),
    # dZ/dU is about 1/f = 1e300 at the first rung: the 2->1 norm of the Jacobian
    # overflows, which warned "overflow encountered in vecdot" before the failure
    (["fuchsian-check", "--gamma", "1e-3", "--beta", "1e-300"],
     "the Jacobian of the corrections has no finite norm"),
], ids=["ladder", "report-ladder", "chi-overflow", "chi-interpolant", "dchi", "jacobian-norm"])
def test_time_maps_out_of_range_exit_3_with_one_line(tmp_path, capsys, argv, message):
    # a classified failure, with no numpy warning first (the suite turns warnings
    # into errors), not a crash or a failed verdict
    out = tmp_path / "o"
    assert main([*argv, "--output-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"NumericalFailure: {message}") and err.count("\n") == 1
    assert json.loads((out / "error.json").read_text())["kind"] == "numerical"


@pytest.mark.parametrize("beta", ["1e-3", "1e-6"])
def test_ode_at_small_contrast_passes(tmp_path, beta):
    # the chain rule on the dense output meets the chi law to about 1.1e-8 of it at
    # beta = 1e-3 and 1e-6, where a five-point difference of chi on the map grid
    # read 4.6e-2 and 206
    out = tmp_path / "o"
    assert main(["ode", "--beta", beta, "--output-dir", str(out)]) == 0
    assert read_summary(out)["values"]["dchi_rel_err"] < 1e-6


@pytest.mark.parametrize("beta", ["1e-3", "1e-6"])
def test_fuchsian_check_at_small_contrast_completes(tmp_path, beta):
    # the tau derivative of B0 at the first rung, tau = -1 at t0, is a complex step,
    # which reads the time maps at tau = -1 itself, not before them.  F7 is false
    # here: at t0 the contrast is still beta and G about 1.5e3, so the first rung's
    # div B pieces stand apart from the power law of the others
    out = tmp_path / "o"
    assert main(["fuchsian-check", "--beta", beta, "--output-dir", str(out)]) in (0, 1)
    assert not (out / "error.json").exists()
    assert read_summary(out)["values"]["divB_orders"]


def test_dchi_verdict_flips_on_a_biased_f00_read(tmp_path, monkeypatch):
    # f'' read 1e-4 high from the dense output puts the chain-rule dchi/dt off the
    # closed-form law by about 8e-2 of it at beta = 0.1 and 6e-2 at 1e-6; only that
    # verdict fails.  At 1e-6 a floor of 1e-6 of max|dchi/dt| hid the bias (8e-8)
    read = OdeTrajectory.f00_at_s
    monkeypatch.setattr(OdeTrajectory, "f00_at_s", lambda self, s: read(self, s) * (1.0 + 1e-4))
    for beta in ("0.1", "1e-6"):
        out = tmp_path / beta
        assert main(["ode", "--beta", beta, "--output-dir", str(out)]) == 1
        verdicts = read_summary(out)["verdicts"]
        assert [k for k, ok in verdicts.items() if not ok] == ["dchi_identity_rel_1e-3"]


@pytest.mark.parametrize("argv", [["bogus"], [], ["ode", "--bogus", "1"], ["--seed", "1"]],
                         ids=["unknown-command", "no-command", "unknown-flag", "flag-only"])
def test_unknown_command_or_flag_exits_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--output-dir", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "usage: jeanslab" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_amplitude_flag_for_the_default_kind_exits_2(tmp_path):
    # the default kind, homogeneous, reads no amplitude
    out = tmp_path / "o"
    assert main(["simulate", "--grid-n", "32", "--pde-f-cap", "2", "--eps", "0.1",
                 "--output-dir", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # the benchmark's three workloads (perfbench/workloads.py)
    ["simulate", "--grid-n", "128", "--profile-kind", "cosine", "--eps", "1e-3",
     "--pde-f-cap", "1e3", "--seed", "1", "--output-dir", "o"],
    ["fuchsian-check", "--f-cap", "1e8", "--seed", "1", "--output-dir", "o"],
    ["residuals", "--family", "both", "--seed", "1", "--output-dir", "o"],
    # the README's example commands
    ["iota", "--output-dir", "runs/iota"],
    ["ode", "--output-dir", "runs/ode", "--beta", "0.1", "--gamma", "0.5"],
    ["blowup", "--output-dir", "runs/blowup", "--f-cap", "1e6"],
    ["residuals", "--output-dir", "runs/resid", "--family", "both"],
    ["simulate", "--output-dir", "runs/sim", "--grid-n", "128",
     "--profile-kind", "cosine", "--eps", "1e-3", "--pde-f-cap", "1e3"],
    ["fuchsian-check", "--output-dir", "runs/fuchsian"],
    ["report", "--output-dir", "runs/report"],
], ids=["collapse", "certify", "exact", "iota", "ode", "blowup", "residuals", "simulate",
        "fuchsian-check", "report"])
def test_documented_commands_are_accepted(argv):
    cfg = config_from_args(build_parser().parse_args(argv))
    assert cfg.command == argv[0]
    if "--eps" in argv:
        assert cfg.profile == {"kind": "cosine", "eps": 1e-3, "eps_v": 0.0}


@pytest.mark.parametrize("argv,code", [
    (["simulate", "--grid-n", "32", "--pde-f-cap", "0.05"], 2),
    (["simulate", "--grid-n", "32", "--pde-f-cap", "0.1"], 2),
    (["ode", "--f-cap", "0.5"], 2),
    (["blowup", "--f-cap", "0.5"], 2),
    (["report", "--f-cap", "0.5"], 2),
    (["residuals", "--f-cap", "2"], 2),
    (["ode", "--f-cap", "1.7"], 3),  # a degenerate ladder is computed, not a usage error
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_caps_below_their_floor_exit_2(tmp_path, argv, code):
    out = tmp_path / "o"
    assert main([*argv, "--output-dir", str(out)]) == code
    kind = json.loads((out / "error.json").read_text())["kind"]
    assert kind == ("usage" if code == 2 else "numerical")


def test_residuals_and_blowup_build_no_time_maps(tmp_path, monkeypatch):
    # neither command reads g, so compute_g (and its representation check) never runs
    import jeanslab.cli as cli

    def boom(*a, **k):
        raise RuntimeError("representation mismatch (synthetic)")

    monkeypatch.setattr(cli, "compute_g", boom)
    for name, argv in (("res", ["residuals", "--family", "both"]), ("blow", ["blowup"])):
        out = tmp_path / name
        assert main([*argv, "--output-dir", str(out)]) == 0
        s = read_summary(out)
        assert s["all_pass"] and s["verdicts"] and all(s["verdicts"].values())
    assert set(read_summary(tmp_path / "res")["verdicts"]) == {
        "background_residuals_below_1e-6", "homogeneous_residuals_below_1e-6"}


def test_invariant_failure_exit_code(tmp_path):
    # a violent speed perturbation loses hyperbolicity -> verdict failure
    cfg = {
        "command": "simulate", "grid_n": 64, "pde_f_cap": 50.0,
        "profile": {"kind": "cosine", "eps": 1e-3, "eps_v": 4.0},
        "output_dir": str(tmp_path / "h"),
    }
    p = tmp_path / "h.json"
    p.write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(p)])
    assert rc == 1
    s = read_summary(tmp_path / "h")
    assert not s["verdicts"]["hyperbolicity_preserved"]


def test_square_profile_runs(tmp_path):
    cfg = {
        "command": "simulate", "grid_n": 64, "pde_f_cap": 10.0,
        "profile": {"kind": "square", "eps": 1e-3},
        "output_dir": str(tmp_path / "sq"),
    }
    p = tmp_path / "sq.json"
    p.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(p)]) == 0


def test_svg_emission(tmp_path):
    out = tmp_path / "svg"
    assert main(["iota", "--output-dir", str(out), "--svg"]) == 0
    assert (out / "iota.svg").read_text().startswith("<svg")
    # the log-scale chart of the contrast
    assert main(["ode", "--output-dir", str(tmp_path / "ode"), "--svg"]) == 0
    svg = (tmp_path / "ode" / "contrast.svg").read_text()
    assert svg.startswith("<svg") and "<polyline" in svg and "nan" not in svg


def test_table_profile(tmp_path):
    import numpy as np

    zeta = np.linspace(0.0, 1.0, 64, endpoint=False)
    tab = tmp_path / "profile.csv"
    rows = ["zeta,d,v"] + [f"{z},{1 + 1e-3 * np.cos(2 * np.pi * z)},-1.0" for z in zeta]
    tab.write_text("\n".join(rows))
    cfg = {
        "command": "simulate", "grid_n": 64, "pde_f_cap": 5.0,
        "profile": {"kind": "table", "path": str(tab)},
        "output_dir": str(tmp_path / "tab"),
    }
    p = tmp_path / "tab.json"
    p.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(p)]) == 0


def test_one_row_table_is_a_constant_profile(tmp_path):
    # one row of the table is the constant profile it describes: here the
    # homogeneous data, so the artifacts are the homogeneous run's
    tab = tmp_path / "profile.csv"
    tab.write_text("z,d,v\n0.5,1.0,-1.0\n")
    p = tmp_path / "tab.json"
    p.write_text(json.dumps({"command": "simulate", "grid_n": 32,
                             "profile": {"kind": "table", "path": str(tab)}}))
    assert main(["simulate", "--config", str(p), "--output-dir", str(tmp_path / "tab")]) == 0
    assert main(["simulate", "--grid-n", "32", "--output-dir", str(tmp_path / "hom")]) == 0
    assert read_summary(tmp_path / "tab")["digests"] == read_summary(tmp_path / "hom")["digests"]


def test_svg_of_a_run_stopped_before_its_first_step(tmp_path):
    # the velocity data leave the hyperbolic regime at once: one monitor row, a
    # flat time range, which the chart must scale without dividing by zero
    p = tmp_path / "flat.json"
    p.write_text(json.dumps({"command": "simulate", "grid_n": 32, "pde_f_cap": 5.0,
                             "svg": True,
                             "profile": {"kind": "cosine", "eps": 0.0, "eps_v": 100.0}}))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(p), "--output-dir", str(out)]) == 1
    s = read_summary(out)
    assert s["values"]["stop_reason"] == "hyperbolicity_loss" and s["values"]["n_steps"] == 0
    svg = (out / "monitors.svg").read_text()
    assert "<polyline" in svg and "nan" not in svg


def test_table_of_the_cosine_grid_values_gives_the_cosine_data(tmp_path, params):
    # the cosine data written with '%.17g' at the grid points and read back as a
    # table give the cosine run's initial state exactly
    zeta = zeta_grid(64)
    cosine = {"kind": "cosine", "eps": 1e-3, "eps_v": 2e-4}
    d, v = make_profiles(RunConfig(command="simulate", profile=cosine), zeta)
    tab = tmp_path / "profile.csv"
    tab.write_text("zeta,d,v\n" + "".join(f"{z:.17g},{a:.17g},{b:.17g}\n"
                                          for z, a, b in zip(zeta, d, v)))
    table = {"kind": "table", "path": str(tab)}
    got = init_from_data(params, *make_profiles(RunConfig(command="simulate", profile=table),
                                                zeta))
    want = init_from_data(params, d, v)
    for name in ("rho_hat", "drho_dt", "nu"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_force_escape_hatch(tmp_path):
    # above the certified stiffness range: refused plainly, admitted with --force
    rc = main(["ode", "--output-dir", str(tmp_path / "f1"), "--iota3", "0.3",
               "--f-cap", "1e3"])
    assert rc == 2
    rc = main(["ode", "--output-dir", str(tmp_path / "f2"), "--iota3", "0.3",
               "--f-cap", "1e3", "--force"])
    assert rc in (0, 1)  # runs; certification is a separate concern


def test_report_command(tmp_path):
    out = tmp_path / "rep"
    assert main(["report", "--output-dir", str(out), "--f-cap", "1e6"]) == 0
    s = read_summary(out)
    assert s["all_pass"]
    # verdicts from every pipeline stage are present
    for key in ("iota_cubic_residual_below_1e12", "envelopes_hold_everywhere",
                "homogeneous_residuals_below_1e-6", "continuity_identity_small",
                "fuchsian_F5_sandwich"):
        assert key in s["verdicts"]


def test_jsonable_maps_non_finite_values():
    inf, nan = math.inf, math.nan
    doc = {
        "python": [inf, -inf, nan, 1.5],
        "numpy": (np.float64(inf), np.float64(-inf), np.float64(nan), np.float32(2.0)),
        "array": np.array([[inf, -inf], [nan, 0.25]]),
        "other": [np.int64(3), None, True, "x"],
    }
    out = _jsonable(doc)
    assert out == {
        "python": ["inf", "-inf", "nan", 1.5],
        "numpy": ["inf", "-inf", "nan", 2.0],
        "array": [["inf", "-inf"], ["nan", 0.25]],
        "other": [3, None, True, "x"],
    }
    assert json.loads(json.dumps(out, allow_nan=False)) == out


def test_write_csv_bytes_equal_csv_writer(tmp_path):
    cols = [np.array([0.1, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300, 123456789.0]),
            np.arange(8.0) / 3.0, -np.geomspace(1e-17, 1e17, 8),
            np.array([0, -1, 7, 2**53 + 1, -(10**18), 10**18, 42, 1])]
    for k, (header, columns) in enumerate([(["t", "rho_hat", "nu", "count"], cols),
                                           (["nu"], cols[2:3]),
                                           (["a", "b"], [np.empty(0), np.empty(0)])]):
        got, oracle = tmp_path / f"got{k}.csv", tmp_path / f"oracle{k}.csv"
        _write_csv(got, header, columns)
        with oracle.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in zip(*columns):
                w.writerow([f"{v:.17g}" for v in row])
        assert got.read_bytes() == oracle.read_bytes()
