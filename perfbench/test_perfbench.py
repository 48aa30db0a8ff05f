"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench

Each workload is run once untraced and once traced with a one-second budget
(the fresh-interpreter call, then one untraced call, or one untraced and one
traced call), which takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 20240
_runs: dict = {}


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    """(last-line result, full record) of a one-second run, cached per test session."""
    if (workload, trace) not in _runs:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads(
            (HERE / "out" / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
        _runs[workload, trace] = (result, record)
    return _runs[workload, trace]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted(workload, trace, section):
    result, _ = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tracing_changes_no_output(workload):
    _, plain = bench(workload, 0)
    _, traced = bench(workload, 1)
    # the traced run checks its traced calls' digests against its untraced ones
    assert any(c["kind"] == "traced" for c in traced["calls"]) and traced["failed"] == 0
    assert plain["calls"][0]["kind"] == traced["calls"][0]["kind"] == "fresh"
    assert traced["digests"] == plain["digests"]
    assert traced["key_values"] == plain["key_values"]
    layers = traced["layers_per_call"][0]
    assert layers["pde.steps"] == (plain["key_values"].get("n_steps") or 0)
    if workload == "certify":
        assert layers["fuchsian.radius.halvings"] == 17
    if workload == "collapse":
        assert (layers["pde.steps"], layers["pde.rhs.calls"]) == (1362, 5448)


def test_digests_are_checked_against_earlier_runs(tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(run, "OUT", tmp_path)
    (tmp_path / "exact-seed5-trace0.json").write_text(json.dumps(
        {"environment": {"src_sha256": "abc"}, "digests": {"a.csv": "1"}}))
    assert run.earlier_digests("exact", 5, "other") is None
    assert run.earlier_digests("exact", 50, "abc") is None
    reference = run.earlier_digests("exact", 5, "abc")
    passing = {"rc": 0, "all_pass": True,
               "verdicts": {v: True for v in WORKLOADS["exact"].verdicts}}
    calls = [{**passing, "index": 0, "kind": "fresh", "digests": {"a.csv": "1"}},
             {**passing, "index": 1, "kind": "plain", "digests": {"a.csv": "2"}}]
    failures = run.check_calls(calls, WORKLOADS["exact"], reference)
    assert [c["ok"] for c in calls] == [True, False]
    assert failures == ["call 1 (plain): digests differ from those of "
                        "exact-seed5-trace0.json: ['a.csv']"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_self_time_and_restore():
    import numpy as np
    from jeanslab import cli, pde

    state = pde.FieldState(t=1.0, zeta=pde.zeta_grid(16), rho_hat=np.full(16, 0.1),
                           drho_dt=np.zeros(16), nu=np.zeros(16), psi=np.zeros(16))
    params = cli.params_from_iota3(0.2, 0.1, 0.5, 0.1, 1.0)
    originals = (pde.diff1, pde._DERIV_MODES["fd4"], cli.evolve)
    tracer = Tracer()
    tracer.install()
    try:
        assert pde._DERIV_MODES["fd4"][0] is not originals[0]
        assert cli.evolve is pde.evolve is not originals[2]
        tracer.reset()
        pde.data_smallness(state, params)
        totals = tracer.totals()
    finally:
        tracer.uninstall()
    assert (pde.diff1, pde._DERIV_MODES["fd4"], cli.evolve) == originals
    assert set(totals) == {"pde.data_smallness", "pde.diff1", "pde.diff2"}
    assert totals["pde.diff1"][0] == 2 and totals["pde.diff2"][0] == 2
    outer = totals["pde.data_smallness"]
    inner_ns = sum(totals[n][2] for n in ("pde.diff1", "pde.diff2"))
    assert outer[0] == 1 and outer[1] == outer[2] - inner_ns
    root = [i for i, s in enumerate(tracer.spans) if s[3] < 0]
    assert len(root) == 1 and tracer.names[tracer.spans[root[0]][0]] == "pde.data_smallness"
    assert all(s[3] == root[0] for s in tracer.spans if s[3] >= 0)
