"""jeanslab benchmark: time the CLI pipelines end to end, or trace them layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload collapse --seed 1 --seconds 40 --trace 0

Workloads are defined in workloads.py and described in README.md.  With
``--trace 0`` the run reports the end-to-end metrics: ``wall_ref`` (median
wall time of one ``cli.main`` call in a process that has already imported
``jeanslab.cli``, in units of the reference block timed around it),
``setup_s`` (median time to import ``jeanslab.cli`` in a fresh
interpreter), ``peak_rss_mib`` and ``pass_share``.  With ``--trace 1`` it
reports the per-layer metrics of layers.py.  Units are read from
BENCHMARK.json.

This process imports ``jeanslab.cli`` once and then calls ``cli.main`` in
rounds until the next round would end past ``--seconds``.  A round

1. on even rounds of untraced runs, times ``import jeanslab.cli`` in a fresh
   interpreter,
2. times one ``cli.main(argv)`` call, which writes to its own output
   directory; the directory is read back (summary, digests, bytes written)
   and removed after the clock has stopped,
3. times the fixed reference block of ``reference_block``.

Spreading the import probes over the run lets them sample the same stretch
of host time as the calls.  With ``--trace 1`` calls alternate untraced,
traced, traced, untraced, ... so that both kinds sample the same stretch of
host time; the untraced ones give the baseline for the tracing overhead.

Every call's output is checked: exit code 0, ``all_pass``, the workload's
verdicts all present and passing, and the same artifact digests as the
reference set.  Before the rounds one more call runs in a fresh interpreter
with another hash seed, so output that depends on the process shows as a
digest mismatch.  The reference set is that of an earlier run recorded in
``perfbench/out/`` with the same workload, seed and sources, if there is
one, and otherwise that of the run's first call.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, per-call times, digests, key values, failures) is written to
``perfbench/out/``.  The package is imported from the checkout's ``src``;
without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from layers import layer_metrics
from spans import Tracer
from workloads import WORKLOADS, lookup

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
MAX_ROUNDS = 1000
# times the import, then runs cli.main on the remaining arguments, if any
PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import jeanslab.cli\n"
    "t1 = time.perf_counter()\n"
    "print(repr(t1 - t0))\n"
    "print(jeanslab.cli.__file__, flush=True)\n"
    "if len(sys.argv) > 1:\n"
    "    sys.exit(jeanslab.cli.main(sys.argv[1:]))\n"
)


def reference_block() -> float:
    """Seconds taken by a fixed block of small-array numpy work and Python arithmetic.

    On a shared host the speed of one core drifts by up to 2x within
    minutes, and the program and this block slow down together.  Dividing a
    call's wall time by the mean of the blocks timed just before and after it
    removes most of that drift from the run-to-run spread (measured on a
    2-vCPU Xeon VM: spread of run medians 12-19 % raw, 4-9 % divided).  The
    block imitates the program's own mix: Python overhead around numpy
    operations on 128-point arrays.
    """
    x0 = np.linspace(0.0, 1.0, 128)
    t0 = time.perf_counter()
    for _ in range(60):
        x, s = x0, 0.0
        for i in range(400):
            x = 0.5 * (np.roll(x, 1) + x) + 1e-3
            s = (s + float(x[i % 128]) * 1.0001 + i) % 97.0
    return time.perf_counter() - t0


def _other_hash_seed() -> str:
    """A PYTHONHASHSEED other than this process's: its own plus one, or 0 if its own is random."""
    own = os.environ.get("PYTHONHASHSEED", "random")
    return str((int(own) + 1) % 2**32) if own.isdigit() else "0"


def probe(argv: list[str] | None = None) -> tuple[float, int, str | None]:
    """Import jeanslab.cli in a fresh interpreter, then run ``cli.main(argv)`` there if given.

    Returns (import seconds, exit code, stderr if the exit code is not 0).
    The interpreter runs with another hash seed than this process.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=_other_hash_seed())
    proc = subprocess.run([sys.executable, "-c", PROBE, *(argv or [])], capture_output=True,
                          text=True, env=env, timeout=120)
    lines = proc.stdout.split("\n")
    try:
        seconds = float(lines[0])
    except ValueError:
        raise RuntimeError(f"import of jeanslab.cli failed:\n{proc.stderr[-2000:]}") from None
    _check_origin(lines[1])
    return seconds, proc.returncode, proc.stderr[-2000:] if proc.returncode else None


def _check_origin(module_file: str) -> None:
    if SRC.resolve() not in Path(module_file).resolve().parents:
        raise RuntimeError(f"imported {module_file}, which is not under {SRC}")


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def read_call(out_dir: Path, workload) -> dict:
    """Verdicts, digests, key values, summary values and bytes written of one call."""
    rec = {"all_pass": False, "verdicts": {}, "digests": {}, "key_values": {}, "values": {}}
    summary_path = out_dir / "summary.json"
    if summary_path.is_file():
        summary = json.loads(summary_path.read_text())
        values = summary.get("values", {})
        rec.update(all_pass=summary.get("all_pass") is True,
                   verdicts=summary.get("verdicts", {}),
                   digests=summary.get("digests", {}),
                   key_values={label: lookup(values, path)
                               for label, path in workload.key_values},
                   values=values)
    rec["artifact_bytes"] = _dir_bytes(out_dir) if out_dir.is_dir() else 0
    return rec


def run_calls(cli, workload, args, scratch: Path, spans: Path) -> tuple[list, list]:
    """Run the fresh-interpreter call and then the rounds; return (calls, setup seconds)."""
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    out_dir = scratch / "fresh"
    import_s, rc, error = probe(workload.argv(args.seed, str(out_dir)))
    calls = [{**read_call(out_dir, workload), "index": 0, "kind": "fresh", "rc": rc,
              "error": error}]
    setup = [] if tracer else [import_s]
    longest_round = 0.0
    ref_before = reference_block()
    for i in range(MAX_ROUNDS):
        round_start = time.perf_counter()
        if tracer is None and i % 2 == 0:
            setup.append(probe()[0])
        traced = tracer is not None and i % 4 in (1, 2)
        out_dir = scratch / f"call-{i + 1:04d}"
        if traced:
            tracer.install()
            tracer.reset()
        error = None
        t0 = time.perf_counter()
        try:
            rc = cli.main(workload.argv(args.seed, str(out_dir)))
        except Exception:  # a crash is a failed call; keep measuring the rest
            rc, error = None, traceback.format_exc(limit=5)
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        ref_after = reference_block()
        rec = read_call(out_dir, workload)
        rec.update(index=i + 1, kind="traced" if traced else "plain", wall_s=wall,
                   wall_ref=wall / (0.5 * (ref_before + ref_after)), ref_s=ref_after,
                   rc=rc, error=error)
        ref_before = ref_after
        if traced:
            rec["layers"] = layer_metrics(tracer.totals(), rec["values"], rec["artifact_bytes"])
        calls.append(rec)
        shutil.rmtree(out_dir, ignore_errors=True)

        now = time.perf_counter()
        longest_round = max(longest_round, now - round_start)
        need_traced = tracer is not None and not any(c["kind"] == "traced" for c in calls)
        if now + longest_round > start + args.seconds and not need_traced:
            break
    if tracer:
        tracer.write(spans)
    return calls, setup


def earlier_digests(workload: str, seed: int, src_sha256: str) -> tuple[str, dict] | None:
    """(record file, digests) of an earlier run of this workload and seed on the same sources."""
    for path in sorted(OUT.glob(f"{workload}-seed{seed}-trace*.json")):
        try:
            rec = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if rec.get("environment", {}).get("src_sha256") == src_sha256 and rec.get("digests"):
            return path.name, rec["digests"]
    return None


def check_calls(calls: list[dict], workload, reference: tuple[str, dict] | None) -> list[str]:
    """Mark each call ok or not; return one line per failed call.

    Digests are compared with ``reference`` (where they came from, digests),
    or with the first call's when it is None.
    """
    failures = []
    for c in calls:
        why = []
        if c["rc"] != 0:
            why.append(f"exit code {c['rc']}")
        if not c["all_pass"]:
            why.append("all_pass is not true")
        bad = [v for v in workload.verdicts if c["verdicts"].get(v) is not True]
        if bad:
            why.append(f"verdicts missing or failing: {bad}")
        if not c["digests"]:
            why.append("no artifact digests")
        elif reference is None:
            reference = (f"call {c['index']}", c["digests"])
        elif c["digests"] != reference[1]:
            changed = sorted(k for k in set(reference[1]) | set(c["digests"])
                             if reference[1].get(k) != c["digests"].get(k))
            why.append(f"digests differ from those of {reference[0]}: {changed}")
        if c.get("error"):
            why.append(c["error"].strip().splitlines()[-1])
        c["ok"] = not why
        if why:
            failures.append(f"call {c['index']} ({c['kind']}): " + "; ".join(why))
    return failures


def stats(values: list[float]) -> dict:
    doc = {"n": len(values), "median": statistics.median(values), "samples": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        doc.update(q1=q1, q3=q3)
    return doc


def environment(seed: int) -> dict:
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        digest.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "git_sha": _git_sha(), "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "platform": platform.platform(), "seed": seed,
    }


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving it; None if not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "jeanslab" / "cli.py").is_file():
        print(f"no jeanslab sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import jeanslab.cli as cli

    _check_origin(cli.__file__)
    units = {m["name"]: m["unit"]
             for section in ("end_to_end", "per_layer")
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    reference = earlier_digests(args.workload, args.seed, env["src_sha256"])
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = OUT / f"{args.workload}-seed{args.seed}-spans.json"
    scratch = OUT / f"scratch-{os.getpid()}"
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        calls, setup = run_calls(cli, workload, args, scratch, spans)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = check_calls(calls, workload, reference)
    attempted, failed = len(calls), len(failures)
    record = {
        "workload": args.workload, "argv": list(workload.args), "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "attempted": attempted, "failed": failed, "fail_share": failed / attempted,
        "failures": failures,
        "digests_checked_against": reference[0] if reference else "call 0",
        "digests": calls[0]["digests"],
        "digest_set_sha256": hashlib.sha256(
            json.dumps(calls[0]["digests"], sort_keys=True).encode()).hexdigest(),
        "key_values": calls[0]["key_values"],
        "calls": [{k: c.get(k) for k in ("index", "kind", "wall_s", "wall_ref", "ref_s",
                                         "rc", "ok")} for c in calls],
    }
    plain = [c for c in calls if c["kind"] == "plain"]
    record.update(wall_s=stats([c["wall_s"] for c in plain]),
                  wall_ref=stats([c["wall_ref"] for c in plain]))
    if args.trace:
        traced = [c for c in calls if c["kind"] == "traced"]
        metrics = {n: statistics.median_low(c["layers"][n] for c in traced)
                   for n in traced[0]["layers"]}
        overhead = (statistics.median(c["wall_ref"] for c in traced)
                    / record["wall_ref"]["median"] - 1.0)
        metrics.update({"untraced.wall_s": record["wall_s"]["median"],
                        "trace.wall_s": statistics.median(c["wall_s"] for c in traced),
                        "trace.overhead_s": overhead * record["wall_s"]["median"],
                        "trace.overhead_share": overhead})
        record["layers_per_call"] = [c["layers"] for c in traced]
        record["spans_file"] = spans.relative_to(ROOT).as_posix()
    else:
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record.update(setup_s=stats(setup), peak_rss_mib=peak_rss_mib)
        metrics = {"wall_ref": record["wall_ref"]["median"],
                   "setup_s": record["setup_s"]["median"],
                   "peak_rss_mib": peak_rss_mib,
                   "pass_share": (attempted - failed) / attempted}
    record["metrics"] = metrics
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))

    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"{tag}: {attempted} calls, {failed} failed, digest set "
          f"{record['digest_set_sha256'][:12]}, key values {json.dumps(record['key_values'])}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
