"""nsassim benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload twin-bundled --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload

Run from the repository root or anywhere else; paths resolve from this
file.  Every repetition is a fresh process (perfbench/worker.py) with BLAS
threads pinned to 1.  With --trace 0 the run reports the end-to-end
metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.  The last
line of standard output is one JSON object; a result set with the run
manifest is kept under .perfbench-out/results/.  README.md next to this
file explains the workloads, metrics and checks.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_BASE = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, HERE)
from worker import WORKLOADS  # noqa: E402  (stdlib-only import, no nsassim)

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NSASSIM_THREADS")
SETUP_PROBES = 4      # setup-only processes per untraced run, besides each repetition's
RUN_LIMIT_S = 170.0   # a run ends well inside the 180 s every run is allowed


class BenchError(Exception):
    """The checkout cannot run the benchmark at all; no result is printed."""


def _child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # same dict/set layout in every process: less noise
    return env


class Runner:
    """Starts worker processes for one workload and collects their results."""

    def __init__(self, workload, seed, tmp):
        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.env = _child_env()
        self.t_begin = time.monotonic()
        self.n = 0

    def elapsed(self):
        return time.monotonic() - self.t_begin

    def spawn(self, mode):
        """One worker process; returns (result dict or None, error text)."""
        self.n += 1
        out = os.path.join(self.tmp, f"out{self.n}")
        res = os.path.join(self.tmp, f"result{self.n}.json")
        timeout = max(5.0, RUN_LIMIT_S - self.elapsed())
        t0 = time.monotonic()
        cmd = [sys.executable, WORKER, "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode, "--spawned-at", repr(t0), "--out", out, "--result", res]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, f"{mode} process killed after {timeout:.0f} s"
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
            return None, f"{mode} process failed: {tail[0]}"
        with open(res, encoding="utf-8") as fh:
            return json.load(fh), ""


def _check_rep(r):
    """Checks on one repetition's own outputs; returns failure messages."""
    errors = []
    if not r["finite"]:
        errors.append("non-finite misfit or residual")
    if r["stages"] != r["p_list"]:
        errors.append(f"stages {r['stages']} != schedule {r['p_list']}")
    if not r["e_inf_final"] <= r["e_inf_first"]:
        errors.append(f"E_inf rose from {r['e_inf_first']!r} to {r['e_inf_final']!r}")
    if r["ref_tol"] is not None and not r["ref_sup_residual"] <= r["ref_tol"]:
        errors.append(f"reference sup residual {r['ref_sup_residual']!r} > "
                      f"physics.ref_tol {r['ref_tol']!r}")
    return errors


DETERMINISTIC = ("digests", "iterations", "forward_evals", "e_inf_final")


def _check_repeats(reps):
    """Repetitions that do not repeat the first one's artifacts and counts exactly."""
    bad = {}
    for i, r in enumerate(reps[1:], start=1):
        diff = [k for k in DETERMINISTIC if r[k] != reps[0][k]]
        if diff:
            bad[i] = f"differs from the first repetition in {', '.join(diff)}"
    return bad


def _run_reps(runner, modes):
    """Run one repetition per mode (a generator may extend `modes` as it goes).

    Returns (results, failures, failed operations).  A repetition that ran
    keeps its result even when a check fails; a crashed one has none.
    """
    results, failures, failed = [], [], 0
    for n, mode in enumerate(modes, start=1):
        r, err = runner.spawn(mode)
        errors = [err] if r is None else _check_rep(r)
        if r is not None:
            results.append(r)
        if errors:
            failed += 1
            failures.extend(f"{mode} repetition {n}: {e}" for e in errors)
    for i, msg in _check_repeats(results).items():
        if not _check_rep(results[i]):  # not already counted as failed
            failed += 1
        failures.append(f"repetition {i + 1}: {msg}")
    return [r for r in results if r["finite"]], failures, failed


def _git_head():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable (not a git checkout)"


def _manifest(args, workload, versions):
    def sha(path):
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    return {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_head": _git_head(),
        "versions": versions, "python_executable": sys.executable,
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: "1" for var in THREAD_VARS},
        "config_sha256": {w: sha(p) for w, p in WORKLOADS.items()},
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_untraced(runner, seconds):
    """Repetitions until --seconds is used up, between set-up probes."""
    runner.spawn("setup")  # warm-up: byte-compile and page in, not measured
    runner.t_begin = time.monotonic()
    setup_samples, failures = [], []

    def probe_setup(count):
        for _ in range(count):
            r, err = runner.spawn("setup")
            if r is None:
                failures.append(f"set-up probe: {err}")
            else:
                setup_samples.append(r["setup_s"])

    # half the probes before the repetitions and half after, so that their
    # median spans the run rather than its first second
    probe_setup(SETUP_PROBES // 2)

    def modes():  # resumed after each repetition, so it can time them
        took = []
        while True:
            t0 = time.monotonic()
            yield "run"
            took.append(time.monotonic() - t0)
            if runner.elapsed() + statistics.median(took) > min(seconds, RUN_LIMIT_S):
                return

    reps, rep_failures, rep_failed = _run_reps(runner, modes())
    failures += rep_failures
    probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    attempted = runner.n - 1  # every process but the warm-up
    metrics, samples = {}, {}
    if reps:
        samples = {
            "setup_s": setup_samples + [r["setup_s"] for r in reps],
            "wall_s": [r["wall_s"] for r in reps],
            "iters_per_s": [r["iterations"] / r["continuation_s"] for r in reps],
            "e_inf_final": [r["e_inf_final"] for r in reps],
            "stages_unconverged": [r["stages_unconverged"] for r in reps],
            "ref_sup_residual": [r["ref_sup_residual"] for r in reps],
            "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        }
        metrics = {k: statistics.median(v) for k, v in samples.items()}
    failed = SETUP_PROBES - len(setup_samples) + rep_failed
    return metrics, samples, attempted, failed, failures, reps


def run_traced(runner):
    """One untraced and one traced repetition, then the per-layer size scan."""
    runner.spawn("setup")  # warm-up, as in run_untraced
    reps, failures, failed = _run_reps(runner, ["run", "traced"])
    scan, err = runner.spawn("scan")
    if scan is None:
        failures.append(err)
        failed += 1
    metrics = {}
    if len(reps) == 2 and scan is not None:
        untraced, traced = reps
        metrics = dict(traced["layers"])
        if traced["spans_missing"]:
            print("perfbench: spans not installed, their layers undercount: "
                  + ", ".join(traced["spans_missing"]), file=sys.stderr)
        metrics["trace_overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
        metrics.update(scan)
    return metrics, {}, 3, failed, failures, reps


def _declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


EXTRA_UNITS = {"stages_unconverged": "count"}  # printed, not gated: it may reach 0


def _print_table(workload, metrics, samples, declared, attempted, failed, failures, n_reps):
    print(f"== {workload}: {attempted - failed}/{attempted} operations passed, "
          f"{failed} failed")
    for msg in failures:
        print(f"   FAILED CHECK: {msg}")
    if not failures:
        repeats = (f"{n_reps} repetitions byte-identical" if n_reps > 1 else
                   "one repetition, so no repeat to compare (a traced run compares two)")
        print("   checks passed: ref_sup_residual <= ref_tol (twin workloads), E_inf(last) <= "
              f"E_inf(first), one stage per p, finite outputs; {repeats}")
    rows = [(m["name"], m["unit"]) for m in declared]
    rows += [(k, u) for k, u in EXTRA_UNITS.items() if k in samples]
    for name, unit in rows:
        if name not in metrics:
            continue
        line = f"   {name:42s} {metrics[name]:>16.6g} {unit}"
        vals = samples.get(name)
        if vals:  # too few samples for any percentile with ten beyond it
            line += f"   (median of n={len(vals)}, max {max(vals):.6g})"
        print(line)


def bench_one(args, workload):
    cfg = WORKLOADS[workload]
    if not os.path.isfile(os.path.join(ROOT, "src", "nsassim", "__init__.py")):
        raise BenchError("no nsassim sources under src/ next to perfbench/")
    if not os.path.isfile(cfg):
        raise BenchError(f"workload config {os.path.relpath(cfg, ROOT)} is missing")
    declared = _declared(args.trace)
    os.makedirs(OUT_BASE, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_BASE)
    try:
        runner = Runner(workload, args.seed, tmp)
        if args.trace:
            metrics, samples, attempted, failed, failures, reps = run_traced(runner)
        else:
            metrics, samples, attempted, failed, failures, reps = run_untraced(runner, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    _print_table(workload, metrics, samples, declared, attempted, failed, failures, len(reps))
    if not metrics:
        raise BenchError(f"{workload}: no repetition produced a result")
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"{workload}: metrics not produced: {', '.join(missing)}")

    record = {"manifest": _manifest(args, workload, reps[0]["versions"] if reps else None),
              "attempted": attempted, "failed": failed, "failures": failures,
              "metrics": metrics, "samples": samples,
              "repetitions": [{k: v for k, v in r.items() if k != "versions"} for r in reps]}
    results = os.path.join(OUT_BASE, "results")
    os.makedirs(results, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = os.path.join(results, f"{workload}_seed{args.seed}_trace{args.trace}_{stamp}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"   result set and manifest: {os.path.relpath(path, ROOT)}")
    units = {m["name"]: m["unit"] for m in declared}
    return ({name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            attempted, failed)


def main(argv=None):
    ap = argparse.ArgumentParser(description="nsassim benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measuring time per untraced run (default 20)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced run")
    args = ap.parse_args(argv)

    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    try:
        for w in workloads:
            m, a, f = bench_one(args, w)
            attempted += a
            failed += f
            metrics.update(m if len(workloads) == 1 else
                           {f"{w}/{k}": v for k, v in m.items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
