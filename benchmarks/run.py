"""fockvortex benchmark: one workload, each pipeline run in a fresh Python process.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --record-reference

Run from anywhere; the package is imported from the ``src`` directory next to
this one, never from an installed copy.  Untraced (``--trace 0``) prints the
end-to-end metrics; traced (``--trace 1``) prints the per-layer metrics and
the tracing overhead.  Every pipeline run's artifacts are checked against
reference.json.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  README.md has the
workloads, metric names, units and the layer-to-end-to-end map.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from typing import List, Optional

import check
import tracer
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH_DIR, "child.py")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
WORK = os.path.join(ROOT, ".bench_work")

WORKERS = 2
# Set before the child imports numpy: pipeline workers times BLAS threads
# stays at or below the two CPUs the benchmark is sized for.
THREAD_ENV = {"FOCKVORTEX_THREADS": str(WORKERS), "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1"}
WARM_CHILDREN = 3
WARM_REPEATS = 101
CHILD_TIMEOUT_S = 120

EXIT_SETUP = 2


class ChildFailed(Exception):
    pass


def run_child(spec: dict) -> dict:
    """Run child.py with ``spec`` in a fresh interpreter; its result."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    try:
        proc = subprocess.run([sys.executable, CHILD, json.dumps(spec)], env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child timed out after {CHILD_TIMEOUT_S}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def pipeline_spec(name: str, seed: int, out_dir: str, work_dir: str, trace: bool = False,
                  warm_repeats: int = WARM_REPEATS, cold: bool = True) -> dict:
    """child.py spec: run workload ``name`` cold into out_dir (unless ``cold`` is
    false and out_dir already holds a completed run), then rerun it warm."""
    return {"src": SRC, "argv": workloads.cli_argv(name, seed, out_dir, work_dir),
            "out_dir": out_dir, "tasks": workloads.TASKS[name], "cold": cold,
            "warm_repeats": warm_repeats, "trace": trace}


class Tally:
    """Operations attempted and failed: pipeline tasks, artifact checks, warm reruns."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: List[str] = []

    def add(self, attempted: int, errors: List[str]) -> None:
        self.attempted += attempted
        self.errors += errors


def _manifest_tasks(out_dir: str) -> List[dict]:
    try:
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            return json.load(fh)["tasks"]
    except (OSError, ValueError, KeyError):
        return []


def pipeline_run(name: str, seed: int, index: int, run_dir: str, ref: dict, tally: Tally,
                 trace: bool = False, warm_children: int = 0) -> Optional[dict]:
    """One cold child for workload ``name``, then ``warm_children`` fresh
    processes that rerun it warm; checks and tallies everything.

    Returns the cold child's result plus manifest-derived fields, with
    ``imports`` (import time) and ``warm`` (fastest of WARM_REPEATS reruns)
    per process, or None if the cold run failed.
    """
    n_tasks = workloads.TASKS[name]
    out_dir = os.path.join(run_dir, f"out{index}")
    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        try:
            result = run_child(pipeline_spec(name, seed, out_dir, run_dir, trace))
        except ChildFailed as exc:
            tally.add(n_tasks, [f"{name}: {exc}"] * n_tasks)
            return None
        tasks = _manifest_tasks(out_dir)
        task_errors = [f"task {t['name']}: {t['status']} {t.get('error', '')}"
                       for t in tasks if t["status"] != "ok"]
        task_errors += [f"{name}: pipeline exited {result['cold_exit']}: "
                        f"{result['cold_output'][-500:]}"] * (n_tasks - len(tasks))
        if result["cold_exit"] != 0 and not task_errors:
            task_errors.append(f"{name}: pipeline exited {result['cold_exit']}")
        tally.add(n_tasks, task_errors)
        if result["cold_exit"] != 0:
            return None
        checks = check.check_outputs(ref, out_dir)
        tally.add(len(checks), [f"{a}: {e}" for a, e in checks if e is not None])
        tally.add(len(result["warm_s"]), [f"warm rerun: {e}" for e in result["warm_errors"]])
        result["imports"], result["warm"] = [result["import_s"]], [min(result["warm_s"])]
        for _ in range(warm_children):
            try:
                extra = run_child(pipeline_spec(name, seed, out_dir, run_dir, cold=False))
            except ChildFailed as exc:
                tally.add(WARM_REPEATS, [f"warm rerun: {exc}"])
                continue
            tally.add(len(extra["warm_s"]), [f"warm rerun: {e}" for e in extra["warm_errors"]])
            result["imports"].append(extra["import_s"])
            result["warm"].append(min(extra["warm_s"]))
        walls = [t["wall_time_s"] for t in tasks]
        result["tasks_run"] = sum(t["status"] == "ok" for t in tasks)
        result["tasks_failed"] = sum(t["status"] == "failed" for t in tasks)
        match = re.search(r"all (\d+) tasks cached", result.pop("warm_first_output", ""))
        result["tasks_cached"] = int(match.group(1)) if match else 0
        result["critical_task_s"] = max(walls)
        result["pool_busy_share"] = sum(walls) / (WORKERS * result["cold_s"])
        result["artifact_bytes"] = sum(
            e.stat().st_size for e in os.scandir(out_dir) if e.name != "manifest.json")
        return result
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _source_sha256() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "fockvortex")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(child_env: dict, args) -> dict:
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV, "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }
    env.update(child_env)
    return env


def measure(args, ref: dict, run_dir: str, tally: Tally, start: float):
    """Untraced mode: end-to-end metrics and the samples behind them.

    Cold runs repeat while time is left, each followed by WARM_CHILDREN
    fresh processes that rerun it warm, so import and warm samples spread
    over the whole run.  A warm rerun takes about a millisecond.  At that
    scale the slower readings come from other processes on the machine,
    which slow whole seconds of a run, so warm_s is the fastest rerun, as
    ``timeit`` recommends.
    """
    runs = []
    for index in itertools.count():
        result = pipeline_run(args.workload, args.seed, index, run_dir, ref, tally,
                              warm_children=WARM_CHILDREN)
        if result is not None:
            runs.append(result)
        if time.perf_counter() - start >= args.seconds:
            break
    if not runs:
        return None, {}, {}
    imports = [t for r in runs for t in r["imports"]]
    warm = [w for r in runs for w in r["warm"]]
    metrics = {
        "setup_s": (statistics.median(imports), "s"),
        "cold_s": (statistics.median(r["cold_s"] for r in runs), "s"),
        "warm_s": (min(warm), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
    }
    samples = {"setup_s": len(imports), "cold_s": len(runs),
               "warm_s": len(warm) * WARM_REPEATS, "peak_rss_mb": len(runs)}
    return metrics, runs[0]["environment"], samples


def _layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("bytes") or key.endswith("bytes_computed"):
        return "bytes"
    if key.endswith("flops_computed"):
        return "flop"
    return "ratio" if key.endswith("_share") else "count"


def measure_traced(args, ref: dict, run_dir: str, tally: Tally, start: float):
    """Traced mode: per-layer metrics from one traced run, plus tracing overhead."""
    traced = pipeline_run(args.workload, args.seed, 0, run_dir, ref, tally, trace=True)
    untraced = []
    for index in itertools.count(1):
        result = pipeline_run(args.workload, args.seed, index, run_dir, ref, tally)
        if result is not None:
            untraced.append(result["cold_s"])
        if time.perf_counter() - start >= args.seconds:
            break
    if traced is None or not untraced:
        return None, {}, {}
    trace_file = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json")
    with open(trace_file, "w") as fh:
        json.dump({"spans": traced["spans"], "counts": traced["counts"]}, fh)
    print(f"spans written to {trace_file}")
    layer = tracer.summarize(traced["spans"], traced["counts"])
    metrics = {k: (v, _layer_unit(k)) for k, v in layer.items()}
    untraced_cold = statistics.median(untraced)
    metrics.update({
        "cli.tasks.run": (traced["tasks_run"], "count"),
        "cli.tasks.cached": (traced["tasks_cached"], "count"),
        "cli.tasks.failed": (traced["tasks_failed"], "count"),
        "cli.critical_task_s": (traced["critical_task_s"], "s"),
        "cli.pool_busy_share": (traced["pool_busy_share"], "ratio"),
        "cli.artifact_bytes": (traced["artifact_bytes"], "bytes"),
        "proc.cpu_user_s": (traced["cpu_user_s"], "s"),
        "proc.cpu_sys_s": (traced["cpu_sys_s"], "s"),
        "proc.minflt": (traced["minflt"], "count"),
        "trace.cold_s": (traced["cold_s"], "s"),
        "trace.untraced_cold_s": (untraced_cold, "s"),
        "trace.overhead_s": (traced["cold_s"] - untraced_cold, "s"),
        "trace.overhead_share": ((traced["cold_s"] - untraced_cold) / untraced_cold, "ratio"),
    })
    samples = {"trace.untraced_cold_s": len(untraced)}
    return metrics, traced["environment"], samples


def record_reference() -> int:
    ref = {}
    os.makedirs(WORK, exist_ok=True)
    run_dir = os.path.join(WORK, f"record-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        for name, n_tasks in workloads.TASKS.items():
            out_dir = os.path.join(run_dir, name)
            result = run_child(pipeline_spec(name, 0, out_dir, run_dir, warm_repeats=1))
            tasks = _manifest_tasks(out_dir)
            if result["cold_exit"] != 0 or len(tasks) != n_tasks or any(
                    t["status"] != "ok" for t in tasks):
                print(f"{name}: pipeline failed; reference not written", file=sys.stderr)
                return 1
            ref[name] = check.record(out_dir)
            print(f"{name}: {len(ref[name])} artifacts recorded")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.TASKS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="run every workload once and rewrite reference.json")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fockvortex", "cli.py")):
        print(f"error: no fockvortex sources under {SRC}", file=sys.stderr)
        return EXIT_SETUP
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        with open(REFERENCE) as fh:
            ref = json.load(fh)[args.workload]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: no reference for {args.workload}: {exc}", file=sys.stderr)
        return EXIT_SETUP

    start = time.perf_counter()
    tally = Tally()
    run_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        measure_fn = measure_traced if args.trace else measure
        metrics, child_env, samples = measure_fn(args, ref, run_dir, tally, start)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if metrics is None:
        for err in tally.errors[:20]:
            print(f"FAIL {err}", file=sys.stderr)
        print("error: no pipeline run completed; no result", file=sys.stderr)
        return 1

    for err in tally.errors[:20]:
        print(f"FAIL {err}")
    for key, (value, unit) in metrics.items():
        stat = "fastest" if key == "warm_s" else "median"
        n = f"  ({stat} of {samples[key]})" if key in samples else ""
        print(f"{key:45s} {value:>16.6g} {unit}{n}")
    print(f"operations: {tally.attempted} attempted, {len(tally.errors)} failed")
    print(json.dumps({"environment": environment(child_env, args),
                      "samples": samples}, sort_keys=True))
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": len(tally.errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
