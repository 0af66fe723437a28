"""gossiptd benchmark: closed-loop workloads with one client each.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sim-discounted --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs the
traced profile (default BLAS threads, then one BLAS thread) and prints the
per-layer metrics. Each workload runs in fresh worker processes that import
``gossiptd`` from ``src/``. Every line but the last is for people; the last
line of stdout is one JSON object. See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sim-discounted", "sim-average-dense", "oracle-scaled")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0
TAIL_BEYOND = 10
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")


class BenchError(Exception):
    pass


def worker_env(blas_threads=None):
    """The caller's environment with the library-default BLAS pool, or a set one."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    return env


def spawn(args, mode, workdir, env, deadline):
    """Start one worker; returns (seconds until READY, its JSON result or None)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--workdir", str(workdir),
        "--src", str(SRC),
    ]  # fmt: skip
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or line.strip() != "READY":
        late = " at the deadline" if time.monotonic() >= deadline else ""
        raise BenchError(f"{mode} worker exited with code {code}{late}")
    if mode == "setup":
        return ready, None
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker printed no result")
    return ready, json.loads(lines[-1])


def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it, but never below the median: with fewer than 2 * TAIL_BEYOND + 2
    samples no percentile above the median has that many beyond it."""
    ordered = sorted(values)
    k = max(len(ordered) - TAIL_BEYOND - 1, len(ordered) // 2)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def run_timed(args, workdir, deadline):
    env = worker_env()
    setups = [spawn(args, "setup", workdir, env, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
    ready, res = spawn(args, "timed", workdir, env, deadline)
    setups.append(ready)
    op_raw, kernel, refs = res["op_s"], res["reference"], res["ref_s"]
    # Op i is bracketed by reference timings i and i + 1.
    op_s = [hostspeed.adjust(t, kernel, refs[i], refs[i + 1]) for i, t in enumerate(op_raw)]
    tail_s, pct = tail(op_s)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s_p50": statistics.median(op_s),
        "op_s_tail": tail_s,
        "ops_per_s": len(op_s) / sum(op_s),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = [
        f"op times are at nominal host speed: the {kernel} reference kernel took"
        f" {1e3 * statistics.median(refs):.2f} ms (median) against a nominal"
        f" {1e3 * hostspeed.NOMINAL_S[kernel]:.2f} ms",
        f"raw: op_s_p50 {statistics.median(op_raw):.6g} op_s_tail {tail(op_raw)[0]:.6g}"
        f" ops_per_s {len(op_raw) / res['busy_s']:.6g}",
        f"op_s_tail is p{pct:.1f} of {len(op_s)} timed ops",
        f"setup_s is the median of {len(setups)} spawns",
        f"ops_attempted {res['attempted']}; reproducibility rerun: {res['repro']}",
        f"ops_failed {len(res['failures'])}",
    ]
    return metrics, res, notes


def run_traced(args, workdir, deadline):
    _, res = spawn(args, "traced", workdir, worker_env(), deadline)
    _, one = spawn(args, "traced", workdir, worker_env(blas_threads=1), deadline)
    metrics = dict(res["metrics"])
    for name in layers.TIMED + tuple(n for n, _ in layers.PROBES):
        metrics[f"blas1.{name}"] = one["metrics"][name]
    merged = {
        "attempted": res["attempted"] + one["attempted"],
        "failures": res["failures"] + one["failures"],
        "environment": res["environment"],
    }
    notes = [
        f"blas1 environment: {json.dumps(one['environment']['blas'])}",
        f"ops_attempted {merged['attempted']}",
        f"ops_failed {len(merged['failures'])}",
    ]
    return metrics, merged, notes


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_definition():
    """BENCHMARK.json must name exactly the workloads and metrics made here."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = (
        tuple(w["name"] for w in doc["workloads"]),
        [(m["name"], m["unit"]) for m in doc["end_to_end"]],
        [(m["name"], m["unit"]) for m in doc["per_layer"]],
    )
    made = (WORKLOADS, list(layers.END_TO_END), layers.per_layer_metrics())
    if listed != made:
        raise BenchError("BENCHMARK.json does not match perfbench/layers.py")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gossiptd" / "__init__.py").is_file():
        print(f"error: no gossiptd sources under {SRC}", file=sys.stderr)
        return 2
    try:
        check_definition()
        if not compileall.compile_dir(str(SRC), quiet=1):
            raise BenchError("gossiptd sources do not compile")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        units = dict(layers.per_layer_metrics() if args.trace else layers.END_TO_END)
        for name in names:
            run_args = argparse.Namespace(**{**vars(args), "workload": name})
            workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
            deadline = time.monotonic() + DEADLINE_S
            try:
                runner = run_traced if args.trace else run_timed
                metrics, res, notes = runner(run_args, workdir, deadline)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
                try:
                    workdir.parent.rmdir()
                except OSError:
                    pass
            env = dict(res["environment"], git_commit=git_commit(), source=source_digest())
            print(f"# {name}: environment {json.dumps(env)}")
            for failure in res["failures"]:
                print(f"# {name}: failed op {failure['op']}: {'; '.join(failure['errors'])}")
            for note in notes:
                print(f"# {name}: {note}")
            prefix = f"{name}." if args.workload == "all" else ""
            for metric, unit in units.items():
                value = metrics[metric]
                print(f"{name} {metric} {value:.6g} {unit}")
                result["metrics"][prefix + metric] = {"value": value, "unit": unit}
            result["attempted"] += res["attempted"]
            result["failed"] += len(res["failures"])
        result["correct"] = result["failed"] == 0
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
