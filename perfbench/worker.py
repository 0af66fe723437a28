"""One workload in one fresh process: set up, signal READY, run, report.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``. Modes:

- ``setup``: make the inputs, print READY, exit (``setup_s`` samples);
- ``timed``: one warm-up op, then an untraced closed loop for ``--seconds``
  of op time, with the host-speed reference timed between ops;
- ``traced``: one warm-up op, then a fixed number of ops each run untraced
  and traced, then the accuracy probes.

The last line of stdout is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import hostspeed
import probes
import workloads

# Approximate op times on the 2-core machine the benchmark was written on.
# They only size the traced run to about --seconds, so its op count depends
# on nothing measured in the run itself.
NOMINAL_OP_S = {"sim-discounted": 1.1, "sim-average-dense": 1.7, "oracle-scaled": 1.7}
MIN_TRACED_OPS = 3
WARMUP_OP = -1  # an op index the timed ops do not use


def _run_checked(wl, i, failures, after_op=None):
    """Run op i; returns its wall time and artifact bytes, appends failures.

    ``after_op`` is called as soon as the op returns, before its checks.
    """
    start = time.perf_counter()
    try:
        res, raised = wl.run_op(i), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        res, raised = None, exc
    elapsed = time.perf_counter() - start
    if after_op is not None:
        after_op()
    if raised is not None:
        failures.append({"op": i, "errors": [f"raised {raised!r}"]})
        return elapsed, 0
    try:
        errors, size = wl.check(res)
    except Exception as exc:  # so is output the checks cannot read
        errors, size = [f"check raised {exc!r}"], 0
    if errors:
        failures.append({"op": i, "errors": errors})
    return elapsed, size


def timed(wl, seconds):
    """Closed loop, one client: the next op starts when the last one returned.

    The loop stops once ``seconds`` of op time have accumulated; checks run
    between ops and are not counted. The host-speed reference is timed
    before the first op and right after each op, so ``ref_s[i]`` and
    ``ref_s[i + 1]`` bracket op i.
    One untimed warm-up op runs first: lazy imports and first calls are
    paid once per process, and the traced run reports them as
    ``trace.first_op_s``.
    """
    failures, op_s = [], []
    _run_checked(wl, WARMUP_OP, failures)
    ref_s = [hostspeed.reference(wl.REFERENCE)]
    busy = 0.0
    while busy < seconds:
        elapsed, _ = _run_checked(
            wl,
            len(op_s),
            failures,
            after_op=lambda: ref_s.append(hostspeed.reference(wl.REFERENCE)),
        )
        op_s.append(elapsed)
        busy += elapsed
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, repro = len(op_s) + 1, "not applicable"
    if isinstance(wl, workloads.SimWorkload):
        attempted += 1
        try:
            errors = wl.check_reproducible()
        except Exception as exc:  # a raising rerun fails the check, not the run
            errors = [f"rerun raised {exc!r}"]
        repro = "failed" if errors else "identical"
        if errors:
            failures.append({"op": "repro", "errors": errors})
    return {
        "op_s": op_s,
        "reference": wl.REFERENCE,
        "ref_s": ref_s,
        "busy_s": busy,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failures": failures,
        "repro": repro,
    }


def traced(wl, name, seconds):
    """Per-layer self times per op from spans, with the untraced baseline."""
    import layers
    import tracer as tr
    from gossiptd import cli, learner, analysis

    n_ops = max(MIN_TRACED_OPS, int(seconds / (4 * NOMINAL_OP_S[name])))
    failures = []
    # Warm-up on an input the traced ops do not use: lazy imports, first calls.
    first_op_s, _ = _run_checked(wl, WARMUP_OP, failures)

    tracer = tr.Tracer()
    tracer.install(
        "gossiptd",
        extra=[
            (cli, "_load_config", "cli.load_config"),
            (learner.Trajectory, "write_weights_csv", "learner.write_csv"),
            (learner.Trajectory, "write_mu_csv", "learner.write_csv"),
            (analysis.MetricsSeries, "write_csv", "analysis.write_csv"),
        ],
    )
    # Each op runs untraced, then traced on the same input, so drift over the
    # run cancels out of trace.overhead_s.
    plain, walls, sizes = [], {}, {}
    try:
        for i in range(n_ops):
            plain.append(_run_checked(wl, i, failures)[0])
            tracer.op = i
            try:
                walls[i], sizes[i] = _run_checked(wl, i, failures)
            finally:
                tracer.op = None
    finally:
        tracer.uninstall()

    metrics = layers.derive(
        tracer.self_times(), tracer.counts, walls, plain, list(sizes.values())
    )
    metrics["trace.first_op_s"] = first_op_s
    metrics.update(probes.accuracy_probes())
    return {
        "attempted": 2 * n_ops + 1,
        "failures": failures,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True)
    args = parser.parse_args(argv)

    import gossiptd

    src = Path(args.src).resolve()
    if src not in Path(gossiptd.__file__).resolve().parents:
        print(f"gossiptd imported from {gossiptd.__file__}, not {src}", file=sys.stderr)
        return 2
    Path(args.workdir).mkdir(parents=True, exist_ok=True)
    wl = workloads.make_workload(args.workload, args.seed, args.workdir)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "timed":
        result = timed(wl, args.seconds)
    else:
        result = traced(wl, args.workload, args.seconds)
    result["environment"] = probes.environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
