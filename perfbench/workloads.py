"""The benchmark's workloads: inputs made from the seed, one op, and its checks.

Every op calls ``gossiptd.cli.main`` in-process, the entry point users call,
on config files written before the timed interval. The checks run after the
op returns and read only what the op produced.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

RESIDUAL_TOL = 1e-9
FIXED_POINT_REL_TOL = 1e-9
ETA_TOL = 1e-10  # max |eta - closed form|, the package's stationary tolerance

SIM_STEPS = 20_000
PRESET_WEIGHTS_PER_RECORD = 4 + 3 + 2  # queue-3 basis sizes

ORACLE_CAP = 120
ORACLE_POOL = 16  # distinct inputs, reused cyclically when more ops run
ORACLE_ALPHA = 0.9
PRESET_PA, PRESET_PD, PRESET_CAP = 0.3, 0.35, 50
# The queue-3 polling matrix, restated so the checks do not read it back
# from the program under test.
QUEUE3_Q = np.array(
    [[5 / 12, 5 / 12, 1 / 6], [1 / 4, 1 / 4, 1 / 2], [1 / 3, 1 / 3, 1 / 3]]
)


def call_cli(argv):
    """(exit code, stdout, stderr) of one in-process ``gossiptd`` call."""
    from gossiptd import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def _op_seed(seed: int, i: int) -> int:
    return (seed * 100_003 + i) % 2**31


class SimWorkload:
    """``gossiptd run`` on a preset, one run seed per op."""

    REFERENCE = "python"  # the host-speed kernel: the TD loop is interpreter-bound

    def __init__(self, seed, workdir, preset, record_every):
        self.seed = seed
        self.workdir = Path(workdir)
        self.average = preset == "queue-3-average"
        self.record_every = record_every
        self.config = self.workdir / "config.json"
        self.config.write_text(
            json.dumps(
                {
                    "preset": preset,
                    "run": {"steps": SIM_STEPS, "record_every": record_every},
                }
            )
        )
        steps = list(range(0, SIM_STEPS + 1, record_every))
        if steps[-1] != SIM_STEPS:
            steps.append(SIM_STEPS)
        self.record_steps = [str(s) for s in steps]
        self.expected_files = {
            "fixed_point.json",
            "error_report.json",
            "summary.json",
            "coupled_weights.csv",
            "uncoupled_weights.csv",
            "coupled_metrics.csv",
            "uncoupled_metrics.csv",
        }
        if self.average:
            self.expected_files |= {"coupled_mu.csv", "uncoupled_mu.csv"}
        self.first_digest = None

    def run_op(self, i, out_name=None):
        out = self.workdir / (out_name or f"op{i}")
        argv = ["run", str(self.config), "--seed", str(_op_seed(self.seed, i))]
        code, stdout, stderr = call_cli(argv + ["--out", str(out)])
        return {"i": i, "codes": [code], "stdout": [stdout], "stderr": stderr, "out": out}

    def check(self, res):
        """(errors, artifact bytes) for one op; discards its output directory."""
        try:
            errors = self._check(res)
            size = sum(p.stat().st_size for p in res["out"].iterdir())
            size += len(res["stdout"][0].encode())
            if res["i"] == 0 and not errors:
                self.first_digest = self._digest(res["out"])
        finally:
            shutil.rmtree(res["out"], ignore_errors=True)
        return errors, size

    def _check(self, res):
        if res["codes"] != [0]:
            return [f"exit code {res['codes'][0]}: {res['stderr'].strip()}"]
        out = res["out"]
        files = {p.name for p in out.iterdir()}
        if files != self.expected_files:
            return [f"artifact set {sorted(files)}"]
        errors = []
        printed = json.loads(res["stdout"][0])
        if {Path(f).name for f in printed["files"]} != self.expected_files:
            errors.append("printed file list differs from the artifact set")
        for name in ("fixed_point.json", "error_report.json", "summary.json"):
            if not _all_finite(json.loads((out / name).read_text())):
                errors.append(f"{name}: non-finite value")
        residual = json.loads((out / "summary.json").read_text())["fixed_point"][
            "residual"
        ]
        if not residual <= RESIDUAL_TOL:
            errors.append(f"summary.json residual {residual!r}")
        for run in ("coupled", "uncoupled"):
            errors += self._check_csv(
                out / f"{run}_weights.csv", PRESET_WEIGHTS_PER_RECORD
            )
            errors += self._check_csv(out / f"{run}_metrics.csv", 1)
            if self.average:
                errors += self._check_csv(out / f"{run}_mu.csv", 1)
        return errors

    def _check_csv(self, path, rows_per_record):
        """Step column follows the record schedule; every field is finite."""
        expected = len(self.record_steps) * rows_per_record
        n = 0
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                if n == expected:
                    return [f"{path.name}: more than {expected} rows"]
                if row[0] != self.record_steps[n // rows_per_record]:
                    return [f"{path.name}: row {n + 1} has step {row[0]}"]
                if not all(math.isfinite(float(v)) for v in row):
                    return [f"{path.name}: non-finite value in row {n + 1}"]
                n += 1
        return [] if n == expected else [f"{path.name}: {n} rows, expected {expected}"]

    @staticmethod
    def _digest(out):
        digest = {}
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            if path.name == "summary.json":
                data = b"\n".join(
                    line
                    for line in data.split(b"\n")
                    if not line.lstrip().startswith(b'"runtime_seconds"')
                )
            digest[path.name] = hashlib.sha256(data).hexdigest()
        return digest

    def check_reproducible(self):
        """Rerun op 0's seed; outputs must match byte for byte but the runtime."""
        if self.first_digest is None:
            return ["op 0 failed, so reproducibility was not checked"]
        res = self.run_op(0, out_name="repro")
        try:
            if res["codes"] != [0]:
                return [f"repro exit code {res['codes'][0]}"]
            digest = self._digest(res["out"])
        finally:
            shutil.rmtree(res["out"], ignore_errors=True)
        differ = sorted(k for k in digest if digest[k] != self.first_digest.get(k))
        return [f"rerun of op 0 differs in {differ}"] if differ else []


def queue_matrix(cap, pa, pd):
    """Capped birth-death queue: up w.p. pa(1-pd), down w.p. (1-pa)pd."""
    m = cap + 1
    up, down = pa * (1 - pd), (1 - pa) * pd
    P = np.zeros((m, m))
    idx = np.arange(m)
    P[idx[:-1], idx[:-1] + 1] = up
    P[idx[1:], idx[1:] - 1] = down
    P[idx, idx] = 1.0 - P.sum(axis=1)
    return P


def stretched_queue_bases(cap):
    """The queue-3 features with every breakpoint scaled by cap/50."""
    from gossiptd.features import BasisEnsemble, FeatureBasis

    s = cap / PRESET_CAP
    i = np.arange(cap + 1, dtype=float)
    phis = [
        [i > 5 * s, i > 10 * s, i > 20 * s, i / i.mean()],
        [np.abs(i - 25 * s) < 5 * s, np.abs(i - 35 * s) < 10 * s, i**2 / (i**2).mean()],
        [np.sqrt(i) / np.sqrt(i).mean(), i > 30 * s],
    ]
    return BasisEnsemble(
        bases=tuple(
            FeatureBasis(np.column_stack([np.asarray(c, dtype=float) for c in cols]), k)
            for k, cols in enumerate(phis)
        )
    )


class OracleWorkload:
    """``solve`` then ``bounds`` for both criteria on a cap-120 queue."""

    REFERENCE = "bool-matmul"  # the host-speed kernel: most time is boolean matrix powers

    def __init__(self, seed, workdir):
        self.workdir = Path(workdir)
        rng = np.random.default_rng(seed)
        preset_ratio = (PRESET_PA * (1 - PRESET_PD)) / ((1 - PRESET_PA) * PRESET_PD)
        ratio = preset_ratio ** (PRESET_CAP / ORACLE_CAP)
        m = ORACLE_CAP + 1
        bases = stretched_queue_bases(ORACLE_CAP)
        bases_doc = json.loads(bases.to_json())
        self.phis = [b.phi for b in bases.bases]
        cost = np.repeat(np.arange(m, dtype=float)[:, None], m, axis=1)
        self.inputs = []
        for k in range(ORACLE_POOL):
            pd = 0.35 * (1 + rng.uniform(-0.01, 0.01))
            pa = ratio * pd / (1 - pd + ratio * pd)
            P = queue_matrix(ORACLE_CAP, pa, pd)
            doc = {
                "chain": {"P": P.tolist(), "c": cost.tolist()},
                "gossip": {"preset": "queue-3"},
                "bases": bases_doc,
            }
            paths = {}
            for criterion, extra in (
                ("discounted", {"alpha": ORACLE_ALPHA}),
                ("average", {"orthogonalize": True}),
            ):
                paths[criterion] = self.workdir / f"input{k}_{criterion}.json"
                paths[criterion].write_text(
                    json.dumps(dict(doc, criterion=criterion, **extra))
                )
            self.inputs.append({"P": P, "ratio": ratio, "paths": paths})
        self._eta_checked = {}

    def run_op(self, i):
        paths = self.inputs[i % ORACLE_POOL]["paths"]
        codes, stdout, stderr = [], [], ""
        for criterion in ("discounted", "average"):
            for command in ("solve", "bounds"):
                code, out, err = call_cli([command, str(paths[criterion])])
                codes.append(code)
                stdout.append(out)
                stderr += err
        return {"i": i, "codes": codes, "stdout": stdout, "stderr": stderr}

    def check(self, res):
        size = sum(len(s.encode()) for s in res["stdout"])
        if res["codes"] != [0, 0, 0, 0]:
            return [f"exit codes {res['codes']}: {res['stderr'].strip()}"], size
        k = res["i"] % ORACLE_POOL
        docs = [json.loads(s) for s in res["stdout"]]
        errors = [f"output {j}: non-finite value" for j, d in enumerate(docs) if not _all_finite(d)]
        inp = self.inputs[k]
        m = ORACLE_CAP + 1
        eta = inp["ratio"] ** np.arange(m)
        eta /= eta.sum()
        cbar = np.arange(m, dtype=float)
        mu_star = float(eta @ cbar)
        errors += self._check_eta(k, eta)
        for (solved, bounds), criterion in zip(
            (docs[0:2], docs[2:4]), ("discounted", "average")
        ):
            if not solved["residual"] <= RESIDUAL_TOL:
                errors.append(f"{criterion}: solve residual {solved['residual']!r}")
            if criterion == "average":
                if abs(solved["mu_star"] - mu_star) > FIXED_POINT_REL_TOL * mu_star:
                    errors.append(f"mu* {solved['mu_star']!r}, closed form {mu_star!r}")
                phis = [phi - eta @ phi for phi in self.phis]
                alpha, target = 1.0, cbar - mu_star
            else:
                phis, alpha, target = self.phis, ORACLE_ALPHA, cbar
            err = projected_equation_error(
                inp["P"], QUEUE3_Q, phis, eta, alpha, target, solved["r_star"]
            )
            if not err <= FIXED_POINT_REL_TOL:
                errors.append(f"{criterion}: r* misses the projected equation by {err:.2e}")
            e, e_star = np.array(bounds["e"]), np.array(bounds["e_star"])
            if not np.all(e >= e_star):
                errors.append(f"{criterion}: e {e.tolist()} below e* {e_star.tolist()}")
        return errors, size

    def _check_eta(self, k, eta):
        """The program's stationary law against eta proportional to ratio^i."""
        if k not in self._eta_checked:
            from gossiptd.chain import MarkovModel, stationary_distribution

            P = self.inputs[k]["P"]
            got = stationary_distribution(MarkovModel(P=P, c=np.zeros_like(P))).eta
            dev = float(np.max(np.abs(got - eta)))
            self._eta_checked[k] = [] if dev <= ETA_TOL else [f"eta off closed form by {dev:.2e}"]
        return self._eta_checked[k]


def projected_equation_error(P, Q, phis, eta, alpha, target, r_star):
    """Normwise backward error of r* in the projected fixed-point equation.

    Block (i, j) of A is (1/n)(alpha q_ij Phi_i^T D P Phi_j - delta_ij
    Phi_i^T D Phi_i) and b_i = -(1/n) Phi_i^T D target, assembled from the
    factors without forming the lifted chain.
    """
    n = len(phis)
    DP = eta[:, None] * P
    rows, b = [], []
    for i, phi_i in enumerate(phis):
        row = []
        for j, phi_j in enumerate(phis):
            block = alpha * Q[i, j] * (phi_i.T @ DP @ phi_j)
            if i == j:
                block -= phi_i.T @ (eta[:, None] * phi_i)
            row.append(block / n)
        rows.append(np.hstack(row))
        b.append(-(phi_i.T @ (eta * target)) / n)
    A, b = np.vstack(rows), np.concatenate(b)
    r = np.asarray(r_star, dtype=float)
    scale = np.linalg.norm(A, 2) * np.linalg.norm(r) + np.linalg.norm(b)
    return float(np.linalg.norm(A @ r - b) / scale)


def make_workload(name, seed, workdir):
    if name == "sim-discounted":
        return SimWorkload(seed, workdir, "queue-3-discounted", record_every=1000)
    if name == "sim-average-dense":
        return SimWorkload(seed, workdir, "queue-3-average", record_every=10)
    if name == "oracle-scaled":
        return OracleWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
