"""Experiment construction and orchestration for the capped-queue study.

Builds the birth-death queue chain, wires presets (three agents, the fixed
polling matrix, discount 0.9), and runs the full pipeline: exact fixed
point, coupled and uncoupled learning runs, metrics, and error bounds.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import analysis, augmented, chain as chain_mod, learner
from .analysis import ErrorReport, MetricsSeries
from .augmented import FixedPoint
from .chain import Criterion, MarkovModel
from .errors import StructuralError
from .features import BasisEnsemble, build_queue_bases, orthogonalize_ensemble
from .gossip import GossipMatrix
from .learner import PowerSchedule, RunConfig, Trajectory


@dataclass(frozen=True)
class QueueSpec:
    """Single-server queue with capped length and Bernoulli arrivals/departures."""

    cap: int = 50
    p_arrival: float = 0.3
    p_departure: float = 0.35
    cost_rule: str = "current"  # charge the current length, or "next"

    def __post_init__(self):
        if self.cap < 1:
            raise StructuralError("queue cap must be >= 1")
        if not (0 < self.p_arrival < 1 and 0 < self.p_departure < 1):
            raise StructuralError("arrival/departure probabilities must lie in (0,1)")
        if self.cost_rule not in ("current", "next"):
            raise StructuralError(f"unknown cost rule {self.cost_rule!r}")


def build_queue_chain(spec: QueueSpec) -> MarkovModel:
    """Queue-length chain on {0..cap}.

    Each slot draws an arrival and a departure independently; the length
    moves by their difference, clamped to [0, cap]. Every state keeps a
    self-loop, so the chain is aperiodic and the orthogonal contraction
    factor is strictly below 1.
    """
    m = spec.cap + 1
    P = np.zeros((m, m))
    pa, pd = spec.p_arrival, spec.p_departure
    outcomes = [
        (0, 0, (1 - pa) * (1 - pd)),
        (1, 0, pa * (1 - pd)),
        (0, 1, (1 - pa) * pd),
        (1, 1, pa * pd),
    ]
    for i in range(m):
        for a, d, prob in outcomes:
            j = min(max(i + a - d, 0), spec.cap)
            P[i, j] += prob
    if spec.cost_rule == "current":
        c = np.tile(np.arange(m, dtype=float)[:, None], (1, m))
    else:
        c = np.tile(np.arange(m, dtype=float)[None, :], (m, 1))
    return MarkovModel(P=P, c=c)


@dataclass(frozen=True)
class ExperimentConfig:
    model: MarkovModel
    gossip: GossipMatrix
    bases: BasisEnsemble
    orthogonalize: bool | None = None  # default: True for average cost
    run: RunConfig = field(default_factory=lambda: RunConfig(steps=200_000))
    out_dir: str = "out"

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        doc = dict(doc)
        preset = doc.pop("preset", None)
        if preset is not None:
            base = _preset_dict(preset)
            base.update(doc)
            doc = base

        if "chain" in doc:
            model = MarkovModel(
                P=np.array(doc["chain"]["P"], dtype=float),
                c=np.array(doc["chain"]["c"], dtype=float),
            )
        else:
            model = build_queue_chain(QueueSpec(**doc.get("queue", {})))

        gdoc = doc.get("gossip", {"preset": "queue-3"})
        if "preset" in gdoc:
            gm = GossipMatrix.preset(gdoc["preset"])
        else:
            gm = GossipMatrix(q=np.array(gdoc["Q"], dtype=float))

        bdoc = doc.get("bases", {"preset": "queue-3"})
        if "preset" in bdoc:
            if bdoc["preset"] != "queue-3":
                raise StructuralError(f"unknown basis preset {bdoc['preset']!r}")
            bases = build_queue_bases(model.m)
        else:
            bases = BasisEnsemble.from_dict(bdoc)

        # The criterion is named here only; it reaches the rest as a Criterion.
        criterion = doc.get("criterion", "discounted")
        if criterion not in ("discounted", "average"):
            raise StructuralError(f"unknown criterion {criterion!r}")
        alpha = doc.get("alpha", 0.9) if criterion == "discounted" else None
        if criterion == "discounted" and alpha is None:
            raise StructuralError("discounted mode needs alpha in (0,1)")
        run_doc = {"steps": 200_000, **doc.get("run", {})}
        if isinstance(run_doc.get("schedule"), dict):
            run_doc["schedule"] = PowerSchedule(**run_doc["schedule"])
        run_doc["criterion"] = Criterion(alpha, run_doc.pop("k", 1.0))
        return cls(
            model=model,
            gossip=gm,
            bases=bases,
            orthogonalize=doc.get("orthogonalize"),
            run=RunConfig(**run_doc),
            out_dir=doc.get("out_dir", "out"),
        )

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _preset_dict(name: str) -> dict:
    if name == "queue-3-discounted":
        return {
            "queue": {},
            "gossip": {"preset": "queue-3"},
            "bases": {"preset": "queue-3"},
            "criterion": "discounted",
            "alpha": 0.9,
        }
    if name == "queue-3-average":
        return {
            "queue": {},
            "gossip": {"preset": "queue-3"},
            "bases": {"preset": "queue-3"},
            "criterion": "average",
            "alpha": None,
            "orthogonalize": True,
        }
    raise StructuralError(f"unknown experiment preset {name!r}")


@dataclass(frozen=True)
class ExperimentResult:
    fixed_point: FixedPoint
    error_report: ErrorReport
    coupled: Trajectory
    uncoupled: Trajectory
    coupled_metrics: MetricsSeries
    uncoupled_metrics: MetricsSeries
    bases: BasisEnsemble  # possibly orthogonalized
    runtime_seconds: float
    files: tuple


def prepare(config: ExperimentConfig):
    """Validated (eta, bases, augmented system, fixed point) for a config."""
    chain_mod.validate_chain(config.model)
    eta = chain_mod.stationary_distribution(config.model)
    criterion = config.run.criterion
    bases = config.bases
    orth = config.orthogonalize
    if orth is None:
        orth = criterion.average
    if orth:
        bases = orthogonalize_ensemble(bases, eta)
    aug = augmented.build_augmented(config.model, config.gossip, bases, eta)
    return eta, bases, aug, augmented.solve_fixed_point(aug, criterion)



def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Full pipeline; writes CSVs and a JSON summary under config.out_dir.

    Partial outputs are deleted when any stage fails.
    """
    start = time.monotonic()
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        eta, bases, aug, fp = prepare(config)

        coupled = learner.run(config.model, bases, config.gossip, config.run)
        uncoupled = learner.run(
            config.model, bases, None, replace(config.run, mode="uncoupled")
        )
        coupled_metrics = analysis.metrics_over_time(coupled, config.model, bases, eta)
        uncoupled_metrics = analysis.metrics_over_time(
            uncoupled, config.model, bases, eta
        )
        report = analysis.compute_errors(
            config.model, bases, config.gossip, config.run.criterion, fp, eta
        )

        def _write(name, writer):
            path = out / name
            writer(path)
            written.append(path)
            return path

        _write("fixed_point.json", lambda p: p.write_text(fp.to_json()))
        _write("error_report.json", lambda p: p.write_text(report.to_json()))
        _write("coupled_weights.csv", coupled.write_weights_csv)
        _write("uncoupled_weights.csv", uncoupled.write_weights_csv)
        _write("coupled_metrics.csv", coupled_metrics.write_csv)
        _write("uncoupled_metrics.csv", uncoupled_metrics.write_csv)
        if config.run.criterion.average:
            _write("coupled_mu.csv", coupled.write_mu_csv)
            _write("uncoupled_mu.csv", uncoupled.write_mu_csv)
        runtime = time.monotonic() - start
        summary = {
            "fixed_point": json.loads(fp.to_json()),
            "error_report": json.loads(report.to_json()),
            "runtime_seconds": runtime,
        }
        _write(
            "summary.json", lambda p: p.write_text(json.dumps(summary, indent=2))
        )
    except Exception:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return ExperimentResult(
        fixed_point=fp,
        error_report=report,
        coupled=coupled,
        uncoupled=uncoupled,
        coupled_metrics=coupled_metrics,
        uncoupled_metrics=uncoupled_metrics,
        bases=bases,
        runtime_seconds=runtime,
        files=tuple(str(p) for p in written),
    )
