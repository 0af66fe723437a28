"""Error bounds at the learned fixed points and run time-series metrics.

The achieved per-agent error is compared against the best representable
error of its own basis, the componentwise gossip-propagated bound, and the
scalar inequality linking the worst agent to the worst basis.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from . import chain as chain_mod
from .augmented import FixedPoint
from .chain import MarkovModel, StationaryWeights, weighted_norm
from .errors import StructuralError
from .features import BasisEnsemble, projection_apply, projection_onto_ones_complement
from .gossip import GossipMatrix
from .learner import Trajectory

ZERO_ERR = 1e-15
_METRICS_BLOCK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class ErrorReport:
    e: np.ndarray  # achieved per-agent errors
    e_star: np.ndarray  # best-in-span per-agent errors
    e2_bound: np.ndarray  # componentwise bound on squared errors
    beta: float
    side_condition_met: bool
    contraction_modulus: float  # discount alpha, or the orthogonal factor
    max_error_bound: float  # sqrt(beta / (1 - modulus^2)) * max e_star
    jbar_error: float
    jbar_bound: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "e": self.e.tolist(),
                "e_star": self.e_star.tolist(),
                "e2_bound": self.e2_bound.tolist(),
                "beta": self.beta,
                "side_condition_met": self.side_condition_met,
                "contraction_modulus": self.contraction_modulus,
                "max_error_bound": self.max_error_bound,
                "jbar_error": self.jbar_error,
                "jbar_bound": self.jbar_bound,
            }
        )


def _beta_and_side_condition(q: np.ndarray, e_star: np.ndarray, modulus: float):
    """Tightest beta making max e^2 <= beta/(1-a^2) max e*^2 via the Neumann sum."""
    n = q.shape[0]
    resolvent = np.linalg.inv(np.eye(n) - modulus**2 * q)
    qtilde = (1.0 - modulus**2) * resolvent
    e2 = e_star**2
    e2_bound = resolvent @ e2
    mx = float(np.max(e2))
    if mx < ZERO_ERR**2:
        beta = 0.0
        side = False
    else:
        beta = float(np.max(qtilde @ e2) / mx)
        side = True
        for i in np.flatnonzero(e2 >= mx - 1e-12 * max(mx, 1.0)):
            if not np.any((q[i] > 0) & (e2 < mx - 1e-12 * max(mx, 1.0))):
                side = False
    return e2_bound, beta, side


def _report(model, bases, q, target, values, eta, modulus, complement=False):
    n = bases.n_agents
    if complement:
        errs = [
            weighted_norm(projection_onto_ones_complement(eta, target - v), eta)
            for v in values
        ]
    else:
        errs = [weighted_norm(target - v, eta) for v in values]
    e = np.array(errs)
    proj_targets = [projection_apply(b, eta, target) for b in bases.bases]
    e_star = np.array([weighted_norm(target - p, eta) for p in proj_targets])

    e2_bound, beta, side = _beta_and_side_condition(q, e_star, modulus)
    max_es = float(np.max(e_star))
    max_error_bound = np.sqrt(beta / (1.0 - modulus**2)) * max_es

    jbar = np.mean(values, axis=0)
    if complement:
        jbar_error = weighted_norm(
            projection_onto_ones_complement(eta, target - jbar), eta
        )
    else:
        jbar_error = weighted_norm(target - jbar, eta)
    pi_target = np.mean(proj_targets, axis=0)
    jbar_bound = (
        (1.0 - modulus) * weighted_norm(target - pi_target, eta)
        + modulus * beta * max_es
    ) / (1.0 - modulus)

    return ErrorReport(
        e=e,
        e_star=e_star,
        e2_bound=e2_bound,
        beta=beta,
        side_condition_met=side,
        contraction_modulus=modulus,
        max_error_bound=max_error_bound,
        jbar_error=float(jbar_error),
        jbar_bound=float(jbar_bound),
    )


def compute_discounted_errors(
    model: MarkovModel,
    bases: BasisEnsemble,
    gm: GossipMatrix,
    alpha: float,
    fixed_point: FixedPoint,
    eta: StationaryWeights | None = None,
) -> ErrorReport:
    """Discounted-criterion errors against the exact value function."""
    if eta is None:
        eta = chain_mod.stationary_distribution(model)
    j_star = chain_mod.discounted_value(model, alpha)
    parts = bases.split(fixed_point.r_star)
    values = [b.phi @ r for b, r in zip(bases.bases, parts)]
    return _report(model, bases, gm.q, j_star, values, eta, alpha)


def compute_average_errors(
    model: MarkovModel,
    bases: BasisEnsemble,
    gm: GossipMatrix,
    fixed_point: FixedPoint,
    eta: StationaryWeights | None = None,
) -> ErrorReport:
    """Average-cost errors against the basic differential value, modulo
    constant shifts; requires bases orthogonalized against the constant
    vector and a single-equivalence-class chain (for the contraction factor).
    """
    if eta is None:
        eta = chain_mod.stationary_distribution(model)
    for b in bases.bases:
        if np.max(np.abs(eta.eta @ b.phi)) > 1e-8:
            raise StructuralError(
                f"agent {b.agent_id}: features are not orthogonal to the "
                "constant vector; orthogonalize the ensemble first"
            )
    alpha_p = chain_mod.orthogonal_contraction_factor(model, eta)
    j_star = chain_mod.basic_differential_value(model, eta)
    parts = bases.split(fixed_point.r_star)
    values = [b.phi @ r for b, r in zip(bases.bases, parts)]
    return _report(model, bases, gm.q, j_star, values, eta, alpha_p, complement=True)


@dataclass(frozen=True)
class MetricsSeries:
    steps: np.ndarray
    max_error: np.ndarray
    variance_weighted: np.ndarray
    variance_unweighted: np.ndarray

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["step", "max_error", "variance_weighted", "variance_unweighted"]
            )
            for row in zip(
                self.steps, self.max_error, self.variance_weighted, self.variance_unweighted
            ):
                writer.writerow([int(row[0])] + [repr(float(v)) for v in row[1:]])


def metrics_over_time(
    trajectory: Trajectory,
    model: MarkovModel,
    bases: BasisEnsemble,
    eta: StationaryWeights | None = None,
) -> MetricsSeries:
    """Per-snapshot worst-agent error and cross-agent estimate dispersion.

    The weighted variance averages ||V_i - Vbar||^2 in the stationary norm
    over agents; the unweighted variant averages the per-state population
    variance over states (both readings of the dispersion plot).
    """
    if eta is None:
        eta = chain_mod.stationary_distribution(model)
    cfg = trajectory.config
    if cfg.criterion == "discounted":
        target = chain_mod.discounted_value(model, cfg.alpha)
    else:
        target = chain_mod.basic_differential_value(model, eta)
    num = len(trajectory.steps)
    max_error = np.empty(num)
    var_w = np.empty(num)
    var_u = np.empty(num)
    w = eta.eta
    # blocks of snapshots keep the (records, agents, states) temporaries small
    block = max(1, _METRICS_BLOCK_ENTRIES // (trajectory.n_agents * model.m))
    for lo in range(0, num, block):
        recs = slice(lo, lo + block)
        # values[rec, i] = Phi_i w_i at snapshot rec
        values = np.stack(
            [r[recs] @ b.phi.T for r, b in zip(trajectory.weights, bases.bases)],
            axis=1,
        )
        diff = target - values
        if cfg.criterion == "average":
            diff -= (diff @ w)[..., None]
        diff *= diff
        max_error[recs] = np.sqrt(diff @ w).max(axis=1)
        values -= values.mean(axis=1, keepdims=True)
        values *= values
        var_w[recs] = (values @ w).mean(axis=1)
        var_u[recs] = values.mean(axis=(1, 2))
    return MetricsSeries(
        steps=trajectory.steps.copy(),
        max_error=max_error,
        variance_weighted=var_w,
        variance_unweighted=var_u,
    )
