"""Per-agent linear feature bases and weighted projections.

A basis is an m x n_i matrix of feature columns; projections are taken in
the stationary-weighted inner product. The average-cost setting additionally
needs bases orthogonalized against the constant vector.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .chain import StationaryWeights, weighted_norm
from .errors import AssumptionViolationError, NumericalError, StructuralError


@dataclass(frozen=True)
class FeatureBasis:
    """Feature matrix phi (m x n_i) for one agent."""

    phi: np.ndarray
    agent_id: int = 0

    def __post_init__(self):
        phi = np.atleast_2d(np.asarray(self.phi, dtype=float))
        object.__setattr__(self, "phi", phi)

    @property
    def m(self) -> int:
        return self.phi.shape[0]

    @property
    def n_features(self) -> int:
        return self.phi.shape[1]


@dataclass(frozen=True)
class BasisEnsemble:
    """One FeatureBasis per agent, all over the same state space."""

    bases: tuple

    def __post_init__(self):
        bases = tuple(self.bases)
        if not bases:
            raise StructuralError("ensemble needs at least one basis")
        m = bases[0].m
        if any(b.m != m for b in bases):
            raise StructuralError("all bases must share the same state count")
        object.__setattr__(self, "bases", bases)

    @property
    def n_agents(self) -> int:
        return len(self.bases)

    @property
    def m(self) -> int:
        return self.bases[0].m

    @property
    def sizes(self) -> tuple:
        return tuple(b.n_features for b in self.bases)

    def split(self, r: np.ndarray) -> list:
        """Split a concatenated weight vector into per-agent pieces."""
        return np.split(np.asarray(r), np.cumsum(self.sizes)[:-1])

    def to_json(self) -> str:
        return json.dumps({"agents": [{"phi": b.phi.tolist()} for b in self.bases]})

    @classmethod
    def from_json(cls, text: str) -> "BasisEnsemble":
        doc = json.loads(text)
        return cls(
            bases=tuple(
                FeatureBasis(phi=np.array(a["phi"], dtype=float), agent_id=i)
                for i, a in enumerate(doc["agents"])
            )
        )


def validate_independence(basis: FeatureBasis) -> None:
    """Require numerically full column rank, per (A1)."""
    phi = basis.phi
    if phi.shape[0] < phi.shape[1]:
        raise AssumptionViolationError(
            "(A1)", f"agent {basis.agent_id}: more features than states"
        )
    sv = np.linalg.svd(phi, compute_uv=False)
    tol = phi.shape[0] * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    rank = int(np.sum(sv > tol))
    if rank != phi.shape[1]:
        raise AssumptionViolationError(
            "(A1)",
            f"agent {basis.agent_id}: feature columns are linearly dependent "
            f"(rank {rank} < {phi.shape[1]})",
        )


def projection_apply(
    basis: FeatureBasis, eta: StationaryWeights, x: np.ndarray
) -> np.ndarray:
    """Weighted projection of x onto the span of the basis columns."""
    phi = basis.phi
    d = eta.eta
    gram = phi.T @ (d[:, None] * phi)
    rhs = phi.T @ (d * x)
    try:
        coeffs = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"agent {basis.agent_id}: weighted Gram matrix is singular"
        ) from exc
    return phi @ coeffs


def projection_onto_ones_complement(
    eta: StationaryWeights, x: np.ndarray
) -> np.ndarray:
    """Project x onto the subspace weighted-orthogonal to the constant vector."""
    return x - float(eta.eta @ x) * np.ones_like(x)


def orthogonalize_against_ones(
    basis: FeatureBasis, eta: StationaryWeights
) -> FeatureBasis:
    """Replace each column phi_k by phi_k - (eta^T phi_k) 1.

    Raises when a column collapses (e.g. a constant feature) and the result
    loses rank.
    """
    d = eta.eta
    phi = basis.phi - np.ones((basis.m, 1)) * (d @ basis.phi)[None, :]
    out = FeatureBasis(phi=phi, agent_id=basis.agent_id)
    try:
        validate_independence(out)
    except AssumptionViolationError as exc:
        raise AssumptionViolationError(
            "(A1)",
            f"agent {basis.agent_id}: basis lost rank after orthogonalization "
            "against the constant vector (constant feature column?)",
        ) from exc
    return out


def orthogonalize_ensemble(
    ensemble: BasisEnsemble, eta: StationaryWeights
) -> BasisEnsemble:
    return BasisEnsemble(
        bases=tuple(orthogonalize_against_ones(b, eta) for b in ensemble.bases)
    )


def build_queue_bases(m: int = 51) -> BasisEnsemble:
    """Three-agent feature preset for the capped-queue experiment.

    States are queue lengths i = 0..m-1. Indicators are strict (I{i > 5}
    means i >= 6; I{|i - 25| < 5} means 21..29) and the polynomial features
    are normalized by arithmetic means over all states.
    """
    if m != 51:
        raise StructuralError("queue feature preset is defined for 51 states")
    i = np.arange(m, dtype=float)
    agent1 = np.column_stack(
        [
            (i > 5).astype(float),
            (i > 10).astype(float),
            (i > 20).astype(float),
            i / i.mean(),
        ]
    )
    agent2 = np.column_stack(
        [
            (np.abs(i - 25) < 5).astype(float),
            (np.abs(i - 35) < 10).astype(float),
            i**2 / (i**2).mean(),
        ]
    )
    agent3 = np.column_stack(
        [
            np.sqrt(i) / np.sqrt(i).mean(),
            (i > 30).astype(float),
        ]
    )
    ensemble = BasisEnsemble(
        bases=(
            FeatureBasis(agent1, agent_id=0),
            FeatureBasis(agent2, agent_id=1),
            FeatureBasis(agent3, agent_id=2),
        )
    )
    for b in ensemble.bases:
        validate_independence(b)
    return ensemble


def pythagoras_gap(basis: FeatureBasis, eta: StationaryWeights, x: np.ndarray) -> float:
    """|  ||x||^2 - ||Px||^2 - ||x - Px||^2  | for the weighted projection."""
    px = projection_apply(basis, eta, x)
    return abs(
        weighted_norm(x, eta) ** 2
        - weighted_norm(px, eta) ** 2
        - weighted_norm(x - px, eta) ** 2
    )
