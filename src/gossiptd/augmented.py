"""Lifted agent-state chain and direct fixed-point solvers.

The distributed iteration is analyzed through a Markov chain on pairs
(agent, state) with transition probability q(i,j) p(x,y). Its stationary
weights and block feature matrix turn the limiting dynamics into a linear
system whose solution is the convergence point of the stochastic scheme;
solving that system directly yields machine-precision oracles.

The system is assembled from the factors Q, P, the per-agent bases Phi_i
and the stationary law eta: block (i, j) of Psi^T diag(nu) (alpha rho - I) Psi
is (1/n)(alpha q_ij Phi_i^T D P Phi_j - delta_ij Phi_i^T D Phi_i) with
D = diag(eta). The lifted matrices rho (nm x nm) and Psi are built only on
demand, as references.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag

from . import chain as chain_mod
from .chain import Criterion, MarkovModel, StationaryWeights
from .errors import AssumptionViolationError, NumericalError, StructuralError
from .features import BasisEnsemble, validate_independence
from .gossip import GossipMatrix, validate_gossip

SOLVER_TOL = 1e-9
A6_TOL = 1e-8
ETA_TOL = 1e-10


@dataclass(frozen=True)
class AugmentedSystem:
    """The lifted chain over (agent, state), ordered (agent 1, state 1..m), ...

    Held as its factors. Q x P is primitive when Q and P are, because
    (Q x P)^k = Q^k x P^k, so validating the factors validates the lift.
    """

    model: MarkovModel
    gossip: GossipMatrix
    bases: BasisEnsemble
    eta: StationaryWeights

    @property
    def n_agents(self) -> int:
        return self.gossip.n

    @property
    def m(self) -> int:
        return self.model.m

    @property
    def sizes(self) -> tuple:
        return self.bases.sizes

    @property
    def nu(self) -> np.ndarray:
        """Lifted stationary weights eta / n on every agent's copy (nm)."""
        return np.tile(self.eta.eta, self.n_agents) / self.n_agents

    @property
    def ctilde(self) -> np.ndarray:
        """Lifted expected one-step cost (nm)."""
        return np.tile(chain_mod.mean_cost(self.model), self.n_agents)

    @property
    def rho(self) -> np.ndarray:
        """Lifted transition matrix Q x P (nm x nm), formed on each access."""
        return np.kron(self.gossip.q, self.model.P)

    @property
    def Psi(self) -> np.ndarray:
        """Block-diagonal feature matrix (nm x sum n_i), formed on each access."""
        return block_diag(*(b.phi for b in self.bases.bases))

    def split(self, r: np.ndarray) -> list:
        """Split a concatenated weight vector into per-agent pieces."""
        return self.bases.split(r)


@dataclass(frozen=True)
class FixedPoint:
    r_star: np.ndarray
    residual: float
    mu_star: float | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "r_star": self.r_star.tolist(),
                "mu_star": self.mu_star,
                "residual": self.residual,
            }
        )


def build_augmented(
    model: MarkovModel,
    gm: GossipMatrix,
    bases: BasisEnsemble,
    eta: StationaryWeights | None = None,
) -> AugmentedSystem:
    """Validate the factors of the lifted chain: (A1), (A2), (A3) and eta."""
    if gm.n != bases.n_agents:
        raise StructuralError(
            f"gossip matrix has {gm.n} agents but ensemble has {bases.n_agents}"
        )
    chain_mod.validate_chain(model)
    validate_gossip(gm)
    for b in bases.bases:
        validate_independence(b)
    if eta is None:
        eta = chain_mod.stationary_distribution(model)
    resid = np.max(np.abs(eta.eta @ model.P - eta.eta))
    if not resid <= ETA_TOL:
        raise AssumptionViolationError(
            "(A2)", f"eta is not stationary for P (residual {resid:.2e})"
        )
    return AugmentedSystem(model=model, gossip=gm, bases=bases, eta=eta)


def _assemble(aug: AugmentedSystem, alpha: float, target: np.ndarray):
    """A = Psi^T diag(nu) (alpha rho - I) Psi and b = -Psi^T diag(nu) target~.

    `target` is the per-state cost (m), the same on every agent's copy. All
    blocks Phi_i^T D P Phi_j come from one product over the stacked bases;
    block (i, j) is then weighted by alpha q_ij, and the diagonal blocks lose
    Phi_i^T D Phi_i.
    """
    phi = np.hstack([b.phi for b in aug.bases.bases])
    d = aug.eta.eta
    agent = np.repeat(np.arange(aug.n_agents), aug.sizes)
    coupling = alpha * aug.gossip.q[np.ix_(agent, agent)]
    same = agent[:, None] == agent[None, :]
    dphi = d[:, None] * phi
    A = coupling * (dphi.T @ (aug.model.P @ phi)) - same * (dphi.T @ phi)
    return A / aug.n_agents, -(dphi.T @ target) / aug.n_agents


def check_a6(aug: AugmentedSystem) -> None:
    """The all-ones vector must not be representable: e not in range(Psi).

    Psi is block-diagonal, so e is in its range exactly when every agent's
    basis represents the constant vector on its own.
    """
    e = np.ones(aug.m)
    for b in aug.bases.bases:
        sol, *_ = np.linalg.lstsq(b.phi, e, rcond=None)
        if np.linalg.norm(b.phi @ sol - e) / np.linalg.norm(e) > A6_TOL:
            return
    raise AssumptionViolationError(
        "(A6)", "the constant vector lies in the span of the block features"
    )


def solve_fixed_point(aug: AugmentedSystem, criterion: Criterion) -> FixedPoint:
    """Solve Psi^T diag(nu) (alpha rho - I) Psi r = -Psi^T diag(nu) (ctilde - mu* e).

    Discounted: alpha from the criterion and no mu* term. Average cost:
    alpha = 1 and mu* the average cost, which needs (A6).
    """
    if criterion.average:
        check_a6(aug)
    mu_star = criterion.mu_star(aug.model, aug.eta)
    target = chain_mod.mean_cost(aug.model) - (mu_star or 0.0)
    A, b = _assemble(aug, criterion.discount, target)
    try:
        r = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("fixed-point system is singular") from exc
    residual = float(np.linalg.norm(A @ r - b))
    if residual > SOLVER_TOL:
        raise NumericalError(f"fixed-point residual {residual:.2e} above tolerance")
    return FixedPoint(r_star=r, residual=residual, mu_star=mu_star)
