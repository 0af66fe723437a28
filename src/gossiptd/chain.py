"""Finite Markov chain model and exact policy-evaluation quantities.

Everything here is deterministic dense linear algebra: stationary
distribution, discounted and average-cost value functions, Bellman
operators, and the contraction factor of P restricted to the subspace
orthogonal to the constant vector. `Criterion` picks, for the discounted or
the average-cost criterion, which of these quantities a computation uses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import null_space
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

from .errors import AssumptionViolationError, NumericalError, StructuralError

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10
RESIDUAL_TOL = 1e-10
POISSON_TOL = 1e-9


@dataclass(frozen=True)
class MarkovModel:
    """Transition matrix P and per-transition cost matrix c on m states."""

    P: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        c = np.asarray(self.c, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise StructuralError(f"P must be square, got shape {P.shape}")
        if c.shape != P.shape:
            raise StructuralError(f"c shape {c.shape} does not match P shape {P.shape}")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "c", c)

    @property
    def m(self) -> int:
        return self.P.shape[0]

    def to_json(self) -> str:
        return json.dumps({"P": self.P.tolist(), "c": self.c.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "MarkovModel":
        doc = json.loads(text)
        return cls(P=np.array(doc["P"], dtype=float), c=np.array(doc["c"], dtype=float))


@dataclass(frozen=True)
class StationaryWeights:
    """Stationary probability vector eta; diag(eta) is the weighting matrix."""

    eta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eta", np.asarray(self.eta, dtype=float))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    row_stochastic: bool
    irreducible: bool
    aperiodic: bool
    messages: list = field(default_factory=list)


def validate_chain(model: MarkovModel, raise_on_error: bool = True) -> ValidationReport:
    """Check row-stochasticity plus irreducibility and aperiodicity (A2)."""
    P = model.P
    messages = []

    # false on NaN or inf as well
    row_ok = bool(np.all(P >= 0) and np.all(np.abs(P.sum(axis=1) - 1.0) < ROW_SUM_TOL))
    if not row_ok:
        messages.append("rows of P must be nonnegative and sum to 1")
        if raise_on_error:
            raise StructuralError("; ".join(messages))

    # Irreducible: one strongly connected component of the transition graph.
    # Period: the gcd over the edges (u, v) of level(u) + 1 - level(v), where
    # level is the BFS distance from state 0; aperiodic when it is 1.
    adj = csr_matrix(P > 0)
    n_comp, _ = connected_components(adj, connection="strong")
    irreducible = bool(n_comp == 1)
    if not irreducible:
        messages.append("chain is reducible")

    aperiodic = False
    if irreducible:
        level = shortest_path(adj, unweighted=True, indices=0).astype(np.int64)
        u, v = adj.nonzero()
        aperiodic = bool(np.gcd.reduce(level[u] + 1 - level[v]) == 1)
        if not aperiodic:
            messages.append("chain is periodic")

    ok = row_ok and irreducible and aperiodic
    if not ok and raise_on_error:
        raise AssumptionViolationError("(A2)", "; ".join(messages))
    return ValidationReport(ok, row_ok, irreducible, aperiodic, messages)


def _generator(P: np.ndarray, dtype=float) -> np.ndarray:
    """Generator L = I - P built from the off-diagonal rates of P alone.

    The diagonal of L is the off-diagonal row sum, so every row of L sums to
    zero exactly, whatever rounding the stored diagonal of P carries.
    """
    L = -np.asarray(P, dtype=dtype)
    np.fill_diagonal(L, 0)
    np.fill_diagonal(L, -L.sum(axis=1))
    return L


def stationary_distribution(model: MarkovModel) -> StationaryWeights:
    """Solve eta^T L = 0, sum(eta) = 1 for the generator L = I - P.

    Only the off-diagonal rates p(i,j), i != j, are data: the diagonal of L is
    their row sum, not 1 - p(i,i) from the stored diagonal, whose rows sum to
    1 only within an ulp. add_self_loops changes the diagonal and scales the
    rates by 1 - delta, so it leaves eta unchanged up to the rounding of the
    scaled rates.

    The solve is GTH state reduction (Grassmann, Taksar & Heyman, 1985):
    states are censored out from the last one down and eta is rebuilt from
    the first one up. No step subtracts, so every entry of eta is accurate to
    a few ulps relative to itself, however small. A pivot that is not
    positive means the eliminated state cannot reach the states left, i.e.
    the chain is reducible, and raises NumericalError.
    """
    P = model.P
    if not np.all(np.isfinite(P)):
        raise NumericalError("transition matrix has non-finite entries")
    m = model.m
    A = P.copy()
    for k in range(m - 1, 0, -1):
        row, col = A[k, :k], A[:k, k]
        pivot = row.sum()
        if not pivot > 0.0:
            raise NumericalError(
                f"stationary solve: pivot {pivot:.1e} at state {k}, chain is reducible"
            )
        col /= pivot
        A[:k, :k] += col[:, None] * row
    eta = np.empty(m)
    eta[0] = 1.0
    for k in range(1, m):
        eta[k] = eta[:k] @ A[:k, k]
    eta /= eta.sum()
    if not np.all(eta > 0):
        raise NumericalError("stationary vector has non-positive entries")
    resid = np.max(np.abs(eta @ _generator(P)))
    if resid > STATIONARY_TOL:
        raise NumericalError(f"stationary residual {resid:.2e} above tolerance")
    return StationaryWeights(eta=eta)


def mean_cost(model: MarkovModel) -> np.ndarray:
    """Expected one-step cost per state: cbar(i) = sum_j p(i,j) c(i,j)."""
    return np.einsum("ij,ij->i", model.P, model.c)


def discounted_value(model: MarkovModel, alpha: float) -> np.ndarray:
    """Exact discounted value: solves (I - alpha P) J = cbar."""
    if not 0.0 < alpha < 1.0:
        raise StructuralError(f"discount alpha must lie in (0,1), got {alpha}")
    cbar = mean_cost(model)
    J = np.linalg.solve(np.eye(model.m) - alpha * model.P, cbar)
    resid = np.max(np.abs((np.eye(model.m) - alpha * model.P) @ J - cbar))
    if resid > RESIDUAL_TOL:
        raise NumericalError(f"discounted-value residual {resid:.2e}")
    return J


def average_cost(model: MarkovModel, eta: StationaryWeights | None = None) -> float:
    """Long-run average cost mu* = eta^T cbar."""
    if eta is None:
        eta = stationary_distribution(model)
    return float(eta.eta @ mean_cost(model))


def basic_differential_value(
    model: MarkovModel, eta: StationaryWeights | None = None
) -> np.ndarray:
    """Solution of the Poisson equation J = cbar - mu* 1 + P J with eta^T J = 0.

    Solved in generator form, (L + 1 eta^T) J = cbar - mu* 1, where L = I - P
    is built from the off-diagonal rates of P and its diagonal is their row
    sum (see stationary_distribution). As eta^T L = 0 and eta sums to 1, the
    solution has eta^T J = 0 and L J = cbar - mu* 1. With the stored diagonal
    instead, the ulp-level row-sum error of P, amplified by |J| (about 2e4 on
    the queue preset), would move J by about 1e-9; in generator form the
    self-looped chain's L is (1 - delta) L up to the rounding of the scaled
    rates, so its J is J / (1 - delta) to that accuracy. The float64 LU solve
    is followed by one refinement step whose residual is computed in
    np.longdouble, with L rebuilt there from the off-diagonals.
    """
    if eta is None:
        eta = stationary_distribution(model)
    cbar = mean_cost(model).astype(np.longdouble)
    w = eta.eta.astype(np.longdouble)
    A = _generator(model.P, np.longdouble) + w[None, :]
    b = cbar - w @ cbar
    A64 = A.astype(float)
    try:
        J = np.linalg.solve(A64, b.astype(float))
        J = J + np.linalg.solve(A64, (b - A @ J).astype(float))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Poisson system is singular: {exc}") from None
    resid = float(np.max(np.abs(A @ J - b)))
    if not resid <= POISSON_TOL:
        raise NumericalError(f"Poisson-equation residual {resid:.2e}")
    return J


def weighted_norm(x: np.ndarray, eta: StationaryWeights | np.ndarray) -> float:
    """Stationary-weighted norm sqrt(sum_i eta(i) x(i)^2)."""
    w = eta.eta if isinstance(eta, StationaryWeights) else np.asarray(eta)
    x = np.asarray(x, dtype=float)
    if x.shape != w.shape:
        raise StructuralError(f"shape mismatch: x {x.shape} vs eta {w.shape}")
    return float(np.sqrt(w @ (x * x)))


def bellman_discounted(x: np.ndarray, model: MarkovModel, alpha: float) -> np.ndarray:
    """Discounted Bellman operator: cbar + alpha P x."""
    return mean_cost(model) + alpha * (model.P @ x)


def bellman_average(
    x: np.ndarray, model: MarkovModel, eta: StationaryWeights | None = None
) -> np.ndarray:
    """Average-cost Bellman operator: cbar - mu* 1 + P x."""
    cbar = mean_cost(model)
    mu = average_cost(model, eta)
    return cbar - mu + model.P @ x


def _single_equivalence_class(P: np.ndarray) -> bool:
    """True when two states sharing a positive-probability predecessor always
    chain together into one class over the whole state space."""
    adj = P > 0
    shared = adj.T @ adj  # (a,b): some row has positive mass on both
    n_comp, _ = connected_components(shared, directed=False)
    return n_comp == 1


def orthogonal_contraction_factor(
    model: MarkovModel, eta: StationaryWeights | None = None
) -> float:
    """sup of ||P x|| / ||x|| (weighted norm) over x with eta^T x = 0.

    Computed as the largest singular value of D^{1/2} P B, where the columns
    of B are an eta-orthonormal basis of the complement of the constant
    vector. Strictly below 1 only when the state space forms a single
    equivalence class, e.g. when every state has a self-loop.
    """
    if not _single_equivalence_class(model.P):
        raise AssumptionViolationError(
            "single-class",
            "state space splits into multiple equivalence classes; "
            "the orthogonal contraction factor is not below 1 "
            "(add self-loops to every state)",
        )
    if eta is None:
        eta = stationary_distribution(model)
    w = eta.eta
    sqrt_d = np.sqrt(w)
    N = null_space(w[None, :])  # basis of {x : eta^T x = 0}
    # Re-orthonormalize in the eta-inner product: B = N R^{-1} with QR of
    # D^{1/2} N, so B^T D B = I and eta^T B = 0.
    _, R = np.linalg.qr(sqrt_d[:, None] * N)
    B = np.linalg.solve(R.T, N.T).T
    factor = float(np.linalg.norm(sqrt_d[:, None] * (model.P @ B), ord=2))
    return factor


@dataclass(frozen=True)
class Criterion:
    """The cost criterion: discounted with factor alpha, or average cost.

    Average cost has alpha None; its learners also track mu with gain k,
    mu <- mu + k gamma_t (c - mu), and its errors ignore constant shifts.
    """

    alpha: float | None = 0.9
    k: float = 1.0

    def __post_init__(self):
        if self.alpha is not None and not 0.0 < self.alpha < 1.0:
            raise StructuralError("discounted mode needs alpha in (0,1)")
        if self.k <= 0:
            raise StructuralError("k must be positive")

    @property
    def average(self) -> bool:
        return self.alpha is None

    @property
    def discount(self) -> float:
        """Weight of the bootstrapped value: alpha, or 1 for average cost."""
        return 1.0 if self.average else self.alpha

    def mu_star(self, model: MarkovModel, eta: StationaryWeights) -> float | None:
        return average_cost(model, eta) if self.average else None

    def value(self, model: MarkovModel, eta: StationaryWeights) -> np.ndarray:
        """The exact target: J_alpha, or the basic differential value."""
        if self.average:
            return basic_differential_value(model, eta)
        return discounted_value(model, self.alpha)

    def modulus(self, model: MarkovModel, eta: StationaryWeights) -> float:
        """Contraction modulus of the error bounds: alpha, or alpha_P."""
        if self.average:
            return orthogonal_contraction_factor(model, eta)
        return self.alpha

    def deviation(self, x: np.ndarray, eta: StationaryWeights) -> np.ndarray:
        """The part of x (along its last axis) that the error norm measures:
        x itself, or for average cost its projection orthogonal to 1."""
        return x - (x @ eta.eta)[..., None] if self.average else x


def add_self_loops(model: MarkovModel, delta: float) -> MarkovModel:
    """Replace P by (1 - delta) P + delta I; costs are unchanged."""
    if not 0.0 < delta < 1.0:
        raise StructuralError(f"self-loop probability must lie in (0,1), got {delta}")
    return MarkovModel(P=(1.0 - delta) * model.P + delta * np.eye(model.m), c=model.c)
