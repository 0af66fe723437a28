"""Polling (gossip) matrix over agents and neighbor sampling."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .chain import MarkovModel, validate_chain
from .errors import AssumptionViolationError, StructuralError

SUM_TOL = 1e-12

# Polling matrix used by the three-agent queue experiment.
QUEUE3_Q = np.array(
    [
        [5 / 12, 5 / 12, 1 / 6],
        [1 / 4, 1 / 4, 1 / 2],
        [1 / 3, 1 / 3, 1 / 3],
    ]
)


@dataclass(frozen=True)
class GossipMatrix:
    """Doubly stochastic polling matrix q(i,j) over n agents."""

    q: np.ndarray

    def __post_init__(self):
        q = np.atleast_2d(np.asarray(self.q, dtype=float))
        if q.shape[0] != q.shape[1]:
            raise StructuralError(f"Q must be square, got {q.shape}")
        object.__setattr__(self, "q", q)

    @property
    def n(self) -> int:
        return self.q.shape[0]

    def row_cdfs(self) -> np.ndarray:
        return np.cumsum(self.q, axis=1)

    def to_json(self) -> str:
        return json.dumps({"Q": self.q.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "GossipMatrix":
        return cls(q=np.array(json.loads(text)["Q"], dtype=float))

    @classmethod
    def preset(cls, name: str) -> "GossipMatrix":
        if name == "queue-3":
            return cls(q=QUEUE3_Q.copy())
        raise StructuralError(f"unknown gossip preset {name!r}")


@dataclass(frozen=True)
class GossipReport:
    ok: bool
    doubly_stochastic: bool
    irreducible: bool
    aperiodic: bool
    warnings: list = field(default_factory=list)


def validate_gossip(gm: GossipMatrix, raise_on_error: bool = True) -> GossipReport:
    """Check (A3): doubly stochastic, irreducible, aperiodic."""
    q = gm.q
    warnings = []
    nonneg = bool(np.all(q >= 0))
    rows = bool(np.all(np.abs(q.sum(axis=1) - 1.0) < SUM_TOL))
    cols = bool(np.all(np.abs(q.sum(axis=0) - 1.0) < SUM_TOL))
    doubly = nonneg and rows and cols

    # Reuse the chain validator for the structural (irreducible, aperiodic)
    # part; Q is itself a stochastic matrix when the row check passed.
    if rows and nonneg:
        rep = validate_chain(MarkovModel(P=q, c=np.zeros_like(q)), raise_on_error=False)
        irreducible, aperiodic = rep.irreducible, rep.aperiodic
    else:
        irreducible = aperiodic = False

    if aperiodic and np.any(np.diag(q) == 0):
        warnings.append("some q(i,i) = 0; matrix is aperiodic regardless")

    ok = doubly and irreducible and aperiodic
    if not ok and raise_on_error:
        problems = []
        if not doubly:
            problems.append("Q is not doubly stochastic")
        if not irreducible:
            problems.append("Q is reducible")
        elif not aperiodic:
            problems.append("Q is periodic")
        raise AssumptionViolationError("(A3)", "; ".join(problems))
    return GossipReport(ok, doubly, irreducible, aperiodic, warnings)


def sample_neighbors(gm: GossipMatrix, u: np.ndarray) -> np.ndarray:
    """Polled agents for T x n uniforms u: entry (t, i) is row i of Q's
    inverse CDF at u[t, i]."""
    cdfs = gm.row_cdfs()
    return np.stack(
        [
            np.minimum(np.searchsorted(cdfs[i], u[:, i], side="right"), gm.n - 1)
            for i in range(gm.n)
        ],
        axis=1,
    )
