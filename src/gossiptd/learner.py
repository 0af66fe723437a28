"""Stochastic TD(0) iterations: centralized, gossip-coupled, and uncoupled.

The step functions are pure (they return fresh arrays and read only
pre-update values), which keeps them directly enumerable in tests; they are
the specification of `run`. `run` samples a seeded chain trajectory and
applies the same updates as affine maps of the stacked state
z = (r_1..r_n, mu, 1), composed over segments of the trajectory.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import chain as chain_mod
from .chain import Criterion, MarkovModel
from .errors import DivergenceError, StructuralError
from .features import BasisEnsemble, validate_independence
from .gossip import GossipMatrix, sample_neighbors, validate_gossip

WEIGHT_BLOWUP = 1e12


@dataclass(frozen=True)
class PowerSchedule:
    """Step sizes gamma_t = a / (1 + t/scale)^p.

    Admissible (divergent sum, summable squares) for a > 0, scale > 0 and
    0.5 < p <= 1. The scale parameter stretches the decay without changing
    the asymptotics; the slow eigenmodes of the queue configuration need a
    near-constant step over the first ~1e5 iterations to be learnable.
    """

    a: float = 0.1
    p: float = 0.75
    scale: float = 50_000.0

    def __post_init__(self):
        if self.a <= 0 or self.scale <= 0 or not 0.5 < self.p <= 1.0:
            raise StructuralError(
                "step schedule needs a > 0, scale > 0 and p in (0.5, 1] "
                f"(got a={self.a}, p={self.p}, scale={self.scale})"
            )

    def gamma(self, t: int) -> float:
        return self.a / (1.0 + t / self.scale) ** self.p

    def gammas(self, steps: int) -> np.ndarray:
        return self.a / (1.0 + np.arange(steps) / self.scale) ** self.p


@dataclass
class AgentEnsemble:
    """Mutable learner state: per-agent weight vectors plus the mu scalar."""

    weights: list
    mu: float = 0.0
    t: int = 0


@dataclass(frozen=True)
class RunConfig:
    steps: int
    seed: int = 0
    schedule: PowerSchedule = field(default_factory=PowerSchedule)
    mode: str = "distributed"  # distributed | uncoupled | centralized
    criterion: Criterion = Criterion()
    record_every: int = 1000
    initial_state: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise StructuralError("steps must be >= 1")
        if self.mode not in ("distributed", "uncoupled", "centralized"):
            raise StructuralError(f"unknown mode {self.mode!r}")
        if self.record_every < 1:
            raise StructuralError("record_every must be >= 1")


def td0_centralized_step(x, x_next, cost, r, phi, alpha, gamma_t):
    """One discounted TD(0) update from transition (x, x_next) with cost."""
    td = cost + alpha * (phi[x_next] @ r) - phi[x] @ r
    return r + gamma_t * td * phi[x]


def td0_distributed_step(x, x_next, cost, weights, phis, alpha, gamma_t, neighbors):
    """Synchronous gossip-coupled update; every agent reads pre-update weights.

    `neighbors[i]` is the agent polled by agent i for its bootstrap value.
    """
    new = []
    for i, phi in enumerate(phis):
        y = neighbors[i]
        td = cost + alpha * (phis[y][x_next] @ weights[y]) - phi[x] @ weights[i]
        new.append(weights[i] + gamma_t * td * phi[x])
    return new


def avgcost_centralized_step(x, x_next, cost, r, mu, phi, k, gamma_t):
    """Average-cost TD(0): both updates read the pre-update mu."""
    td = cost - mu + phi[x_next] @ r - phi[x] @ r
    new_r = r + gamma_t * td * phi[x]
    new_mu = mu + k * gamma_t * (cost - mu)
    return new_r, new_mu


def avgcost_distributed_step(x, x_next, cost, weights, mu, phis, k, gamma_t, neighbors):
    """Gossip-coupled average-cost update with one shared mu scalar."""
    new = []
    for i, phi in enumerate(phis):
        y = neighbors[i]
        td = cost - mu + phis[y][x_next] @ weights[y] - phi[x] @ weights[i]
        new.append(weights[i] + gamma_t * td * phi[x])
    new_mu = mu + k * gamma_t * (cost - mu)
    return new, new_mu


def simulate_states(
    model: MarkovModel, steps: int, initial_state: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample a length-(steps+1) state path by inverse CDF per row."""
    cdfs = np.cumsum(model.P, axis=1)
    cdfs[:, -1] = np.inf  # a draw past a row's rounded sum lands in the last state
    cdfs = cdfs.tolist()
    path = accumulate(
        memoryview(rng.random(steps)),
        lambda s, u: bisect_right(cdfs[s], u),
        initial=initial_state,
    )
    return np.fromiter(path, dtype=np.int64, count=steps + 1)


@dataclass
class Trajectory:
    """Recorded snapshots of a run (step 0, every record_every, and the end)."""

    steps: np.ndarray  # recorded step indices
    weights: list  # per agent: (num_records, n_i)
    mu: np.ndarray | None
    config: RunConfig
    final: AgentEnsemble

    @property
    def n_agents(self) -> int:
        return len(self.weights)

    def write_weights_csv(self, path) -> None:
        """One row per weight; the bytes csv.writer gives, floats written with repr."""
        per_agent = [w.tolist() for w in self.weights]
        with open(path, "w", newline="") as fh:
            fh.write("step,agent,weight_index,value\r\n")
            fh.writelines(
                f"{step},{i},{j},{value!r}\r\n"
                for step, *snapshot in zip(self.steps.tolist(), *per_agent)
                for i, values in enumerate(snapshot)
                for j, value in enumerate(values)
            )

    def write_mu_csv(self, path) -> None:
        if self.mu is None:
            raise StructuralError("run has no mu series (discounted criterion)")
        with open(path, "w", newline="") as fh:
            fh.write("step,mu\r\n")
            fh.writelines(
                f"{step},{value!r}\r\n"
                for step, value in zip(self.steps.tolist(), self.mu.tolist())
            )


# The engine composes the TD steps of each segment of at most _SEGMENT steps
# into one (D, D) map and builds the maps of up to _CHUNK_ENTRIES / D^2
# segments at once.
_SEGMENT = 128
_CHUNK_ENTRIES = 1 << 15


def _check_range(snapshots, steps, K, average):
    """Raise DivergenceError at the first snapshot out of range, weights before mu."""
    bad_weights = ~(np.abs(snapshots[:, :K]) <= WEIGHT_BLOWUP).all(axis=1)
    bad_mu = ~(np.abs(snapshots[:, K]) <= WEIGHT_BLOWUP) if average else False
    bad = bad_weights | bad_mu
    if bad.any():
        first = int(np.argmax(bad))
        what = "weight vector" if bad_weights[first] else "mu"
        raise DivergenceError(int(steps[first]), f"{what} out of range")


def _segments(steps: int, record_every: int):
    """Segment starts and ends, cut at multiples of _SEGMENT and at record points."""
    cuts = np.union1d(
        np.arange(_SEGMENT, steps, _SEGMENT),
        np.arange(record_every, steps, record_every),
    )
    ends = np.append(cuts, steps).astype(np.int64)
    starts = np.concatenate(([0], ends[:-1]))
    return starts, ends


def _compose_maps(embed, states, costs, gammas, neighbors, starts, lengths, criterion):
    """Products of the per-step maps z <- (I + gamma_t X_t^T V_t) z, one per segment.

    `embed[i, s]` is agent i's feature row phi_i(s) placed in agent i's block
    of z = (r_1..r_n, [mu,] 1). Row i of X_t is embed[i, x_t]; row i of V_t
    reads agent i's TD error off z. For average cost, z carries mu in its
    second-to-last coordinate and X_t, V_t have one more row for its update.
    Padding steps beyond a segment's length get gamma = 0.
    """
    n, _, dim = embed.shape
    num = len(starts)
    one = dim - 1
    agents = np.arange(n)
    alpha, k = criterion.discount, criterion.k
    rows = n + criterion.average
    X = np.zeros((num, rows, dim))
    V = np.zeros((num, rows, dim))
    if criterion.average:
        X[:, n, one - 1] = 1.0
        V[:, n, one - 1] = -k
    maps = np.zeros((num, dim, dim))
    maps[:, np.arange(dim), np.arange(dim)] = 1.0
    for offset in range(int(lengths.max())):
        live = offset < lengths
        t = np.where(live, starts + offset, starts)
        x, c = states[t], costs[t]
        X[:, :n] = embed[agents, x[:, None]]
        V[:, :n] = alpha * embed[neighbors[t], states[t + 1][:, None]] - X[:, :n]
        V[:, :n, one] = c[:, None]
        if criterion.average:
            V[:, :n, one - 1] = -1.0
            V[:, n, one] = k * c
        step = np.where(live, gammas[t], 0.0)[:, None, None] * X
        maps += np.matmul(step.transpose(0, 2, 1), np.matmul(V, maps))
    return maps


def run(
    model: MarkovModel,
    bases: BasisEnsemble,
    gm: GossipMatrix | None,
    config: RunConfig,
) -> Trajectory:
    """Simulate one full learning run; bit-reproducible for a fixed seed.

    Chain transitions and neighbor polling use independent seeded streams,
    so coupled and uncoupled runs with the same seed see the same state path.
    Every mode is one engine: uncoupled and centralized agents poll
    themselves (centralized is a single agent).
    """
    chain_mod.validate_chain(model)
    for b in bases.bases:
        validate_independence(b)
    n = bases.n_agents
    if config.mode == "distributed":
        if gm is None:
            raise StructuralError("distributed mode needs a gossip matrix")
        validate_gossip(gm)
        if gm.n != n:
            raise StructuralError("gossip matrix size does not match agent count")
    if config.mode == "centralized" and n != 1:
        raise StructuralError("centralized mode expects a single agent basis")

    T = config.steps
    rng_chain = np.random.default_rng([config.seed, 0])
    rng_gossip = np.random.default_rng([config.seed, 1])
    states = simulate_states(model, T, config.initial_state, rng_chain)
    costs = model.c[states[:-1], states[1:]]
    gammas = config.schedule.gammas(T)

    if config.mode == "distributed":
        neighbors = sample_neighbors(gm, rng_gossip.random((T, n)))
    else:
        neighbors = np.broadcast_to(np.arange(n), (T, n))

    average = config.criterion.average
    bounds = np.cumsum([0, *bases.sizes])
    K = int(bounds[-1])
    dim = K + 1 + average
    embed = np.zeros((n, model.m, dim))
    for i, b in enumerate(bases.bases):
        embed[i, :, bounds[i] : bounds[i + 1]] = b.phi

    starts, ends = _segments(T, config.record_every)
    recorded = (ends % config.record_every == 0) | (ends == T)
    chunk = max(1, _CHUNK_ENTRIES // dim**2)
    z = np.zeros(dim)
    z[-1] = 1.0
    snapshots = [z]
    # A diverging run overflows; _check_range reports it at the first bad record.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(starts), chunk):
            hi = lo + chunk
            maps = _compose_maps(
                embed, states, costs, gammas, neighbors,
                starts[lo:hi], ends[lo:hi] - starts[lo:hi], config.criterion,
            )
            for A, rec in zip(maps, recorded[lo:hi]):
                z = A @ z
                if rec:
                    snapshots.append(z)
    rec_steps = np.concatenate(([0], ends[recorded]))
    snaps = np.array(snapshots)
    _check_range(snaps, rec_steps, K, average)
    per_agent = [snaps[:, lo:hi].copy() for lo, hi in zip(bounds[:-1], bounds[1:])]
    final = AgentEnsemble(
        weights=[w[-1].copy() for w in per_agent],
        mu=float(z[K]) if average else 0.0,
        t=T,
    )
    return Trajectory(
        steps=rec_steps,
        weights=per_agent,
        mu=snaps[:, K].copy() if average else None,
        config=config,
        final=final,
    )
