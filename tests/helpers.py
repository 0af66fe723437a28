"""Shared oracle helpers: independent of the implementation paths they check."""

import numpy as np

import gossiptd as g


def random_chain(rng, m, self_loop=0.0):
    """Random dense irreducible aperiodic chain with random costs."""
    P = rng.random((m, m)) + 0.05
    P /= P.sum(axis=1, keepdims=True)
    if self_loop:
        P = (1.0 - self_loop) * P + self_loop * np.eye(m)
    c = rng.normal(size=(m, m))
    return g.MarkovModel(P=P, c=c)


def random_basis(rng, m, k, agent_id=0):
    return g.FeatureBasis(phi=rng.normal(size=(m, k)), agent_id=agent_id)


def random_graph_chain(rng, m, kind):
    """Chain on m states whose transition graph is drawn at random.

    "sparse": each edge with a random density; "permutation": a random
    permutation plus a few extra edges (often periodic); "cyclic": states in
    random classes 0..d-1 with edges only from class k to class k+1 mod d
    (period a multiple of a divisor of d). Every row keeps at least one edge.
    """
    if kind == "sparse":
        mask = rng.random((m, m)) < rng.uniform(0.1, 0.6)
    elif kind == "permutation":
        mask = np.eye(m, dtype=bool)[rng.permutation(m)]
        mask |= rng.random((m, m)) < rng.uniform(0.0, 0.15)
    else:
        cls = rng.integers(0, rng.integers(2, m + 2), size=m)
        d = cls.max() + 1
        mask = (cls[None, :] == (cls[:, None] + 1) % d) & (rng.random((m, m)) < 0.6)
    empty = ~mask.any(axis=1)
    mask[empty, rng.integers(0, m, size=int(empty.sum()))] = True
    P = mask * rng.uniform(0.1, 1.0, size=(m, m))
    P /= P.sum(axis=1, keepdims=True)
    return g.MarkovModel(P=P, c=np.zeros((m, m)))


def _bool_power(adj, k):
    out = np.eye(adj.shape[0], dtype=bool)
    for _ in range(k):
        out = (out.astype(np.int64) @ adj.astype(np.int64)) > 0
    return out


def matrix_power_validation(P):
    """ValidationReport of a row-stochastic P from boolean matrix powers.

    Irreducible iff (I + A)^(m-1) > 0, and primitive (irreducible and
    aperiodic) iff A^((m-1)^2 + 1) > 0 (Wielandt), for the skeleton A = P > 0.
    """
    from gossiptd.chain import ValidationReport

    m = P.shape[0]
    adj = P > 0
    irreducible = bool(_bool_power(adj | np.eye(m, dtype=bool), m - 1).all())
    primitive = bool(_bool_power(adj, (m - 1) ** 2 + 1).all())
    if not irreducible:
        messages = ["chain is reducible"]
    elif not primitive:
        messages = ["chain is periodic"]
    else:
        messages = []
    return ValidationReport(primitive, True, irreducible, primitive, messages)


def random_doubly_stochastic(rng, n):
    """Convex combination of the uniform matrix and random permutations."""
    w = rng.dirichlet(np.ones(4))
    q = w[0] * np.full((n, n), 1.0 / n)
    for wk in w[1:]:
        q += wk * np.eye(n)[rng.permutation(n)]
    return g.GossipMatrix(q=q)


def kronecker_fixed_point_system(aug, alpha, target):
    """Psi^T diag(nu) (alpha rho - I) Psi and -Psi^T diag(nu) target~ from the
    dense lifted matrices."""
    psi_nu = aug.Psi.T * aug.nu[None, :]
    A = psi_nu @ (alpha * aug.rho - np.eye(len(aug.nu))) @ aug.Psi
    b = -psi_nu @ np.tile(target, aug.n_agents)
    return A, b


def birth_death_stationary(P):
    """Detailed-balance closed form eta(i+1)/eta(i) = p_up(i)/p_down(i+1)."""
    m = P.shape[0]
    eta = np.ones(m)
    for i in range(m - 1):
        eta[i + 1] = eta[i] * P[i, i + 1] / P[i + 1, i]
    return eta / eta.sum()


def power_series_value(model, alpha, terms=500):
    """Truncated sum of alpha^t P^t cbar."""
    cbar = g.mean_cost(model)
    total = np.zeros(model.m)
    term = cbar.copy()
    for _ in range(terms):
        total += term
        term = alpha * (model.P @ term)
    return total


def cesaro_differential_value(model, eta, terms=2000):
    """Truncated sum of (P^t cbar - mu* 1), shifted to eta^T J = 0."""
    cbar = g.mean_cost(model)
    mu = float(eta.eta @ cbar)
    total = np.zeros(model.m)
    term = cbar.copy()
    for _ in range(terms):
        total += term - mu
        term = model.P @ term
    return total - float(eta.eta @ total)


def classical_td_fixed_point(model, basis, alpha, eta):
    """Single-agent TD(0) stationarity: Phi^T D (cbar + alpha P Phi r - Phi r) = 0."""
    D = eta.eta
    Phi = basis.phi
    A = Phi.T @ (D[:, None] * (alpha * model.P @ Phi - Phi))
    return np.linalg.solve(A, -Phi.T @ (D * g.mean_cost(model)))


def enumerate_expected_distributed_update(model, bases, gm, eta, weights, alpha):
    """Exact expectation of the coupled discounted update at given weights.

    Enumerates X_t ~ eta, X_{t+1} ~ P and each agent's neighbor draw, calling
    the actual step function with unit step size.
    """
    from gossiptd.learner import td0_distributed_step

    phis = [b.phi for b in bases.bases]
    n = bases.n_agents
    out = [np.zeros_like(w) for w in weights]
    for x in range(model.m):
        for x_next in np.flatnonzero(model.P[x]):
            p_trans = eta.eta[x] * model.P[x, x_next]
            cost = float(model.c[x, x_next])
            for y in range(n):
                new = td0_distributed_step(
                    x, int(x_next), cost, weights, phis, alpha, 1.0, [y] * n
                )
                for i in range(n):
                    out[i] += p_trans * gm.q[i, y] * (new[i] - weights[i])
    return out


def enumerate_expected_avgcost_update(model, bases, gm, eta, weights, mu, k):
    """Exact expectation of the coupled average-cost update (weights and mu)."""
    from gossiptd.learner import avgcost_distributed_step

    phis = [b.phi for b in bases.bases]
    n = bases.n_agents
    out = [np.zeros_like(w) for w in weights]
    mu_out = 0.0
    for x in range(model.m):
        for x_next in np.flatnonzero(model.P[x]):
            p_trans = eta.eta[x] * model.P[x, x_next]
            cost = float(model.c[x, x_next])
            for y in range(n):
                new, new_mu = avgcost_distributed_step(
                    x, int(x_next), cost, weights, mu, phis, k, 1.0, [y] * n
                )
                for i in range(n):
                    out[i] += p_trans * gm.q[i, y] * (new[i] - weights[i])
            mu_only = mu + k * (cost - mu)
            mu_out += p_trans * (mu_only - mu)
    return out, mu_out


def searchsorted_states(model, steps, initial_state, rng):
    """State path by np.searchsorted on each row's CDF, one step at a time."""
    cdfs = np.cumsum(model.P, axis=1)
    u = rng.random(steps)
    states = np.empty(steps + 1, dtype=np.int64)
    states[0] = initial_state
    s = initial_state
    for t in range(steps):
        s = min(int(np.searchsorted(cdfs[s], u[t], side="right")), model.m - 1)
        states[t + 1] = s
    return states


def reference_run(model, bases, gm, config):
    """Step-function loop over the same seeded streams as `learner.run`.

    Returns (recorded steps, per-agent snapshot arrays, mu series or None)
    and raises DivergenceError at the first out-of-range record, as `run`
    does.
    """
    from gossiptd.errors import DivergenceError
    from gossiptd.learner import (
        WEIGHT_BLOWUP,
        avgcost_centralized_step,
        avgcost_distributed_step,
        td0_centralized_step,
        td0_distributed_step,
    )

    T, n = config.steps, bases.n_agents
    states = searchsorted_states(
        model, T, config.initial_state, np.random.default_rng([config.seed, 0])
    )
    if config.mode == "distributed":
        u = np.random.default_rng([config.seed, 1]).random((T, n))
        cdfs = np.cumsum(gm.q, axis=1)
        neighbors = np.stack(
            [
                np.minimum(np.searchsorted(cdfs[i], u[:, i], side="right"), n - 1)
                for i in range(n)
            ],
            axis=1,
        )
    gammas = config.schedule.gammas(T)
    phis = [b.phi for b in bases.bases]
    weights = [np.zeros(k) for k in bases.sizes]
    average = config.criterion == "average"
    mu = 0.0 if average else None
    steps, snaps, mus = [0], [[w.copy() for w in weights]], [mu]
    for t in range(T):
        x, x_next = int(states[t]), int(states[t + 1])
        cost = float(model.c[x, x_next])
        gamma_t = gammas[t]
        if config.mode == "distributed" and average:
            weights, mu = avgcost_distributed_step(
                x, x_next, cost, weights, mu, phis, config.k, gamma_t, neighbors[t]
            )
        elif config.mode == "distributed":
            weights = td0_distributed_step(
                x, x_next, cost, weights, phis, config.alpha, gamma_t, neighbors[t]
            )
        elif average:
            pairs = [
                avgcost_centralized_step(
                    x, x_next, cost, w, mu, phi, config.k, gamma_t
                )
                for w, phi in zip(weights, phis)
            ]
            weights, mu = [p[0] for p in pairs], pairs[0][1]
        else:
            weights = [
                td0_centralized_step(x, x_next, cost, w, phi, config.alpha, gamma_t)
                for w, phi in zip(weights, phis)
            ]
        if (t + 1) % config.record_every == 0 or t + 1 == T:
            for w in weights:
                if not np.all(np.isfinite(w)) or np.max(np.abs(w)) > WEIGHT_BLOWUP:
                    raise DivergenceError(t + 1, "weight vector out of range")
            if average and (not np.isfinite(mu) or abs(mu) > WEIGHT_BLOWUP):
                raise DivergenceError(t + 1, "mu out of range")
            steps.append(t + 1)
            snaps.append([w.copy() for w in weights])
            mus.append(mu)
    per_agent = [np.array([s[i] for s in snaps]) for i in range(n)]
    return np.array(steps), per_agent, (np.array(mus) if average else None)
