"""Acceptance suite: one printed pass/fail line per criterion.

Each test evaluates its criterion at the stated tolerance, writes a single
summary line to the real stdout (bypassing capture so the verdicts are
always visible), and then asserts. Criteria 4, 5, and 8 encode convergence
and comparison targets that the default configuration does not reach; they
are asserted as stated and fail honestly rather than being loosened.
"""

import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import null_space

import gossiptd as g

from helpers import (
    classical_td_fixed_point,
    enumerate_expected_avgcost_update,
    enumerate_expected_distributed_update,
    random_basis,
    random_chain,
)


def _verdict(criterion: str, ok: bool, detail: str = "") -> None:
    import conftest

    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"acceptance {criterion}: {tag}{suffix}"
    conftest.ACCEPTANCE_LINES.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


@pytest.fixture(scope="module")
def queue_setup(queue_model, queue_eta, queue_bases, queue_q):
    aug = g.build_augmented(queue_model, queue_q, queue_bases, queue_eta)
    fp = g.solve_fixed_point(aug, g.Criterion(0.9))
    return aug, fp


@pytest.fixture(scope="module")
def queue_setup_avg(queue_model, queue_eta, queue_bases, queue_q):
    bases = g.orthogonalize_ensemble(queue_bases, queue_eta)
    aug = g.build_augmented(queue_model, queue_q, bases, queue_eta)
    mu = g.average_cost(queue_model, queue_eta)
    fp = g.solve_fixed_point(aug, g.Criterion(None))
    return bases, aug, fp, mu


def test_criterion_1_single_agent_oracle_equivalence(queue_model, queue_eta):
    """n=1 fixed point matches the classical TD stationarity solve to 1e-10."""
    gm1 = g.GossipMatrix(q=np.eye(1))
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(20):
        m = int(rng.integers(3, 9))
        model = random_chain(rng, m)
        eta = g.stationary_distribution(model)
        basis = random_basis(rng, m, int(rng.integers(1, m)))
        aug = g.build_augmented(model, gm1, g.BasisEnsemble(bases=(basis,)), eta)
        fp = g.solve_fixed_point(aug, g.Criterion(0.9))
        expected = classical_td_fixed_point(model, basis, 0.9, eta)
        worst = max(worst, float(np.max(np.abs(fp.r_star - expected))))
    basis = random_basis(rng, 51, 5)
    aug = g.build_augmented(
        queue_model, gm1, g.BasisEnsemble(bases=(basis,)), queue_eta
    )
    fp = g.solve_fixed_point(aug, g.Criterion(0.9))
    expected = classical_td_fixed_point(queue_model, basis, 0.9, queue_eta)
    worst = max(worst, float(np.max(np.abs(fp.r_star - expected))))
    ok = worst < 1e-10
    _verdict("criterion 1", ok, f"max deviation {worst:.2e}")
    assert ok


def test_criterion_2_exact_representation_recovery(queue_model, queue_eta):
    """Full-span features recover the exact value functions within 1e-8."""
    gm1 = g.GossipMatrix(q=np.eye(1))
    basis = g.FeatureBasis(phi=np.eye(51))
    aug = g.build_augmented(queue_model, gm1, g.BasisEnsemble(bases=(basis,)), queue_eta)
    fp = g.solve_fixed_point(aug, g.Criterion(0.9))
    err_disc = float(
        np.max(np.abs(fp.r_star - g.discounted_value(queue_model, 0.9)))
    )

    # average-cost analogue: a basis spanning the complement of the constant
    # vector (the largest subspace compatible with the representability gate)
    comp = g.FeatureBasis(phi=null_space(queue_eta.eta[None, :]))
    aug2 = g.build_augmented(
        queue_model, gm1, g.BasisEnsemble(bases=(comp,)), queue_eta
    )
    mu = g.average_cost(queue_model, queue_eta)
    fp2 = g.solve_fixed_point(aug2, g.Criterion(None))
    j_star = g.basic_differential_value(queue_model, queue_eta)
    err_avg = float(np.max(np.abs(comp.phi @ fp2.r_star - j_star)))

    ok = err_disc < 1e-8 and err_avg < 1e-8
    _verdict("criterion 2", ok, f"discounted {err_disc:.2e}, average {err_avg:.2e}")
    assert ok


def test_criterion_3_zero_expected_update(
    queue_model, queue_eta, queue_bases, queue_q, queue_setup, queue_setup_avg
):
    """Enumerated mean increments vanish at all four fixed points (<1e-10)."""
    drifts = []

    aug, fp = queue_setup
    for d in enumerate_expected_distributed_update(
        queue_model, queue_bases, queue_q, queue_eta, aug.split(fp.r_star), 0.9
    ):
        drifts.append(np.max(np.abs(d)))

    obases, aug_a, fp_a, mu = queue_setup_avg
    dr, mu_dr = enumerate_expected_avgcost_update(
        queue_model, obases, queue_q, queue_eta, aug_a.split(fp_a.r_star), mu, 1.0
    )
    drifts.append(abs(mu_dr))
    drifts.extend(np.max(np.abs(d)) for d in dr)

    # centralized variants: each agent alone (self-polling gossip) at its
    # classical fixed point
    gm1 = g.GossipMatrix(q=np.eye(1))
    for basis in queue_bases.bases:
        r = classical_td_fixed_point(queue_model, basis, 0.9, queue_eta)
        d = enumerate_expected_distributed_update(
            queue_model, g.BasisEnsemble(bases=(basis,)), gm1, queue_eta, [r], 0.9
        )
        drifts.append(np.max(np.abs(d[0])))
    for basis in obases.bases:
        solo = g.BasisEnsemble(bases=(basis,))
        aug1 = g.build_augmented(queue_model, gm1, solo, queue_eta)
        fp1 = g.solve_fixed_point(aug1, g.Criterion(None))
        d, md = enumerate_expected_avgcost_update(
            queue_model, solo, gm1, queue_eta, [fp1.r_star], mu, 1.0
        )
        drifts.append(abs(md))
        drifts.append(np.max(np.abs(d[0])))

    worst = float(max(drifts))
    ok = worst < 1e-10
    _verdict("criterion 3", ok, f"max |mean increment| {worst:.2e}")
    assert ok


def test_criterion_4_stochastic_convergence_discounted(
    queue_model, queue_bases, queue_q, queue_setup
):
    """5 seeds, T=2e5, default schedule: relative weight error < 0.05 on >=4."""
    aug, fp = queue_setup
    r_parts = aug.split(fp.r_star)
    passes = 0
    worst_per_seed = []
    for seed in range(5):
        cfg = g.RunConfig(steps=200_000, seed=seed, record_every=200_000)
        traj = g.run(queue_model, queue_bases, queue_q, cfg)
        rels = [
            np.linalg.norm(traj.final.weights[i] - r_parts[i])
            / (1.0 + np.linalg.norm(r_parts[i]))
            for i in range(3)
        ]
        worst_per_seed.append(max(rels))
        passes += max(rels) < 0.05
    ok = passes >= 4
    _verdict(
        "criterion 4",
        ok,
        f"{passes}/5 seeds below 0.05; per-seed max rel err "
        + ", ".join(f"{w:.2f}" for w in worst_per_seed),
    )
    assert ok


def test_criterion_5_stochastic_convergence_average(
    queue_model, queue_q, queue_setup_avg
):
    """Average-cost preset: mu within 1%, weights within 5%, on >=4/5 seeds."""
    obases, aug, fp, mu_star = queue_setup_avg
    r_parts = aug.split(fp.r_star)
    passes = 0
    details = []
    for seed in range(5):
        cfg = g.RunConfig(
            steps=200_000,
            seed=seed,
            criterion=g.Criterion(None),
            record_every=200_000,
        )
        traj = g.run(queue_model, obases, queue_q, cfg)
        mu_rel = abs(traj.final.mu - mu_star) / mu_star
        w_rel = max(
            np.linalg.norm(traj.final.weights[i] - r_parts[i])
            / (1.0 + np.linalg.norm(r_parts[i]))
            for i in range(3)
        )
        details.append(f"mu {mu_rel:.3f}/w {w_rel:.2f}")
        passes += mu_rel < 0.01 and w_rel < 0.05
    ok = passes >= 4
    _verdict("criterion 5", ok, f"{passes}/5 seeds; " + "; ".join(details))
    assert ok


def test_criterion_6_bound_chain(queue_model, queue_bases, queue_q, queue_setup):
    """Componentwise and scalar error bounds hold on the queue preset."""
    _, fp = queue_setup
    rep = g.compute_errors(
        queue_model, queue_bases, queue_q, g.Criterion(0.9), fp
    )
    comp_ok = bool(np.all(rep.e**2 <= rep.e2_bound + 1e-9))
    scalar_ok = bool(np.max(rep.e) <= rep.max_error_bound + 1e-9)
    jbar_ok = bool(rep.jbar_error <= rep.jbar_bound + 1e-9)
    beta_ok = 0.0 < rep.beta < 1.0 and rep.side_condition_met
    ok = comp_ok and scalar_ok and jbar_ok and beta_ok
    _verdict(
        "criterion 6",
        ok,
        f"beta {rep.beta:.3f}, max e {np.max(rep.e):.2f} "
        f"<= {rep.max_error_bound:.2f}, jbar {rep.jbar_error:.2f} "
        f"<= {rep.jbar_bound:.2f}",
    )
    assert ok


def test_criterion_7_orthogonal_contraction(queue_model, queue_eta):
    """alpha_P < 1, random search never exceeds it, self-loops preserve the
    stationary law and the differential value (modulo the sojourn-time
    rescaling the loops introduce)."""
    factor = g.orthogonal_contraction_factor(queue_model, queue_eta)
    below_one = 0.0 < factor < 1.0

    rng = np.random.default_rng(0)
    best = 0.0
    for _ in range(10_000):
        x = g.projection_onto_ones_complement(
            queue_eta, rng.normal(size=queue_model.m)
        )
        best = max(
            best,
            g.weighted_norm(queue_model.P @ x, queue_eta)
            / g.weighted_norm(x, queue_eta),
        )
    search_ok = best <= factor + 1e-8

    J = g.basic_differential_value(queue_model, queue_eta)
    invariant_ok = True
    for delta in (0.1, 0.5):
        looped = g.add_self_loops(queue_model, delta)
        eta2 = g.stationary_distribution(looped)
        if np.max(np.abs(eta2.eta - queue_eta.eta)) > 1e-9:
            invariant_ok = False
        J2 = g.basic_differential_value(looped, eta2)
        if np.max(np.abs((1.0 - delta) * J2 - J)) > 1e-9:
            invariant_ok = False

    ok = below_one and search_ok and invariant_ok
    _verdict(
        "criterion 7",
        ok,
        f"alpha_P {factor:.6f}, search sup {best:.6f}",
    )
    assert ok


def _seed_pair_wins(model, bases, gm, eta, criterion, steps, n_pairs=10):
    wins_max = wins_var = 0
    for seed in range(n_pairs):
        cfg = g.RunConfig(
            steps=steps,
            seed=seed,
            criterion=criterion,
            record_every=steps,
        )
        coupled = g.run(model, bases, gm, cfg)
        uncoupled = g.run(model, bases, None, replace(cfg, mode="uncoupled"))
        mc = g.metrics_over_time(coupled, model, bases, eta)
        mu = g.metrics_over_time(uncoupled, model, bases, eta)
        wins_max += mc.max_error[-1] <= mu.max_error[-1]
        wins_var += mc.variance_weighted[-1] < mu.variance_weighted[-1]
    return wins_max, wins_var


def test_criterion_8_coupled_vs_uncoupled(
    queue_model, queue_eta, queue_bases, queue_q, queue_setup_avg
):
    """Coupled runs beat uncoupled on max error and dispersion in >=7/10
    seed pairs (discounted), and on dispersion in >=7/10 (average cost)."""
    d_max, d_var = _seed_pair_wins(
        queue_model, queue_bases, queue_q, queue_eta, g.Criterion(0.9), 100_000
    )
    obases = queue_setup_avg[0]
    a_max, a_var = _seed_pair_wins(
        queue_model, obases, queue_q, queue_eta, g.Criterion(None), 100_000
    )
    ok = d_max >= 7 and d_var >= 7 and a_var >= 7
    _verdict(
        "criterion 8",
        ok,
        f"discounted max {d_max}/10, var {d_var}/10; "
        f"average var {a_var}/10 (max {a_max}/10, reported only)",
    )
    assert ok


def test_criterion_9_assumption_gates(queue_model, queue_eta, queue_bases, queue_q):
    """Each violated assumption is rejected with its name in the error."""
    from gossiptd.errors import AssumptionViolationError

    checks = {}

    try:
        g.validate_gossip(g.GossipMatrix(q=np.eye(3)))
        checks["(A3)"] = False
    except AssumptionViolationError as exc:
        checks["(A3)"] = "(A3)" in str(exc)

    try:
        g.validate_chain(g.MarkovModel(P=[[0, 1], [1, 0]], c=np.zeros((2, 2))))
        checks["(A2)"] = False
    except AssumptionViolationError as exc:
        checks["(A2)"] = "(A2)" in str(exc)

    try:
        g.validate_independence(g.FeatureBasis(phi=np.ones((4, 2))))
        checks["(A1)"] = False
    except AssumptionViolationError as exc:
        checks["(A1)"] = "(A1)" in str(exc)

    const = g.FeatureBasis(phi=np.ones((51, 1)))
    ens = g.BasisEnsemble(
        bases=tuple(g.FeatureBasis(const.phi.copy(), agent_id=a) for a in range(3))
    )
    try:
        g.check_a6(g.build_augmented(queue_model, queue_q, ens, queue_eta))
        checks["(A6)"] = False
    except AssumptionViolationError as exc:
        checks["(A6)"] = "(A6)" in str(exc)

    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    _verdict("criterion 9", ok, "all gates named" if ok else f"missing {failed}")
    assert ok
