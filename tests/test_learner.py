import numpy as np
import pytest

import gossiptd as g
from gossiptd.errors import DivergenceError, StructuralError
from gossiptd.learner import (
    _SEGMENT,
    avgcost_centralized_step,
    avgcost_distributed_step,
    simulate_states,
    td0_centralized_step,
    td0_distributed_step,
)

from helpers import (
    classical_td_fixed_point,
    enumerate_expected_avgcost_update,
    enumerate_expected_distributed_update,
    random_basis,
    random_chain,
    reference_run,
    searchsorted_states,
)


class TestPowerSchedule:
    def test_defaults_admissible(self):
        sched = g.PowerSchedule()
        assert sched.gamma(0) == pytest.approx(sched.a)
        gs = sched.gammas(10)
        assert np.all(np.diff(gs) < 0)

    def test_gamma_matches_gammas(self):
        sched = g.PowerSchedule(a=0.3, p=0.8, scale=100.0)
        gs = sched.gammas(500)
        for t in (0, 1, 17, 499):
            assert gs[t] == pytest.approx(sched.gamma(t), rel=1e-15)

    def test_invalid_parameters(self):
        for kwargs in (
            {"a": 0.0},
            {"a": -1.0},
            {"p": 0.5},
            {"p": 1.1},
            {"scale": 0.0},
        ):
            with pytest.raises(StructuralError):
                g.PowerSchedule(**kwargs)


class TestSimulateStates:
    def test_reproducible(self, queue_model):
        a = simulate_states(queue_model, 1000, 0, np.random.default_rng(5))
        b = simulate_states(queue_model, 1000, 0, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_respects_support(self, queue_model):
        states = simulate_states(queue_model, 5000, 0, np.random.default_rng(6))
        assert states.min() >= 0 and states.max() < queue_model.m
        # queue moves by at most one per slot
        assert np.max(np.abs(np.diff(states))) <= 1

    def test_empirical_occupation(self, queue_model, queue_eta):
        states = simulate_states(queue_model, 400_000, 0, np.random.default_rng(7))
        freq = np.bincount(states, minlength=queue_model.m) / len(states)
        # compare on the high-mass states
        mask = queue_eta.eta > 1e-3
        assert np.max(np.abs(freq[mask] - queue_eta.eta[mask])) < 0.01

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_searchsorted_path(self, queue_model, seed):
        rng_model = random_chain(np.random.default_rng(seed), 6, self_loop=0.2)
        # rows summing to 0.9: draws past a row's sum land in the last state
        short_rows = g.MarkovModel(P=0.9 * rng_model.P, c=rng_model.c)
        for model in (queue_model, rng_model, short_rows):
            got = simulate_states(model, 20_000, 0, np.random.default_rng(seed))
            ref = searchsorted_states(model, 20_000, 0, np.random.default_rng(seed))
            np.testing.assert_array_equal(got, ref)


class TestStepFunctions:
    def test_zero_gamma_is_noop(self, queue_bases):
        phis = [b.phi for b in queue_bases.bases]
        weights = [np.ones(k) for k in queue_bases.sizes]
        new = td0_distributed_step(3, 4, 3.0, weights, phis, 0.9, 0.0, [0, 1, 2])
        for a, b in zip(new, weights):
            np.testing.assert_array_equal(a, b)

    def test_inputs_not_mutated(self, queue_bases):
        phis = [b.phi for b in queue_bases.bases]
        weights = [np.ones(k) for k in queue_bases.sizes]
        saved = [w.copy() for w in weights]
        td0_distributed_step(3, 4, 3.0, weights, phis, 0.9, 0.1, [1, 2, 0])
        avgcost_distributed_step(3, 4, 3.0, weights, 0.5, phis, 1.0, 0.1, [1, 2, 0])
        for a, b in zip(weights, saved):
            np.testing.assert_array_equal(a, b)

    def test_self_polling_reduces_to_centralized(self, queue_bases):
        phis = [b.phi for b in queue_bases.bases]
        rng = np.random.default_rng(0)
        weights = [rng.normal(size=k) for k in queue_bases.sizes]
        coupled = td0_distributed_step(
            10, 11, 10.0, weights, phis, 0.9, 0.05, [0, 1, 2]
        )
        for i in range(3):
            solo = td0_centralized_step(
                10, 11, 10.0, weights[i], phis[i], 0.9, 0.05
            )
            np.testing.assert_allclose(coupled[i], solo, atol=1e-14)

    def test_avgcost_self_polling_reduces_to_centralized(self, queue_bases):
        phis = [b.phi for b in queue_bases.bases]
        rng = np.random.default_rng(1)
        weights = [rng.normal(size=k) for k in queue_bases.sizes]
        coupled, mu_c = avgcost_distributed_step(
            10, 9, 10.0, weights, 2.0, phis, 1.5, 0.05, [0, 1, 2]
        )
        for i in range(3):
            solo, mu_s = avgcost_centralized_step(
                10, 9, 10.0, weights[i], 2.0, phis[i], 1.5, 0.05
            )
            np.testing.assert_allclose(coupled[i], solo, atol=1e-14)
            assert mu_c == pytest.approx(mu_s)

    def test_centralized_hand_computed(self):
        phi = np.array([[1.0, 0.0], [0.0, 2.0]])
        r = np.array([1.0, 1.0])
        # td = 3 + 0.5 * (phi[1] @ r) - phi[0] @ r = 3 + 1 - 1 = 3
        new = td0_centralized_step(0, 1, 3.0, r, phi, 0.5, 0.1)
        np.testing.assert_allclose(new, [1.0 + 0.1 * 3.0 * 1.0, 1.0])


class TestExpectedUpdateAtFixedPoint:
    """The solved fixed points are exactly the zeros of the mean dynamics."""

    def test_discounted_distributed(self, queue_model, queue_q, queue_bases, queue_eta):
        aug = g.build_augmented(queue_model, queue_q, queue_bases, queue_eta)
        fp = g.solve_discounted_fixed_point(aug, 0.9)
        drift = enumerate_expected_distributed_update(
            queue_model, queue_bases, queue_q, queue_eta, aug.split(fp.r_star), 0.9
        )
        for d in drift:
            assert np.max(np.abs(d)) < 1e-10

    def test_discounted_off_fixed_point_has_drift(
        self, queue_model, queue_q, queue_bases, queue_eta
    ):
        weights = [np.zeros(k) for k in queue_bases.sizes]
        drift = enumerate_expected_distributed_update(
            queue_model, queue_bases, queue_q, queue_eta, weights, 0.9
        )
        assert max(np.max(np.abs(d)) for d in drift) > 1.0

    def test_average_distributed(self, queue_model, queue_q, queue_bases, queue_eta):
        bases = g.orthogonalize_ensemble(queue_bases, queue_eta)
        aug = g.build_augmented(queue_model, queue_q, bases, queue_eta)
        mu = g.average_cost(queue_model, queue_eta)
        fp = g.solve_average_fixed_point(aug, mu)
        drift, mu_drift = enumerate_expected_avgcost_update(
            queue_model, bases, queue_q, queue_eta, aug.split(fp.r_star), mu, 1.0
        )
        assert abs(mu_drift) < 1e-10
        for d in drift:
            assert np.max(np.abs(d)) < 1e-10

    def test_single_agent_classical(self, queue_model, queue_eta):
        rng = np.random.default_rng(2)
        basis = random_basis(rng, 51, 4)
        r = classical_td_fixed_point(queue_model, basis, 0.9, queue_eta)
        gm = g.GossipMatrix(q=np.eye(1))
        drift = enumerate_expected_distributed_update(
            queue_model, g.BasisEnsemble(bases=(basis,)), gm, queue_eta, [r], 0.9
        )
        assert np.max(np.abs(drift[0])) < 1e-10


class TestRun:
    def test_deterministic_for_seed(self, queue_model, queue_q, queue_bases):
        cfg = g.RunConfig(steps=2000, seed=42, record_every=500)
        a = g.run(queue_model, queue_bases, queue_q, cfg)
        b = g.run(queue_model, queue_bases, queue_q, cfg)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_seed_changes_output(self, queue_model, queue_q, queue_bases):
        a = g.run(queue_model, queue_bases, queue_q, g.RunConfig(steps=2000, seed=1))
        b = g.run(queue_model, queue_bases, queue_q, g.RunConfig(steps=2000, seed=2))
        assert any(
            not np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights)
        )

    def test_coupled_and_uncoupled_share_state_path(
        self, queue_model, queue_q, queue_bases
    ):
        # identical chain stream: record at every step and compare the cost
        # sequences implicitly through mu in average mode
        ca = g.RunConfig(steps=500, seed=9, criterion="average", alpha=None)
        cb = g.RunConfig(
            steps=500, seed=9, criterion="average", alpha=None, mode="uncoupled"
        )
        a = g.run(queue_model, queue_bases, queue_q, ca)
        b = g.run(queue_model, queue_bases, None, cb)
        np.testing.assert_array_equal(a.mu, b.mu)

    def test_records_step_zero_and_end(self, queue_model, queue_q, queue_bases):
        traj = g.run(
            queue_model, queue_bases, queue_q, g.RunConfig(steps=1234, record_every=500)
        )
        assert traj.steps[0] == 0 and traj.steps[-1] == 1234
        assert list(traj.steps) == [0, 500, 1000, 1234]
        for w in traj.weights:
            assert np.all(w[0] == 0.0)

    def test_zero_cost_stays_zero(self, queue_q, queue_bases, queue_model):
        model = g.MarkovModel(P=queue_model.P, c=np.zeros_like(queue_model.c))
        traj = g.run(model, queue_bases, queue_q, g.RunConfig(steps=1000))
        for w in traj.final.weights:
            np.testing.assert_array_equal(w, np.zeros_like(w))

    def test_centralized_single_agent_converges(self):
        # small chain with full features: TD(0) approaches the exact value
        rng = np.random.default_rng(3)
        model = random_chain(rng, 4)
        basis = g.FeatureBasis(phi=np.eye(4))
        exact = g.discounted_value(model, 0.8)
        cfg = g.RunConfig(
            steps=200_000,
            seed=0,
            mode="centralized",
            alpha=0.8,
            schedule=g.PowerSchedule(a=0.2, p=0.6, scale=1000.0),
        )
        traj = g.run(model, g.BasisEnsemble(bases=(basis,)), None, cfg)
        assert np.max(np.abs(traj.final.weights[0] - exact)) < 0.1

    def test_divergence_detected(self, queue_model, queue_q, queue_bases):
        cfg = g.RunConfig(
            steps=5000, schedule=g.PowerSchedule(a=5.0, p=0.75, scale=50_000.0)
        )
        with pytest.raises(DivergenceError):
            g.run(queue_model, queue_bases, queue_q, cfg)

    def test_distributed_without_gossip_rejected(self, queue_model, queue_bases):
        with pytest.raises(StructuralError):
            g.run(queue_model, queue_bases, None, g.RunConfig(steps=10))

    def test_config_validation(self):
        with pytest.raises(StructuralError):
            g.RunConfig(steps=0)
        with pytest.raises(StructuralError):
            g.RunConfig(steps=10, mode="nope")
        with pytest.raises(StructuralError):
            g.RunConfig(steps=10, alpha=1.5)
        with pytest.raises(StructuralError):
            g.RunConfig(steps=10, criterion="average", alpha=None, k=0.0)
        with pytest.raises(StructuralError):
            g.RunConfig(steps=10, record_every=0)

    def test_csv_round_trip(self, tmp_path, queue_model, queue_q, queue_bases):
        traj = g.run(
            queue_model, queue_bases, queue_q, g.RunConfig(steps=1000, record_every=500)
        )
        path = tmp_path / "w.csv"
        traj.write_weights_csv(path)
        import csv

        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(traj.steps) * 9
        last = [r for r in rows if r["step"] == "1000" and r["agent"] == "0"]
        got = np.array([float(r["value"]) for r in last])
        np.testing.assert_array_equal(got, traj.weights[0][-1])


def _max_rel_err(got, ref):
    return float(np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-300))


class TestEngineMatchesStepFunctions:
    """`run` against a loop over the pure step functions on the same streams."""

    STEPS = 1000  # not a multiple of the engine's segment length

    @pytest.mark.parametrize("record_every", [1, 7, STEPS, STEPS + 13])
    @pytest.mark.parametrize("criterion", ["discounted", "average"])
    @pytest.mark.parametrize("mode", ["distributed", "uncoupled", "centralized"])
    def test_snapshots_match(
        self, queue_model, queue_q, queue_bases, mode, criterion, record_every
    ):
        assert self.STEPS % _SEGMENT != 0
        bases = queue_bases
        if mode == "centralized":
            bases = g.BasisEnsemble(bases=(queue_bases.bases[1],))
        gm = queue_q if mode == "distributed" else None
        cfg = g.RunConfig(
            steps=self.STEPS,
            seed=5,
            mode=mode,
            criterion=criterion,
            alpha=0.9 if criterion == "discounted" else None,
            k=1.5,
            record_every=record_every,
            schedule=g.PowerSchedule(a=0.2, p=0.75, scale=300.0),
        )
        traj = g.run(queue_model, bases, gm, cfg)
        steps, weights, mu = reference_run(queue_model, bases, gm, cfg)
        np.testing.assert_array_equal(traj.steps, steps)
        for got, ref, final in zip(traj.weights, weights, traj.final.weights):
            assert got.shape == ref.shape
            assert _max_rel_err(got, ref) <= 1e-10
            np.testing.assert_array_equal(final, got[-1])
        if criterion == "average":
            assert _max_rel_err(traj.mu, mu) <= 1e-10
            assert traj.final.mu == traj.mu[-1]
        else:
            assert traj.mu is None

    @pytest.mark.parametrize(
        "overrides, what",
        [
            ({"record_every": 50, "schedule": g.PowerSchedule(a=5.0)}, "weight"),
            (
                {"record_every": 5, "criterion": "average", "alpha": None, "k": 25.0},
                "mu",
            ),
        ],
    )
    def test_divergence_at_first_bad_record(
        self, queue_model, queue_q, queue_bases, overrides, what
    ):
        cfg = g.RunConfig(steps=3000, **overrides)
        with pytest.raises(DivergenceError) as ref:
            reference_run(queue_model, queue_bases, queue_q, cfg)
        with pytest.raises(DivergenceError) as got:
            g.run(queue_model, queue_bases, queue_q, cfg)
        assert str(got.value) == str(ref.value)
        assert str(got.value).split(": ")[1].startswith(what)
        assert 0 < got.value.step < cfg.steps
