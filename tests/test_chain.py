import numpy as np
import pytest

import gossiptd as g
from gossiptd.errors import AssumptionViolationError, NumericalError, StructuralError

from helpers import (
    birth_death_stationary,
    cesaro_differential_value,
    matrix_power_validation,
    power_series_value,
    random_chain,
    random_graph_chain,
)


class TestValidateChain:
    def test_two_cycle_is_periodic(self):
        model = g.MarkovModel(P=[[0, 1], [1, 0]], c=np.zeros((2, 2)))
        with pytest.raises(AssumptionViolationError, match=r"\(A2\)"):
            g.validate_chain(model)

    def test_positive_matrix_is_valid(self):
        model = g.MarkovModel(P=[[0.5, 0.5], [0.5, 0.5]], c=np.zeros((2, 2)))
        assert g.validate_chain(model).ok

    def test_queue_chain_is_valid(self, queue_model):
        rep = g.validate_chain(queue_model)
        assert rep.ok and rep.irreducible and rep.aperiodic

    def test_non_stochastic_row_rejected(self):
        model = g.MarkovModel(P=[[0.5, 0.6], [0.5, 0.5]], c=np.zeros((2, 2)))
        with pytest.raises(StructuralError):
            g.validate_chain(model)

    def test_reducible_rejected(self):
        model = g.MarkovModel(P=np.eye(2), c=np.zeros((2, 2)))
        with pytest.raises(AssumptionViolationError, match=r"\(A2\)"):
            g.validate_chain(model)

    def test_matches_matrix_power_reference(self):
        rng = np.random.default_rng(0)
        outcomes = {}
        for trial in range(600):
            kind = ("sparse", "permutation", "cyclic")[trial % 3]
            model = random_graph_chain(rng, int(rng.integers(1, 9)), kind)
            expected = matrix_power_validation(model.P)
            assert g.validate_chain(model, raise_on_error=False) == expected, model.P
            key = tuple(expected.messages)
            outcomes[key] = outcomes.get(key, 0) + 1
        # primitive, reducible and periodic chains are all well represented
        assert len(outcomes) == 3 and min(outcomes.values()) >= 50, outcomes

    def test_accepts_kron_of_primitive_chains(self, queue_model, queue_q):
        # (Q x P)^k = Q^k x P^k, so the lifted chain is primitive when Q and P are
        rng = np.random.default_rng(1)
        pairs = [(queue_q.q, queue_model.P)]
        while len(pairs) < 40:
            Q = random_graph_chain(rng, int(rng.integers(1, 7)), "permutation").P
            P = random_graph_chain(rng, int(rng.integers(1, 7)), "permutation").P
            if matrix_power_validation(Q).ok and matrix_power_validation(P).ok:
                pairs.append((Q, P))
        for Q, P in pairs:
            lifted = np.kron(Q, P)
            model = g.MarkovModel(P=lifted, c=np.zeros_like(lifted))
            assert g.validate_chain(model).ok


class TestStationaryDistribution:
    def test_symmetric_two_state(self):
        model = g.MarkovModel(P=[[0.5, 0.5], [0.5, 0.5]], c=np.zeros((2, 2)))
        eta = g.stationary_distribution(model)
        np.testing.assert_allclose(eta.eta, [0.5, 0.5], atol=1e-12)

    def test_hand_solved_balance(self, two_state):
        # balance: 0.1 eta1 = 0.5 eta2 -> eta = (5/6, 1/6)
        eta = g.stationary_distribution(two_state)
        np.testing.assert_allclose(eta.eta, [5 / 6, 1 / 6], atol=1e-12)

    def test_queue_matches_detailed_balance(self, queue_model, queue_eta):
        expected = birth_death_stationary(queue_model.P)
        np.testing.assert_allclose(queue_eta.eta, expected, atol=1e-12)

    def test_stationarity_residual(self, queue_model, queue_eta):
        assert np.max(np.abs(queue_eta.eta @ queue_model.P - queue_eta.eta)) < 1e-10
        assert abs(queue_eta.eta.sum() - 1.0) < 1e-12
        assert np.all(queue_eta.eta > 0)

    def test_long_queue_matches_closed_form_componentwise(self):
        # eta(i) ~ ratio^i spans ~30 decades at cap 300; every entry, the
        # smallest included, must keep its relative accuracy.
        spec = g.QueueSpec(cap=300)
        ratio = (spec.p_arrival * (1 - spec.p_departure)) / (
            (1 - spec.p_arrival) * spec.p_departure
        )
        closed = ratio ** np.arange(spec.cap + 1)
        closed /= closed.sum()
        eta = g.stationary_distribution(g.build_queue_chain(spec)).eta
        assert np.max(np.abs(eta / closed - 1.0)) <= 1e-13

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "P",
        [
            # zero pivot at the first step, one step later, and a transient
            # state (pivots positive, eta(1) = 0)
            np.eye(2),
            [[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]],
            [[1.0, 0.0], [1.0, 0.0]],
        ],
    )
    def test_reducible_chain_raises_numerical_error(self, P):
        model = g.MarkovModel(P=P, c=np.zeros_like(P, dtype=float))
        with pytest.raises(NumericalError):
            g.stationary_distribution(model)

    def test_non_finite_entries_raise_numerical_error(self):
        model = g.MarkovModel(P=[[0.5, np.nan], [0.5, 0.5]], c=np.zeros((2, 2)))
        with pytest.raises(NumericalError):
            g.stationary_distribution(model)


class TestMeanCost:
    def test_zero_cost(self, queue_model):
        model = g.MarkovModel(P=queue_model.P, c=np.zeros_like(queue_model.c))
        np.testing.assert_array_equal(g.mean_cost(model), np.zeros(model.m))

    def test_unit_cost(self, two_state):
        model = g.MarkovModel(P=two_state.P, c=np.ones((2, 2)))
        np.testing.assert_allclose(g.mean_cost(model), [1.0, 1.0])

    def test_hand_computed(self, two_state):
        # c(i,j) = j on states (1, 2): cbar = (0.9 + 0.2, 0.5 + 1.0)
        np.testing.assert_allclose(g.mean_cost(two_state), [1.1, 1.5], atol=1e-14)


class TestDiscountedValue:
    def test_constant_cost(self, two_state):
        model = g.MarkovModel(P=two_state.P, c=np.ones((2, 2)))
        np.testing.assert_allclose(
            g.discounted_value(model, 0.9), np.full(2, 10.0), atol=1e-9
        )

    def test_defining_residual(self, queue_model):
        J = g.discounted_value(queue_model, 0.9)
        resid = (np.eye(queue_model.m) - 0.9 * queue_model.P) @ J - g.mean_cost(
            queue_model
        )
        assert np.max(np.abs(resid)) < 1e-10

    def test_against_power_series(self, two_state):
        J = g.discounted_value(two_state, 0.9)
        np.testing.assert_allclose(J, power_series_value(two_state, 0.9), atol=1e-5)

    def test_alpha_out_of_range(self, two_state):
        for alpha in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(StructuralError):
                g.discounted_value(two_state, alpha)


class TestAverageCost:
    def test_unit_cost(self, two_state):
        model = g.MarkovModel(P=two_state.P, c=np.ones((2, 2)))
        assert g.average_cost(model) == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed(self, two_state):
        assert g.average_cost(two_state) == pytest.approx(
            (5 / 6) * 1.1 + (1 / 6) * 1.5, abs=1e-12
        )

    def test_against_long_trajectory(self, queue_model):
        from gossiptd.learner import simulate_states

        rng = np.random.default_rng(2)
        states = simulate_states(queue_model, 1_000_000, 0, rng)
        empirical = queue_model.c[states[:-1], states[1:]].mean()
        mu = g.average_cost(queue_model)
        assert abs(empirical - mu) / mu < 0.01


class TestBasicDifferentialValue:
    def test_constant_cost_gives_zero(self, two_state):
        model = g.MarkovModel(P=two_state.P, c=np.full((2, 2), 3.0))
        np.testing.assert_allclose(
            g.basic_differential_value(model), np.zeros(2), atol=1e-10
        )

    def test_normalization(self, queue_model, queue_eta):
        J = g.basic_differential_value(queue_model, queue_eta)
        assert abs(queue_eta.eta @ J) < 1e-10

    def test_poisson_residual(self, queue_model, queue_eta):
        J = g.basic_differential_value(queue_model, queue_eta)
        cbar = g.mean_cost(queue_model)
        mu = g.average_cost(queue_model, queue_eta)
        resid = J - (cbar - mu + queue_model.P @ J)
        assert np.max(np.abs(resid)) < 1e-9

    def test_against_cesaro_series(self, two_state):
        eta = g.stationary_distribution(two_state)
        J = g.basic_differential_value(two_state, eta)
        np.testing.assert_allclose(
            J, cesaro_differential_value(two_state, eta), atol=1e-8
        )


class TestWeightedNorm:
    def test_ones(self, queue_eta):
        assert g.weighted_norm(np.ones(51), queue_eta) == pytest.approx(1.0, abs=1e-12)

    def test_zero(self, queue_eta):
        assert g.weighted_norm(np.zeros(51), queue_eta) == 0.0

    def test_hand_computed(self):
        eta = g.StationaryWeights(eta=np.array([5 / 6, 1 / 6]))
        assert g.weighted_norm(np.array([1.0, -1.0]), eta) == pytest.approx(1.0)


class TestBellmanOperators:
    def test_discounted_fixed_point(self, queue_model):
        J = g.discounted_value(queue_model, 0.9)
        np.testing.assert_allclose(
            g.bellman_discounted(J, queue_model, 0.9), J, atol=1e-9
        )

    def test_discounted_at_zero(self, queue_model):
        np.testing.assert_allclose(
            g.bellman_discounted(np.zeros(51), queue_model, 0.9),
            g.mean_cost(queue_model),
        )

    def test_discounted_contraction_sampled(self, queue_model, queue_eta):
        rng = np.random.default_rng(0)
        alpha = 0.9
        for _ in range(100):
            x, y = rng.normal(size=(2, queue_model.m))
            lhs = g.weighted_norm(
                g.bellman_discounted(x, queue_model, alpha)
                - g.bellman_discounted(y, queue_model, alpha),
                queue_eta,
            )
            assert lhs <= alpha * g.weighted_norm(x - y, queue_eta) + 1e-12

    def test_average_fixed_point(self, queue_model, queue_eta):
        J = g.basic_differential_value(queue_model, queue_eta)
        np.testing.assert_allclose(
            g.bellman_average(J, queue_model, queue_eta), J, atol=1e-8
        )

    def test_average_at_zero(self, queue_model, queue_eta):
        expected = g.mean_cost(queue_model) - g.average_cost(queue_model, queue_eta)
        np.testing.assert_allclose(
            g.bellman_average(np.zeros(51), queue_model, queue_eta), expected
        )

    def test_average_contraction_on_orthogonal_subspace(self, queue_model, queue_eta):
        factor = g.orthogonal_contraction_factor(queue_model, queue_eta)
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.normal(size=queue_model.m)
            x -= (queue_eta.eta @ x) / queue_eta.eta.sum()
            x = g.projection_onto_ones_complement(queue_eta, x)
            y = g.projection_onto_ones_complement(queue_eta, rng.normal(size=51))
            lhs = g.weighted_norm(queue_model.P @ (x - y), queue_eta)
            assert lhs <= factor * g.weighted_norm(x - y, queue_eta) + 1e-10


class TestOrthogonalContractionFactor:
    def test_rank_one_chain(self):
        model = g.MarkovModel(P=[[0.5, 0.5], [0.5, 0.5]], c=np.zeros((2, 2)))
        assert g.orthogonal_contraction_factor(model) == pytest.approx(0.0, abs=1e-12)

    def test_identity_rejected(self):
        model = g.MarkovModel(P=np.eye(3), c=np.zeros((3, 3)))
        with pytest.raises(AssumptionViolationError, match="single-class"):
            g.orthogonal_contraction_factor(model)

    def test_queue_factor_below_one(self, queue_model, queue_eta):
        factor = g.orthogonal_contraction_factor(queue_model, queue_eta)
        assert 0.0 < factor < 1.0

    def test_random_search_never_exceeds(self, queue_model, queue_eta):
        factor = g.orthogonal_contraction_factor(queue_model, queue_eta)
        rng = np.random.default_rng(3)
        best = 0.0
        for _ in range(10_000):
            x = g.projection_onto_ones_complement(
                queue_eta, rng.normal(size=queue_model.m)
            )
            ratio = g.weighted_norm(queue_model.P @ x, queue_eta) / g.weighted_norm(
                x, queue_eta
            )
            best = max(best, ratio)
        assert best <= factor + 1e-8


class TestAddSelfLoops:
    def test_two_cycle_becomes_aperiodic(self):
        model = g.MarkovModel(P=[[0, 1], [1, 0]], c=np.zeros((2, 2)))
        looped = g.add_self_loops(model, 0.5)
        assert g.validate_chain(looped).ok
        np.testing.assert_allclose(
            g.stationary_distribution(looped).eta, [0.5, 0.5], atol=1e-12
        )

    def test_stationary_preserved_on_random_chains(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            model = random_chain(rng, 6)
            eta = g.stationary_distribution(model).eta
            for delta in (0.1, 0.5):
                eta2 = g.stationary_distribution(g.add_self_loops(model, delta)).eta
                np.testing.assert_allclose(eta2, eta, atol=1e-10)

    def test_differential_value_preserved_up_to_sojourn_scaling(
        self, queue_model, queue_eta
    ):
        # Self-loops stretch time: the looped chain solves the same Poisson
        # equation with (1 - delta)(I - P), so its differential value is
        # exactly J / (1 - delta).
        J = g.basic_differential_value(queue_model, queue_eta)
        for delta in (0.1, 0.5):
            looped = g.add_self_loops(queue_model, delta)
            J2 = g.basic_differential_value(looped)
            np.testing.assert_allclose((1.0 - delta) * J2, J, atol=1e-9)

    def test_delta_out_of_range(self, queue_model):
        for delta in (0.0, 1.0, -0.1):
            with pytest.raises(StructuralError):
                g.add_self_loops(queue_model, delta)


class TestJsonRoundTrip:
    def test_model_round_trip(self, two_state):
        clone = g.MarkovModel.from_json(two_state.to_json())
        np.testing.assert_array_equal(clone.P, two_state.P)
        np.testing.assert_array_equal(clone.c, two_state.c)
