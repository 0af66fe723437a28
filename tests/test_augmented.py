import numpy as np
import pytest

import gossiptd as g
from gossiptd.errors import AssumptionViolationError

from gossiptd.augmented import _assemble
from helpers import (
    classical_td_fixed_point,
    kronecker_fixed_point_system,
    random_basis,
    random_chain,
    random_doubly_stochastic,
)


def _single_agent(model, basis):
    gm = g.GossipMatrix(q=np.eye(1))
    return g.build_augmented(model, gm, g.BasisEnsemble(bases=(basis,)))


class TestBuildAugmented:
    def test_shapes(self, queue_model, queue_q, queue_bases):
        aug = g.build_augmented(queue_model, queue_q, queue_bases)
        assert aug.rho.shape == (153, 153)
        assert aug.Psi.shape == (153, 9)
        assert aug.nu.shape == (153,)
        assert aug.ctilde.shape == (153,)

    def test_single_agent_lift_is_trivial(self, queue_model, queue_bases, queue_eta):
        basis = queue_bases.bases[0]
        aug = _single_agent(queue_model, basis)
        np.testing.assert_allclose(aug.rho, queue_model.P, atol=1e-15)
        np.testing.assert_allclose(aug.Psi, basis.phi, atol=1e-15)
        np.testing.assert_allclose(aug.nu, queue_eta.eta, atol=1e-12)
        np.testing.assert_allclose(aug.ctilde, g.mean_cost(queue_model), atol=1e-15)

    def test_nu_is_stationary_for_rho(self, queue_model, queue_q, queue_bases):
        aug = g.build_augmented(queue_model, queue_q, queue_bases)
        assert np.max(np.abs(aug.nu @ aug.rho - aug.nu)) < 1e-10
        assert aug.nu.sum() == pytest.approx(1.0, abs=1e-12)

    def test_block_structure(self, queue_model, queue_q, queue_bases):
        aug = g.build_augmented(queue_model, queue_q, queue_bases)
        # off-diagonal feature blocks are exactly zero
        assert np.all(aug.Psi[:51, 4:] == 0.0)
        assert np.all(aug.Psi[51:102, :4] == 0.0)
        assert np.all(aug.Psi[51:102, 7:] == 0.0)
        assert np.all(aug.Psi[102:, :7] == 0.0)

    def test_split_round_trip(self, queue_model, queue_q, queue_bases):
        aug = g.build_augmented(queue_model, queue_q, queue_bases)
        r = np.arange(9.0)
        parts = aug.split(r)
        assert [len(p) for p in parts] == [4, 3, 2]
        np.testing.assert_array_equal(np.concatenate(parts), r)

    def test_non_stationary_eta_rejected(self, queue_model, queue_q, queue_bases):
        eta = g.StationaryWeights(eta=np.full(51, 1 / 51))
        with pytest.raises(AssumptionViolationError, match="not stationary"):
            g.build_augmented(queue_model, queue_q, queue_bases, eta)


def _factor_case(case):
    """(model, gossip, bases): the queue preset, then random chains."""
    if case == "queue":
        return g.build_queue_chain(g.QueueSpec()), g.GossipMatrix.preset("queue-3"), (
            g.build_queue_bases()
        )
    m, n = case
    rng = np.random.default_rng(m * n)
    sizes = rng.integers(1, 4, size=n)
    bases = tuple(random_basis(rng, m, int(k), a) for a, k in enumerate(sizes))
    return (
        random_chain(rng, m),
        random_doubly_stochastic(rng, n),
        g.BasisEnsemble(bases=bases),
    )


class TestFactorAssembly:
    @pytest.mark.parametrize(
        "case", ["queue", (8, 3), (6, 4), (12, 2)], ids=["queue", "m8n3", "m6n4", "m12n2"]
    )
    def test_matches_kronecker_assembly(self, case):
        model, gm, bases = _factor_case(case)
        eta = g.stationary_distribution(model)
        cbar = g.mean_cost(model)
        for alpha, target, ens in (
            (0.9, cbar, bases),
            (
                1.0,
                cbar - g.average_cost(model, eta),
                g.orthogonalize_ensemble(bases, eta),
            ),
        ):
            aug = g.build_augmented(model, gm, ens, eta)
            A, b = _assemble(aug, alpha, target)
            A_ref, b_ref = kronecker_fixed_point_system(aug, alpha, target)
            np.testing.assert_allclose(A, A_ref, rtol=0, atol=1e-15)
            np.testing.assert_allclose(b, b_ref, rtol=0, atol=1e-15)


class TestDiscountedFixedPoint:
    def test_single_agent_matches_classical_td(self, queue_model, queue_eta):
        rng = np.random.default_rng(0)
        basis = random_basis(rng, 51, 5)
        aug = _single_agent(queue_model, basis)
        fp = g.solve_fixed_point(aug, g.Criterion(0.9))
        expected = classical_td_fixed_point(queue_model, basis, 0.9, queue_eta)
        np.testing.assert_allclose(fp.r_star, expected, atol=1e-10)

    def test_full_features_recover_exact_value(self, queue_model):
        # identity features make TD exact: Phi r* = (I - alpha P)^{-1} cbar
        basis = g.FeatureBasis(phi=np.eye(51))
        aug = _single_agent(queue_model, basis)
        fp = g.solve_fixed_point(aug, g.Criterion(0.9))
        np.testing.assert_allclose(
            fp.r_star, g.discounted_value(queue_model, 0.9), atol=1e-8
        )

    def test_residual_reported(self, queue_model, queue_q, queue_bases):
        aug = g.build_augmented(queue_model, queue_q, queue_bases)
        fp = g.solve_fixed_point(aug, g.Criterion(0.9))
        assert fp.residual < 1e-9

    def test_uniform_gossip_identical_bases_agree_with_single_agent(self):
        # With identical bases and any doubly stochastic Q, every agent's
        # block of the fixed point equals the single-agent TD solution.
        rng = np.random.default_rng(1)
        model = random_chain(rng, 8)
        eta = g.stationary_distribution(model)
        basis = random_basis(rng, 8, 3)
        gm = g.GossipMatrix(q=np.full((3, 3), 1 / 3))
        ens = g.BasisEnsemble(bases=(basis, basis, basis))
        aug = g.build_augmented(model, gm, ens)
        fp = g.solve_fixed_point(aug, g.Criterion(0.9))
        expected = classical_td_fixed_point(model, basis, 0.9, eta)
        for part in g.build_augmented(model, gm, ens).split(fp.r_star):
            np.testing.assert_allclose(part, expected, atol=1e-8)


class TestA6:
    def test_queue_bases_pass(self, queue_model, queue_q, queue_bases):
        g.check_a6(g.build_augmented(queue_model, queue_q, queue_bases))

    def test_constant_feature_every_agent_fails(self, queue_model, queue_q):
        i = np.arange(51.0)
        basis = g.FeatureBasis(phi=np.column_stack([np.ones(51), i]))
        ens = g.BasisEnsemble(
            bases=tuple(
                g.FeatureBasis(basis.phi.copy(), agent_id=a) for a in range(3)
            )
        )
        aug = g.build_augmented(queue_model, queue_q, ens)
        with pytest.raises(AssumptionViolationError, match=r"\(A6\)"):
            g.check_a6(aug)

    def test_constant_feature_in_one_agent_passes(
        self, queue_model, queue_q, queue_bases
    ):
        # Psi is block-diagonal: e is in its range only if every agent represents 1
        const = g.FeatureBasis(phi=np.column_stack([np.ones(51), np.arange(51.0)]))
        ens = g.BasisEnsemble(bases=(const, *queue_bases.bases[1:]))
        g.check_a6(g.build_augmented(queue_model, queue_q, ens))


class TestAverageFixedPoint:
    def test_single_agent_complement_basis_recovers_differential(
        self, queue_model, queue_eta
    ):
        # A basis spanning the whole complement of the constant vector makes
        # projected TD exact: Phi r* equals the differential value shifted to
        # have zero stationary mean.
        from scipy.linalg import null_space

        N = null_space(queue_eta.eta[None, :])
        basis = g.FeatureBasis(phi=N)
        aug = _single_agent(queue_model, basis)
        mu = g.average_cost(queue_model, queue_eta)
        fp = g.solve_fixed_point(aug, g.Criterion(None))
        expected = g.basic_differential_value(queue_model, queue_eta)
        np.testing.assert_allclose(basis.phi @ fp.r_star, expected, atol=1e-7)

    def test_mu_recorded(self, queue_model, queue_q, queue_bases, queue_eta):
        bases = g.orthogonalize_ensemble(queue_bases, queue_eta)
        aug = g.build_augmented(queue_model, queue_q, bases)
        mu = g.average_cost(queue_model, queue_eta)
        fp = g.solve_fixed_point(aug, g.Criterion(None))
        assert fp.mu_star == pytest.approx(mu)
        assert fp.residual < 1e-9

    def test_json_round_trip(self, queue_model, queue_q, queue_bases):
        import json

        aug = g.build_augmented(queue_model, queue_q, queue_bases)
        fp = g.solve_fixed_point(aug, g.Criterion(0.9))
        doc = json.loads(fp.to_json())
        np.testing.assert_allclose(doc["r_star"], fp.r_star)
        assert doc["mu_star"] is None
