import json

import numpy as np
import pytest

import gossiptd as g
from gossiptd.errors import StructuralError


@pytest.fixture(scope="module")
def discounted_report(queue_model, queue_q, queue_bases, queue_eta):
    aug = g.build_augmented(queue_model, queue_q, queue_bases, queue_eta)
    fp = g.solve_fixed_point(aug, g.Criterion(0.9))
    report = g.compute_errors(
        queue_model, queue_bases, queue_q, g.Criterion(0.9), fp, queue_eta
    )
    return aug, fp, report


class TestDiscountedErrorReport:
    def test_achieved_at_least_best_in_span(self, discounted_report):
        _, _, rep = discounted_report
        assert np.all(rep.e >= rep.e_star - 1e-10)

    def test_componentwise_squared_bound(self, discounted_report):
        _, _, rep = discounted_report
        assert np.all(rep.e**2 <= rep.e2_bound + 1e-8)

    def test_max_error_bound_chain(self, discounted_report):
        _, _, rep = discounted_report
        alpha = rep.contraction_modulus
        assert alpha == 0.9
        # the scalar bound dominates the componentwise one, which dominates e
        assert np.max(rep.e) <= rep.max_error_bound + 1e-8
        expected = np.sqrt(rep.beta / (1 - alpha**2)) * np.max(rep.e_star)
        assert rep.max_error_bound == pytest.approx(expected, rel=1e-12)

    def test_beta_range_and_side_condition(self, discounted_report):
        _, _, rep = discounted_report
        assert 0.0 < rep.beta <= 1.0
        assert rep.side_condition_met

    def test_beta_definition(self, discounted_report, queue_q):
        _, _, rep = discounted_report
        a2 = rep.contraction_modulus**2
        qtilde = (1 - a2) * np.linalg.inv(np.eye(3) - a2 * queue_q.q)
        np.testing.assert_allclose(qtilde.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(qtilde.sum(axis=0), 1.0, atol=1e-12)
        beta = np.max(qtilde @ rep.e_star**2) / np.max(rep.e_star**2)
        assert rep.beta == pytest.approx(beta, rel=1e-12)

    def test_jbar_bound_holds(self, discounted_report):
        _, _, rep = discounted_report
        assert rep.jbar_error <= rep.jbar_bound + 1e-8

    def test_e_star_is_projection_error(
        self, discounted_report, queue_model, queue_bases, queue_eta
    ):
        _, _, rep = discounted_report
        j = g.discounted_value(queue_model, 0.9)
        for i, basis in enumerate(queue_bases.bases):
            pj = g.projection_apply(basis, queue_eta, j)
            assert rep.e_star[i] == pytest.approx(
                g.weighted_norm(j - pj, queue_eta), rel=1e-10
            )

    def test_json_round_trip(self, discounted_report):
        _, _, rep = discounted_report
        doc = json.loads(rep.to_json())
        np.testing.assert_allclose(doc["e"], rep.e)
        assert doc["beta"] == rep.beta


class TestIdenticalBasesDegenerate:
    def test_equal_e_star_gives_beta_one(self, queue_model, queue_q, queue_eta):
        # identical bases: all e_star equal, the bound collapses to beta = 1
        # and the side condition (a worst agent polls a strictly better one)
        # cannot hold
        basis = g.build_queue_bases().bases[0]
        ens = g.BasisEnsemble(
            bases=tuple(g.FeatureBasis(basis.phi.copy(), agent_id=a) for a in range(3))
        )
        aug = g.build_augmented(queue_model, queue_q, ens, queue_eta)
        fp = g.solve_fixed_point(aug, g.Criterion(0.9))
        rep = g.compute_errors(
            queue_model, ens, queue_q, g.Criterion(0.9), fp, queue_eta
        )
        assert rep.beta == pytest.approx(1.0, abs=1e-10)
        assert not rep.side_condition_met


class TestAverageErrorReport:
    def test_full_report(self, queue_model, queue_q, queue_bases, queue_eta):
        bases = g.orthogonalize_ensemble(queue_bases, queue_eta)
        aug = g.build_augmented(queue_model, queue_q, bases, queue_eta)
        mu = g.average_cost(queue_model, queue_eta)
        fp = g.solve_fixed_point(aug, g.Criterion(None))
        rep = g.compute_errors(
            queue_model, bases, queue_q, g.Criterion(None), fp, queue_eta
        )
        assert 0.0 < rep.contraction_modulus < 1.0
        assert rep.contraction_modulus == pytest.approx(
            g.orthogonal_contraction_factor(queue_model, queue_eta)
        )
        assert np.all(rep.e >= rep.e_star - 1e-10)
        assert np.all(rep.e**2 <= rep.e2_bound + 1e-6)
        assert np.max(rep.e) <= rep.max_error_bound + 1e-6

    def test_unorthogonalized_bases_rejected(
        self, queue_model, queue_q, queue_bases, queue_eta
    ):
        aug = g.build_augmented(queue_model, queue_q, queue_bases, queue_eta)
        fp = g.solve_fixed_point(aug, g.Criterion(0.9))
        with pytest.raises(StructuralError):
            g.compute_errors(
                queue_model, queue_bases, queue_q, g.Criterion(None), fp, queue_eta
            )


@pytest.fixture(scope="module")
def traj(queue_model, queue_q, queue_bases):
    cfg = g.RunConfig(steps=20_000, seed=0, record_every=5000)
    return g.run(queue_model, queue_bases, queue_q, cfg)


class TestMetricsOverTime:
    def test_series_shapes(self, traj, queue_model, queue_bases, queue_eta):
        series = g.metrics_over_time(traj, queue_model, queue_bases, queue_eta)
        assert len(series.steps) == len(traj.steps)
        assert len(series.max_error) == len(traj.steps)
        assert np.all(series.variance_weighted >= 0)
        assert np.all(series.variance_unweighted >= 0)

    def test_initial_point_is_exact(self, traj, queue_model, queue_bases, queue_eta):
        # all-zero weights: max error is ||J||, dispersion is zero
        series = g.metrics_over_time(traj, queue_model, queue_bases, queue_eta)
        j = g.discounted_value(queue_model, 0.9)
        assert series.max_error[0] == pytest.approx(g.weighted_norm(j, queue_eta))
        assert series.variance_weighted[0] == 0.0

    def test_error_decreases_from_start(self, traj, queue_model, queue_bases, queue_eta):
        series = g.metrics_over_time(traj, queue_model, queue_bases, queue_eta)
        assert series.max_error[-1] < series.max_error[0]

    def test_csv_round_trip(self, tmp_path, traj, queue_model, queue_bases, queue_eta):
        import csv

        series = g.metrics_over_time(traj, queue_model, queue_bases, queue_eta)
        path = tmp_path / "metrics.csv"
        series.write_csv(path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(series.steps)
        got = np.array([float(r["max_error"]) for r in rows])
        np.testing.assert_array_equal(got, series.max_error)
