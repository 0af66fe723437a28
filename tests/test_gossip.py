import numpy as np
import pytest

import gossiptd as g
from gossiptd.errors import AssumptionViolationError, StructuralError
from gossiptd.gossip import sample_neighbors


class TestValidateGossip:
    def test_preset_matrix_valid(self, queue_q):
        rep = g.validate_gossip(queue_q)
        assert rep.ok and rep.doubly_stochastic

    def test_preset_values(self, queue_q):
        np.testing.assert_allclose(
            queue_q.q,
            [
                [5 / 12, 5 / 12, 1 / 6],
                [1 / 4, 1 / 4, 1 / 2],
                [1 / 3, 1 / 3, 1 / 3],
            ],
            atol=1e-15,
        )

    def test_identity_rejected(self):
        with pytest.raises(AssumptionViolationError, match=r"\(A3\)"):
            g.validate_gossip(g.GossipMatrix(q=np.eye(3)))

    def test_row_stochastic_only_rejected(self):
        q = np.array([[0.9, 0.1], [0.5, 0.5]])  # columns do not sum to 1
        with pytest.raises(AssumptionViolationError, match=r"\(A3\)"):
            g.validate_gossip(g.GossipMatrix(q=q))

    def test_permutation_rejected_periodic(self):
        q = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(AssumptionViolationError, match=r"\(A3\)"):
            g.validate_gossip(g.GossipMatrix(q=q))

    def test_zero_diagonal_warning(self):
        q = np.array(
            [
                [0.0, 0.5, 0.5],
                [0.5, 0.25, 0.25],
                [0.5, 0.25, 0.25],
            ]
        )
        rep = g.validate_gossip(g.GossipMatrix(q=q))
        assert rep.ok and rep.warnings

    def test_unknown_preset(self):
        with pytest.raises(StructuralError):
            g.GossipMatrix.preset("nope")


class TestSampleNeighbor:
    def test_frequencies_match_rows(self, queue_q):
        n_samples = 300_000
        u = np.random.default_rng(0).random((n_samples, queue_q.n))
        draws = sample_neighbors(queue_q, u)
        for i in range(queue_q.n):
            freq = np.bincount(draws[:, i], minlength=queue_q.n) / n_samples
            np.testing.assert_allclose(freq, queue_q.q[i], atol=0.01)

    def test_scalar_sampler_matches_vectorized(self, queue_q):
        # scalar reference: one inverse-CDF draw at a time over the row's
        # running sum, clamped to the last agent
        u = np.random.default_rng(7).random((500, queue_q.n))
        draws = sample_neighbors(queue_q, u)
        for t in range(u.shape[0]):
            for i in range(queue_q.n):
                cdf = np.cumsum(queue_q.q[i])
                j = min(int(np.searchsorted(cdf, u[t, i], side="right")), queue_q.n - 1)
                assert draws[t, i] == j

    def test_deterministic_row(self):
        q = np.array([[0.0, 1.0], [1.0, 0.0]])
        gm = g.GossipMatrix(q=q)
        draws = sample_neighbors(gm, np.random.default_rng(3).random((50, 2)))
        assert np.all(draws[:, 0] == 1) and np.all(draws[:, 1] == 0)

    def test_in_range_always(self, queue_q):
        u = np.random.default_rng(11).random((1000, queue_q.n))
        draws = sample_neighbors(queue_q, u)
        assert draws.min() >= 0 and draws.max() < queue_q.n
        # ten entries of 0.1 sum to just below 1: a draw past the rounded
        # row sum goes to the last agent
        uniform = g.GossipMatrix(q=np.full((10, 10), 0.1))
        assert uniform.row_cdfs()[0, -1] < 1.0
        top = sample_neighbors(uniform, np.full((1, 10), np.nextafter(1.0, 0.0)))
        assert np.all(top == 9)


class TestJsonRoundTrip:
    def test_round_trip(self, queue_q):
        clone = g.GossipMatrix.from_json(queue_q.to_json())
        np.testing.assert_array_equal(clone.q, queue_q.q)
