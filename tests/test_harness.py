import json
import subprocess
import sys

import numpy as np
import pytest

import gossiptd as g
from gossiptd.cli import main
from gossiptd.errors import StructuralError


class TestBuildQueueChain:
    def test_shape_and_validity(self, queue_model):
        assert queue_model.m == 51
        assert g.validate_chain(queue_model).ok

    def test_birth_death_structure(self, queue_model):
        P = queue_model.P
        # moves are at most one step
        assert np.all(np.triu(P, 2) == 0) and np.all(np.tril(P, -2) == 0)

    def test_interior_transition_probabilities(self, queue_model):
        P = queue_model.P
        pa, pd = 0.3, 0.35
        up = pa * (1 - pd)
        down = (1 - pa) * pd
        stay = (1 - pa) * (1 - pd) + pa * pd
        for i in (1, 10, 49):
            assert P[i, i + 1] == pytest.approx(up)
            assert P[i, i - 1] == pytest.approx(down)
            assert P[i, i] == pytest.approx(stay)

    def test_boundary_clamping(self, queue_model):
        P = queue_model.P
        pa, pd = 0.3, 0.35
        # empty queue: departures are no-ops
        assert P[0, 0] == pytest.approx((1 - pa) + pa * pd)
        assert P[0, 1] == pytest.approx(pa * (1 - pd))
        # full queue: arrivals are dropped
        assert P[50, 50] == pytest.approx((1 - pd) + (1 - pa) * pd * 0 + pa * pd)
        assert P[50, 49] == pytest.approx((1 - pa) * pd)

    def test_cost_charges_current_length(self, queue_model):
        for i in (0, 7, 50):
            assert np.all(queue_model.c[i] == float(i))

    def test_next_cost_rule(self):
        model = g.build_queue_chain(g.QueueSpec(cost_rule="next"))
        assert np.all(model.c[:, 7] == 7.0)

    def test_invalid_spec(self):
        with pytest.raises(StructuralError):
            g.QueueSpec(cap=0)
        with pytest.raises(StructuralError):
            g.QueueSpec(p_arrival=1.0)
        with pytest.raises(StructuralError):
            g.QueueSpec(cost_rule="nope")


class TestExperimentConfig:
    def test_discounted_preset(self):
        cfg = g.ExperimentConfig.from_dict({"preset": "queue-3-discounted"})
        assert cfg.criterion == "discounted" and cfg.alpha == 0.9
        assert cfg.model.m == 51 and cfg.gossip.n == 3
        assert cfg.bases.sizes == (4, 3, 2)

    def test_average_preset(self):
        cfg = g.ExperimentConfig.from_dict({"preset": "queue-3-average"})
        assert cfg.criterion == "average" and cfg.alpha is None
        assert cfg.orthogonalize is True

    def test_preset_overrides(self):
        cfg = g.ExperimentConfig.from_dict(
            {"preset": "queue-3-discounted", "run": {"steps": 123, "seed": 7}}
        )
        assert cfg.run.steps == 123 and cfg.run.seed == 7

    def test_explicit_chain(self, two_state):
        cfg = g.ExperimentConfig.from_dict(
            {
                "chain": {"P": two_state.P.tolist(), "c": two_state.c.tolist()},
                "gossip": {"Q": [[0.5, 0.5], [0.5, 0.5]]},
                "bases": {"agents": [{"phi": [[1.0], [0.0]]}, {"phi": [[0.0], [1.0]]}]},
            }
        )
        assert cfg.model.m == 2 and cfg.gossip.n == 2
        assert cfg.bases.sizes == (1, 1)

    def test_unknown_preset(self):
        with pytest.raises(StructuralError):
            g.ExperimentConfig.from_dict({"preset": "nope"})


class TestPrepareAndRunExperiment:
    def test_prepare_discounted(self, queue_eta):
        from gossiptd.harness import prepare

        cfg = g.ExperimentConfig.from_dict({"preset": "queue-3-discounted"})
        eta, bases, aug, fp = prepare(cfg)
        np.testing.assert_allclose(eta.eta, queue_eta.eta, atol=1e-12)
        assert bases.sizes == (4, 3, 2)
        assert fp.residual < 1e-9 and fp.mu_star is None

    def test_prepare_average_orthogonalizes(self, queue_eta, queue_model):
        from gossiptd.harness import prepare

        cfg = g.ExperimentConfig.from_dict({"preset": "queue-3-average"})
        eta, bases, aug, fp = prepare(cfg)
        for b in bases.bases:
            assert np.max(np.abs(eta.eta @ b.phi)) < 1e-10
        assert fp.mu_star == pytest.approx(g.average_cost(queue_model, queue_eta))

    def test_run_experiment_writes_artifacts(self, tmp_path):
        cfg = g.ExperimentConfig.from_dict(
            {
                "preset": "queue-3-discounted",
                "run": {"steps": 3000, "seed": 1, "record_every": 1000},
                "out_dir": str(tmp_path / "out"),
            }
        )
        result = g.run_experiment(cfg)
        names = {p.split("/")[-1] for p in result.files}
        assert names == {
            "fixed_point.json",
            "error_report.json",
            "coupled_weights.csv",
            "uncoupled_weights.csv",
            "coupled_metrics.csv",
            "uncoupled_metrics.csv",
            "summary.json",
        }
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["fixed_point"]["residual"] < 1e-9

    def test_run_experiment_average_includes_mu(self, tmp_path):
        cfg = g.ExperimentConfig.from_dict(
            {
                "preset": "queue-3-average",
                "run": {"steps": 2000, "seed": 1, "record_every": 1000},
                "out_dir": str(tmp_path / "out"),
            }
        )
        result = g.run_experiment(cfg)
        names = {p.split("/")[-1] for p in result.files}
        assert {"coupled_mu.csv", "uncoupled_mu.csv"} <= names

    def test_failure_cleans_outputs(self, tmp_path, queue_model):
        # a periodic gossip matrix fails validation before anything is written
        cfg = g.ExperimentConfig.from_dict(
            {
                "preset": "queue-3-discounted",
                "gossip": {"Q": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]},
                "run": {"steps": 100},
                "out_dir": str(tmp_path / "out"),
            }
        )
        with pytest.raises(Exception):
            g.run_experiment(cfg)
        out = tmp_path / "out"
        assert not out.exists() or not any(out.iterdir())


def _write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        path = _write_config(tmp_path, {"preset": "queue-3-discounted"})
        assert main(["validate", path]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_identity_gossip_exit_2(self, tmp_path, capsys):
        path = _write_config(
            tmp_path,
            {
                "preset": "queue-3-discounted",
                "gossip": {"Q": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
            },
        )
        assert main(["validate", path]) == 2
        assert "(A3)" in capsys.readouterr().err

    def test_missing_config_exit_1(self, capsys):
        assert main(["validate", "/does/not/exist.json"]) == 1

    def test_malformed_json_exit_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 1

    def test_solve_prints_fixed_point(self, tmp_path, capsys):
        path = _write_config(tmp_path, {"preset": "queue-3-discounted"})
        assert main(["solve", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["r_star"]) == 9 and doc["residual"] < 1e-9

    def test_bounds_prints_report(self, tmp_path, capsys):
        path = _write_config(tmp_path, {"preset": "queue-3-discounted"})
        assert main(["bounds", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["e"]) == 3 and doc["beta"] > 0

    def test_nan_in_p_exits_1_for_every_command(self, tmp_path, capsys, queue_model):
        P = queue_model.P.copy()
        P[3, 4] = np.nan
        path = _write_config(
            tmp_path,
            {
                "preset": "queue-3-discounted",
                "chain": {"P": P.tolist(), "c": queue_model.c.tolist()},
                "out_dir": str(tmp_path / "out"),
            },
        )
        for command in ("validate", "solve", "bounds", "run"):
            assert main([command, path]) == 1, command
            err = capsys.readouterr().err
            assert err == "error: rows of P must be nonnegative and sum to 1\n", command

    def test_agent_count_mismatch_exits_1_for_every_command(self, tmp_path, capsys):
        path = _write_config(
            tmp_path,
            {
                "preset": "queue-3-discounted",
                "gossip": {"Q": [[0.5, 0.5], [0.5, 0.5]]},
                "out_dir": str(tmp_path / "out"),
            },
        )
        for command in ("validate", "solve", "bounds", "run"):
            assert main([command, path]) == 1, command
            err = capsys.readouterr().err
            assert err == "error: gossip matrix has 2 agents but ensemble has 3\n", command

    def test_divergent_run_exit_3(self, tmp_path, capsys):
        path = _write_config(
            tmp_path,
            {
                "preset": "queue-3-discounted",
                "run": {"steps": 5000, "schedule": {"a": 5.0}},
                "out_dir": str(tmp_path / "out"),
            },
        )
        assert main(["run", path]) == 3

    def test_run_seed_reproducible(self, tmp_path, capsys):
        outputs = []
        for sub in ("a", "b"):
            path = _write_config(
                tmp_path,
                {
                    "preset": "queue-3-discounted",
                    "run": {"steps": 2000, "record_every": 500},
                    "out_dir": str(tmp_path / sub),
                },
            )
            assert main(["run", path, "--seed", "11"]) == 0
            capsys.readouterr()
            outputs.append((tmp_path / sub / "coupled_weights.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_console_script_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gossiptd.cli"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1

    def test_steps_and_out_overrides(self, tmp_path, capsys):
        path = _write_config(tmp_path, {"preset": "queue-3-discounted"})
        out = tmp_path / "ovr"
        assert (
            main(["run", path, "--steps", "1000", "--out", str(out), "--seed", "0"])
            == 0
        )
        capsys.readouterr()
        assert (out / "summary.json").exists()
