"""CLI contract tests: subcommands, exit codes, determinism of outputs."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from graphident.cli import main
from graphident.dataio import read_dataset
from graphident.datagen import FlockingSpec, FormationSpec
from graphident.evaluate import FormationGrid
from graphident.training import TrainConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run(argv):
    return main(argv)


class TestGenFormation:
    def test_writes_dataset_and_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json",
                           {"n": 12, "p": 0.3, "sigma": 0.1, "d": 40,
                            "seed": 5})
        assert run(["gen-formation", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 0
        records, header = read_dataset(tmp_path / "o" / "dataset.gids")
        assert header["n"] == 12 and header["kind"] == "formation"
        assert records[0].X.shape == (12, 2, 40)
        out = capsys.readouterr().out
        assert "edge_density" in out

    def test_invalid_probability_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"n": 10, "p": 1.5, "d": 10})
        assert run(["gen-formation", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2

    def test_field_type_error_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"n": "ten"})
        assert run(["gen-formation", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2
        assert "'n'" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "c.json"
        bad.write_text("{not json")
        assert run(["gen-formation", "--config", str(bad),
                    "--out", str(tmp_path / "o")]) == 2

    def test_config_must_be_an_object(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", [12, 0.3])
        assert run(["gen-formation", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2

    def test_full_scale_sets_sample_count(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"n": 4})
        assert run(["gen-formation", "--config", cfg, "--full-scale",
                    "--out", str(tmp_path / "o")]) == 0
        records, header = read_dataset(tmp_path / "o" / "dataset.gids")
        assert header["d"] == 10000 and records[0].X.shape == (4, 2, 10000)

    @pytest.mark.parametrize("name", ["sigma", "n"])
    def test_boolean_is_not_a_number(self, tmp_path, capsys, name):
        cfg = write_config(tmp_path / "c.json", {name: True})
        assert run(["gen-formation", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2
        assert f"'{name}'" in capsys.readouterr().err


class TestGenFlocking:
    def test_windows_and_densities(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json",
                           {"n": 8, "duration": 2.0, "seed": 3})
        assert run(["gen-flocking", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 0
        records, header = read_dataset(tmp_path / "o" / "dataset.gids")
        assert header["kind"] == "flocking"
        assert len(records) == 5
        out = capsys.readouterr().out
        assert "density_min" in out and "density_max" in out

    def test_spacing_at_comm_radius_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"rho": 1.2, "r_comm": 1.2})
        assert run(["gen-flocking", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2

    def test_goal_length_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"goal": [0.0, 1.0, 2.0]})
        assert run(["gen-flocking", "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 2
        assert "goal" in capsys.readouterr().err


class TestTrain:
    def make_dataset(self, tmp_path, n=6, d=30):
        cfg = write_config(tmp_path / "gen.json",
                           {"n": n, "p": 0.4, "sigma": 0.1, "d": d, "seed": 2})
        assert run(["gen-formation", "--config", cfg,
                    "--out", str(tmp_path / "data")]) == 0
        return str(tmp_path / "data" / "dataset.gids")

    def test_train_writes_checkpoint_and_metrics(self, tmp_path):
        dataset = self.make_dataset(tmp_path)
        cfg = write_config(tmp_path / "t.json",
                           {"total_steps": 5, "unroll_steps": 4, "seed": 1})
        assert run(["train", "--config", cfg, "--dataset", dataset,
                    "--out", str(tmp_path / "run")]) == 0
        metrics = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert len(metrics) == 6  # header + 5 steps
        assert (tmp_path / "run" / "checkpoint.json").exists()

    def test_resume_appends_and_continues(self, tmp_path):
        dataset = self.make_dataset(tmp_path)
        cfg5 = write_config(tmp_path / "t5.json",
                            {"total_steps": 5, "unroll_steps": 4, "seed": 1})
        run(["train", "--config", cfg5, "--dataset", dataset,
             "--out", str(tmp_path / "run")])
        cfg8 = write_config(tmp_path / "t8.json",
                            {"total_steps": 8, "unroll_steps": 4, "seed": 1})
        assert run(["train", "--config", cfg8, "--dataset", dataset,
                    "--out", str(tmp_path / "run"),
                    "--resume", str(tmp_path / "run" / "checkpoint.json")]) == 0
        lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert len(lines) == 9  # header + 5 + 3
        steps = [int(line.split(",")[0]) for line in lines[1:]]
        assert steps == list(range(8))

    def test_null_grad_clip_trains_unclipped(self, tmp_path):
        dataset = self.make_dataset(tmp_path)

        def train(name, grad_clip):
            cfg = write_config(tmp_path / f"{name}.json",
                               {"total_steps": 3, "unroll_steps": 3,
                                "seed": 1, "grad_clip": grad_clip})
            assert run(["train", "--config", cfg, "--dataset", dataset,
                        "--out", str(tmp_path / name)]) == 0
            doc = json.loads((tmp_path / name / "checkpoint.json").read_text())
            return doc.pop("train_config"), doc

        none_cfg, unclipped = train("none", None)
        _, loose = train("loose", 1e300)
        _, tight = train("tight", 1e-9)
        assert none_cfg["grad_clip"] is None
        assert unclipped == loose
        assert unclipped["adam_m"] != tight["adam_m"]

    def test_non_boolean_flag_names_field(self, tmp_path, capsys):
        dataset = self.make_dataset(tmp_path)
        cfg = write_config(tmp_path / "t.json",
                           {"total_steps": 1, "resample_windows": "yes"})
        assert run(["train", "--config", cfg, "--dataset", dataset,
                    "--out", str(tmp_path / "run")]) == 2
        assert "'resample_windows'" in capsys.readouterr().err

    def test_invalid_value_names_field(self, tmp_path, capsys):
        dataset = self.make_dataset(tmp_path)
        cfg = write_config(tmp_path / "t.json", {"learning_rate": -1})
        assert run(["train", "--config", cfg, "--dataset", dataset,
                    "--out", str(tmp_path / "run")]) == 2
        assert "learning_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_names_field(self, tmp_path, capsys,
                                                  rate):
        # JSON's NaN and Infinity reach the dataclass as floats; NaN would
        # pass a check written as a comparison and fail a step later.
        dataset = self.make_dataset(tmp_path)
        cfg = write_config(tmp_path / "t.json",
                           {"total_steps": 2, "learning_rate": rate})
        assert run(["train", "--config", cfg, "--dataset", dataset,
                    "--out", str(tmp_path / "run")]) == 2
        assert "learning_rate must be finite" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("clip", [-1.0, 0])
    def test_grad_clip_not_positive_names_field(self, tmp_path, capsys, clip):
        dataset = self.make_dataset(tmp_path)
        cfg = write_config(tmp_path / "t.json",
                           {"total_steps": 1, "grad_clip": clip})
        assert run(["train", "--config", cfg, "--dataset", dataset,
                    "--out", str(tmp_path / "run")]) == 2
        assert "grad_clip" in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.json").exists()

    def test_full_scale_is_not_a_train_flag(self, tmp_path):
        # ``train`` has no full-scale size, so the flag is refused.
        cfg = write_config(tmp_path / "t.json", {"total_steps": 1})
        with pytest.raises(SystemExit) as info:
            run(["train", "--config", cfg, "--dataset", "d.gids",
                 "--out", str(tmp_path / "run"), "--full-scale"])
        assert info.value.code == 2

    def test_missing_dataset_is_io_error(self, tmp_path):
        cfg = write_config(tmp_path / "t.json", {"total_steps": 1})
        assert run(["train", "--config", cfg,
                    "--dataset", str(tmp_path / "nope.gids"),
                    "--out", str(tmp_path / "run")]) == 4


class TestEvalAndBaseline:
    def train_tiny(self, tmp_path):
        dataset_cfg = write_config(tmp_path / "gen.json",
                                   {"n": 6, "p": 0.4, "sigma": 0.1, "d": 30,
                                    "seed": 2})
        run(["gen-formation", "--config", dataset_cfg,
             "--out", str(tmp_path / "data")])
        train_cfg = write_config(tmp_path / "t.json",
                                 {"total_steps": 3, "unroll_steps": 3,
                                  "seed": 1})
        run(["train", "--config", train_cfg,
             "--dataset", str(tmp_path / "data" / "dataset.gids"),
             "--out", str(tmp_path / "run")])
        return str(tmp_path / "run" / "checkpoint.json")

    def eval_config(self, tmp_path, **extra):
        payload = {"kind": "formation", "n_values": [6], "p_values": [0.3],
                   "repetitions": 2, "d": 30, "seed": 4, "max_iters": 200}
        payload.update(extra)
        return write_config(tmp_path / "e.json", payload)

    def test_eval_writes_reports(self, tmp_path):
        ck = self.train_tiny(tmp_path)
        cfg = self.eval_config(tmp_path)
        assert run(["eval", "--config", cfg, "--checkpoint", ck,
                    "--out", str(tmp_path / "ev")]) == 0
        report = (tmp_path / "ev" / "report.csv").read_text().splitlines()
        assert report[0].startswith("method,n,p")
        assert len(report) == 2
        assert (tmp_path / "ev" / "details.csv").exists()
        assert (tmp_path / "ev" / "matrices" / "n6_p0.3_truth.csv").exists()

    def test_eval_single_rep_zero_std(self, tmp_path):
        ck = self.train_tiny(tmp_path)
        cfg = self.eval_config(tmp_path, repetitions=1)
        run(["eval", "--config", cfg, "--checkpoint", ck,
             "--out", str(tmp_path / "ev1")])
        row = (tmp_path / "ev1" / "report.csv").read_text().splitlines()[1]
        assert float(row.split(",")[5]) == 0.0

    def test_eval_requires_checkpoint(self, tmp_path):
        cfg = self.eval_config(tmp_path)
        assert run(["eval", "--config", cfg,
                    "--out", str(tmp_path / "ev")]) == 2

    def test_grid_row_count(self, tmp_path):
        cfg = self.eval_config(tmp_path, n_values=[5, 6, 7],
                               p_values=[0.2, 0.3, 0.4], repetitions=1)
        assert run(["baseline", "--config", cfg, "--alpha", "0.2",
                    "--beta", "0.001", "--out", str(tmp_path / "bl")]) == 0
        report = (tmp_path / "bl" / "report.csv").read_text().splitlines()
        assert len(report) == 10  # header + 3x3 grid

    def test_baseline_needs_alpha_beta(self, tmp_path):
        cfg = self.eval_config(tmp_path)
        assert run(["baseline", "--config", cfg,
                    "--out", str(tmp_path / "bl")]) == 2

    def test_baseline_deterministic_reruns(self, tmp_path):
        cfg = self.eval_config(tmp_path, repetitions=2)
        run(["baseline", "--config", cfg, "--alpha", "0.2", "--beta", "0.001",
             "--out", str(tmp_path / "b1")])
        run(["baseline", "--config", cfg, "--alpha", "0.2", "--beta", "0.001",
             "--out", str(tmp_path / "b2")])
        assert ((tmp_path / "b1" / "report.csv").read_bytes()
                == (tmp_path / "b2" / "report.csv").read_bytes())
        assert ((tmp_path / "b1" / "details.csv").read_bytes()
                == (tmp_path / "b2" / "details.csv").read_bytes())

    def test_workers_do_not_change_output(self, tmp_path):
        cfg = self.eval_config(tmp_path, repetitions=2)
        run(["baseline", "--config", cfg, "--alpha", "0.2", "--beta", "0.001",
             "--out", str(tmp_path / "w1")])
        run(["baseline", "--config", cfg, "--alpha", "0.2", "--beta", "0.001",
             "--out", str(tmp_path / "w2"), "--workers", "3"])
        assert ((tmp_path / "w1" / "report.csv").read_bytes()
                == (tmp_path / "w2" / "report.csv").read_bytes())

    def test_flocking_eval(self, tmp_path):
        ck = self.train_tiny(tmp_path)
        cfg = write_config(tmp_path / "f.json",
                           {"kind": "flocking",
                            "configs": [{"n": 6, "duration": 1.2, "seed": 2}],
                            "max_iters": 200})
        assert run(["eval", "--config", cfg, "--checkpoint", ck,
                    "--out", str(tmp_path / "fe")]) == 0
        assert (tmp_path / "fe" / "windows.csv").exists()

    def test_boolean_repetitions_rejected(self, tmp_path, capsys):
        cfg = self.eval_config(tmp_path, repetitions=True)
        assert run(["baseline", "--config", cfg, "--alpha", "0.2",
                    "--beta", "0.001", "--out", str(tmp_path / "bl")]) == 2
        assert "'repetitions'" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("max_iters", 0), ("repetitions", 0), ("n_values", ["a"])])
    def test_invalid_grid_names_field(self, tmp_path, capsys, field, value):
        cfg = self.eval_config(tmp_path, **{field: value})
        assert run(["baseline", "--config", cfg, "--alpha", "0.2",
                    "--beta", "0.001", "--out", str(tmp_path / "bl")]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("max_iters", 0), ("tol", -1)])
    @pytest.mark.parametrize("command", ["eval", "baseline"])
    def test_invalid_flocking_solver_field_names_field(
            self, tmp_path, capsys, command, field, value):
        cfg = write_config(tmp_path / "f.json",
                           {"kind": "flocking", field: value,
                            "configs": [{"n": 6, "duration": 1.2}]})
        argv = [command, "--config", cfg, "--out", str(tmp_path / "x")]
        if command == "eval":
            argv += ["--checkpoint", self.train_tiny(tmp_path)]
        else:
            argv += ["--alpha", "0.2", "--beta", "0.001"]
        capsys.readouterr()
        assert run(argv) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("kind", ["formation", "flocking"])
    def test_negative_alpha_names_field(self, tmp_path, capsys, kind):
        cfg = self.eval_config(tmp_path, kind=kind)
        assert run(["baseline", "--config", cfg, "--alpha", "-1",
                    "--beta", "0.001", "--out", str(tmp_path / "bl")]) == 2
        assert "alpha" in capsys.readouterr().err
        assert not (tmp_path / "bl").exists()

    @pytest.mark.parametrize("name, alpha, beta", [
        ("alpha", "nan", "1e-4"), ("alpha", "inf", "1e-4"),
        ("beta", "0.2", "nan")])
    def test_non_finite_regularizer_names_field(self, tmp_path, capsys, name,
                                                alpha, beta):
        cfg = self.eval_config(tmp_path)
        assert run(["baseline", "--config", cfg, "--alpha", alpha,
                    "--beta", beta, "--out", str(tmp_path / "bl")]) == 2
        assert f"{name} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "bl").exists()

    def test_flocking_configs_must_be_objects(self, tmp_path):
        cfg = write_config(tmp_path / "f.json",
                           {"kind": "flocking", "configs": [5]})
        assert run(["baseline", "--config", cfg, "--alpha", "0.1",
                    "--beta", "0.1", "--out", str(tmp_path / "x")]) == 2

    def test_unknown_kind(self, tmp_path):
        cfg = write_config(tmp_path / "k.json", {"kind": "mystery"})
        assert run(["baseline", "--config", cfg, "--alpha", "0.1",
                    "--beta", "0.1", "--out", str(tmp_path / "x")]) == 2

    def test_eval_on_stored_dataset(self, tmp_path):
        ck = self.train_tiny(tmp_path)
        cfg = write_config(tmp_path / "d.json", {"max_iters": 200})
        assert run(["eval", "--config", cfg, "--checkpoint", ck,
                    "--dataset", str(tmp_path / "data" / "dataset.gids"),
                    "--out", str(tmp_path / "de")]) == 0
        report = (tmp_path / "de" / "report.csv").read_text().splitlines()
        assert len(report) == 2
        assert (tmp_path / "de" / "windows.csv").exists()

    def test_baseline_on_stored_dataset(self, tmp_path):
        self.train_tiny(tmp_path)
        cfg = write_config(tmp_path / "d.json", {"max_iters": 200})
        assert run(["baseline", "--config", cfg, "--alpha", "0.2",
                    "--beta", "0.001",
                    "--dataset", str(tmp_path / "data" / "dataset.gids"),
                    "--out", str(tmp_path / "db")]) == 0
        assert (tmp_path / "db" / "report.csv").exists()


class TestReadmeDefaults:
    """README's "Config fields" list must repeat the dataclasses' defaults."""

    SECTIONS = {"gen-formation": FormationSpec, "gen-flocking": FlockingSpec,
                "train": TrainConfig, "eval": FormationGrid}
    CLI_ONLY = {"windows", "encoder_seed", "kind", "configs"}

    def documented(self):
        text = README.read_text(encoding="utf-8")
        block = text.split("Config fields", 1)[1].split("\n\n", 2)[1]
        bullets = re.split(r"\n- ", "\n" + block)[1:]
        out = {}
        for bullet in bullets:
            command = re.match(r"`([\w-]+)`", bullet).group(1)
            pairs = re.findall(r"`(\w+)` \(([^)]*)\)", " ".join(bullet.split()))
            out[command] = {name: raw for name, raw in pairs
                            if name not in self.CLI_ONLY}
        return out

    @pytest.mark.parametrize("command", sorted(SECTIONS))
    def test_listed_defaults_match_dataclass(self, command):
        cls = self.SECTIONS[command]
        listed = self.documented()[command]
        defaults = {f.name: f.default
                    for f in dataclasses.fields(cls)}
        assert set(listed) == set(defaults)
        for name, raw in listed.items():
            value = json.loads(raw)
            default = defaults[name]
            if isinstance(default, tuple):
                default = list(default)
            assert value == default, name
