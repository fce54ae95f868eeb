import csv
import json
from pathlib import Path

import pytest

from kdlab import cli
from kdlab.data import SyntheticSpec, generate, save_dataset

TINY_DATASET = {
    "spec": {
        "num_classes": 3, "image_dim": 8, "text_dim": 6,
        "samples_per_class": 20, "noise_sigma": 0.2, "anchor_scale": 1.0,
        "seed": 42,
    }
}
TINY_TRAIN = {
    "epochs": 2, "batch_size": 20, "strategy": "avg", "num_teachers": 2,
    "student": {"hidden_widths": [12], "output_dim": 5, "dropout_p": 0.2},
}
TINY_TEACHERS = [
    {"hidden_widths": [16], "output_dim": 5},
    {"hidden_widths": [14], "output_dim": 5},
    {"hidden_widths": [12], "output_dim": 5},
    {"hidden_widths": [18], "output_dim": 5},
]
TINY_PRETRAIN = {"epochs": 4, "batch_size": 20, "lr": 3e-3, "accuracy_gate": 0.5}


def write_manifest(path, **overrides):
    manifest = {
        "schema_version": 1,
        "suite": "single",
        "seeds": [0],
        "dataset": TINY_DATASET,
        "train": dict(TINY_TRAIN),
        "teachers": TINY_TEACHERS,
        "pretrain": dict(TINY_PRETRAIN),
        "output_dir": str(path.parent / "out"),
    }
    manifest.update(overrides)
    path.write_text(json.dumps(manifest))
    return manifest


class TestValidate:
    def test_well_formed_manifest_exits_zero(self, tmp_path, capsys):
        p = tmp_path / "m.json"
        write_manifest(p)
        assert cli.main(["validate", str(p)]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["suite"] == "single"
        assert resolved["train"]["strategy"] == "avg"

    def test_zero_ratio_names_field(self, tmp_path, capsys):
        p = tmp_path / "m.json"
        write_manifest(p, train={**TINY_TRAIN, "loss_ratios": [1, 0, 1]})
        assert cli.main(["validate", str(p)]) == 2
        assert "loss_ratios" in capsys.readouterr().err

    def test_kl_weight_mode_names_field(self, tmp_path, capsys):
        p = tmp_path / "m.json"
        write_manifest(p, train={**TINY_TRAIN, "kl_weight_mode": "per_direction"})
        assert cli.main(["validate", str(p)]) == 2
        assert "train.kl_weight_mode" in capsys.readouterr().err

    def test_missing_dataset_file(self, tmp_path):
        p = tmp_path / "m.json"
        write_manifest(p, dataset={"path": str(tmp_path / "absent.ds")})
        assert cli.main(["validate", str(p)]) == 3

    def test_bad_json(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text("{nope")
        assert cli.main(["validate", str(p)]) == 2

    def test_unknown_suite(self, tmp_path):
        p = tmp_path / "m.json"
        write_manifest(p, suite="everything")
        assert cli.main(["validate", str(p)]) == 2

    def test_bad_schema_version(self, tmp_path):
        p = tmp_path / "m.json"
        write_manifest(p, schema_version=99)
        assert cli.main(["validate", str(p)]) == 2


class TestGrids:
    def test_loss_ratio_rows(self, tmp_path):
        p = tmp_path / "m.json"
        write_manifest(p, suite="loss_ratio")
        grid = cli.expand_grid(cli.load_manifest(p))
        assert [label for label, _ in grid] == ["0.5:1:1", "1:0.5:1", "1:1:0.5", "1:1:1"]
        assert grid[1][1].loss_ratios == (1.0, 0.5, 1.0)

    def test_strategy_rows(self, tmp_path):
        p = tmp_path / "m.json"
        write_manifest(p, suite="strategy")
        grid = cli.expand_grid(cli.load_manifest(p))
        assert [label for label, _ in grid] == ["base", "avg", "lsr", "dsw"]

    def test_teacher_count_rows(self, tmp_path):
        p = tmp_path / "m.json"
        write_manifest(p, suite="teacher_count")
        grid = cli.expand_grid(cli.load_manifest(p))
        assert [label for label, _ in grid] == ["K1", "K2", "K3", "K4"]
        assert [cfg.num_teachers for _, cfg in grid] == [1, 2, 3, 4]

    def test_student_size_rows(self, tmp_path):
        p = tmp_path / "m.json"
        write_manifest(p, suite="student_size")
        grid = cli.expand_grid(cli.load_manifest(p))
        assert len(grid) == 3


class TestRun:
    def test_single_run_artifacts(self, tmp_path):
        p = tmp_path / "m.json"
        write_manifest(p)
        out = tmp_path / "out"
        assert cli.main(["run", str(p)]) == 0
        metrics = out / "runs" / "default" / "seed_0" / "metrics.csv"
        assert metrics.exists()
        with open(metrics, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2  # one per epoch
        assert list(rows[0].keys()) == list(cli.METRIC_COLUMNS)
        assert (out / "summary.csv").exists()
        manifest_echo = json.loads((out / "manifest.json").read_text())
        assert manifest_echo["library_version"]
        assert "wall_seconds" in manifest_echo
        run_info = json.loads((out / "runs" / "default" / "seed_0" / "run.json").read_text())
        assert 0.0 <= run_info["final_accuracy"] <= 1.0

    def test_idempotent_byte_identical(self, tmp_path):
        p = tmp_path / "m.json"
        write_manifest(p)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", str(p), "--output-dir", str(out_a)]) == 0
        assert cli.main(["run", str(p), "--output-dir", str(out_b)]) == 0
        csv_a = (out_a / "runs" / "default" / "seed_0" / "metrics.csv").read_bytes()
        csv_b = (out_b / "runs" / "default" / "seed_0" / "metrics.csv").read_bytes()
        assert csv_a == csv_b

    def test_seed_override(self, tmp_path):
        p = tmp_path / "m.json"
        write_manifest(p, seeds=[0, 1])
        out = tmp_path / "o"
        assert cli.main(["run", str(p), "--seed-override", "7", "--output-dir", str(out)]) == 0
        assert (out / "runs" / "default" / "seed_7").exists()
        assert not (out / "runs" / "default" / "seed_0").exists()

    def test_dataset_file_roundtrip_through_run(self, tmp_path):
        ds = generate(SyntheticSpec(**TINY_DATASET["spec"]))
        ds_path = tmp_path / "data.ds"
        save_dataset(ds, ds_path)
        p = tmp_path / "m.json"
        write_manifest(p, dataset={"path": str(ds_path)})
        assert cli.main(["run", str(p), "--output-dir", str(tmp_path / "o")]) == 0

    def test_strategy_suite_rows_emitted(self, tmp_path):
        p = tmp_path / "m.json"
        write_manifest(p, suite="strategy")
        out = tmp_path / "o"
        assert cli.main(["run", str(p), "--output-dir", str(out)]) == 0
        with open(out / "summary.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [r["grid_point"] for r in rows] == ["base", "avg", "lsr", "dsw"]

    def test_parallel_workers_match_serial(self, tmp_path):
        p = tmp_path / "m.json"
        write_manifest(p, seeds=[0, 1])
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert cli.main(["run", str(p), "--output-dir", str(serial)]) == 0
        assert cli.main(["run", str(p), "--threads", "2", "--output-dir", str(parallel)]) == 0
        for seed in (0, 1):
            a = (serial / "runs" / "default" / f"seed_{seed}" / "metrics.csv").read_bytes()
            b = (parallel / "runs" / "default" / f"seed_{seed}" / "metrics.csv").read_bytes()
            assert a == b

    def test_partial_failure_completes_remaining_runs(self, tmp_path, monkeypatch):
        p = tmp_path / "m.json"
        write_manifest(p, seeds=[0, 1, 2])
        out = tmp_path / "o"
        real_execute = cli._execute_run

        def flaky(payload):
            if payload[2] == 1:  # fail the middle seed only
                raise cli.NumericError("run default/seed_1: synthetic blowup")
            return real_execute(payload)

        monkeypatch.setattr(cli, "_execute_run", flaky)
        assert cli.main(["run", str(p), "--output-dir", str(out)]) == 4
        # remaining runs completed and were summarized
        assert (out / "runs" / "default" / "seed_0" / "metrics.csv").exists()
        assert (out / "runs" / "default" / "seed_2" / "metrics.csv").exists()
        assert not (out / "runs" / "default" / "seed_1").exists()
        with open(out / "summary.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert rows and int(rows[0]["n_seeds"]) == 2


class TestReport:
    def test_report_after_run(self, tmp_path, capsys):
        p = tmp_path / "m.json"
        write_manifest(p, suite="strategy", seeds=[0, 1])
        out = tmp_path / "o"
        assert cli.main(["run", str(p), "--output-dir", str(out)]) == 0
        assert cli.main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "*best*" in text
        assert (out / "report.txt").exists()
        with open(out / "long.csv", newline="") as f:
            long_rows = list(csv.DictReader(f))
        # 4 strategies x 2 seeds x 2 epochs x 7 metrics
        assert len(long_rows) == 4 * 2 * 2 * 7

    def test_no_runs_found(self, tmp_path):
        assert cli.main(["report", str(tmp_path)]) == 3


class TestGenData:
    def test_gen_data_writes_loadable_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(TINY_DATASET["spec"]))
        out_path = tmp_path / "ds.bin"
        assert cli.main(["gen-data", str(spec_path), str(out_path)]) == 0
        assert "probe accuracy" in capsys.readouterr().out
        from kdlab.data import load_dataset

        ds = load_dataset(out_path)
        assert ds.spec.num_classes == 3

    def test_gen_data_bad_spec(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"num_classes": 1}))
        assert cli.main(["gen-data", str(spec_path), str(tmp_path / "x.bin")]) == 2
