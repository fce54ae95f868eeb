import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdlab import cli, config, trainer, weighting
from kdlab.data import SyntheticSpec, generate, save_dataset
from kdlab.errors import NonFiniteInput

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

    def test_empty_corruption_is_none(self, tmp_path, capsys):
        # A corruption object without a kind means no corruption.
        p = tmp_path / "m.json"
        write_manifest(p, teachers=[{**t, "corruption": {}} for t in TINY_TEACHERS])
        assert cli.main(["validate", str(p)]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["teachers"][0]["corruption"] == {"kind": "none", "sigma": None}

    @pytest.mark.parametrize("case", ["default", "dataset-path", "corruptions"])
    def test_echo_loads_back_equal(self, tmp_path, capsys, case):
        # validate's echo, less its grid points, is a manifest that loads
        # to the Manifest it echoes.
        p = tmp_path / "m.json"
        if case == "default":
            p.write_text(json.dumps({"schema_version": 1}))
        elif case == "dataset-path":
            ds_path = tmp_path / "data.ds"
            save_dataset(generate(SyntheticSpec(**TINY_DATASET["spec"])), ds_path)
            write_manifest(p, dataset={"path": str(ds_path)})
        else:
            kinds = [{"kind": "none"}, {"kind": "weight_noise"}, {"kind": "label_shuffle"}]
            teachers = [{**t, "corruption": c} for t, c in zip(TINY_TEACHERS, kinds)]
            write_manifest(p, teachers=teachers)
        assert cli.main(["validate", str(p)]) == 0
        echo = json.loads(capsys.readouterr().out)
        assert echo.pop("grid_points") == ["default"]
        if case == "corruptions":
            assert [t["corruption"] for t in echo["teachers"]] == [
                {"kind": "none", "sigma": None},
                {"kind": "weight_noise", "sigma": 1.0},
                {"kind": "label_shuffle", "sigma": None},
            ]
        back = tmp_path / "echo.json"
        back.write_text(json.dumps(echo))
        assert cli.load_manifest(back) == cli.load_manifest(p)


_ABSENT = object()


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["none", "weight_noise", "label_shuffle", "gamma_rays", _ABSENT]),
    sigma=st.one_of(
        st.just(_ABSENT),
        st.floats(min_value=0.0, allow_infinity=False),
        st.floats(max_value=0.0, exclude_max=True, allow_infinity=False),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    ),
)
def test_corruption_validates_or_names_its_field(kind, sigma):
    # A one-teacher manifest's corruption object, drawn key by key:
    # validate exits 0 with an echo that loads back equal, or exits 2
    # naming the field at fault.
    corruption = {
        key: value for key, value in (("kind", kind), ("sigma", sigma)) if value is not _ABSENT
    }
    kind = corruption.get("kind", "none")
    if kind not in ("none", "weight_noise", "label_shuffle"):
        bad = "kind"
    elif "sigma" in corruption and not (kind == "weight_noise" and 0 <= sigma < math.inf):
        bad = "sigma"
    else:
        bad = None
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "m.json"
        write_manifest(
            p, train={**TINY_TRAIN, "num_teachers": 1},
            teachers=[{**TINY_TEACHERS[0], "corruption": corruption}],
        )
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["validate", str(p)])
        if bad is not None:
            assert code == 2
            assert f"'teachers[0].corruption.{bad}'" in err.getvalue()
            return
        assert code == 0
        echo = json.loads(out.getvalue())
        del echo["grid_points"]
        want = sigma if "sigma" in corruption else 1.0 if kind == "weight_noise" else None
        assert echo["teachers"][0]["corruption"] == {"kind": kind, "sigma": want}
        back = Path(d) / "echo.json"
        back.write_text(json.dumps(echo))
        assert cli.load_manifest(back) == cli.load_manifest(p)


# Each numeric field the draw below reaches, by path, with its rule (is a
# value valid?) and its bounds. Each value sets one field of a one-teacher
# manifest; each loss_ratios entry is drawn alone, and eta_min under cosine,
# where it may not exceed the default lr.
def _positive(x):
    return math.isfinite(x) and x > 0


def _non_negative(x):
    return math.isfinite(x) and x >= 0


_LR = config.TrainConfig().lr
NUMERIC_FIELDS = {
    "train.lr": (_positive, (0.0,)),
    "train.tau_teacher": (_positive, (0.0,)),
    "train.tau_student": (_positive, (0.0,)),
    "train.tau_distill": (_positive, (0.0,)),
    "train.loss_ratios": (_positive, (0.0,)),
    "train.augmentation.sigma": (_non_negative, (0.0,)),
    "train.augmentation.beta": (_positive, (0.0,)),
    "train.lr_schedule.eta_min": (lambda x: 0 <= x <= _LR, (0.0, _LR)),
    "pretrain.lr": (_positive, (0.0,)),
    "pretrain.tau": (_positive, (0.0,)),
    "pretrain.accuracy_gate": (lambda x: 0 <= x <= 1, (0.0, 1.0)),
}


def _numeric_draw(path):
    _, bounds = NUMERIC_FIELDS[path]
    value = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(bounds),
        st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    return st.tuples(st.just(path), value, st.integers(0, 2))


@settings(max_examples=300, deadline=None)
@given(draw=st.sampled_from(sorted(NUMERIC_FIELDS)).flatmap(_numeric_draw))
def test_numeric_field_validates_or_names_itself(draw):
    # A number drawn finite, at a bound, NaN or infinite for one float field
    # of the manifest: validate exits 0 with an echo that loads back equal,
    # or exits 2 naming the field.
    path, value, entry = draw
    valid, _ = NUMERIC_FIELDS[path]
    section, *rest = path.split(".")
    manifest = {"train": {**TINY_TRAIN, "num_teachers": 1}, "pretrain": dict(TINY_PRETRAIN)}
    obj, key = manifest[section], rest[-1]
    if len(rest) == 2:
        obj[rest[0]] = {"kind": "cosine"} if rest[0] == "lr_schedule" else {}
        obj = obj[rest[0]]
    if key == "loss_ratios":
        set_to = [1.0, 1.0, 1.0]
        set_to[entry] = value
    else:
        set_to = value
    obj[key] = set_to
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "m.json"
        write_manifest(p, teachers=TINY_TEACHERS[:1], **manifest)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["validate", str(p)])
        if not valid(value):
            assert code == 2
            assert f"{path!r}:" in err.getvalue()
            return
        assert code == 0, err.getvalue()
        echo = json.loads(out.getvalue())
        del echo["grid_points"]
        at = echo[section]
        for name in rest:
            at = at[name]
        assert at == set_to
        back = Path(d) / "echo.json"
        back.write_text(json.dumps(echo))
        assert cli.load_manifest(back) == cli.load_manifest(p)


def test_numeric_fields_are_float_manifest_fields():
    floats = {
        path for path, hint, cls in _manifest_fields(config.Manifest)
        if cls is None and float in {hint, *typing.get_args(hint)}
    }
    assert NUMERIC_FIELDS.keys() <= floats


def _manifest_fields(cls, prefix=""):
    """(path, type hint, config dataclass or None) of each manifest field of
    ``cls`` and, depth first, of each config dataclass it reaches, an
    optional field's or a list's. A field marked ``config.RUN_ONLY`` is no
    manifest field, and the rest are the keys of ``config._readers``."""
    hints = typing.get_type_hints(cls)
    names = [f.name for f in dataclasses.fields(cls) if config.RUN_ONLY not in f.metadata]
    assert list(config._readers(cls)) == names
    for name in names:
        hint = hints[name]
        inner = next((a for a in typing.get_args(hint) if a is not type(None)), hint)
        if dataclasses.is_dataclass(inner):
            yield prefix + name, hint, inner
            items = "[]" if typing.get_origin(hint) is tuple else ""
            yield from _manifest_fields(inner, f"{prefix}{name}{items}.")
        else:
            yield prefix + name, hint, None


def _set(manifest, path, value):
    obj = manifest
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


# (where in the manifest, bad value, field path the error must name[, test
# id where the field path is another case's])
BAD_MANIFESTS = [
    (("teachers", 0, "activation"), "gelu", "teachers[0].activation"),
    (("train", "student", "activation"), "gelu", "train.student.activation"),
    (("train", "student", "dropout_p"), 1.0, "train.student.dropout_p"),
    (("pretrain", "batch_size"), 0, "pretrain.batch_size"),
    (("train", "num_teachers"), -1, "train.num_teachers"),
    (("pretrain", "epochs"), "x", "pretrain.epochs"),
    (("teachers", 0, "hidden_widths"), ["x"], "teachers[0].hidden_widths[0]"),
    (("dataset", "spec", "seed"), "x", "dataset.spec.seed"),
    (("teachers",), ["a", "b"], "teachers[0]"),
    (("train", "epoch"), 99, "train.epoch"),
    (("train", "train_fraction"), 0.5, "train.train_fraction"),
    (("train", "seed"), 3, "train.seed"),
    (("dataset", "spec", "sed"), 3, "dataset.spec.sed"),
    (("train", "lr"), -1, "train.lr"),
    (("train", "tau_distill"), math.inf, "train.tau_distill"),
    (("train", "tau_teacher"), math.nan, "train.tau_teacher"),
    (("pretrain", "tau"), math.inf, "pretrain.tau"),
    (("train", "augmentation"), {"kind": "jitter", "sigma": -1}, "train.augmentation.sigma"),
    (("train", "augmentation"), {"kind": "cutout"}, "train.augmentation.kind"),
    (("train", "lr_schedule"), {"kind": "cosine", "eta_min": -1}, "train.lr_schedule.eta_min"),
    (("teachers", 1, "corruption"), {"kind": "weight_noise", "sigma": -1},
     "teachers[1].corruption.sigma"),
    (("teachers", 0, "corruption"), {"kind": "gamma_rays"}, "teachers[0].corruption.kind"),
    # sigma applies to weight_noise only.
    (("teachers", 0, "corruption"), {"kind": "label_shuffle", "sigma": 0.5},
     "teachers[0].corruption.sigma", "teachers[0].corruption.sigma=label_shuffle"),
    (("trian",), {}, "trian"),
    (("dataset", "url"), "x", "dataset.url"),
    # A spec and a path both given.
    (("dataset", "path"), "data.ds", "dataset.path"),
    # Rounding 0.8 n leaves no eval row for n <= 2.
    (("dataset", "spec", "samples_per_class"), 2, "dataset.spec.samples_per_class"),
    (("seeds",), [-1], "seeds"),
    # One seed twice would train into one directory twice.
    (("seeds",), [0, 0], "seeds"),
    # JSON admits NaN and Infinity, which a comparison with a bound passes.
    (("train", "augmentation"), {"kind": "mixup", "beta": math.nan}, "train.augmentation.beta"),
    (("train", "augmentation"), {"kind": "jitter", "sigma": math.inf}, "train.augmentation.sigma",
     "train.augmentation.sigma=inf"),
    (("train", "lr_schedule"), {"kind": "cosine", "eta_min": math.nan},
     "train.lr_schedule.eta_min", "train.lr_schedule.eta_min=nan"),
    (("teachers", 0, "corruption"), {"kind": "weight_noise", "sigma": math.nan},
     "teachers[0].corruption.sigma"),
    (("dataset", "spec", "noise_sigma"), math.nan, "dataset.spec.noise_sigma"),
    (("dataset", "spec", "anchor_scale"), math.inf, "dataset.spec.anchor_scale"),
    (("train", "loss_ratios"), [1.0, math.nan, 1.0], "train.loss_ratios",
     "train.loss_ratios=nan"),
    (("train", "loss_ratios"), [math.inf, 1.0, 1.0], "train.loss_ratios",
     "train.loss_ratios=inf"),
]


class TestManifestSchema:
    @pytest.mark.parametrize(
        "where, value, field", [c[:3] for c in BAD_MANIFESTS], ids=[c[-1] for c in BAD_MANIFESTS]
    )
    def test_bad_value_exits_2_naming_field(self, tmp_path, capsys, where, value, field):
        p = tmp_path / "m.json"
        manifest = json.loads(json.dumps(write_manifest(p)))
        _set(manifest, where, value)
        p.write_text(json.dumps(manifest))
        assert cli.main(["run", str(p)]) == 2
        assert repr(field) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_more_teachers_than_alpha_columns_exits_2(self, tmp_path, capsys):
        # metrics.csv has one alpha column per teacher, 4 in all.
        p = tmp_path / "m.json"
        write_manifest(
            p, train={**TINY_TRAIN, "num_teachers": 5}, teachers=TINY_TEACHERS + TINY_TEACHERS[:1]
        )
        for verb in ("validate", "run"):
            assert cli.main([verb, str(p)]) == 2
            assert "'train.num_teachers': must be at most 4" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exits_2(self, tmp_path, capsys, threads):
        p = tmp_path / "m.json"
        write_manifest(p)
        assert cli.main(["run", str(p), "--threads", threads]) == 2
        assert "'--threads': must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        p = tmp_path / "m.json"
        write_manifest(p)
        assert cli.main(["run", str(p), "--seed-override", "-1"]) == 2
        assert "'--seed-override'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_dataset_file_with_an_empty_eval_split_exits_2(self, tmp_path, capsys):
        ds_path = tmp_path / "data.ds"
        spec = SyntheticSpec(**{**TINY_DATASET["spec"], "samples_per_class": 1})
        save_dataset(generate(spec), ds_path)
        p = tmp_path / "m.json"
        write_manifest(p, dataset={"path": str(ds_path)})
        assert cli.main(["run", str(p)]) == 2
        assert "'dataset.path'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run", "gen-data"])
    def test_file_that_is_not_utf8_exits_2_naming_it(self, tmp_path, capsys, command):
        # A manifest or spec is read as UTF-8, and byte 0xff begins no UTF-8 text.
        p = tmp_path / "in.json"
        p.write_bytes(b"\xff" + json.dumps({"schema_version": 1}).encode())
        out = tmp_path / "out"
        argv = {
            "validate": ["validate", str(p)],
            "run": ["run", str(p), "--output-dir", str(out)],
            "gen-data": ["gen-data", str(p), str(out)],
        }[command]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        what = "spec" if command == "gen-data" else "manifest"
        assert err.startswith(f"config error: {what} {p} is not UTF-8 text")
        assert not out.exists()

    def test_rising_cosine_schedule_exits_2(self, tmp_path, capsys):
        # eta_min above lr would make the cosine schedule rise.
        p = tmp_path / "m.json"
        schedule = {"kind": "cosine", "eta_min": 1e-2}
        write_manifest(p, train={**TINY_TRAIN, "lr": 1e-4, "lr_schedule": schedule})
        assert cli.main(["run", str(p)]) == 2
        assert "'train.lr_schedule.eta_min'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_strategy_suite_needs_teachers_for_every_row(self, tmp_path, capsys):
        p = tmp_path / "m.json"
        train = {**TINY_TRAIN, "strategy": "base", "num_teachers": 0}
        write_manifest(p, suite="strategy", train=train)
        assert cli.main(["validate", str(p)]) == 2
        assert "'train.num_teachers'" in capsys.readouterr().err

    def test_omitted_fields_take_the_dataclass_defaults(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(
            json.dumps({"schema_version": 1, "train": {}, "pretrain": {}, "teachers": [{}, {}]})
        )
        m = cli.load_manifest(p)
        assert m.train == config.TrainConfig()
        assert m.pretrain == config.PretrainConfig()
        assert m.teachers == (config.TeacherSpec(), config.TeacherSpec())
        assert m.dataset.spec == SyntheticSpec()

    def test_readme_lists_every_manifest_field(self):
        expected = {path for path, _, cls in _manifest_fields(config.Manifest) if cls is None}
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        listed = set(re.findall(r"^\| `([^`]+)` \|", readme, flags=re.M))
        assert listed == expected

    def test_every_config_dataclass_lives_in_config(self):
        # The manifest's schema has one owner: every config dataclass the
        # reader reaches from Manifest is config's, and config holds no other.
        walk = _manifest_fields(config.Manifest)
        reached = {config.Manifest} | {cls for _, _, cls in walk if cls is not None}
        assert {cls.__module__ for cls in reached} == {"kdlab.config"}
        assert reached == {
            v for v in vars(config).values() if isinstance(v, type) and dataclasses.is_dataclass(v)
        }

    def test_warm_reader_resolves_no_type_hints(self, tmp_path, monkeypatch):
        # Resolving the type hints is the costly part of a cold reader;
        # _readers caches each class's reader so a warm parse does none.
        p = tmp_path / "m.json"
        write_manifest(p)
        calls = []
        resolve = typing.get_type_hints
        monkeypatch.setattr(
            typing, "get_type_hints", lambda *a, **k: calls.append(a) or resolve(*a, **k)
        )
        config._readers.cache_clear()
        cold = cli.load_manifest(p)
        assert calls
        calls.clear()
        for _ in range(3):
            assert cli.load_manifest(p) == cold
        assert calls == []

    def test_readme_lists_the_metrics_columns(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"`metrics.csv` has the fixed columns\n\n```\n(.*?)```", readme, re.S)
        assert block, "README has no metrics.csv column block"
        assert [c.strip() for c in block[1].split(",")] == list(cli.METRIC_COLUMNS)


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
        # The resolved manifest, as validate echoes it.
        (tmp_path / "echo.json").write_text(json.dumps(manifest_echo["manifest"]))
        assert cli.load_manifest(tmp_path / "echo.json") == cli.load_manifest(p)
        run_info = json.loads((out / "runs" / "default" / "seed_0" / "run.json").read_text())
        assert 0.0 <= run_info["final_accuracy"] <= 1.0

    @pytest.mark.parametrize("k", [2, 3])
    def test_dsw_run_reports_unconverged_batches(self, tmp_path, k):
        # At K = 2 Frank-Wolfe converges in one iteration; at K = 3 on this
        # manifest it runs out its budget on each of the 2 x 3 batches, and
        # a batch it did not solve is not certified.
        p = tmp_path / "m.json"
        write_manifest(p, train={**TINY_TRAIN, "strategy": "dsw", "num_teachers": k})
        out = tmp_path / "o"
        assert cli.main(["run", str(p), "--output-dir", str(out)]) == 0
        run_dir = out / "runs" / "default" / "seed_0"
        info = json.loads((run_dir / "run.json").read_text())
        with open(run_dir / "metrics.csv", newline="") as f:
            fw_iters = [float(r["fw_iters"]) for r in csv.DictReader(f)]
        if k == 2:
            assert (info["pareto_certified"], info["fw_unconverged_batches"]) == (True, 0)
            assert fw_iters == [1.0, 1.0]
        else:
            assert (info["pareto_certified"], info["fw_unconverged_batches"]) == (False, 6)
            assert fw_iters == [weighting.DSW_MAX_ITER] * 2

    @pytest.mark.parametrize("source", ["--output-dir", "manifest"])
    @pytest.mark.parametrize("under", [(), ("sub",)], ids=["file", "under-file"])
    def test_output_dir_that_cannot_be_created_is_a_data_error(
        self, tmp_path, capsys, source, under
    ):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        out = blocker.joinpath(*under)
        p = tmp_path / "m.json"
        if source == "manifest":
            write_manifest(p, output_dir=str(out))
            argv = ["run", str(p)]
        else:
            write_manifest(p)
            argv = ["run", str(p), "--output-dir", str(out)]
        assert cli.main(argv) == 3
        assert f"cannot create output directory {out}: " in capsys.readouterr().err
        assert blocker.read_text() == "not a directory"

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
        # Grid points share teachers in both modes; every output byte agrees.
        # A one-seed strategy suite's group is split in two for two workers.
        for suite, labels, seeds in (
            ("single", ["default"], [0, 1]),
            ("strategy", list(cli.STRATEGY_GRID), [0, 1]),
            ("strategy", list(cli.STRATEGY_GRID), [0]),
            ("teacher_count", [f"K{k}" for k in cli.TEACHER_COUNT_GRID], [0, 1]),
        ):
            p = tmp_path / f"{suite}{len(seeds)}.json"
            write_manifest(p, suite=suite, seeds=seeds)
            serial, parallel = (tmp_path / f"{suite}{len(seeds)}" / m for m in "sp")
            assert cli.main(["run", str(p), "--output-dir", str(serial)]) == 0
            assert cli.main(["run", str(p), "--threads", "2", "--output-dir", str(parallel)]) == 0
            assert (serial / "summary.csv").read_bytes() == (parallel / "summary.csv").read_bytes()
            for label in labels:
                for seed in seeds:
                    run = Path("runs") / label / f"seed_{seed}" / "metrics.csv"
                    assert (serial / run).read_bytes() == (parallel / run).read_bytes(), run
            if suite == "strategy" and seeds == [0]:
                info = lambda label: json.loads(  # noqa: E731
                    (parallel / "runs" / label / "seed_0" / "run.json").read_text()
                )
                groups = {label: info(label)["group"] for label in labels}
                assert groups == {
                    "base": ["base", "avg"], "avg": ["base", "avg"],
                    "lsr": ["lsr", "dsw"], "dsw": ["lsr", "dsw"],
                }

    @pytest.mark.parametrize("suite, distinct", [("strategy", 2), ("teacher_count", 4)])
    def test_each_teacher_pretrained_once(self, tmp_path, monkeypatch, suite, distinct):
        keys = []
        real = trainer.pretrain_teacher

        def counted(cfg, dataset, train_idx, eval_idx, spec, seed, teacher_index):
            keys.append((seed, teacher_index))
            return real(cfg, dataset, train_idx, eval_idx, spec, seed, teacher_index)

        for module in (cli, trainer):
            monkeypatch.setattr(module, "pretrain_teacher", counted)
        p = tmp_path / "m.json"
        write_manifest(p, suite=suite)
        assert cli.main(["run", str(p), "--output-dir", str(tmp_path / "o")]) == 0
        # Without sharing: 6 pretrains for strategy (avg, lsr, dsw x 2
        # teachers), 10 for teacher_count (1 + 2 + 3 + 4).
        assert sorted(keys) == [(0, j) for j in range(distinct)]

    def test_partial_failure_completes_remaining_runs(self, tmp_path, monkeypatch):
        p = tmp_path / "m.json"
        write_manifest(p, seeds=[0, 1, 2])
        out = tmp_path / "o"
        real_execute = cli._execute_group

        def flaky(payload):
            if payload[2] == 1:  # fail the middle seed only
                raise cli.NumericError("run default/seed_1: synthetic blowup")
            return real_execute(payload)

        monkeypatch.setattr(cli, "_execute_group", flaky)
        assert cli.main(["run", str(p), "--output-dir", str(out)]) == 4
        # remaining runs completed and were summarized
        assert (out / "runs" / "default" / "seed_0" / "metrics.csv").exists()
        assert (out / "runs" / "default" / "seed_2" / "metrics.csv").exists()
        # the failed run left its record and no metrics
        failed = out / "runs" / "default" / "seed_1"
        assert sorted(f.name for f in failed.iterdir()) == ["error.json"]
        error = json.loads((failed / "error.json").read_text())
        assert error["type"] == "NumericError" and error["message"].endswith("synthetic blowup")
        assert "Traceback" in error["traceback"]
        failed_runs = json.loads((out / "manifest.json").read_text())["failed_runs"]
        assert failed_runs == [{"grid_point": "default", "seed": 1, "error": "NumericError"}]
        with open(out / "summary.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert rows and int(rows[0]["n_seeds"]) == 2

    def test_summary_ignores_runs_left_by_an_earlier_call(self, tmp_path, monkeypatch):
        p = tmp_path / "m.json"
        write_manifest(p)
        out = tmp_path / "o"
        assert cli.main(["run", str(p), "--output-dir", str(out)]) == 0

        def failing(payload):
            raise cli.NumericError("run default/seed_1: synthetic blowup")

        monkeypatch.setattr(cli, "_execute_group", failing)
        args = ["run", str(p), "--seed-override", "1", "--output-dir", str(out)]
        assert cli.main(args) == 4
        # The first call's run.json is still on disk; this call completed no run.
        assert (out / "runs" / "default" / "seed_0" / "run.json").exists()
        with open(out / "summary.csv", newline="") as f:
            assert list(csv.DictReader(f)) == []

    def test_rerun_that_fails_leaves_no_stale_outputs(self, tmp_path, monkeypatch):
        # A run that fails where an earlier call completed it leaves
        # error.json and none of the earlier call's files.
        p = tmp_path / "m.json"
        write_manifest(p)
        out = tmp_path / "o"
        run_dir = out / "runs" / "default" / "seed_0"
        assert cli.main(["run", str(p), "--output-dir", str(out)]) == 0
        assert (run_dir / "metrics.csv").exists() and (run_dir / "run.json").exists()

        def diverging(*args, **kwargs):
            raise cli.NumericError("synthetic divergence")

        with monkeypatch.context() as m:
            m.setattr(cli, "distill_students", diverging)
            assert cli.main(["run", str(p), "--output-dir", str(out)]) == 4
        assert sorted(f.name for f in run_dir.iterdir()) == ["error.json"]
        assert json.loads((run_dir / "error.json").read_text())["type"] == "NumericError"
        # A later call that completes the run drops the record.
        assert cli.main(["run", str(p), "--output-dir", str(out)]) == 0
        assert sorted(f.name for f in run_dir.iterdir()) == ["metrics.csv", "run.json"]

    def test_code_bug_in_a_run_is_an_internal_error(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(cli, "_execute_group", broken)
        p = tmp_path / "m.json"
        write_manifest(p)
        assert cli.main(["run", str(p), "--output-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "internal error: run default/seed_0: TypeError: unsupported operand" in err
        assert "numeric error" not in err

    def test_failed_teacher_fails_only_the_runs_that_need_it(self, tmp_path, monkeypatch, capsys):
        real = trainer.pretrain_teacher

        def flaky(cfg, dataset, train_idx, eval_idx, spec, seed, teacher_index):
            if (seed, teacher_index) == (1, 1):
                raise RuntimeError("synthetic pretrain blowup")
            return real(cfg, dataset, train_idx, eval_idx, spec, seed, teacher_index)

        for module in (cli, trainer):
            monkeypatch.setattr(module, "pretrain_teacher", flaky)
        p = tmp_path / "m.json"
        write_manifest(p, suite="strategy", seeds=[0, 1])
        out = tmp_path / "o"
        assert cli.main(["run", str(p), "--output-dir", str(out)]) == 1
        # The first failing run in grid order is named; base needs no teacher.
        err = capsys.readouterr().err
        assert "internal error: run avg/seed_1: RuntimeError: synthetic pretrain blowup" in err
        for label in cli.STRATEGY_GRID:
            assert (out / "runs" / label / "seed_0" / "metrics.csv").exists()
            assert (out / "runs" / label / "seed_1" / "metrics.csv").exists() == (label == "base")
            assert (out / "runs" / label / "seed_1" / "error.json").exists() == (label != "base")
        with open(out / "summary.csv", newline="") as f:
            n_seeds = {r["grid_point"]: int(r["n_seeds"]) for r in csv.DictReader(f)}
        assert n_seeds == {"base": 2, "avg": 1, "lsr": 1, "dsw": 1}
        assert (out / "manifest.json").exists()
        # The report counts each grid point's seeds on its own row.
        assert cli.main(["report", str(out)]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert {f[1]: int(f[2]) for f in map(str.split, rows)} == n_seeds

    def test_group_that_raises_is_halved(self, tmp_path, monkeypatch, capsys):
        # Frank-Wolfe fails, so the strategy group's lockstep training
        # raises: it is halved into (base, avg) and (lsr, dsw), and the
        # second half into (lsr) and (dsw). base, avg and lsr write the
        # bytes the group writes without the failure; dsw fails as alone.
        p = tmp_path / "m.json"
        write_manifest(p, suite="strategy")
        good, bad = tmp_path / "good", tmp_path / "bad"
        assert cli.main(["run", str(p), "--output-dir", str(good)]) == 0

        def failing(*args, **kwargs):
            raise NonFiniteInput("synthetic Frank-Wolfe failure")

        monkeypatch.setattr(weighting, "frank_wolfe_min_norm", failing)
        assert cli.main(["run", str(p), "--output-dir", str(bad)]) == 4
        err = capsys.readouterr().err
        assert "numeric error: run dsw/seed_0: synthetic Frank-Wolfe failure" in err
        for label, group in (("base", ["base", "avg"]), ("avg", ["base", "avg"]), ("lsr", ["lsr"])):
            run = Path("runs") / label / "seed_0"
            good_bytes = (good / run / "metrics.csv").read_bytes()
            assert (bad / run / "metrics.csv").read_bytes() == good_bytes
            infos = [json.loads((out / run / "run.json").read_text()) for out in (bad, good)]
            assert [i["group"] for i in infos] == [group, list(cli.STRATEGY_GRID)]
        dsw = bad / "runs" / "dsw" / "seed_0"
        assert sorted(f.name for f in dsw.iterdir()) == ["error.json"]
        failed_runs = json.loads((bad / "manifest.json").read_text())["failed_runs"]
        assert failed_runs == [{"grid_point": "dsw", "seed": 0, "error": "NonFiniteInput"}]
        # dsw's record is the error distill_student raises for dsw alone.
        m = cli.load_manifest(p)
        ds = generate(m.dataset.spec)
        split = trainer.dataset_split(ds)
        teachers = [
            trainer.pretrain_teacher(m.pretrain, ds, *split, m.teachers[j], 0, j)
            for j in range(m.train.num_teachers)
        ]
        config = dataclasses.replace(m.train, strategy="dsw")
        with pytest.raises(NonFiniteInput) as alone:
            trainer.distill_student(config, teachers, ds, *split)
        error = json.loads((dsw / "error.json").read_text())
        assert (error["type"], error["message"]) == ("NonFiniteInput", str(alone.value))

    def test_every_member_failing_records_each(self, tmp_path, monkeypatch, capsys):
        # A dsw loss_ratio suite whose Frank-Wolfe always fails: every
        # halving fails down to the one-run groups, and each run leaves
        # its own record.
        def failing(*args, **kwargs):
            raise NonFiniteInput("synthetic Frank-Wolfe failure")

        monkeypatch.setattr(weighting, "frank_wolfe_min_norm", failing)
        p = tmp_path / "m.json"
        write_manifest(p, suite="loss_ratio", train={**TINY_TRAIN, "strategy": "dsw"})
        out = tmp_path / "o"
        assert cli.main(["run", str(p), "--output-dir", str(out)]) == 4
        labels = [label for label, _ in cli.LOSS_RATIO_GRID]
        err = capsys.readouterr().err
        assert "numeric error: run 0.5:1:1/seed_0: synthetic Frank-Wolfe failure" in err
        for label in labels:
            run_dir = cli._run_dir(out, label, 0)
            assert sorted(f.name for f in run_dir.iterdir()) == ["error.json"]
            assert json.loads((run_dir / "error.json").read_text())["type"] == "NonFiniteInput"
        failed_runs = json.loads((out / "manifest.json").read_text())["failed_runs"]
        assert failed_runs == [
            {"grid_point": label, "seed": 0, "error": "NonFiniteInput"} for label in labels
        ]
        with open(out / "summary.csv", newline="") as f:
            assert list(csv.DictReader(f)) == []

    def test_dropout_zeroed_row_runs(self, tmp_path):
        # A (12,)->5 student at dropout 0.5 zeroes every hidden unit of a
        # class-anchor row while its biases are still zero; that row is
        # passed again with every unit kept instead of stopping the run.
        p = tmp_path / "m.json"
        student = {"hidden_widths": [12], "output_dim": 5, "dropout_p": 0.5}
        write_manifest(
            p, train={**TINY_TRAIN, "student": student}, pretrain={**TINY_PRETRAIN, "epochs": 1}
        )
        assert cli.main(["run", str(p), "--output-dir", str(tmp_path / "o")]) == 0

    def test_write_that_raises_leaves_the_previous_file(self, tmp_path):
        path = tmp_path / "metrics.csv"
        path.write_bytes(b"previous\n")
        record = trainer.EpochRecord(
            0, 1.0, 0.5, 0.25, 1.75, 0.5, 1.0, [0.5, 0.5], 0.0, 1e-4, True
        )
        broken = trainer.RunMetrics("avg", 2, [record, None])  # raises after one row
        with pytest.raises(AttributeError):
            cli.write_metrics_csv(path, "single", "default", 0, broken)
        assert path.read_bytes() == b"previous\n"
        assert [f.name for f in tmp_path.iterdir()] == ["metrics.csv"]


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
        # 4 strategies x 2 seeds x 2 epochs x 6 metrics
        assert len(long_rows) == 4 * 2 * 2 * 6

    def test_no_runs_found(self, tmp_path):
        assert cli.main(["report", str(tmp_path)]) == 3

    @staticmethod
    def drop_column(path, column):
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        with open(path, "w", newline="") as f:
            fields = [c for c in rows[0] if c != column]
            writer = csv.DictWriter(f, fieldnames=fields, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)

    @pytest.mark.parametrize(
        "rel, column",
        [("summary.csv", "acc_std"), ("runs/default/seed_0/metrics.csv", "l_kl")],
    )
    def test_missing_column_is_a_data_error(self, tmp_path, capsys, rel, column):
        p = tmp_path / "m.json"
        write_manifest(p)
        out = tmp_path / "o"
        assert cli.main(["run", str(p), "--output-dir", str(out)]) == 0
        self.drop_column(out / rel, column)
        capsys.readouterr()
        assert cli.main(["report", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert str(out / rel) in err and repr(column) in err

    def test_failed_report_leaves_the_previous_files(self, tmp_path, capsys):
        # report.txt and long.csv are replaced only once written in full: a
        # metrics.csv that fails midway through long.csv leaves both as the
        # last report wrote them, and no temp file.
        p = tmp_path / "m.json"
        write_manifest(p, seeds=[0, 1])
        out = tmp_path / "o"
        assert cli.main(["run", str(p), "--output-dir", str(out)]) == 0
        assert cli.main(["report", str(out)]) == 0
        before = {f.name: f.read_bytes() for f in out.iterdir() if f.is_file()}
        self.drop_column(out / "runs/default/seed_1/metrics.csv", "l_kl")
        assert cli.main(["report", str(out)]) == 3
        assert {f.name: f.read_bytes() for f in out.iterdir() if f.is_file()} == before
        assert {"long.csv", "report.txt"} <= set(before)

    def test_truncated_row_is_a_data_error(self, tmp_path, capsys):
        p = tmp_path / "m.json"
        write_manifest(p)
        out = tmp_path / "o"
        assert cli.main(["run", str(p), "--output-dir", str(out)]) == 0
        summary = out / "summary.csv"
        text = summary.read_text()
        summary.write_text(text[: text.rindex(",")])  # cut the last row short
        capsys.readouterr()
        assert cli.main(["report", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"data error: {summary} line 2")

    @pytest.mark.parametrize(
        "case", ["summary-not-utf8", "summary-is-a-directory", "metrics-is-a-directory"]
    )
    def test_unreadable_csv_is_a_data_error(self, tmp_path, capsys, case):
        # A CSV that cannot be read as UTF-8 text exits 3 naming the file.
        out = tmp_path / "o"
        summary = out / "summary.csv"
        metrics = out / "runs" / "default" / "seed_0" / "metrics.csv"
        metrics.parent.mkdir(parents=True)
        text = "suite,grid_point,n_seeds,acc_mean,acc_std,recall5_mean\r\n"
        text += "single,d\xe9fault,1,0.5,0.0,0.9\r\n"
        if case == "summary-is-a-directory":
            summary.mkdir()
        else:
            summary.write_bytes(text.encode("latin-1" if case == "summary-not-utf8" else "utf-8"))
            metrics.mkdir()
        bad = metrics if case == "metrics-is-a-directory" else summary
        assert cli.main(["report", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(bad) in err


def test_import_loads_no_process_pool_or_openssl():
    # Only `run --threads N` with N > 1 starts the process pool, which
    # loads concurrent.futures and logging, and only a dataset file's
    # checksum needs hashlib, which loads OpenSSL; importing the CLI loads
    # none of them.
    code = (
        "import sys, kdlab.cli; print(sorted("
        "{'multiprocessing', '_hashlib', 'concurrent.futures', 'logging'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


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

    @pytest.mark.parametrize(
        "spec, field",
        [
            ({"seed": "x"}, "spec.seed"),
            ({"sed": 3}, "spec.sed"),
            # Every run's split leaves 2 samples per class no eval row.
            ({"num_classes": 3, "samples_per_class": 2}, "spec.samples_per_class"),
        ],
    )
    def test_gen_data_names_field(self, tmp_path, capsys, spec, field):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert cli.main(["gen-data", str(spec_path), str(tmp_path / "x.bin")]) == 2
        assert repr(field) in capsys.readouterr().err
        assert not (tmp_path / "x.bin").exists()
