"""The benchmark's tracer binds kdlab's public functions by name, and reads
some of their results by field name; a function deleted, renamed or moved
would read as a missing binding, and a renamed result field as zero, only
in a traced benchmark run. This keeps both in Tier-1."""

import importlib.util
from pathlib import Path

from kdlab import config, data, encoder, trainer
from kdlab.numerics import seeded_rng

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_binding_exists():
    tracer = _load_tracer()
    assert tracer.check_bindings(tracer.discover()) == []


def test_traced_dsw_run_reads_the_weighting_results():
    tracer = _load_tracer()
    spec = data.SyntheticSpec(num_classes=3, image_dim=6, text_dim=5, samples_per_class=10, seed=3)
    ds = data.generate(spec)
    train_idx, eval_idx = trainer.dataset_split(ds)
    teachers = []
    for j, width in enumerate((7, 5)):
        pair = [
            encoder.init_params(encoder.EncoderConfig(dim, (width,), 4, "tanh"), seeded_rng(5, j, e))
            for e, dim in enumerate((spec.image_dim, spec.text_dim))
        ]
        teachers.append(trainer.Teacher(*pair, data.build_class_bank(pair[1], ds), 1.0))
    cfg = config.TrainConfig(
        epochs=1, batch_size=8, strategy="dsw", num_teachers=2,
        student=config.StudentConfig((9,), 4),
    )
    with tracer.Tracer() as t:
        t.run_op(lambda: trainer.distill_student(cfg, teachers, ds, train_idx, eval_idx))
    [metrics] = t.op_metrics().values()
    assert metrics["weighting.frank_wolfe_min_norm.calls"] == 3  # one per batch
    assert metrics["weighting.frank_wolfe_min_norm.iterations"] > 0
    assert metrics["weighting.certify_pareto_stationarity.pass_ratio"] == 1.0
