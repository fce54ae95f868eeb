"""Mutants of kdlab that the tests must kill, kept as a table that any later
change can rerun.

Each row names a module of ``src/kdlab``, a snippet that occurs in it
exactly once, the snippet's replacement, and the tests that must fail once
the replacement is made. ``tests/test_mutants.py`` checks in Tier-1 that
every snippet still occurs exactly once and that every named test file
exists; a change that removes a snippet updates its row. Running the
mutants is not part of Tier-1:

    python tests/mutants.py [name ...]

copies the repository's ``src``, ``tests`` and ``perfbench`` to a temporary
directory, applies each mutant there in turn and runs its tests: the
mutant is killed when they fail, and survives when they pass. A mutant
that survives stays in the table, with the reason in ``note`` where it is
known.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kdlab"


class Mutant(NamedTuple):
    name: str
    module: str        # file name in src/kdlab
    snippet: str       # occurs exactly once in the module
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    note: str = ""


BLOCK_TEST = (
    "tests/test_trainer.py::TestFrozenTeacherCache::test_block_outputs_match_per_batch_outputs"
)

MUTANTS = (
    Mutant(
        "dropped-r_mse-image-gradient", "trainer.py",
        "g_u += members.r_mse * g_mse_u", "pass",
        ("tests/test_step_oracle.py",),
        "drops the MSE gradient into the student's image features",
    ),
    Mutant(
        "dropped-r_mse-text-gradient", "trainer.py",
        "g_w += members.r_mse * g_mse_w", "pass",
        ("tests/test_step_oracle.py",),
    ),
    Mutant(
        "kl-gradient-weights-reversed", "trainer.py",
        "members.columns(members.r_kl[..., None] * alpha)",
        "members.columns(members.r_kl[..., None] * alpha[..., ::-1])",
        ("tests/test_step_oracle.py",),
    ),
    Mutant(
        "frank-wolfe-tie-step", "weighting.py",
        "gamma = 0.5", "gamma = 0.4",
        ("tests/test_weighting.py::TestFrankWolfe::test_near_tie_takes_half_steps",),
    ),
    Mutant(
        "cosine-floor", "config.py",
        "lr / 100.0", "lr / 10.0",
        ("tests/test_trainer.py::TestLrAt",),
    ),
    Mutant(
        "train-fraction", "config.py",
        "TRAIN_FRACTION = 0.8", "TRAIN_FRACTION = 0.75",
        ("tests/test_trainer.py::TestSplit",),
    ),
    Mutant(
        "dataset-spec-missing-field", "data.py",
        "fields.keys() != _readers(SyntheticSpec).keys()",
        "not fields.keys() <= _readers(SyntheticSpec).keys()",
        ("tests/test_data.py::TestSpec::test_dict_roundtrip",),
        "a file missing a spec field would take the field's default",
    ),
    Mutant(
        "dataset-spec-error-unnamed", "data.py",
        'InvalidSpec(f"{path} holds an invalid spec: {e}")', "InvalidSpec(str(e))",
        ("tests/test_data.py::TestRoundtrip::test_header_that_disagrees_with_its_body",),
    ),
    Mutant(
        "recall-at-1", "trainer.py",
        "top = min(5, banks.shape[-2])", "top = min(1, banks.shape[-2])",
        ("tests/test_trainer.py::TestEvaluate::test_random_student_near_chance_eight_classes",),
    ),
    Mutant(
        "member-scored-on-first-bank", "trainer.py",
        "zip(feats, banks)]", "zip(feats, [banks[0]] * len(feats))]",
        ("tests/test_trainer.py::TestEvaluate::test_member_stack_scores_each_member",),
    ),
    Mutant(
        "unconverged-dsw-batch-certified", "trainer.py",
        "certified = fw.converged and weighting", "certified = not fw.converged or weighting",
        ("tests/test_cli.py::TestRun::test_dsw_run_reports_unconverged_batches",),
    ),
    Mutant(
        "certificate-slack-sign-flipped", "weighting.py",
        "slacks = ga - d_norm_sq", "slacks = d_norm_sq - ga",
        ("tests/test_weighting.py::TestCertify",),
    ),
    Mutant(
        "dsw-gram-of-image-columns", "trainer.py",
        "gram = grads @ grads.T",
        "n_img = sum(a[0].size for a in kl_img.weights + kl_img.biases);"
        " gram = grads[:, :n_img] @ grads[:, :n_img].T",
        ("tests/test_step_oracle.py::test_first_step_gradient_is_the_objectives",),
        "Frank-Wolfe weighs the teachers by their image-encoder gradients alone",
    ),
    Mutant(
        "dsw-certificate-tolerance", "weighting.py",
        "DSW_CERT_TOL = 1e-6", "DSW_CERT_TOL = -1.0",
        ("tests/test_trainer.py::TestDistill::test_dsw_records_valid_certified_weights",),
    ),
    Mutant(
        "epoch-text-step-without-batches", "trainer.py",
        "opt.step(lr_epoch * sums.batches, 1)", "opt.step(lr_epoch, 1)",
        ("tests/test_step_oracle.py::test_epoch_text_step_takes_the_epochs_batches",),
    ),
    # The roster-order check recorded with f16b390: its reorder is gone, so
    # the stacks are laid end to end in reverse instead.
    Mutant(
        "roster-order", "trainer.py",
        "np.concatenate(parts, axis=axis)", "np.concatenate(parts[::-1], axis=axis)",
        (BLOCK_TEST,),
    ),
    Mutant(
        "eval-stack-cap-ignores-members", "encoder.py",
        "per = max(_STACK_ROWS // (_EVAL_ROWS * members), 1)", "per = _STACK_ROWS // _EVAL_ROWS",
        ("tests/test_encoder.py::TestEncode::test_chunked_eval_pass_matches_one_pass",),
    ),
    Mutant(
        "always-encoded-tail", "encoder.py",
        "if tail.shape[-2] or not feats:", "if True:",
        ("tests/test_encoder.py::TestEncode::test_chunked_eval_pass_matches_one_pass",),
    ),
    Mutant(
        "no-corruption-check", "config.py",
        "elif not isinstance(self.corruption, Corruption):", "elif False:",
        ("tests/test_trainer.py::TestTrainConfig::test_teacher_spec_rejects_unknown_corruption",),
    ),
    Mutant(
        "no-dataset-length-check", "data.py",
        "if len(blob) - 8 - off != body:", "if False:",
        ("tests/test_data.py::TestRoundtrip::test_header_that_disagrees_with_its_body",),
    ),
    Mutant(
        "reversed-stack-dims", "trainer.py",
        "        ]\n        self.params = [[t.image_params",
        "        ][::-1]\n        self.params = [[t.image_params",
        (BLOCK_TEST,),
        "the teacher stacks in reverse roster order",
    ),
    Mutant(
        "echo-walks-every-field", "config.py",
        "for name in _readers(type(value))}", "for name in (f.name for f in fields(value))}",
        ("tests/test_cli.py::TestValidate::test_echo_loads_back_equal",),
    ),
    Mutant(
        "corruption-sigma-under-any-kind", "config.py",
        'raise InvalidConfig("sigma", f"applies to weight_noise only, not {self.kind!r}")',
        "pass",
        ("tests/test_trainer.py::TestTrainConfig::test_corruption_sigma_is_weight_noise_only",),
    ),
    Mutant(
        "no-weight-noise-sigma-default", "config.py",
        'object.__setattr__(self, "sigma", 1.0)', "pass",
        ("tests/test_trainer.py::TestTrainConfig::test_corruption_sigma_is_weight_noise_only",),
    ),
    Mutant(
        "no-dataset-label-check", "data.py",
        "if not 0 <= labels.min() <= labels.max() < spec.num_classes:", "if False:",
        ("tests/test_data.py::TestRoundtrip::test_values_a_run_cannot_take[label-LabelOutOfRange]",),
    ),
    Mutant(
        "no-dataset-finite-check", "data.py",
        "if not np.isfinite(a).all():", "if False:",
        ("tests/test_data.py::TestRoundtrip::test_values_a_run_cannot_take",),
    ),
    Mutant(
        "stacks-by-dim-across-the-roster", "trainer.py",
        "itertools.groupby(teachers, lambda t:",
        "itertools.groupby(sorted(teachers, key=lambda t: -t.image_params.config.output_dim),"
        " lambda t:",
        (BLOCK_TEST,),
    ),
    Mutant(
        "mixup-without-its-partner", "trainer.py",
        "(1.0 - lam)[:, None] * img[partner]", "(1.0 - lam)[:, None] * img",
        ("tests/test_trainer.py::TestAugment::test_mixup_convex_combination",),
    ),
    Mutant(
        "dataset-spec-and-path", "config.py",
        'raise InvalidConfig("path", "give spec or path, not both")', "pass",
        ("tests/test_cli.py::TestManifestSchema::test_bad_value_exits_2_naming_field[dataset.path]",),
    ),
    Mutant(
        "manifest-decode-error-uncaught", "config.py",
        "except UnicodeDecodeError as e:", "except UnicodeEncodeError as e:",
        ("tests/test_cli.py::TestManifestSchema::test_file_that_is_not_utf8_exits_2_naming_it",),
    ),
    Mutant(
        "manifest-read-as-latin-1", "config.py",
        'read_text(encoding="utf-8")', 'read_text(encoding="latin-1")',
        ("tests/test_cli.py::TestManifestSchema::test_file_that_is_not_utf8_exits_2_naming_it",),
    ),
    Mutant(
        "report-csv-decode-error-uncaught", "cli.py",
        "except UnicodeDecodeError as e:", "except UnicodeEncodeError as e:",
        ("tests/test_cli.py::TestReport::test_unreadable_csv_is_a_data_error[summary-not-utf8]",),
    ),
    Mutant(
        "report-csv-read-as-latin-1", "cli.py",
        'encoding="utf-8") as f:', 'encoding="latin-1") as f:',
        ("tests/test_cli.py::TestReport::test_unreadable_csv_is_a_data_error[summary-not-utf8]",),
    ),
    Mutant(
        "report-csv-oserror-uncaught", "cli.py",
        'raise DataError(f"cannot read {path}: {e}") from e', "raise",
        ("tests/test_cli.py::TestReport::test_unreadable_csv_is_a_data_error",),
    ),
    Mutant(
        "process-pool-imported-with-the-cli", "cli.py",
        "from pathlib import Path\n",
        "from concurrent.futures import ProcessPoolExecutor\nfrom pathlib import Path\n",
        ("tests/test_cli.py::test_import_loads_no_process_pool_or_openssl",),
    ),
    Mutant(
        "futures-imported-with-the-cli", "cli.py",
        "import time\n", "import time\nfrom concurrent.futures import Future\n",
        ("tests/test_cli.py::test_import_loads_no_process_pool_or_openssl",),
        "loads concurrent.futures and logging, but not multiprocessing",
    ),
    Mutant(
        "hashlib-imported-with-data", "data.py",
        "import contextlib\n", "import contextlib\nimport hashlib\n",
        ("tests/test_cli.py::test_import_loads_no_process_pool_or_openssl",),
    ),
)


def apply(text: str, mutant: Mutant) -> str:
    """``text`` with the mutant's one snippet replaced."""
    if text.count(mutant.snippet) != 1:
        raise ValueError(f"{mutant.name}: the snippet does not occur exactly once")
    return text.replace(mutant.snippet, mutant.replacement)


def run(mutants=MUTANTS) -> int:
    """Apply each mutant to one temporary copy and run its tests there;
    print one line per mutant and return how many runs erred (pytest
    neither passed nor failed, as when a named test is missing)."""
    errors = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(
                ROOT / part, copy / part,
                ignore=shutil.ignore_patterns("__pycache__", "out", ".hypothesis"),
            )
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        for m in mutants:
            path = copy / "src" / "kdlab" / m.module
            original = path.read_text()
            path.write_text(apply(original, m))
            try:
                command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
                code = subprocess.run(
                    command + list(m.tests), cwd=copy, env=env, capture_output=True
                ).returncode
            finally:
                path.write_text(original)
            status = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            errors += code not in (0, 1)
            note = f"  ({m.note})" if m.note and code != 1 else ""
            print(f"{status:10} {m.name}{note}", flush=True)
    return errors


if __name__ == "__main__":
    names = set(sys.argv[1:])
    unknown = names - {m.name for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutants: {sorted(unknown)}")
    sys.exit(1 if run([m for m in MUTANTS if not names or m.name in names]) else 0)
