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
        "dsw-certificate-tolerance", "weighting.py",
        "DSW_CERT_TOL = 1e-6", "DSW_CERT_TOL = -1.0",
        ("tests/test_trainer.py::TestDistill::test_dsw_records_valid_certified_weights",),
    ),
    Mutant(
        "epoch-text-step-without-batches", "trainer.py",
        "opt.step(lr_epoch * sums.batches, 1)", "opt.step(lr_epoch, 1)",
        ("tests/test_step_oracle.py::test_epoch_text_step_takes_the_epochs_batches",),
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
