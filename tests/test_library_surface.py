"""Every public name in the library is used by a run or by the benchmark:
each top-level function, class, method, class field and module constant in
``src/kdlab`` is referenced from ``src/kdlab`` or ``perfbench``. Code only
the tests call belongs in ``tests/oracles.py``.

Names are matched by their final part only, without type inference: a
class member counts as used if any attribute read or keyword argument
carries its name, whatever object it is read from, so a member that shares
its name with a used member of another class is not caught. A local
variable of the same name does not count for a member.

``TRACED_ONLY`` names the public functions that no run calls but that stay
in the library: perfbench's tracer binds each by its qualified name
(``EXPECTED_BINDINGS``), and ``test_bindings`` fails without it. The
training step calls their unchecked kernels, and ``test_trainer`` pins each
function to its kernel. The list holds only functions, by qualified name,
and an entry fails once a run calls it again."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "kdlab").glob("*.py"))
USERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))
TRACED_ONLY = {
    "distill.TeacherOutputs.from_features",
    "distill.kl_pair_loss",
    "distill.mse_align",
    "distill.total_loss",
    "weighting.teacher_label_similarity",
}


def _defined(nodes):
    for n in nodes:
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
            yield n.name, n
        elif isinstance(n, (ast.Assign, ast.AnnAssign)):
            targets = n.targets if isinstance(n, ast.Assign) else [n.target]
            yield from ((t.id, n) for t in targets if isinstance(t, ast.Name))


def _public(tree):
    """Qualified names of the module's definitions, class members included."""
    for name, node in _defined(tree.body):
        yield name
        if isinstance(node, ast.ClassDef):
            yield from (f"{name}.{member}" for member, _ in _defined(node.body))


def _referenced(tree):
    """(name, member) pairs: member is True where only a class member can be
    meant (an attribute read or a keyword argument)."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id, False
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            yield n.attr, True
        elif isinstance(n, ast.keyword) and n.arg:
            yield n.arg, True
        elif isinstance(n, ast.alias):
            yield n.name, False


def test_every_public_name_is_used_outside_tests():
    refs = {ref for p in USERS for ref in _referenced(ast.parse(p.read_text()))}
    any_use = {name for name, _ in refs}
    member_use = {name for name, member in refs if member}
    unused = []
    for p in LIBRARY:
        for name in _public(ast.parse(p.read_text())):
            owner, _, leaf = name.rpartition(".")
            used = member_use if owner else any_use
            if not leaf.startswith("_") and leaf not in used:
                unused.append(f"{p.stem}.{name}")
    assert set(unused) <= TRACED_ONLY, f"no run or benchmark uses {sorted(set(unused) - TRACED_ONLY)}"
    assert TRACED_ONLY <= set(unused), f"drop {sorted(TRACED_ONLY - set(unused))} from TRACED_ONLY"


def test_traced_only_names_are_traced():
    tracer = (ROOT / "perfbench" / "tracer.py").read_text()
    assert all(f'"{name}":' in tracer for name in TRACED_ONLY)
