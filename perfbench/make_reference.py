"""Record the reference outputs every benchmark op is compared with.

    python3 perfbench/make_reference.py

Runs one untraced op of every workload for every run seed in the pool and
writes perfbench/reference.json, with the platform it ran on. Rerun it only
when a change to kdlab is meant to change its outputs, and say so.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.import_kdlab()
    import workloads

    run.OUT.mkdir(exist_ok=True)
    stored = {"platform": run.platform_key(), "workloads": {}}
    for name, wl in workloads.WORKLOADS.items():
        refs = stored["workloads"][name] = {}
        for seed in range(workloads.SEED_POOL):
            st = wl.setup(seed, False, run.OUT)
            wl.prepare(st)
            out = wl.check(st, wl.op(st), workloads.Checker(None))
            if out.problems:
                print(f"{name} seed {seed}: {out.problems}", file=sys.stderr)
                return 1
            refs.update(out.summaries)
            print(f"{name} seed {seed}: {out.summaries}", flush=True)
    (run.HERE / "reference.json").write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
