"""Bit identity across commits: every output digest equals the one stored in
``tests/golden.json`` (see ``tests/make_golden.py``), with no tolerance.

The stored bits hold only on the platform they were recorded on, keyed as
perfbench keys its reference; on another platform the test skips and its
reason names both keys."""

import json

import pytest

import make_golden


def test_outputs_match_golden_digests():
    golden = json.loads(make_golden.GOLDEN.read_text())
    here = make_golden._platform_key()
    if here != golden["platform"]:
        pytest.skip(f"golden digests recorded on {golden['platform']}, this platform is {here}")
    got = make_golden.compute()
    moved = sorted(k for k in golden["digests"].keys() | got.keys()
                   if golden["digests"].get(k) != got.get(k))
    assert not moved, f"output bits moved in {moved}"
