"""The fixed point, pinned: golden digests of the cheapest experiments.

``benchmarks/golden.json`` holds one sha256 per experiment over its
``repro run <id> --scale 0.2`` output with the wall-time lines dropped
(``benchmarks/golden.py``). The pre-merge gate checks every experiment
and both soak tiers; tier-1 checks the four that run in well under a
second each, so a change that moves simulated results fails here first.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_GOLDEN_PY = Path(__file__).resolve().parents[2] / "benchmarks" / "golden.py"


def _golden_module():
    spec = importlib.util.spec_from_file_location("golden", _GOLDEN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _golden_module()


@pytest.mark.parametrize("exp_id", ["tableA", "fig10", "extB", "extC"])
def test_experiment_output_matches_golden_digest(exp_id):
    assert golden.experiment_digest(exp_id) == golden.load()["experiments"][exp_id]


def test_golden_file_covers_every_experiment_and_soak_tier():
    from repro.harness.experiments import available_experiments

    recorded = golden.load()
    assert recorded["scale"] == golden.SCALE
    assert sorted(recorded["experiments"]) == sorted(available_experiments())
    assert set(recorded["soak"]) == {"quick", "partitions"}
    assert all(recorded["soak"][tier] for tier in ("quick", "partitions"))


def test_soak_mismatch_names_the_seed():
    recorded = golden.load()["soak"]["quick"]
    assert golden.soak_mismatches("quick", {1: recorded["1"]}) == []
    (message,) = golden.soak_mismatches("quick", {1: "0" * 64, 999: "f" * 64})
    assert "quick soak seed 1 " in message
