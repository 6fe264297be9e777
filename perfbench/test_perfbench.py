"""Smoke tests for the repository benchmark.

Each workload runs at a tiny size through the same runner the command
line uses. Run from the repository root with::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from layers import END_TO_END, PER_LAYER  # noqa: E402
from runner import run_workload  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    BTreeSwapFast,
    MiniDBRemoteMix,
    UncachedRemoteRead,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

TINY = {
    "uncached_remote_read": lambda: UncachedRemoteRead(
        control_reads=40, stressor_nodes=2, threads_per_stressor=2,
        buffer_bytes=1 << 20,
    ),
    "minidb_remote_mix": lambda: MiniDBRemoteMix(
        rows=512, row_bytes=256, ops=120, warm_ops=30
    ),
    "btree_swap_fast": lambda: BTreeSwapFast(
        keys=5000, resident_pages=8, ops=400, warm_searches=50
    ),
}


def _run(name, seed, trace, tmp_path):
    return run_workload(
        TINY[name](), seed, seconds=0.0, trace=trace, min_passes=2,
        out_dir=str(tmp_path),
    )


def test_metric_names_and_counts():
    names = [n for n, _, _ in END_TO_END + PER_LAYER]
    assert len(END_TO_END) <= 16 and len(PER_LAYER) <= 128
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    units = [u for _, u, _ in END_TO_END + PER_LAYER]
    assert all(UNIT.fullmatch(u) for u in units)


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in PER_LAYER
    ]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_is_correct_and_repeatable(name, tmp_path):
    a = _run(name, 7, False, tmp_path)
    b = _run(name, 7, False, tmp_path)
    assert a["correct"] and a["failed"] == 0 and a["attempted"] > 0
    assert set(a["metrics"]) == {n for n, _, _ in END_TO_END}
    assert all(m["value"] > 0 for m in a["metrics"].values())
    # the digest of every sim_* metric and count repeats across runs
    assert a["digest"] == b["digest"]
    assert a["inputs_digest"] == b["inputs_digest"]
    c = _run(name, 8, False, tmp_path)
    assert c["inputs_digest"] != a["inputs_digest"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    res = _run(name, 7, True, tmp_path)
    assert res["correct"]
    assert list(res["metrics"]) == [n for n, _, _ in PER_LAYER]
    m = {k: v["value"] for k, v in res["metrics"].items()}
    if name == "btree_swap_fast":
        assert m["sim.events"] == 0 and m["sim.self_s"] == 0
        assert m["ht.link.packets"] == 0 and m["rmc.client_requests"] == 0
    else:
        assert m["sim.events"] > 0 and m["sim.self_s"] > 0
    with open(tmp_path / f"{name}-seed7.trace.json") as fh:
        trace = json.load(fh)
    spans = trace["traceEvents"]
    assert {e["name"] for e in spans} == {"pass", "setup", "warmup", "measure", "verify"}
    assert len({e["args"]["run_id"] for e in spans}) == 1


def test_oracle_catches_wrong_data(tmp_path):
    wl = TINY["btree_swap_fast"]()
    verify = wl.verify

    def lying_verify(inst, measured):
        measured.records[0] = tuple(not r for r in measured.records[0])
        return verify(inst, measured)

    wl.verify = lying_verify
    res = run_workload(wl, 7, seconds=0.0, trace=False, min_passes=1,
                       out_dir=str(tmp_path))
    assert not res["correct"] and res["failed"] == 1


def test_cli_refuses_a_checkout_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in os.listdir(HERE):
        if f.endswith(".py"):
            (bench / f).write_text(open(os.path.join(HERE, f)).read())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "btree_swap_fast",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2 and out.stdout == ""
