#!/usr/bin/env python
"""Golden digests of the reproduction's fixed point.

``golden.json`` pins one sha256 per experiment, taken over the output
of ``python -m repro run <id> --scale 0.2`` with the
``[<id> regenerated in …s wall time]`` lines dropped (the same bytes
as ``python -m repro run <id> --scale 0.2 | grep -v 'wall time]$' |
sha256sum``), plus the per-seed replay digests of ``chaos_soak.py
--quick`` and ``--partitions``.

Usage::

    PYTHONPATH=src python benchmarks/golden.py               # check all
    PYTHONPATH=src python benchmarks/golden.py tableA fig10  # check some
    PYTHONPATH=src python benchmarks/golden.py --update      # re-record

A check run recomputes the experiment digests and exits 1 naming every
experiment that differs. The soak digests are checked by
``chaos_soak.py`` itself, against the seeds recorded here, so the
pre-merge gate runs each soak once. ``--update`` rewrites the whole file
(both soak tiers included, each seed run once); use it only for a
change that moves simulated results on purpose, and explain every
delta in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
SCALE = 0.2

sys.path.insert(0, str(HERE.parent / "src"))

_WALL_LINE = re.compile(r"^\[\S+ regenerated in [0-9.]+s wall time\]$")


def load() -> dict:
    """The committed digests."""
    return json.loads(GOLDEN.read_text())


def experiment_digest(exp_id: str) -> str:
    """sha256 of ``repro run <exp_id> --scale 0.2`` minus wall-time lines."""
    from repro.harness.cli import main as cli_main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli_main(["run", exp_id, "--scale", str(SCALE)])
    if rc != 0:
        raise SystemExit(f"golden: repro run {exp_id} exited {rc}")
    kept = "".join(
        line for line in out.getvalue().splitlines(keepends=True)
        if not _WALL_LINE.match(line.rstrip("\n"))
    )
    return hashlib.sha256(kept.encode()).hexdigest()


def soak_mismatches(tier: str, digests: dict[int, str]) -> list[str]:
    """One message per seed of *tier* whose digest differs from the
    recorded one; seeds with no recorded digest are not compared."""
    recorded = load()["soak"].get(tier, {})
    return [
        f"golden: {tier} soak seed {seed} digest {d[:12]} != recorded "
        f"{recorded[str(seed)][:12]}"
        for seed, d in sorted(digests.items())
        if str(seed) in recorded and recorded[str(seed)] != d
    ]


def _soak_digests(partitions: bool) -> dict[str, str]:
    sys.path.insert(0, str(HERE))
    import chaos_soak

    seeds = chaos_soak.P_SEEDS if partitions else chaos_soak.QUICK_SEEDS
    return {
        str(seed): chaos_soak._digest(
            chaos_soak._build_and_run(
                seed, chaos=True, partitions=partitions
            )
        )
        for seed in range(1, seeds + 1)
    }


def check(exp_ids: list[str]) -> int:
    recorded = load()["experiments"]
    failures = 0
    for exp_id in exp_ids:
        if exp_id not in recorded:
            print(f"golden: no recorded digest for {exp_id}", file=sys.stderr)
            failures += 1
            continue
        digest = experiment_digest(exp_id)
        if digest != recorded[exp_id]:
            print(
                f"golden: {exp_id} output digest {digest[:12]} != recorded "
                f"{recorded[exp_id][:12]}",
                file=sys.stderr,
            )
            failures += 1
        else:
            print(f"golden: {exp_id} ok")
    if failures:
        print(f"golden: {failures} experiment(s) differ", file=sys.stderr)
        return 1
    print(f"golden: {len(exp_ids)} experiment digests match")
    return 0


def update() -> int:
    from repro.harness.experiments import available_experiments

    golden = {
        "scale": SCALE,
        "experiments": {
            exp_id: experiment_digest(exp_id)
            for exp_id in available_experiments()
        },
        "soak": {
            "quick": _soak_digests(partitions=False),
            "partitions": _soak_digests(partitions=True),
        },
    }
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"golden: wrote {GOLDEN}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids to check (default: all)")
    parser.add_argument("--update", action="store_true",
                        help="re-record every digest (explain in CHANGES.md)")
    args = parser.parse_args()
    if args.update:
        return update()
    from repro.harness.experiments import available_experiments

    return check(args.experiments or available_experiments())


if __name__ == "__main__":
    sys.exit(main())
