"""The repository benchmark's command line.

Usage, from the repository root::

    python3 perfbench/run.py --workload uncached_remote_read --seed 1 \\
        --seconds 10 --trace 0

Prints a human-readable report, then as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``). Exits 1 when an op fails its oracle or the passes of
one seed disagree, and 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import the
    program from there, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    _import_program()
    from runner import run_workload
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result = run_workload(
        WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace)
    )
    for line in result.pop("lines"):
        print(line)
    del result["digest"], result["inputs_digest"]
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
