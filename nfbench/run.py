"""NetFence benchmark: one command, three workloads, correctness checked.

Run from the repository root::

    python3 nfbench/run.py --workload sim_fig12 --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``sim_fig12``      the fig12 deployment point, telemetry off;
* ``sim_fig12_obs``  the same point with metrics, packet tracer and spans on;
* ``live_flood``     a live policer process fed by an open-loop generator
  over loopback.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps every
layer's entry points (``layers.py``) and reports per-layer metrics plus the
tracing overhead against an untraced measurement made in the same run.
Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is nonzero when any correctness check fails.

``--inject LAYER=US`` adds a seeded busy-wait of ``US`` microseconds to
every call of one layer function (``feedback.validate`` or
``codec.decode``); the self-checks in ``selfcheck.py`` use it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim_fig12", "sim_fig12_obs", "live_flood")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="nfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", action="append", default=[], metavar="LAYER=US")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"nfbench: no program source under {os.path.join(ROOT, 'src')}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    out_dir = os.path.join(ROOT, ".nfbench")
    os.makedirs(out_dir, exist_ok=True)

    if args.workload == "live_flood":
        import livebench

        # The policer process parses the injections itself.
        result = livebench.run(ROOT, args.seed, args.seconds, bool(args.trace),
                               args.inject, out_dir)
    else:
        import layers
        import simbench

        result = simbench.run(ROOT, args.workload, args.seed, args.seconds,
                              bool(args.trace), layers.parse_inject(args.inject),
                              out_dir)

    for line in result["lines"]:
        print(line)
    failed = 0
    for name, ok in result["checks"]:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")
        failed += not ok
    attempted = max(int(result["attempted"]), 1)
    print(f"  fail_ratio        {failed / attempted:.6f} ({failed} failed check(s) "
          f"of {attempted} operations)")
    metrics = result["metrics"]
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    if args.trace:
        for name in units:
            line = f"  {name:28s} {metrics[name]:.6g} {units[name]}"
            if name.endswith("_share"):
                line += f"  ({metrics[name] * metrics['trace.cpu_s']:.4f} s self time)"
            print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
