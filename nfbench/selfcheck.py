"""Self-checks of the benchmark itself.  Run from the repository root::

    python3 nfbench/selfcheck.py            # about 10 minutes

* exact counts — two traced runs of ``sim_fig12`` with one seed must
  report identical per-layer counts (events, link sends, MAC computations,
  validate and police calls per delivered packet, ...).
* simulator — seeded regression: a busy-wait inside
  ``FeedbackStamper.validate`` worth 40% of a point's CPU must push
  ``cpu_us_per_pkt`` past its bound, and the traced run must put the added
  time in ``feedback.validate_share``.
* live — seeded regression: a per-datagram busy-wait around
  ``decode_frame`` worth 40% of the policer's CPU must push
  ``cpu_us_per_pkt`` past its bound, and the traced run must put the added
  time in ``codec.decode_share``.

Untraced baseline and injected runs alternate, so drift on a shared host
lands on both sides; each side is summarised by its median.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402

#: Injected busy time as a share of the baseline CPU it lands in: 1.6x the
#: metric's 0.25 bound, so a detected regression is unambiguous.  On a
#: shared 2-vCPU host single points vary by +-20% and run medians by up to
#: ~25% between batches, so a 10% regression sits inside the noise.
SIM_SHARE = 0.40
LIVE_SHARE = 0.40
#: Length of each untraced run and the number of baseline/injected pairs.
SECONDS = 8.0
REPS = 3


def bench(workload: str, seed: int, seconds: float, trace: int,
          inject: str = "") -> Dict[str, float]:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if inject:
        argv += ["--inject", inject]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"benchmark run failed:\n{proc.stdout}\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def bound(metric: str) -> float:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == metric)


def check_counts() -> List[Tuple[str, bool]]:
    first = bench("sim_fig12", 7, 1.0, 1)
    second = bench("sim_fig12", 7, 1.0, 1)
    for name in layers.EXACT_COUNTS:
        print(f"  {name:28s} {first[name]:>14.6f} {second[name]:>14.6f}")
    return [("per-layer counts identical across two traced runs of one seed",
             all(first[k] == second[k] for k in layers.EXACT_COUNTS))]


def check_regression(workload: str, layer: str, share: float) -> List[Tuple[str, bool]]:
    """Inject ``share`` of the baseline CPU into ``layer``; check detection."""
    metric = "cpu_us_per_pkt"
    traced = bench(workload, 11, SECONDS, 1)
    base_s = self_s(traced, layer)
    base: List[float] = []
    slow: List[float] = []
    per_call_us = 0.0
    for i in range(REPS):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            if side == 0:
                base.append(bench(workload, 11, SECONDS, 0)[metric])
                continue
            if not per_call_us:
                # cpu_us_per_pkt x packets = CPU; spread ``share`` of it
                # over the layer's calls.
                per_call_us = share * base[-1] * _packets_per_call(workload, traced)
            slow.append(bench(workload, 11, SECONDS, 0, f"{layer}={per_call_us}")[metric])
    limit = bound(metric)
    base_med, slow_med = statistics.median(base), statistics.median(slow)
    ratio = slow_med / base_med
    injected = bench(workload, 11, SECONDS, 1, f"{layer}={per_call_us}")
    added_s = self_s(injected, layer) - base_s
    expected_s = injected[f"{layer}_calls"] * per_call_us * 1e-6
    print(f"  {workload}: {per_call_us:.2f} us injected per {layer} call "
          f"({share:.0%} of baseline CPU)")
    print(f"  {metric}: baseline {base_med:.3f} {sorted(round(v, 3) for v in base)}, "
          f"injected {slow_med:.3f} {sorted(round(v, 3) for v in slow)} "
          f"-> x{ratio:.3f} vs bound {limit}")
    print(f"  {layer} self time: {base_s:.4f} s -> {self_s(injected, layer):.4f} s "
          f"(+{added_s:.4f} s; injected {expected_s:.4f} s)")
    return [
        (f"{workload}: {metric} flags the seeded {layer} regression beyond its "
         f"bound", ratio > 1.0 + limit),
        (f"{workload}: traced run puts at least 80% of the injected time in "
         f"{layer}_share", added_s >= 0.8 * expected_s),
    ]


def self_s(metrics: Dict[str, float], layer: str) -> float:
    """A layer's self time in seconds, from its CPU share."""
    return metrics[f"{layer}_share"] * metrics["trace.cpu_s"]


def _packets_per_call(workload: str, traced: Dict[str, float]) -> float:
    """Packets behind ``cpu_us_per_pkt`` per call of the injected layer."""
    if workload == "live_flood":
        return 1.0  # one decode per datagram, and the metric is per datagram
    # sim: the metric is per packet sent by hosts.
    return traced["pkts.sent"] / traced["feedback.validate_calls"]


def main() -> int:
    checks = check_counts()
    checks += check_regression("sim_fig12", "feedback.validate", SIM_SHARE)
    checks += check_regression("live_flood", "codec.decode", LIVE_SHARE)
    for name, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
