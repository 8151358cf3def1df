"""Simulator workloads: the fig12 deployment point, telemetry off and on.

The point is ``fig12_deployment.grid(fractions=(0.5,),
strategies=("constant",), sim_time=80.0, warmup=30.0, seed=<seed>)[0]``
(system ``netfence``), run in this process with ``jobs=1``.  An
untraced run cycles through three scenario seeds (the committed seed and
two made from ``--seed``); a traced run repeats ``--seed``.

A run repeats the point until ``--seconds`` have passed and reports the
median CPU time per point; an untraced run takes one set-up sample before
each point, a traced run one untraced point of the same seed.  Untimed
checks follow: each cycled seed once more in the other telemetry mode
(rows must match; the end-host tap measures the legit senders' latency and
delivery on the simulated clock), and the committed seed in this mode
(rows must match the hotpath golden).
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import layers
from repro.analysis.rows import json_safe, rows_to_dicts
from repro.experiments import fig12_deployment
from repro.experiments.sweep import execute_spec
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.spans import SpanRecorder, use_span_recorder
from repro.obs.trace import PacketTracer, use_tracer

COMMITTED_SEED = 1
GOLDEN = os.path.join("benchmarks", "data", "hotpath_golden_fig12.json")
SIM_TIME, WARMUP = 80.0, 30.0
MIN_POINTS = 2
SEEDS_PER_RUN = 3
SETUP_REPS = 9

#: A fresh interpreter's share of set-up: import the experiment stack and
#: resolve the point to its registered function.
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); "
    "from repro.experiments import fig12_deployment; "
    "from repro.experiments.sweep import resolve_point; "
    "spec = fig12_deployment.grid(fractions=(0.5,), strategies=('constant',), "
    f"sim_time={SIM_TIME}, warmup={WARMUP}, seed={{seed}})[0]; "
    "resolve_point(spec.experiment)"
)

#: Legit senders in the dumbbell are the TCP users ``s<as>_<j>``; the
#: attackers send UDP, and the victim's TCP acknowledgements come from the
#: receiver side.
_SENDER = re.compile(r"s\d+_\d+\Z")


def point_spec(seed: int) -> Any:
    return fig12_deployment.grid(fractions=(0.5,), strategies=("constant",),
                                 sim_time=SIM_TIME, warmup=WARMUP, seed=seed)[0]


def run_point(spec: Any, obs: bool, tracer: Optional[layers.Tracer] = None,
              inject: Optional[Dict[str, float]] = None,
              tap: Optional[layers.HostTap] = None) -> Tuple[List[Dict[str, Any]], float]:
    """Execute the point; returns (rows as JSON-safe dicts, CPU seconds).

    Layer wrappers (``tracer``, ``inject``) and the host ``tap`` are
    installed before the scenario is built and removed after the point.
    """
    with contextlib.ExitStack() as stack:
        if tracer is not None or inject:
            stack.callback(layers.install(tracer, inject).undo)
        if tap is not None:
            patches = layers.Patches()
            tap.install(patches)
            stack.callback(patches.undo)
        if obs:
            stack.enter_context(use_registry(MetricsRegistry(enabled=True)))
            stack.enter_context(use_tracer(PacketTracer()))
            stack.enter_context(use_span_recorder(SpanRecorder()))
        start = time.process_time()
        result = execute_spec(spec)
        cpu = time.process_time() - start
    return json_safe(rows_to_dicts(result.rows)), cpu


def setup_sample(root: str, seed: int) -> float:
    """Wall time of a fresh interpreter importing and resolving the point."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE.format(seed=seed)],
                          cwd=root, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=60)
    took = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.decode()[-400:]}")
    return took


def legit_sent(packet: Any) -> bool:
    """A legit data packet created in ``[WARMUP, SIM_TIME - 2]``: counted as
    sent, and delivered if it reaches a host before the point ends."""
    return (packet.protocol == "tcp" and _SENDER.match(packet.src) is not None
            and WARMUP <= packet.created_at <= SIM_TIME - 2.0)


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def scenario_seeds(seed: int) -> List[int]:
    """The scenario seeds an untraced run cycles through: the committed
    seed (so the golden check costs no extra point) and more made from
    ``--seed``."""
    return [COMMITTED_SEED] + [seed + 1000 * k for k in range(1, SEEDS_PER_RUN)]


def run(root: str, workload: str, seed: int, seconds: float, trace: bool,
        inject: Dict[str, float], out_dir: str) -> Dict[str, Any]:
    obs = workload == "sim_fig12_obs"
    # Traced points repeat one input so their counts must repeat exactly;
    # timed points cycle through several so the outcome metrics pool them.
    seeds = [seed] if trace else scenario_seeds(seed)
    specs = [point_spec(s) for s in seeds]
    with open(os.path.join(root, GOLDEN)) as fh:
        golden = json.load(fh)["rows"]

    checks: List[Tuple[str, bool]] = []
    tracer = layers.Tracer() if trace else None
    cpu: List[float] = []
    #: traced runs: untraced points of the same seed, alternating with the
    #: traced ones, for the tracing overhead
    untraced_cpu: List[float] = []
    setup: List[float] = []
    rows_by_seed: Dict[int, List[List[Dict[str, Any]]]] = {s: [] for s in seeds}
    per_point: List[Dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while (len(cpu) < max(MIN_POINTS, len(seeds))
           or (not trace and len(setup) < SETUP_REPS)
           or time.perf_counter() < deadline):
        index = len(cpu) % len(seeds)
        if tracer is None:
            # Set-up samples are spread over the run, so slow drift in host
            # speed reaches them as it reaches the points.
            setup.append(setup_sample(root, seed))
        else:
            rows, took = run_point(specs[index], obs, inject=inject)
            untraced_cpu.append(took)
            rows_by_seed[seeds[index]].append(rows)
            tracer.reset()
        rows, took = run_point(specs[index], obs, tracer, inject)
        cpu.append(took)
        rows_by_seed[seeds[index]].append(rows)
        if tracer is not None:
            snap = tracer.snapshot()
            per_point.append(layers.layer_metrics(
                snap, int(snap["counts"].get("pkts.delivered", 0)), took))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = {s: runs[0] for s, runs in rows_by_seed.items()}
    checks.append(("timed points of one seed give identical rows"
                   + (" (traced and untraced)" if trace else ""),
                   all(rows == reference[s] for s, runs in rows_by_seed.items()
                       for rows in runs)))

    # Untraced runs check rows across telemetry modes on untimed points,
    # which the host tap follows for the outcome metrics.
    tap = layers.HostTap({}, watch=legit_sent)
    if not trace:
        other = {s: run_point(spec, not obs, tap=tap)[0] for s, spec in zip(seeds, specs)}
        checks.append((f"rows identical with telemetry {'off' if obs else 'on'} "
                       f"({len(seeds)} seeds)",
                       all(other[s] == reference[s] for s in seeds)))
    if COMMITTED_SEED in reference:
        golden_rows = reference[COMMITTED_SEED]
    else:
        golden_rows, _ = run_point(point_spec(COMMITTED_SEED), obs)
    checks.append(("committed-seed rows identical to the hotpath golden",
                   golden_rows == golden))
    attempted = (len(cpu) + len(untraced_cpu) + (0 if trace else len(seeds))
                 + (COMMITTED_SEED not in reference))

    q1, cpu_med, q3 = _quartiles(cpu)
    lines = [f"workload {workload} seed {seed}: {len(cpu)} timed point(s) of "
             f"{specs[0].describe()}"
             + (f" cycling scenario seeds {seeds}" if len(seeds) > 1 else "")]
    if setup:
        lines.append(f"  setup_s           {statistics.median(setup):.4f} s "
                     f"(median of {len(setup)} fresh interpreters, spread over the run)")
    lines.append(f"  sim_cpu_s         {cpu_med:.4f} s (median of {len(cpu)}, "
                 f"q1 {q1:.4f}, q3 {q3:.4f})")
    lines.append(f"  sim_peak_rss_mb   {peak_rss_mb:.1f} MB")

    result: Dict[str, Any] = {"checks": checks, "attempted": attempted,
                              "lines": lines}
    if trace:
        assert tracer is not None
        untraced_med = statistics.median(untraced_cpu)
        counts_repeat = all(
            all(point[k] == per_point[0][k] for k in layers.EXACT_COUNTS)
            for point in per_point)
        checks.append(("per-layer counts repeat exactly across traced points",
                       counts_repeat))
        metrics = {k: statistics.median(p[k] for p in per_point)
                   for k in per_point[0]}
        metrics.update({
            "serve.busy_ratio": 0.0, "serve.unverified": 0, "gen.sent_pkts": 0,
            "trace.overhead_ratio": cpu_med / untraced_med,
        })
        path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")
        written = tracer.write_sample(path)
        lines.append(f"  traced CPU {cpu_med:.4f} s/point vs untraced "
                     f"{untraced_med:.4f} s (medians of {len(cpu)} alternating points "
                     f"each) -> overhead x{cpu_med / untraced_med:.3f}; "
                     f"{written} raw spans written to {os.path.relpath(path, root)}")
        result["metrics"] = metrics
        return result

    # Packets per point, averaged over the cycled seeds, turn CPU per point
    # into CPU per packet.
    pkts = tap.counts["pkts.sent"] / len(seeds)
    latencies = tap.latencies
    rows = [reference[s][0] for s in seeds]
    metrics = {
        "setup_s": statistics.median(setup),
        "cpu_us_per_pkt": cpu_med / pkts * 1e6,
        "peak_rss_mb": peak_rss_mb,
        "util": statistics.mean(r["bottleneck_utilization"] for r in rows),
        "legit_share": statistics.mean(r["legit_share"] for r in rows),
        "legit_p50_ms": layers.quantile(latencies, 0.5) * 1e3,
        "legit_p90_ms": layers.quantile(latencies, 0.9) * 1e3,
        "legit_p99_ms": layers.quantile(latencies, 0.99) * 1e3,
        "legit_delivery": len(latencies) / tap.watched if tap.watched else 0.0,
    }
    lines.append(f"  cpu_us_per_pkt    {metrics['cpu_us_per_pkt']:.3f} us "
                 f"({pkts:.0f} packets sent by hosts per point)")
    lines.append(f"  util              {metrics['util']:.4f} (bottleneck, simulated, "
                 f"mean of {len(seeds)} seeds)")
    lines.append(f"  legit_share       {metrics['legit_share']:.4f}")
    lines.append(f"  legit_p50_ms      {metrics['legit_p50_ms']:.3f} ms "
                 f"(simulated one-way, {len(latencies)} packets)")
    lines.append(f"  legit_p90_ms      {metrics['legit_p90_ms']:.3f} ms")
    lines.append(f"  legit_p99_ms      {metrics['legit_p99_ms']:.3f} ms")
    lines.append(f"  legit_delivery    {metrics['legit_delivery']:.4f} "
                 f"({len(latencies)}/{tap.watched})")
    result["metrics"] = metrics
    return result
