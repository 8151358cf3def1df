"""Per-layer tracing from outside the program.

Every layer is timed by wrapping the public functions the layer above
calls into, so nothing under ``src/`` changes.  A wrapper opens a span on
entry and closes it on exit; spans nest on one stack, so a layer's *self*
time is its span's duration minus the part its child spans cover.  Spans
are aggregated in memory per layer (calls, total, self) and a bounded
sample of raw spans (id, parent, name, start, end) is kept for writing out
when the run ends.

On the simulator, install before any scenario is built: links bind
``queue.enqueue``/``queue.dequeue`` and ``schedule_fast`` at construction,
so a wrapper installed later is never called by an existing link.  The live
policer looks every wrapped name up per call, so its wrappers can be
installed while it runs.

The same module injects seeded regressions (a busy-wait inside one
wrapped function) for the benchmark's self-checks; see ``selfcheck.py``.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_perf = time.perf_counter

#: Raw spans kept in memory for writing out at the end of a run.
SAMPLE_CAP = 50_000

#: Functions a seeded regression can be injected into, by layer name.
INJECT_POINTS = ("feedback.validate", "codec.decode")


def parse_inject(items: List[str]) -> Dict[str, float]:
    """``["LAYER=US", ...]`` -> ``{LAYER: seconds}``, checked against
    :data:`INJECT_POINTS`."""
    inject = {}
    for item in items:
        name, _, value = item.partition("=")
        if name not in INJECT_POINTS:
            raise ValueError(f"unknown injection point {name!r}; one of {INJECT_POINTS}")
        inject[name] = float(value) * 1e-6
    return inject


def spin(seconds: float) -> None:
    """Busy-wait: burns CPU, unlike ``time.sleep``."""
    end = _perf() + seconds
    while _perf() < end:
        pass


class Tracer:
    """In-memory span aggregation plus the counters taken at layer edges."""

    def __init__(self) -> None:
        #: layer name -> [calls, total_s, self_s]
        self.stats: Dict[str, List[float]] = {}
        #: plain counts (drops, cached verdicts, engine events, ...)
        self.counts: Dict[str, int] = {}
        #: open spans: [name, child_s, span_id, parent_id]
        self.stack: List[list] = []
        self.sample: List[Tuple[int, int, str, float, float]] = []
        self.next_id = 1
        #: queue residence: packet uid -> enqueue time on the layer's clock
        self.enqueued_at: Dict[int, float] = {}
        self.waits: List[float] = []
        #: live drain pacing: relative overshoot of each backlogged departure gap
        self.overshoots: List[float] = []
        self._prev_departure: Optional[Tuple[float, float]] = None
        #: the simulator currently inside ``run`` (None on the live path,
        #: where queue waits are measured on the wall clock)
        self.sim: Any = None

    def reset(self) -> None:
        # Zero in place: wrappers hold references to their stats records.
        for rec in self.stats.values():
            rec[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.enqueued_at.clear()
        self.waits.clear()
        self.overshoots.clear()
        self._prev_departure = None

    def now(self) -> float:
        sim = self.sim
        return sim._now if sim is not None else _perf()

    def snapshot(self) -> Dict[str, Any]:
        """Copy of everything aggregated so far (for window-edge diffs)."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counts": dict(self.counts),
            "waits": list(self.waits),
            "overshoots": list(self.overshoots),
        }

    def write_sample(self, path: str) -> int:
        """Write the raw span sample as JSON lines; returns spans written."""
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.sample:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")
        return len(self.sample)


def _span(tr: Tracer, name: str, fn: Callable[..., Any],
          inject_s: float = 0.0) -> Callable[..., Any]:
    """Wrap ``fn`` in a span named ``name``.

    A call made while a span of the same name is innermost (an outer queue
    handing a packet to its inner channel queue) joins that span instead of
    opening a new one, so ``calls`` counts entries into the layer.
    """
    name = sys.intern(name)
    rec = tr.stats.setdefault(name, [0, 0.0, 0.0])
    stack = tr.stack
    sample = tr.sample

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if stack and stack[-1][0] is name:
            return fn(*args, **kwargs)
        span_id = tr.next_id
        tr.next_id = span_id + 1
        frame = [name, 0.0, span_id, stack[-1][2] if stack else 0]
        stack.append(frame)
        start = _perf()
        try:
            if inject_s:
                spin(inject_s)
            return fn(*args, **kwargs)
        finally:
            end = _perf()
            stack.pop()
            took = end - start
            rec[0] += 1
            rec[1] += took
            rec[2] += took - frame[1]
            if stack:
                stack[-1][1] += took
            if len(sample) < SAMPLE_CAP:
                sample.append((span_id, frame[3], name, start, end))

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


def _injected(fn: Callable[..., Any], inject_s: float) -> Callable[..., Any]:
    """Untraced wrapper that only adds the seeded busy time."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        spin(inject_s)
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


class Patches:
    """Attribute replacements that can be undone."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class HostTap:
    """Tap on simulated end hosts: packets sent into and delivered out of
    the network, counted in ``counts`` as ``pkts.sent``/``pkts.delivered``.

    Packets ``watch`` selects at send time are followed to their arrival:
    ``watched`` counts them and ``latencies`` holds the one-way latency
    (arrival minus ``created_at``, simulated clock) of each that arrived.
    """

    def __init__(self, counts: Dict[str, int],
                 watch: Optional[Callable[[Any], bool]] = None) -> None:
        self.counts = counts
        self.watch = watch
        self.watched = 0
        self.pending: Dict[int, float] = {}
        self.latencies: List[float] = []

    def install(self, patches: "Patches") -> None:
        from repro.simulator.node import Host

        host_send, host_receive = Host.send, Host.receive
        counts, watch = self.counts, self.watch
        pending, latencies = self.pending, self.latencies

        def send(host: Any, packet: Any) -> None:
            counts["pkts.sent"] = counts.get("pkts.sent", 0) + 1
            host_send(host, packet)
            if watch is not None and watch(packet):
                self.watched += 1
                pending[packet.uid] = packet.created_at

        def receive(host: Any, packet: Any, from_link: Any) -> None:
            counts["pkts.delivered"] = counts.get("pkts.delivered", 0) + 1
            created = pending.pop(packet.uid, None)
            if created is not None:
                latencies.append(host.clock.now - created)
            host_receive(host, packet, from_link)

        patches.set(Host, "send", send)
        patches.set(Host, "receive", receive)


def _queue_classes() -> List[type]:
    from repro.simulator.queues import PacketQueue

    found, todo = [], [PacketQueue]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def _hooked(tr: Tracer, name: str, fn: Callable[..., Any],
            after: Callable[[Tuple[Any, ...], Any], None]) -> Callable[..., Any]:
    """A span wrapper whose outermost calls also report their result."""
    name = sys.intern(name)
    inner = _span(tr, name, fn)
    stack = tr.stack

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if stack and stack[-1][0] is name:
            return fn(*args, **kwargs)
        result = inner(*args, **kwargs)
        after(args, result)
        return result

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


def install(tr: Optional[Tracer], inject: Optional[Dict[str, float]] = None) -> Patches:
    """Wrap every layer's entry points (``tr``) and/or inject busy time.

    ``inject`` maps a name from :data:`INJECT_POINTS` to seconds of
    busy-wait added to each call.  With ``tr`` None only the injections
    are installed, so an untraced run can carry a seeded regression.
    """
    inject = inject or {}
    import repro.core.feedback as feedback_mod
    import repro.experiments.scenarios  # noqa: F401  (registers every queue class)
    import repro.runtime.serve as serve_mod
    from repro.core.access import LegacyAccessRouter, NetFenceAccessRouter
    from repro.core.feedback import FeedbackStamper
    from repro.core.ratelimiter import CACHED, RegularRateLimiter
    from repro.obs.flight import FlightRecorder
    from repro.obs.metrics import Counter, Histogram
    from repro.obs.spans import SpanRecorder
    from repro.obs.trace import PacketTracer
    from repro.runtime.codec import CodecError
    from repro.runtime.serve import LivePolicer
    from repro.simulator.engine import Simulator
    from repro.simulator.link import Link

    patches = Patches()
    validate_s = inject.get("feedback.validate", 0.0)
    decode_s = inject.get("codec.decode", 0.0)

    if tr is None:
        if validate_s:
            patches.set(FeedbackStamper, "validate",
                        _injected(FeedbackStamper.validate, validate_s))
        if decode_s:
            patches.set(serve_mod, "decode_frame",
                        _injected(serve_mod.decode_frame, decode_s))
        return patches

    # -- engine: the run loop is the root span; events via the public tap --
    def count_event(_callback: Any) -> None:
        counts["engine.events"] = counts.get("engine.events", 0) + 1

    counts = tr.counts
    patches.set(Simulator, "default_dispatch_tap", count_event)
    engine_run = _span(tr, "engine", Simulator.run)

    def run(self: Any, *args: Any, **kwargs: Any) -> Any:
        tr.sim = self
        try:
            return engine_run(self, *args, **kwargs)
        finally:
            tr.sim = None

    patches.set(Simulator, "run", run)

    # -- link ---------------------------------------------------------------
    patches.set(Link, "send", _span(tr, "link.send", Link.send))
    patches.set(Link, "_finish_transmission",
                _span(tr, "link.tx", Link._finish_transmission))

    # -- queues (every PacketQueue subclass, outermost call counted) --------
    enqueued_at = tr.enqueued_at
    waits = tr.waits

    def after_enqueue(args: Tuple[Any, ...], accepted: Any) -> None:
        if accepted:
            enqueued_at[args[1].uid] = tr.now()
        else:
            counts["queue.drops"] = counts.get("queue.drops", 0) + 1

    def after_dequeue(_args: Tuple[Any, ...], packet: Any) -> None:
        if packet is not None:
            since = enqueued_at.pop(packet.uid, None)
            if since is not None:
                waits.append(tr.now() - since)

    for cls in _queue_classes():
        if "enqueue" in cls.__dict__:
            patches.set(cls, "enqueue",
                        _hooked(tr, "queue.enqueue", cls.__dict__["enqueue"], after_enqueue))
        if "dequeue" in cls.__dict__:
            patches.set(cls, "dequeue",
                        _hooked(tr, "queue.dequeue", cls.__dict__["dequeue"], after_dequeue))

    # -- access router ------------------------------------------------------
    for cls in (NetFenceAccessRouter, LegacyAccessRouter):
        patches.set(cls, "admit_from_host",
                    _span(tr, "access.admit", cls.admit_from_host))

    # -- rate limiter ---------------------------------------------------------
    def after_police(_args: Tuple[Any, ...], verdict: Any) -> None:
        if verdict == CACHED:
            counts["limiter.cached"] = counts.get("limiter.cached", 0) + 1

    patches.set(RegularRateLimiter, "police",
                _hooked(tr, "limiter.police", RegularRateLimiter.police, after_police))
    for attr in ("adjust", "adjust_with_inference"):
        patches.set(RegularRateLimiter, attr,
                    _span(tr, "limiter.adjust", RegularRateLimiter.__dict__[attr]))

    # -- feedback validation + MAC ----------------------------------------------
    patches.set(feedback_mod, "compute_mac",
                _span(tr, "mac.compute", feedback_mod.compute_mac))
    validate = _span(tr, "feedback.validate", FeedbackStamper.validate, validate_s)
    mac_rec = tr.stats["mac.compute"]

    def validate_counting_memo(*args: Any, **kwargs: Any) -> Any:
        # A validation that computed no MAC was answered by the memo (or
        # rejected as stale before any MAC work).
        before = mac_rec[0]
        result = validate(*args, **kwargs)
        if mac_rec[0] == before:
            counts["feedback.no_mac"] = counts.get("feedback.no_mac", 0) + 1
        return result

    patches.set(FeedbackStamper, "validate", validate_counting_memo)

    # -- live codec + policer (module globals are patched where serve looks
    #    them up) ----------------------------------------------------------------
    decode = _span(tr, "codec.decode", serve_mod.decode_frame, decode_s)

    def decode_counting_errors(data: bytes) -> Any:
        try:
            return decode(data)
        except CodecError:
            counts["codec.errors"] = counts.get("codec.errors", 0) + 1
            raise

    patches.set(serve_mod, "decode_frame", decode_counting_errors)
    patches.set(serve_mod, "encode_packet",
                _span(tr, "codec.encode", serve_mod.encode_packet))
    patches.set(LivePolicer, "datagram_received",
                _span(tr, "serve.ingress", LivePolicer.datagram_received))
    deliver = _span(tr, "serve.deliver", LivePolicer._deliver)
    overshoots = tr.overshoots
    # A departure gap that spans untraced time measures nothing.
    tr._prev_departure = None

    def deliver_pacing(self: Any, packet: Any) -> Any:
        result = deliver(self, packet)
        now = _perf()
        prev = tr._prev_departure
        if prev is not None:
            # Only gaps where the queue stayed backlogged measure pacing;
            # the overshoot is relative to the packet's serialization time.
            overshoots.append((now - prev[0] - prev[1]) / prev[1])
        tr._prev_departure = (
            (now, packet.size_bytes * 8.0 / self.capacity_bps)
            if len(self.queue) else None)
        return result

    patches.set(LivePolicer, "_deliver", deliver_pacing)

    # -- obs: every recording call on the telemetry layer -----------------------
    emit = _span(tr, "obs.emit", PacketTracer.emit)

    def emit_counting(*args: Any, **kwargs: Any) -> Any:
        counts["obs.trace_records"] = counts.get("obs.trace_records", 0) + 1
        return emit(*args, **kwargs)

    patches.set(PacketTracer, "emit", emit_counting)
    patches.set(SpanRecorder, "start", _span(tr, "obs.emit", SpanRecorder.start))
    finish = _span(tr, "obs.emit", SpanRecorder.finish)

    def finish_counting(*args: Any, **kwargs: Any) -> Any:
        counts["obs.span_events"] = counts.get("obs.span_events", 0) + 1
        return finish(*args, **kwargs)

    patches.set(SpanRecorder, "finish", finish_counting)
    patches.set(Counter, "inc", _span(tr, "obs.emit", Counter.inc))
    patches.set(Histogram, "observe", _span(tr, "obs.emit", Histogram.observe))
    for attr in ("record_span", "record_log", "record_metrics"):
        patches.set(FlightRecorder, attr,
                    _span(tr, "obs.emit", FlightRecorder.__dict__[attr]))

    # -- end hosts: packets sent into / delivered out of the network ------------
    HostTap(counts).install(patches)
    return patches


# ---------------------------------------------------------------------------
# Per-layer metric table
# ---------------------------------------------------------------------------

#: Every per-layer metric the traced run reports, with its unit.  Layers a
#: workload does not reach report 0.  Busy time is reported as each layer's
#: self time over the traced CPU time of the same point or window
#: (``*_share``); ``trace.cpu_s`` is that CPU time, so seconds are
#: ``share * trace.cpu_s``.
PER_LAYER_UNITS: Dict[str, str] = {
    "engine.events": "count",
    "engine.events_per_pkt": "count",
    "engine.self_share": "ratio",
    "link.send_calls": "count",
    "link.sends_per_pkt": "count",
    "link.finish_tx": "count",
    "link.send_share": "ratio",
    "link.tx_share": "ratio",
    "queue.enqueue_calls": "count",
    "queue.enqueue_share": "ratio",
    "queue.dequeue_calls": "count",
    "queue.dequeue_share": "ratio",
    "queue.drops": "count",
    "queue.wait_ms": "ms",
    "queue.wait_p99_ms": "ms",
    "access.admit_calls": "count",
    "access.admit_share": "ratio",
    "limiter.police_calls": "count",
    "limiter.police_per_pkt": "count",
    "limiter.police_share": "ratio",
    "limiter.cached": "count",
    "limiter.adjust_calls": "count",
    "feedback.validate_calls": "count",
    "feedback.validate_per_pkt": "count",
    "feedback.validate_share": "ratio",
    "feedback.memo_hit_ratio": "ratio",
    "mac.compute_calls": "count",
    "mac.per_pkt": "count",
    "mac.compute_share": "ratio",
    "codec.decode_calls": "count",
    "codec.decode_share": "ratio",
    "codec.encode_calls": "count",
    "codec.encode_share": "ratio",
    "codec.errors": "count",
    "serve.ingress_calls": "count",
    "serve.ingress_share": "ratio",
    "serve.busy_ratio": "ratio",
    "serve.pace_overshoot_ratio": "ratio",
    "serve.unverified": "count",
    "obs.trace_records": "count",
    "obs.span_events": "count",
    "obs.emit_share": "ratio",
    "gen.sent_pkts": "count",
    "pkts.sent": "count",
    "pkts.delivered": "count",
    "trace.spans": "count",
    "trace.cpu_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Metrics that are exact counts on the simulator: they must repeat
#: exactly across traced points and traced runs of one seed.
EXACT_COUNTS = (
    "engine.events", "engine.events_per_pkt", "link.send_calls",
    "link.sends_per_pkt", "link.finish_tx", "queue.enqueue_calls",
    "queue.dequeue_calls", "queue.drops", "access.admit_calls",
    "limiter.police_calls", "limiter.police_per_pkt", "limiter.cached",
    "limiter.adjust_calls", "feedback.validate_calls",
    "feedback.validate_per_pkt", "mac.compute_calls", "mac.per_pkt",
    "obs.trace_records", "obs.span_events", "pkts.sent", "pkts.delivered",
    "trace.spans",
)


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for an empty list."""
    if not values:
        return 0.0
    data = sorted(values)
    return data[min(int(q * (len(data) - 1) + 0.5), len(data) - 1)]


def layer_metrics(snap: Dict[str, Any], delivered: int, cpu_s: float) -> Dict[str, float]:
    """Turn one window's aggregates into the per-layer metric table.

    ``delivered`` is the number of packets that reached their destination
    in the window (the ``*_per_pkt`` ratios are per delivered packet) and
    ``cpu_s`` the traced CPU time the ``*_share`` ratios divide.
    """
    stats, counts = snap["stats"], snap["counts"]

    def calls(name: str) -> int:
        return int(stats.get(name, (0, 0.0, 0.0))[0])

    def share(name: str) -> float:
        return float(stats.get(name, (0, 0.0, 0.0))[2]) / cpu_s

    def per_pkt(n: int) -> float:
        return n / delivered if delivered else 0.0

    validates = calls("feedback.validate")
    events = int(counts.get("engine.events", 0))
    waits = snap["waits"]
    return {
        "engine.events": events,
        "engine.events_per_pkt": per_pkt(events),
        "engine.self_share": share("engine"),
        "link.send_calls": calls("link.send"),
        "link.sends_per_pkt": per_pkt(calls("link.send")),
        "link.finish_tx": calls("link.tx"),
        "link.send_share": share("link.send"),
        "link.tx_share": share("link.tx"),
        "queue.enqueue_calls": calls("queue.enqueue"),
        "queue.enqueue_share": share("queue.enqueue"),
        "queue.dequeue_calls": calls("queue.dequeue"),
        "queue.dequeue_share": share("queue.dequeue"),
        "queue.drops": int(counts.get("queue.drops", 0)),
        "queue.wait_ms": sum(waits) / len(waits) * 1e3 if waits else 0.0,
        "queue.wait_p99_ms": quantile(waits, 0.99) * 1e3,
        "access.admit_calls": calls("access.admit"),
        "access.admit_share": share("access.admit"),
        "limiter.police_calls": calls("limiter.police"),
        "limiter.police_per_pkt": per_pkt(calls("limiter.police")),
        "limiter.police_share": share("limiter.police"),
        "limiter.cached": int(counts.get("limiter.cached", 0)),
        "limiter.adjust_calls": calls("limiter.adjust"),
        "feedback.validate_calls": validates,
        "feedback.validate_per_pkt": per_pkt(validates),
        "feedback.validate_share": share("feedback.validate"),
        "feedback.memo_hit_ratio": (
            counts.get("feedback.no_mac", 0) / validates if validates else 0.0),
        "mac.compute_calls": calls("mac.compute"),
        "mac.per_pkt": per_pkt(calls("mac.compute")),
        "mac.compute_share": share("mac.compute"),
        "codec.decode_calls": calls("codec.decode"),
        "codec.decode_share": share("codec.decode"),
        "codec.encode_calls": calls("codec.encode"),
        "codec.encode_share": share("codec.encode"),
        "codec.errors": int(counts.get("codec.errors", 0)),
        "serve.ingress_calls": calls("serve.ingress"),
        "serve.ingress_share": share("serve.ingress"),
        "serve.pace_overshoot_ratio": quantile(snap["overshoots"], 0.5),
        "obs.trace_records": int(counts.get("obs.trace_records", 0)),
        "obs.span_events": int(counts.get("obs.span_events", 0)),
        "obs.emit_share": share("obs.emit"),
        "pkts.sent": int(counts.get("pkts.sent", 0)),
        "pkts.delivered": delivered,
        "trace.spans": sum(int(v[0]) for v in stats.values()),
        "trace.cpu_s": cpu_s,
    }


def diff(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    """Aggregates accumulated between two :meth:`Tracer.snapshot` calls."""
    stats = {}
    for name, rec in after["stats"].items():
        base = before["stats"].get(name, [0, 0.0, 0.0])
        stats[name] = [rec[i] - base[i] for i in range(3)]
    counts = {k: v - before["counts"].get(k, 0) for k, v in after["counts"].items()}
    return {
        "stats": stats,
        "counts": counts,
        "waits": after["waits"][len(before["waits"]):],
        "overshoots": after["overshoots"][len(before["overshoots"]):],
    }
