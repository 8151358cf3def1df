"""The ``live_flood`` workload: a live policer under an open-loop flood.

The policer (``policer.py``) runs in its own process at 10 Mb/s.  This
process is the generator: one asyncio event loop, two UDP sockets (one for
the victim, one shared by the senders, demultiplexed by destination name),
and the loadgen building blocks — ``LiveHost``, ``NetFenceEndHost`` and a
``UdpSender`` subclass that keeps an absolute schedule.  Two legit senders
offer 1.5 Mb/s each and two attackers 6 Mb/s each (1.5x capacity in
total), at constant rates; the victim withholds feedback from the
attackers.  The seed sets the senders' start phases.

Set-up is measured several times: policer launch until it listens and has
every host registered.  The middle launch carries the flood: a warmup,
then a measurement window of ``--seconds``, cut into sub-windows; CPU is
summarised by their median.  With ``--trace 1`` the sub-windows alternate
untraced and traced, so the tracing overhead is measured in-run under the
same drift in host speed.
Policer CPU comes from the policer process's own ``time.process_time`` at
the window edges, so interpreter start-up is excluded.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import layers
from flood import ATTACK_BPS, ATTACKERS, CAPACITY_BPS, HOSTS, LEGIT, LEGIT_BPS, VICTIM
from repro.core.endhost import NetFenceEndHost, ReturnPolicy
from repro.core.params import NetFenceParams
from repro.runtime.clock import WallClock
from repro.runtime.codec import CodecError, decode_packet
from repro.runtime.loadgen import LiveHost
from repro.simulator.packet import Packet
from repro.transport.udp import UdpSender, UdpSink

SETUP_REPS = 9
WARMUP_S = 3.0
GRACE_S = 1.0
#: A generator whose p99 send lag exceeds this fell behind its schedule:
#: the run measured the generator, not the policer, and is invalid.
LAG_LIMIT_MS = 20.0
#: Length of the sub-windows CPU and latency are summarised over.
SUB_S = 4.0
TIMEOUT_S = 30.0


class Generator:
    """Everything the generator process measures."""

    def __init__(self) -> None:
        self.measuring = False
        self.window_start = 0.0
        self.sub_s = 1.0
        self.lags: List[float] = []
        self.sent_in_window = 0
        self.legit_sent: Dict[int, bool] = {}
        self.bytes_by_src: Dict[str, int] = {}
        #: (sub-window index, one-way latency) of legit packets
        self.legit_latencies: List[Tuple[int, float]] = []
        self.codec_errors = 0
        self.misrouted = 0


class _Demux(asyncio.DatagramProtocol):
    """One socket shared by several hosts: route by destination name."""

    def __init__(self, gen: Generator) -> None:
        self.gen = gen
        self.hosts: Dict[str, Any] = {}

    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        try:
            packet = decode_packet(data)
        except CodecError:
            self.gen.codec_errors += 1
            return
        host = self.hosts.get(packet.dst)
        if host is None:
            self.gen.misrouted += 1
            return
        host.receive(packet, None)


class ScheduledSender(UdpSender):
    """Open loop: packet ``k`` is due at ``start + k * interval``.

    A late timer sends at once and the next packet keeps its own due
    time, so a stall shows as lag instead of as a lower offered rate.
    """

    def __init__(self, *args: Any, gen: Generator, legit: bool, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.gen = gen
        self.legit = legit
        self._due: Optional[float] = None

    def _send_next(self) -> None:
        if not self._running:
            return
        now = self.clock.now
        if self._due is None:
            self._due = now
        packet = Packet(src=self.host.name, dst=self.dst,
                        size_bytes=self.packet_size, ptype=self.ptype,
                        flow_id=self.flow_id, protocol="udp",
                        priority=self.priority)
        gen = self.gen
        if gen.measuring:
            gen.lags.append(now - self._due)
            gen.sent_in_window += 1
            if self.legit:
                gen.legit_sent[packet.uid] = False
        self.packets_sent += 1
        self.bytes_sent += packet.size_bytes
        self.host.send(packet)
        self._due += self.interval
        self._event = self.clock.schedule(self._due - self.clock.now,
                                          self._send_next)



class Session:
    """One policer process plus the generator's two sockets and hosts."""

    def __init__(self, root: str, out_dir: str, gen: Generator,
                 inject: List[str], spans_out: str = "") -> None:
        self.root, self.out_dir, self.gen = root, out_dir, gen
        self.inject, self.spans_out = inject, spans_out
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.transports: List[asyncio.DatagramTransport] = []
        self.hosts: Dict[str, Any] = {}
        self.setup_s = 0.0

    async def _line(self) -> Dict[str, Any]:
        assert self.proc is not None and self.proc.stdout is not None
        raw = await asyncio.wait_for(self.proc.stdout.readline(), TIMEOUT_S)
        if not raw:
            raise RuntimeError("policer process exited early")
        return json.loads(raw)

    async def command(self, text: str) -> Dict[str, Any]:
        assert self.proc is not None and self.proc.stdin is not None
        self.proc.stdin.write((text + "\n").encode())
        await self.proc.stdin.drain()
        return await self._line()

    async def open(self) -> None:
        """Launch the policer and register every host; times the set-up."""
        loop = asyncio.get_running_loop()
        start = time.perf_counter()
        argv = [sys.executable, os.path.join(os.path.dirname(__file__), "policer.py"),
                "--flight-dump", os.path.join(self.out_dir, "flight.json")]
        if self.spans_out:
            argv += ["--spans-out", self.spans_out]
        for item in self.inject:
            argv += ["--inject", item]
        self.proc = await asyncio.create_subprocess_exec(
            *argv, cwd=self.root, stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE, limit=1 << 26)
        listening = await self._line()
        server = ("127.0.0.1", int(listening["port"]))

        clock = WallClock(loop)
        demuxes = [_Demux(self.gen), _Demux(self.gen)]
        for demux in demuxes:
            transport, _ = await loop.create_datagram_endpoint(
                lambda d=demux: d, remote_addr=server)
            self.transports.append(transport)
        for name in HOSTS:
            host = LiveHost(clock, name)
            index = 0 if name == VICTIM else 1
            host.transport = self.transports[index]
            demuxes[index].hosts[name] = host
            self.hosts[name] = host

        registered = asyncio.ensure_future(self._line())
        while not registered.done():
            for host in self.hosts.values():
                host.hello()
            await asyncio.wait({registered}, timeout=0.05)
        reply = registered.result()
        self.setup_s = time.perf_counter() - start
        if reply.get("hosts") != len(HOSTS):
            raise RuntimeError(f"policer registered {reply.get('hosts')} of {len(HOSTS)} hosts")

    async def close(self) -> Dict[str, Any]:
        final: Dict[str, Any] = {}
        try:
            if self.proc is not None and self.proc.returncode is None:
                final = await self.command("stop")
                await asyncio.wait_for(self.proc.wait(), TIMEOUT_S)
        except (RuntimeError, ValueError, asyncio.TimeoutError, OSError):
            pass  # killed below; the caller's checks see the missing report
        finally:
            if self.proc is not None and self.proc.returncode is None:
                self.proc.kill()
                await self.proc.wait()
            for transport in self.transports:
                transport.close()
        return final


def _window(first: Dict[str, Any], last: Dict[str, Any]) -> Dict[str, float]:
    counters = {k: last["counters"][k] - first["counters"][k] for k in last["counters"]}
    counters["cpu_s"] = last["cpu_s"] - first["cpu_s"]
    counters["wall_s"] = last["wall_s"] - first["wall_s"]
    return counters


async def _flood(root: str, seed: int, seconds: float, trace: bool,
                 inject: List[str], out_dir: str) -> Dict[str, Any]:
    gen = Generator()
    setups: List[float] = []

    async def setup_only(reps: int) -> None:
        for _ in range(reps):
            session = Session(root, out_dir, gen, inject)
            try:
                await session.open()
                setups.append(session.setup_s)
            finally:
                await session.close()

    # Set-up samples come before and after the flood, so slow drift in host
    # speed over the run reaches them as it reaches the window.
    await setup_only(SETUP_REPS // 2)
    spans_out = os.path.join(out_dir, f"spans-live_flood-seed{seed}.jsonl") if trace else ""
    session = Session(root, out_dir, gen, inject, spans_out)
    shims: List[Any] = []
    senders: List[Any] = []
    #: (mark, mark) around each sub-window
    windows: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
    try:
        await session.open()
        setups.append(session.setup_s)
        hosts = session.hosts
        victim = hosts[VICTIM]
        clock = victim.clock
        params = NetFenceParams()
        shims.append(NetFenceEndHost(clock, victim, params=params,
                                     return_policy=ReturnPolicy(blocked=set(ATTACKERS)),
                                     send_feedback_packets=True))

        def tally(packet: Any) -> None:
            if packet.uid in gen.legit_sent:
                gen.legit_sent[packet.uid] = True
            if gen.measuring:
                gen.bytes_by_src[packet.src] = (
                    gen.bytes_by_src.get(packet.src, 0) + packet.size_bytes)
                if packet.src in LEGIT:
                    index = int((time.perf_counter() - gen.window_start) / gen.sub_s)
                    gen.legit_latencies.append((index, clock.now - packet.created_at))

        UdpSink(clock, victim, on_receive=tally)
        rng = random.Random(seed)
        for name in LEGIT + ATTACKERS:
            shims.append(NetFenceEndHost(clock, hosts[name], params=params))
            legit = name in LEGIT
            sender = ScheduledSender(clock, hosts[name], VICTIM,
                                     LEGIT_BPS if legit else ATTACK_BPS,
                                     gen=gen, legit=legit)
            sender.start(at=clock.now + rng.uniform(0.0, 0.05))
            senders.append(sender)

        await asyncio.sleep(WARMUP_S)
        # Per-window figures are medians over sub-windows, so one noisy
        # second on a shared host cannot move a run.  Traced runs take an
        # even number: untraced and traced alternate, untraced first.
        subs = max(1, round(seconds / SUB_S))
        if trace:
            subs = 2 * max(1, round(seconds / 2 / SUB_S))
        gen.sub_s = seconds / subs
        gen.window_start = time.perf_counter()
        gen.measuring = True
        mark = await session.command("mark")
        for k in range(subs):
            if trace:
                await session.command("trace on" if k % 2 else "trace off")
                mark = await session.command("mark")
            await asyncio.sleep(max(0.0, gen.window_start + (k + 1) * gen.sub_s
                                    - time.perf_counter()))
            end = await session.command("mark")
            windows.append((mark, end))
            mark = end
        gen.measuring = False
        for sender in senders:
            sender.stop()
        await asyncio.sleep(GRACE_S)
    finally:
        for sender in senders:
            sender.stop()
        for shim in shims:
            shim.stop()
        final = await session.close()
    await setup_only(SETUP_REPS - 1 - SETUP_REPS // 2)
    return {"gen": gen, "setups": setups, "windows": windows, "final": final,
            "spans_out": spans_out}


def run(root: str, seed: int, seconds: float, trace: bool,
        inject: List[str], out_dir: str) -> Dict[str, Any]:
    """``inject`` holds ``LAYER=US`` items for the policer process."""
    out = asyncio.run(_flood(root, seed, seconds, trace, inject, out_dir))
    gen: Generator = out["gen"]
    windows, final = out["windows"], out["final"]
    whole = _window(windows[0][0], windows[-1][1])
    subs = [_window(a, b) for a, b in windows]

    lag_p99_ms = layers.quantile(gen.lags, 0.99) * 1e3
    total_bytes = sum(gen.bytes_by_src.values())
    legit_bytes = sum(gen.bytes_by_src.get(name, 0) for name in LEGIT)
    delivered = sum(gen.legit_sent.values())
    checks = [
        ("every host registered with the policer", final.get("registered") == len(HOSTS)),
        ("policer unverified_admissions == 0",
         final.get("counters", {}).get("unverified_admissions", 1) == 0),
        ("zero codec errors (policer and generator)",
         final.get("counters", {}).get("codec_errors", 1) == 0 and gen.codec_errors == 0),
        ("every datagram reached a known host", gen.misrouted == 0),
        ("victim received legit traffic", legit_bytes > 0),
        (f"generator kept its schedule (lag p99 {lag_p99_ms:.2f} ms "
         f"<= {LAG_LIMIT_MS} ms; otherwise the run is invalid, not slow)",
         lag_p99_ms <= LAG_LIMIT_MS),
    ]
    lines = [f"workload live_flood seed {seed}: policer {CAPACITY_BPS / 1e6:.0f} Mb/s, "
             f"{len(LEGIT)} legit x {LEGIT_BPS / 1e6} Mb/s + {len(ATTACKERS)} attackers x "
             f"{ATTACK_BPS / 1e6} Mb/s, open loop, window {whole['wall_s']:.2f} s"]
    setup = statistics.median(out["setups"])
    lines.append(f"  setup_s           {setup:.4f} s (median of {len(out['setups'])} "
                 "launches to listening + all hosts registered)")
    lines.append(f"  gen.lag_p99_ms    {lag_p99_ms:.3f} ms over {len(gen.lags)} sends")
    result: Dict[str, Any] = {"checks": checks, "attempted": gen.sent_in_window + len(checks),
                              "lines": lines}

    if trace:
        untraced_ws, traced_ws = subs[0::2], subs[1::2]
        traced = {k: sum(w[k] for w in traced_ws) for k in traced_ws[0]}
        # The tracer records nothing while off, so the aggregates between
        # the first and last traced marks are the traced sub-windows' own.
        snap = layers.diff(windows[-1][1]["layers"], windows[1][0]["layers"])
        metrics = layers.layer_metrics(snap, int(traced["packets_tx"]), traced["cpu_s"])

        def cpu_per_datagram(half: List[Dict[str, float]]) -> float:
            """Median policer CPU per datagram over sub-windows."""
            return statistics.median(w["cpu_s"] / max(w["datagrams_rx"], 1) for w in half)

        traced_us = cpu_per_datagram(traced_ws) * 1e6
        untraced_us = cpu_per_datagram(untraced_ws) * 1e6
        overhead = traced_us / untraced_us
        metrics.update({
            "serve.busy_ratio": traced["cpu_s"] / traced["wall_s"],
            "serve.unverified": int(traced["unverified_admissions"]),
            "gen.sent_pkts": gen.sent_in_window,
            "trace.overhead_ratio": overhead,
        })
        lines.append(f"  traced policer CPU {traced_us:.2f} us/datagram vs untraced "
                     f"{untraced_us:.2f} (medians of {len(traced_ws)} alternating "
                     f"{gen.sub_s:.1f}-s sub-windows each) -> overhead "
                     f"x{overhead:.3f}; {final.get('spans_written', 0)} raw spans written to "
                     f"{os.path.relpath(out['spans_out'], root)}")
        result["metrics"] = metrics
        return result

    window_s = whole["wall_s"]
    cpu_per_pkt = [w["cpu_s"] / max(w["datagrams_rx"], 1) * 1e6 for w in subs]
    by_sub: Dict[int, List[float]] = {}
    for index, latency in gen.legit_latencies:
        by_sub.setdefault(index, []).append(latency * 1e3)
    # Sub-windows with at least 1000 samples keep ten beyond their p99.
    full = [xs for xs in by_sub.values() if len(xs) >= 1000] or list(by_sub.values())
    p50s = [layers.quantile(xs, 0.5) for xs in full]
    p90s = [layers.quantile(xs, 0.9) for xs in full]
    p99s = [layers.quantile(xs, 0.99) for xs in full]
    metrics = {
        "setup_s": setup,
        "cpu_us_per_pkt": statistics.median(cpu_per_pkt),
        "peak_rss_mb": float(final.get("peak_rss_mb", 0.0)),
        "util": total_bytes * 8.0 / window_s / CAPACITY_BPS,
        "legit_share": legit_bytes / total_bytes if total_bytes else 0.0,
        "legit_p50_ms": statistics.median(p50s) if p50s else 0.0,
        "legit_p90_ms": statistics.median(p90s) if p90s else 0.0,
        "legit_p99_ms": statistics.median(p99s) if p99s else 0.0,
        "legit_delivery": delivered / len(gen.legit_sent) if gen.legit_sent else 0.0,
    }

    def spread(values: List[float]) -> str:
        if len(values) < 2:
            return f"{len(values)} sub-window"
        q1, _, q3 = statistics.quantiles(values, n=4)
        return f"median of {len(values)} {gen.sub_s:.1f}-s sub-windows, q1 {q1:.3f}, q3 {q3:.3f}"

    lines += [
        f"  live_util         {metrics['util']:.4f} (victim goodput / capacity)",
        f"  live_legit_share  {metrics['legit_share']:.4f}",
        f"  live_legit_p50_ms {metrics['legit_p50_ms']:.3f} ms ({spread(p50s)}; "
        f"{len(gen.legit_latencies)} packets)",
        f"  live_legit_p90_ms {metrics['legit_p90_ms']:.3f} ms ({spread(p90s)})",
        f"  live_legit_p99_ms {metrics['legit_p99_ms']:.3f} ms ({spread(p99s)})",
        f"  live_legit_loss   {1.0 - metrics['legit_delivery']:.4f} "
        f"({len(gen.legit_sent) - delivered}/{len(gen.legit_sent)} never arrived)",
        f"  live_cpu_us_per_pkt {metrics['cpu_us_per_pkt']:.3f} us ({spread(cpu_per_pkt)}; "
        f"whole window {whole['cpu_s']:.3f} s policer CPU / {int(whole['datagrams_rx'])} "
        f"datagrams, policer busy {whole['cpu_s'] / window_s:.3f})",
        f"  peak_rss_mb       {metrics['peak_rss_mb']:.1f} MB (policer process)",
    ]
    result["metrics"] = metrics
    return result
