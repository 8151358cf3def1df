"""UDP traffic sources and sinks.

The paper's attackers send 1 Mbps constant-rate UDP traffic (§6.3.1),
synchronized on-off bursts (§6.3.2 "Strategic Attacks"), or request-packet
floods.  :class:`UdpSender` covers all three via an optional
:class:`OnOffPattern` and a configurable packet type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Tuple

from repro.core.params import NetFenceParams
from repro.simulator.node import Host
from repro.simulator.packet import DATA_PACKET_SIZE, Packet, PacketType
from repro.simulator.trace import ThroughputMonitor

if TYPE_CHECKING:
    from repro.runtime.clock import Clock


@dataclass
class OnOffPattern:
    """Synchronized on-off transmission (§6.3.2, Fig. 11).

    The sender transmits at full rate during ``on_s`` seconds, stays silent
    for ``off_s`` seconds, and repeats.  ``phase_s`` offsets the start of the
    cycle; the paper's attackers all use phase 0 to maximize burst size.
    """

    on_s: float
    off_s: float
    phase_s: float = 0.0

    @property
    def period(self) -> float:
        return self.on_s + self.off_s

    def is_on(self, now: float) -> bool:
        if self.period <= 0:
            return True
        position = (now - self.phase_s) % self.period
        return position < self.on_s

    def next_on_time(self, now: float) -> float:
        """The next instant at or after ``now`` when transmission is allowed."""
        if self.is_on(now):
            return now
        position = (now - self.phase_s) % self.period
        return now + (self.period - position)


class UdpSender:
    """A constant-bit-rate (optionally on-off) UDP source."""

    def __init__(
        self,
        clock: Clock,
        host: Host,
        dst: str,
        rate_bps: float,
        packet_size: int = DATA_PACKET_SIZE,
        flow_id: Optional[str] = None,
        ptype: PacketType = PacketType.REGULAR,
        pattern: Optional[OnOffPattern] = None,
        priority: int = 0,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        self.clock = clock
        self.host = host
        self.dst = dst
        self.rate_bps = rate_bps
        self.packet_size = packet_size
        self.flow_id = flow_id or f"udp:{host.name}->{dst}"
        self.ptype = ptype
        self.pattern = pattern
        self.priority = priority
        self.packets_sent = 0
        self.bytes_sent = 0
        self._running = False
        self._event = None
        host.add_agent(self.flow_id, self)

    @property
    def interval(self) -> float:
        """Inter-packet gap at the configured rate."""
        return self.packet_size * 8.0 / self.rate_bps

    def start(self, at: Optional[float] = None) -> None:
        if self._running:
            return
        self._running = True
        delay = 0.0 if at is None else max(0.0, at - self.clock.now)
        self._event = self.clock.schedule(delay, self._send_next)

    def stop(self) -> None:
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _send_next(self) -> None:
        if not self._running:
            return
        now = self.clock.now
        if self.pattern is not None and not self.pattern.is_on(now):
            resume = self.pattern.next_on_time(now)
            self._event = self.clock.schedule(max(resume - now, 1e-9), self._send_next)
            return
        # _emit_packet() and the ``interval`` property are inlined here (one
        # call frame each per packet); mid-run ``rate_bps`` changes are still
        # honoured.  Keep in sync with _emit_packet below.
        packet = Packet(
            src=self.host.name,
            dst=self.dst,
            size_bytes=self.packet_size,
            ptype=self.ptype,
            flow_id=self.flow_id,
            protocol="udp",
            priority=self.priority,
        )
        self.packets_sent += 1
        self.bytes_sent += packet.size_bytes
        self.host.send(packet)
        self._event = self.clock.schedule(
            self.packet_size * 8.0 / self.rate_bps, self._send_next
        )

    def _emit_packet(self) -> None:
        packet = Packet(
            src=self.host.name,
            dst=self.dst,
            size_bytes=self.packet_size,
            ptype=self.ptype,
            flow_id=self.flow_id,
            protocol="udp",
            priority=self.priority,
        )
        self.packets_sent += 1
        self.bytes_sent += packet.size_bytes
        self.host.send(packet)

    def on_packet(self, packet: Packet) -> None:
        """UDP senders ignore return traffic (feedback is handled by the
        NetFence end-host shim attached to the host, not the transport)."""


class StrategicAttacker(UdpSender):
    """A UDP flooder whose transmission schedule is tuned to the defense's
    AIMD clocks (the "strategic attacks" discussion of §6.3.2).

    The attacker is assumed to know — or to have measured — the access
    routers' robust-AIMD parameters: the control interval ``Ilim``, the
    additive increase ``Δ``, the multiplicative decrease ``δ``, and the
    rule that a limiter's rate only grows in intervals where the sender saw
    fresh ``L↑`` *and* used more than half its current limit.  It exploits
    all of them:

    * **Burst** at full rate for just under ``burst_intervals`` control
      intervals, aligned with an adjustment boundary.  The burst congests
      the bottleneck, forcing ``L↓`` onto every sender's feedback — which
      multiplicatively decreases the *legitimate* users' rate limiters —
      and ends a guard time before the next adjustment, just before its
      own limiter's escalation (compounding decreases plus cache drops)
      would start charging it for traffic that no longer gets through.
    * **Trickle instead of going silent.**  A naive on-off attacker's own
      rate limiter decays multiplicatively during every silent interval
      (no fresh ``L↑`` → decrease), so its later bursts arrive pre-throttled
      and harmless.  The strategic attacker instead spends its off phase
      sending a maintenance trickle sized to the AIMD increase predicate
      (fresh ``L↑`` while consuming more than half the limit), farming one
      additive increase per recovery interval so each burst hits with a
      freshly recovered rate limit.
    * **Burst again after release**: after ``recovery_intervals`` control
      intervals of farming, the next full-rate burst fires, aligned with
      the same clock phase as the last one.

    For equal-attack-volume comparisons, :meth:`naive_pattern` converts the
    strategic schedule (burst volume plus trickle volume) into a plain
    on-off duty cycle at the same average rate whose period is deliberately
    incommensurate with ``Ilim`` — the only difference between the naive
    and the strategic attacker is knowledge of the defense's timing.
    """

    def __init__(
        self,
        clock: Clock,
        host: Host,
        dst: str,
        rate_bps: float,
        params: Optional[NetFenceParams] = None,
        burst_intervals: float = 1.0,
        recovery_intervals: float = 2.0,
        trickle_bps: Optional[float] = None,
        guard_fraction: float = 0.05,
        packet_size: int = DATA_PACKET_SIZE,
        flow_id: Optional[str] = None,
        ptype: PacketType = PacketType.REGULAR,
        priority: int = 0,
    ) -> None:
        self.params = params or NetFenceParams()
        on_s, off_s, phase_s = self.timing(
            self.params, burst_intervals, recovery_intervals, guard_fraction
        )
        # The trickle targets the AIMD increase predicate: it must exceed
        # half the limiter's (re-grown) rate without re-congesting the link.
        # The initial rate limit is the natural estimate of that operating
        # point — it is where the defense itself starts every limiter.
        if trickle_bps is None:
            trickle_bps = self.params.initial_rate_limit_bps
        self.trickle_bps = trickle_bps
        super().__init__(
            clock, host, dst, rate_bps,
            packet_size=packet_size, flow_id=flow_id, ptype=ptype,
            pattern=OnOffPattern(on_s=on_s, off_s=off_s, phase_s=phase_s),
            priority=priority,
        )

    @staticmethod
    def timing(
        params: NetFenceParams,
        burst_intervals: float = 1.0,
        recovery_intervals: float = 2.0,
        guard_fraction: float = 0.05,
    ) -> Tuple[float, float, float]:
        """Derive ``(burst_s, recover_s, phase_s)`` from the defense's constants.

        The burst occupies ``burst_intervals`` control intervals minus a
        guard at each edge; the recovery phase spans ``recovery_intervals``
        whole intervals, so the period is a whole number of control
        intervals and every burst hits the same phase of the AIMD clock.
        """
        interval = params.control_interval
        guard = max(guard_fraction * interval, 1e-3)
        on_s = max(burst_intervals * interval - 2 * guard, guard)
        off_s = recovery_intervals * interval + 2 * guard
        return on_s, off_s, guard

    @property
    def average_rate_bps(self) -> float:
        """The schedule's long-run average send rate (burst plus trickle)."""
        assert self.pattern is not None
        on, off = self.pattern.on_s, self.pattern.off_s
        return (on * self.rate_bps + off * self.trickle_bps) / (on + off)

    @classmethod
    def naive_pattern(
        cls,
        params: NetFenceParams,
        rate_bps: float,
        burst_intervals: float = 1.0,
        recovery_intervals: float = 2.0,
        trickle_bps: Optional[float] = None,
        guard_fraction: float = 0.05,
        stretch: float = 0.97,
    ) -> OnOffPattern:
        """An equal-volume on-off pattern that ignores the defense's clock.

        The naive attacker emits the same average volume as the strategic
        schedule (burst plus trickle) as a plain silent-off on-off flood;
        ``stretch`` makes its period incommensurate with the control
        interval, so its bursts drift across AIMD boundaries instead of
        straddling them.
        """
        if trickle_bps is None:
            trickle_bps = params.initial_rate_limit_bps
        on_s, off_s, _ = cls.timing(params, burst_intervals, recovery_intervals,
                                    guard_fraction)
        duty = (on_s * rate_bps + off_s * trickle_bps) / ((on_s + off_s) * rate_bps)
        duty = min(duty, 1.0)
        period = (on_s + off_s) * stretch
        return OnOffPattern(on_s=duty * period, off_s=(1.0 - duty) * period,
                            phase_s=0.0)

    def start_aligned(self, not_before: float = 0.0) -> None:
        """Start at the next control-interval boundary at or after ``not_before``."""
        interval = self.params.control_interval
        at = math.ceil(max(not_before, self.clock.now) / interval) * interval
        self.start(at=at + self.pattern.phase_s if self.pattern else at)

    def _send_next(self) -> None:
        if not self._running:
            return
        if self.trickle_bps <= 0:
            super()._send_next()
            return
        rate = self.rate_bps if self.pattern.is_on(self.clock.now) else self.trickle_bps
        self._emit_packet()
        self._event = self.clock.schedule(self.packet_size * 8.0 / rate, self._send_next)


class UdpSink:
    """Counts received packets; optionally reports them to a monitor."""

    def __init__(
        self,
        clock: Clock,
        host: Host,
        monitor: Optional[ThroughputMonitor] = None,
        on_receive: Optional[Callable[[Packet], None]] = None,
    ) -> None:
        self.clock = clock
        self.host = host
        self.monitor = monitor
        self.on_receive = on_receive
        self.packets_received = 0
        self.bytes_received = 0
        host.default_agent = self

    def on_packet(self, packet: Packet) -> None:
        self.packets_received += 1
        self.bytes_received += packet.size_bytes
        if self.monitor is not None:
            self.monitor.record(packet)
        if self.on_receive is not None:
            self.on_receive(packet)
