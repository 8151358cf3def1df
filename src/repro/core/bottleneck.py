"""The NetFence bottleneck router: channels, attack detection, feedback stamping.

A NetFence router keeps three channels per output link (Fig. 2): the request
channel (strict-priority by level-k, capped at 5 % of the link capacity), the
regular channel (a RED queue sized to 0.2 s of the link), and a low-priority
legacy channel.

Per output link, the router runs the attack-detection loop of §4.3.1: it
samples the regular channel's loss rate (and the link utilization) once per
detection interval, starts a *monitoring cycle* when the loss-rate EWMA
exceeds ``p_th`` (or utilization exceeds the high-load threshold), and ends
the cycle only after the link has been attack-free for ``Tb``.

While a link is in the ``mon`` state the router rewrites the congestion
policing feedback of every request/regular packet it forwards onto the link,
following the three ordered rules of §4.3.2, with the ``2·Ilim`` stamping
hysteresis of §4.3.4.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.seeding import derive_seed

from repro.core.domain import NetFenceDomain
from repro.core.feedback import (
    BottleneckStamper,
    Feedback,
    FeedbackAction,
    multi_append,
)
from repro.core.header import HEADER_KEY, NetFenceHeader
from repro.core.params import NetFenceParams
from repro.obs.metrics import get_registry
from repro.obs.trace import ReasonCode, active_tracer
from repro.simulator.engine import PeriodicTimer
from repro.simulator.fairqueue import DRRQueue, per_source_as_key
from repro.simulator.link import Link
from repro.simulator.node import Router
from repro.simulator.packet import Packet, PacketType
from repro.simulator.queues import (
    DropTailQueue,
    LevelPriorityQueue,
    PacketQueue,
    REDQueue,
)
from repro.simulator.trace import EWMA

if TYPE_CHECKING:
    from repro.runtime.clock import Clock


class NetFenceChannelQueue(PacketQueue):
    """The three-channel output queue of a NetFence router (Fig. 2).

    Scheduling order: request packets (within their 5 % bandwidth cap,
    enforced by a byte budget that refills at ``request_fraction × capacity``),
    then regular packets, then legacy packets.  If only request packets are
    waiting and the budget is exhausted, :meth:`time_until_ready` tells the
    link when to try again.

    When ``as_fairness`` is enabled the regular channel separates traffic per
    source AS with a DRR queue — the §4.5 fallback that localizes the damage
    of compromised access routers.
    """

    def __init__(
        self,
        clock: Clock,
        capacity_bps: float,
        params: Optional[NetFenceParams] = None,
        as_fairness: bool = False,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.clock = clock
        self.params = params or NetFenceParams()
        self.capacity_bps = capacity_bps
        qlim_bytes = max(int(self.params.queue_limit_seconds * capacity_bps / 8), 3_000)
        self.regular_queue: PacketQueue
        if as_fairness:
            self.regular_queue = DRRQueue(
                key_fn=per_source_as_key,
                per_flow_capacity_bytes=max(qlim_bytes // 8, 4_500),
            )
        else:
            self.regular_queue = REDQueue(
                capacity_bytes=qlim_bytes,
                minthresh_fraction=self.params.red_minthresh_fraction,
                maxthresh_fraction=self.params.red_maxthresh_fraction,
                wq=self.params.red_wq,
                seed=seed,
            )
        request_capacity = max(int(qlim_bytes * self.params.request_channel_fraction), 4 * 1_500)
        self.request_queue = LevelPriorityQueue(
            capacity_bytes=request_capacity,
            max_level=self.params.max_priority_level,
        )
        legacy_capacity = max(int(qlim_bytes * self.params.legacy_queue_fraction), 3_000)
        self.legacy_queue = DropTailQueue(capacity_bytes=legacy_capacity)

        # Request-channel bandwidth budget (bytes); refills continuously.
        self._request_budget = 0.0
        self._request_budget_max = max(request_capacity, 1_500)
        self._budget_updated = clock.now

        self.on_regular_drop: Optional[Callable[[Packet], None]] = None
        for queue in (self.request_queue, self.regular_queue, self.legacy_queue):
            queue.drop_callback = self._inner_drop

    # -- drop bubbling -----------------------------------------------------------
    def _inner_drop(self, packet: Packet, reason: str = "tail") -> None:
        self.stats.record_drop(packet, reason)
        if packet.is_regular and self.on_regular_drop is not None:
            self.on_regular_drop(packet)
        if self.drop_callback is not None:
            self.drop_callback(packet, reason)

    # -- request budget -----------------------------------------------------------
    def _refill_budget(self) -> None:
        now = self.clock.now
        elapsed = now - self._budget_updated
        if elapsed > 0:
            rate = self.params.request_channel_fraction * self.capacity_bps / 8.0
            self._request_budget = min(
                self._request_budget_max, self._request_budget + elapsed * rate
            )
            self._budget_updated = now

    # -- PacketQueue interface -------------------------------------------------------
    def enqueue(self, packet: Packet) -> bool:
        ptype = packet.ptype
        if ptype is PacketType.REQUEST:
            queue: PacketQueue = self.request_queue
        elif ptype is PacketType.REGULAR:
            queue = self.regular_queue
        else:
            queue = self.legacy_queue
        accepted = queue.enqueue(packet)
        if accepted:
            self.stats.record_enqueue(packet)
        return accepted

    def dequeue(self) -> Optional[Packet]:
        self._refill_budget()
        if len(self.request_queue):
            head_cost = 92.0  # request packets are small and near-constant size
            if self._request_budget >= head_cost:
                packet = self.request_queue.dequeue()
                if packet is not None:
                    self._request_budget -= packet.size_bytes
                    self.stats.record_dequeue(packet)
                    return packet
        packet = self.regular_queue.dequeue()
        if packet is None:
            packet = self.legacy_queue.dequeue()
        if packet is None and len(self.request_queue):
            # Only capped request traffic remains; the link will poke us later.
            return None
        if packet is not None:
            self.stats.record_dequeue(packet)
        return packet

    def time_until_ready(self) -> Optional[float]:
        """When the request budget will next allow a transmission."""
        if not len(self.request_queue):
            return None
        self._refill_budget()
        deficit = 92.0 - self._request_budget
        if deficit <= 0:
            return 1e-6
        rate = self.params.request_channel_fraction * self.capacity_bps / 8.0
        return deficit / rate

    def __len__(self) -> int:
        return len(self.request_queue) + len(self.regular_queue) + len(self.legacy_queue)

    @property
    def byte_length(self) -> int:
        return (
            self.request_queue.byte_length
            + self.regular_queue.byte_length
            + self.legacy_queue.byte_length
        )

    @property
    def regular_congested(self) -> bool:
        """Whether the regular channel currently signals congestion."""
        if isinstance(self.regular_queue, REDQueue):
            return self.regular_queue.congested
        # For DRR (per-AS fairness) fall back to a half-full heuristic.
        return self.regular_queue.byte_length > 0


def netfence_queue_factory(
    clock: Clock,
    params: Optional[NetFenceParams] = None,
    as_fairness: bool = False,
    seed: Optional[int] = None,
) -> Callable[[float], NetFenceChannelQueue]:
    """Return a queue factory for :class:`repro.simulator.topology.Topology`.

    When ``seed`` is given, each queue the factory builds receives its own
    seed derived from ``(seed, creation index)``, so every RED instance draws
    an independent — yet scenario-reproducible — random stream.
    """
    counter = itertools.count()

    def factory(capacity_bps: float) -> NetFenceChannelQueue:
        queue_seed = None if seed is None else derive_seed(seed, "bneck-queue", next(counter))
        return NetFenceChannelQueue(clock, capacity_bps, params=params,
                                    as_fairness=as_fairness, seed=queue_seed)

    return factory


@dataclass
class LinkMonitorState:
    """Per-output-link attack detection and monitoring-cycle state."""

    link: Link
    in_mon: bool = False
    mon_since: float = 0.0
    last_attack_time: float = 0.0
    stamping_until: float = -math.inf
    loss_ewma: EWMA = field(default_factory=lambda: EWMA(weight=0.1, initial=0.0))
    util_ewma: EWMA = field(default_factory=lambda: EWMA(weight=0.1, initial=0.0))
    monitoring_cycles_started: int = 0
    decr_stamped: int = 0
    last_arrivals: int = 0
    last_drops: int = 0
    last_bytes: int = 0

    def is_overloaded(self, now: float) -> bool:
        """True while the L↓ stamping hysteresis is active (§4.3.4)."""
        return now <= self.stamping_until


class NetFenceRouter(Router):
    """A NetFence-enabled router (bottleneck or transit).

    Args:
        domain: the shared NetFence deployment state.
        monitored_links: names of output links to run attack detection on.
            ``None`` (default) monitors every output link whose queue is a
            :class:`NetFenceChannelQueue`.
        force_mon: immediately put monitored links into the ``mon`` state
            (used by micro-benchmarks and unit tests).
    """

    def __init__(
        self,
        clock: Clock,
        name: str,
        as_name: Optional[str] = None,
        domain: Optional[NetFenceDomain] = None,
        monitored_links: Optional[list[str]] = None,
        force_mon: bool = False,
    ) -> None:
        super().__init__(clock, name, as_name=as_name)
        self.domain = domain or NetFenceDomain()
        self.params = self.domain.params
        self.stamper = BottleneckStamper(self.domain.key_registry, as_name or name)
        self.link_states: Dict[str, LinkMonitorState] = {}
        #: Number of monitored links currently in the ``mon`` state.  While
        #: zero, :meth:`before_enqueue` takes a single-test fast path — no
        #: state lookup, no header fetch — which is the common case for
        #: transit routers and unattacked links.
        self._mon_count = 0
        self._monitored_names = monitored_links
        self._force_mon = force_mon
        self.demoted_legacy = 0
        self._detect_timer = PeriodicTimer(
            clock, self.params.detection_interval, self._detect_all
        )
        self._detect_timer.start()
        # Telemetry: cold-path tracer captured at construction; metrics are
        # pull-based watches, registered only under an enabled registry.
        self._tracer = active_tracer()
        self._trace_point = f"router:{name}"
        registry = get_registry()
        if registry.enabled:
            label = {"router": name}
            registry.watch("netfence_mon_links", lambda: self._mon_count,
                           help="monitored links currently in the mon state",
                           labels=label)
            registry.watch("netfence_demoted_legacy_total",
                           lambda: self.demoted_legacy,
                           help="headerless transit packets demoted to legacy",
                           labels=label)
            registry.watch(
                "netfence_decr_stamped_total",
                lambda: sum(s.decr_stamped for s in self.link_states.values()),
                help="L-down feedback stamps across monitored links",
                labels=label)

    # -- wiring -----------------------------------------------------------------
    def attach_link(self, link: Link) -> None:
        super().attach_link(link)
        self.domain.register_link(link.name, self.as_name or self.name)
        monitor = (
            self._monitored_names is None
            and isinstance(link.queue, NetFenceChannelQueue)
        ) or (self._monitored_names is not None and link.name in self._monitored_names)
        if monitor:
            state = LinkMonitorState(link=link)
            self.link_states[link.name] = state
            if isinstance(link.queue, NetFenceChannelQueue):
                link.queue.on_regular_drop = lambda pkt, s=state: self._on_regular_drop(s)
            if self._force_mon:
                self.start_monitoring(link.name)

    # -- monitoring cycle --------------------------------------------------------
    def start_monitoring(self, link_name: str) -> None:
        """Begin a monitoring cycle on a link (normally done by detection)."""
        state = self.link_states[link_name]
        if not state.in_mon:
            state.in_mon = True
            state.mon_since = self.clock.now
            state.monitoring_cycles_started += 1
            self._mon_count += 1
        state.last_attack_time = self.clock.now

    def stop_monitoring(self, link_name: str) -> None:
        state = self.link_states[link_name]
        if state.in_mon:
            self._mon_count -= 1
        state.in_mon = False
        state.stamping_until = -math.inf

    def mark_overloaded(self, link_name: str, now: Optional[float] = None) -> None:
        """Extend the L↓ stamping hysteresis for a link."""
        state = self.link_states[link_name]
        now = self.clock.now if now is None else now
        state.stamping_until = max(
            state.stamping_until, now + self.params.hysteresis_duration
        )

    def _on_regular_drop(self, state: LinkMonitorState) -> None:
        # A regular-packet drop is an immediate congestion signal while the
        # link is in the mon state; outside mon it only feeds the loss EWMA
        # through the periodic detection pass.
        if state.in_mon:
            state.last_attack_time = self.clock.now
            self.mark_overloaded(state.link.name)

    def _detect_all(self) -> None:
        for state in self.link_states.values():
            self._detect(state)

    def _detect(self, state: LinkMonitorState) -> None:
        link = state.link
        # Attack detection is driven by the loss rate of *regular* packets
        # (§4.3.1, Fig. 19); request-channel drops are expected during request
        # floods and must not start a monitoring cycle by themselves.
        if isinstance(link.queue, NetFenceChannelQueue):
            stats = link.queue.regular_queue.stats
        else:
            stats = link.queue.stats
        arrivals = stats.arrivals - state.last_arrivals
        drops = stats.dropped - state.last_drops
        delivered = link.bytes_delivered - state.last_bytes
        state.last_arrivals = stats.arrivals
        state.last_drops = stats.dropped
        state.last_bytes = link.bytes_delivered

        interval_loss = drops / arrivals if arrivals else 0.0
        interval_util = delivered * 8.0 / (link.capacity_bps * self.params.detection_interval)
        loss_avg = state.loss_ewma.update(interval_loss)
        util_avg = state.util_ewma.update(min(interval_util, 1.0))

        now = self.clock.now
        attack_now = (
            interval_loss > self.params.loss_threshold
            or loss_avg > self.params.loss_threshold
            or util_avg > self.params.utilization_threshold
        )
        congested_now = drops > 0 or (
            isinstance(link.queue, NetFenceChannelQueue) and link.queue.regular_congested
        )

        if not state.in_mon:
            if attack_now:
                self.start_monitoring(link.name)
                if congested_now:
                    self.mark_overloaded(link.name)
            return

        if attack_now:
            state.last_attack_time = now
        if congested_now:
            self.mark_overloaded(link.name)
        if now - state.last_attack_time > self.params.monitor_cycle_min_duration:
            self.stop_monitoring(link.name)

    # -- partial deployment (§5) ---------------------------------------------------
    def on_transit(self, packet: Packet, from_link: Optional[Link]) -> bool:
        """Demote transit packets that carry no NetFence header.

        Under partial deployment, traffic from legacy ASes reaches NetFence
        routers unstamped; §5 forwards it on the low-priority legacy channel
        rather than letting it compete with policed regular traffic.  In a
        full deployment every packet from a NetFence end host carries a
        header, so this never fires.
        """
        if packet.ptype is not PacketType.LEGACY and HEADER_KEY not in packet.headers:
            packet.ptype = PacketType.LEGACY
            self.demoted_legacy += 1
            if self._tracer is not None:
                self._tracer.emit(self._trace_point,
                                  ReasonCode.DEMOTED_LEGACY, packet,
                                  ts=self.clock.now, detail="no NetFence header")
        return True

    # -- feedback stamping (§4.3.2) ------------------------------------------------
    def before_enqueue(self, packet: Packet, out_link: Link) -> bool:
        if not self._mon_count:
            # Fast path: no link is in a monitoring cycle, so no stamping can
            # apply — skip the per-packet state/header lookups entirely.
            return True
        state = self.link_states.get(out_link.name)
        if state is None or not state.in_mon or packet.ptype is PacketType.LEGACY:
            return True
        header = packet.headers.get(HEADER_KEY)
        if header is None or header.feedback is None:
            return True
        if self.domain.feedback_mode == "multi":
            self._stamp_multi(packet, header, out_link, state)
        else:
            self._stamp_single(packet, header, out_link, state)
        return True

    def _stamp_single(
        self,
        packet: Packet,
        header: NetFenceHeader,
        out_link: Link,
        state: LinkMonitorState,
    ) -> None:
        feedback = header.feedback
        overloaded = state.is_overloaded(self.clock.now)
        if feedback.is_nop:
            # Rule 1: nop feedback is always replaced with L↓ so the access
            # router instantiates a rate limiter for this link.
            header.feedback = self.stamper.stamp_decr(
                feedback, packet.src, packet.dst, packet.src_as or "", out_link.name
            )
            state.decr_stamped += 1
            if self._tracer is not None:
                self._tracer.emit(self._trace_point, ReasonCode.STAMPED_DECR,
                                  packet, ts=self.clock.now,
                                  detail=f"rule 1 (nop) on {out_link.name}")
        elif feedback.is_decr:
            # Rule 2: an upstream bottleneck already stamped L'↓ — leave it.
            return
        elif overloaded:
            # Rule 3: the link is overloaded; overwrite L↑ with our L↓.
            header.feedback = self.stamper.stamp_decr(
                feedback, packet.src, packet.dst, packet.src_as or "", out_link.name
            )
            state.decr_stamped += 1
            if self._tracer is not None:
                self._tracer.emit(self._trace_point, ReasonCode.STAMPED_DECR,
                                  packet, ts=self.clock.now,
                                  detail=f"rule 3 (overloaded) on {out_link.name}")

    def _stamp_multi(
        self,
        packet: Packet,
        header: NetFenceHeader,
        out_link: Link,
        state: LinkMonitorState,
    ) -> None:
        feedback = header.feedback
        action = (
            FeedbackAction.DECR
            if state.is_overloaded(self.clock.now)
            else FeedbackAction.INCR
        )
        header.feedback = multi_append(
            self.domain.key_registry,
            self.as_name or self.name,
            packet.src_as or "",
            feedback,
            packet.src,
            packet.dst,
            out_link.name,
            action,
        )
        if action is FeedbackAction.DECR:
            state.decr_stamped += 1
            if self._tracer is not None:
                self._tracer.emit(self._trace_point, ReasonCode.STAMPED_DECR,
                                  packet, ts=self.clock.now,
                                  detail=f"multi append on {out_link.name}")

    # -- introspection ------------------------------------------------------------
    def link_state(self, link_name: str) -> LinkMonitorState:
        return self.link_states[link_name]

    def in_monitoring_cycle(self, link_name: str) -> bool:
        state = self.link_states.get(link_name)
        return bool(state and state.in_mon)
