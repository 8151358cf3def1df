"""The NetFence access router (§4.2, §4.3.3, Fig. 18).

The access router sits at the trust boundary between end systems and the
network.  For every packet arriving from one of its own hosts it:

1. treats packets without a NetFence header as legacy traffic (lowest
   priority, never policed);
2. polices **request packets** with the per-sender priority token scheme of
   §4.2 and stamps fresh ``nop`` feedback into them;
3. validates the congestion policing feedback presented in **regular
   packets**; packets with missing, stale, or forged feedback are demoted to
   the request channel (§4.4);
4. forwards packets carrying valid ``nop`` feedback unpoliced (refreshing the
   timestamp), and sends packets carrying ``mon`` feedback through the
   per-(sender, bottleneck) rate limiter(s) chosen by the installed
   :class:`~repro.core.multibottleneck.PolicingPolicy`;
5. resets the forward feedback before the packet leaves (nop stays nop with a
   fresh timestamp; ``L↓``/``L↑`` becomes ``L↑``), so the bottleneck router
   only has to touch packets when it is actually overloaded;
6. once per control interval, applies the robust AIMD adjustment to every
   rate limiter and tears down limiters that have been idle for ``Ta``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.core.domain import NetFenceDomain
from repro.core.feedback import FeedbackStamper
from repro.core.header import HEADER_KEY, NetFenceHeader, get_netfence_header
from repro.core.multibottleneck import PolicingPolicy, SingleBottleneckPolicy
from repro.core.ratelimiter import RegularRateLimiter, RequestRateLimiter
from repro.crypto.keys import AccessRouterSecret
from repro.obs.metrics import get_registry
from repro.obs.trace import ReasonCode, active_tracer
from repro.simulator.engine import PeriodicTimer
from repro.simulator.link import Link
from repro.simulator.node import Router
from repro.simulator.packet import Packet, PacketType

if TYPE_CHECKING:
    from repro.runtime.clock import Clock


class NetFenceAccessRouter(Router):
    """Access router: feedback validation and per-sender traffic policing."""

    def __init__(
        self,
        clock: Clock,
        name: str,
        as_name: Optional[str] = None,
        domain: Optional[NetFenceDomain] = None,
        policy: Optional[PolicingPolicy] = None,
        policy_factory: Optional[Callable[[], PolicingPolicy]] = None,
        secret: Optional[AccessRouterSecret] = None,
    ) -> None:
        super().__init__(clock, name, as_name=as_name)
        self.domain = domain or NetFenceDomain()
        self.params = self.domain.params
        self.local_as = as_name or name
        self.secret = secret or AccessRouterSecret(name)
        self.stamper = FeedbackStamper(self.secret, self.domain.key_registry, self.local_as)
        if policy is None:
            policy = policy_factory() if policy_factory is not None else SingleBottleneckPolicy()
        self.policy = policy
        self.policy.attach(self)

        self.request_limiters: Dict[str, RequestRateLimiter] = {}
        self.rate_limiters: Dict[Tuple[str, str], RegularRateLimiter] = {}

        self.counters: Dict[str, int] = {
            "request_admitted": 0,
            "request_dropped": 0,
            "regular_nop": 0,
            "regular_invalid": 0,
            "regular_passed": 0,
            "regular_cached": 0,
            "regular_dropped": 0,
            "legacy": 0,
        }

        self._adjust_timer = PeriodicTimer(
            clock, self.params.control_interval, self._adjust_all
        )
        self._adjust_timer.start()

        # Telemetry: the tracer is captured once at construction (the
        # disabled cost is one ``is not None`` test at the cold decision
        # branches); metrics bridge the existing counters through pull-based
        # watches, registered only when the active registry is enabled.
        self._tracer = active_tracer()
        self._trace_point = f"access:{name}"
        registry = get_registry()
        if registry.enabled:
            label = {"router": name}
            for event in self.counters:
                registry.watch(
                    "netfence_access_events_total",
                    lambda key=event: self.counters[key],
                    help="access-router policing decisions by outcome",
                    labels={**label, "event": event})
            registry.watch("netfence_rate_limiters",
                           lambda: len(self.rate_limiters),
                           help="live (sender, bottleneck) rate limiters",
                           labels=label)
            registry.watch("netfence_request_limiters",
                           lambda: len(self.request_limiters),
                           help="live per-sender request limiters",
                           labels=label)
            registry.watch("netfence_secret_epoch_cache",
                           lambda: self.secret.cache_size,
                           help="cached secret-key epochs", labels=label)
            registry.watch("netfence_stamper_memo_cache",
                           lambda: self.stamper.memo_size,
                           help="memoized feedback verifications", labels=label)

    # -- limiter management -----------------------------------------------------
    def get_rate_limiter(self, sender: str, link: str) -> RegularRateLimiter:
        """Find or create the rate limiter for a (sender, bottleneck link) pair."""
        key = (sender, link)
        limiter = self.rate_limiters.get(key)
        if limiter is None:
            limiter = RegularRateLimiter(
                self.clock,
                sender,
                link,
                self.params,
                release_fn=self._on_limiter_release,
            )
            self.rate_limiters[key] = limiter
        return limiter

    def _on_limiter_release(self, packet: Packet) -> None:
        """A rate limiter released a cached packet: resume policing, then forward."""
        verdict = self.policy.continue_chain(packet)
        if verdict is True:
            self.counters["regular_cached"] += 1
            if self._tracer is not None:
                self._tracer.emit(self._trace_point, ReasonCode.RELEASED,
                                  packet, ts=self.clock.now)
            self.forward(packet)
        elif verdict is False:
            self.counters["regular_dropped"] += 1
            if self._tracer is not None:
                self._tracer.emit(self._trace_point, ReasonCode.DROP_POLICED,
                                  packet, ts=self.clock.now,
                                  detail="dropped after release")
        # verdict None: the packet was cached again by a later limiter.

    def _adjust_all(self) -> None:
        """Per-control-interval AIMD pass plus idle-limiter garbage collection."""
        expired = []
        for key, limiter in self.rate_limiters.items():
            self.policy.adjust(limiter)
            if limiter.idle_for() > self.params.rate_limiter_idle_timeout:
                expired.append(key)
        for key in expired:
            limiter = self.rate_limiters.pop(key)
            limiter.close()

    # -- policing hooks ----------------------------------------------------------
    def admit_from_host(self, packet: Packet, from_link: Optional[Link]) -> Optional[bool]:
        # Inlined ptype/header reads: this hook runs for every packet every
        # local host sends.
        ptype = packet.ptype
        if ptype is PacketType.LEGACY:
            self.counters["legacy"] += 1
            return True
        header = packet.headers.get(HEADER_KEY)
        if header is None:
            # Sender does not speak NetFence: legacy channel, lowest priority.
            packet.ptype = PacketType.LEGACY
            self.counters["legacy"] += 1
            if self._tracer is not None:
                self._tracer.emit(self._trace_point,
                                  ReasonCode.DEMOTED_LEGACY, packet,
                                  ts=self.clock.now, detail="no NetFence header")
            return True
        if ptype is PacketType.REGULAR:
            return self._police_regular(packet, header)
        return self._police_request(packet, header)

    # -- request channel (§4.2) ------------------------------------------------------
    def _police_request(self, packet: Packet, header: NetFenceHeader) -> bool:
        packet.ptype = PacketType.REQUEST
        limiter = self.request_limiters.get(packet.src)
        if limiter is None:
            limiter = RequestRateLimiter(self.params)
            self.request_limiters[packet.src] = limiter
        if not limiter.admit(packet, self.clock.now):
            self.counters["request_dropped"] += 1
            if self._tracer is not None:
                self._tracer.emit(self._trace_point,
                                  ReasonCode.DROP_REQUEST_TOKENS, packet,
                                  ts=self.clock.now,
                                  detail=f"level {packet.priority}")
            return False
        header.priority = packet.priority
        header.feedback = self.policy.stamp_initial(packet)
        self.counters["request_admitted"] += 1
        if self._tracer is not None:
            self._tracer.emit(self._trace_point,
                              ReasonCode.ADMITTED_REQUEST, packet,
                              ts=self.clock.now,
                              detail=f"level {packet.priority}")
        return True

    # -- regular channel (§4.3.3) -------------------------------------------------------
    def _police_regular(self, packet: Packet, header: NetFenceHeader) -> Optional[bool]:
        feedback = header.feedback
        if feedback is None or not self.policy.validate(packet, feedback):
            # Invalid feedback: demote to the request channel (§4.4).
            self.counters["regular_invalid"] += 1
            if self._tracer is not None:
                # Distinguish a stale-but-genuine MAC from a missing/forged
                # one: re-checking freshness here is cold-path only.
                if feedback is not None and not feedback.is_fresh(
                        self.clock.now, self.params.feedback_expiration):
                    reason = ReasonCode.MAC_STALE
                    detail = f"feedback ts={feedback.ts:.3f}"
                else:
                    reason = ReasonCode.UNVERIFIED_FEEDBACK
                    detail = "missing feedback" if feedback is None else "bad MAC"
                self._tracer.emit(self._trace_point, reason, packet,
                                  ts=self.clock.now, detail=detail)
            return self._police_request(packet, header)
        if feedback.is_nop and not feedback.chain:
            header.feedback = self.policy.stamp_initial(packet)
            self.counters["regular_nop"] += 1
            if self._tracer is not None:
                self._tracer.emit(self._trace_point, ReasonCode.ADMITTED_NOP,
                                  packet, ts=self.clock.now)
            return True
        verdict = self.policy.police_mon(packet, header, feedback)
        if verdict is True:
            self.counters["regular_passed"] += 1
            if self._tracer is not None:
                self._tracer.emit(self._trace_point,
                                  ReasonCode.ADMITTED_REGULAR, packet,
                                  ts=self.clock.now)
        elif verdict is False:
            # No trace event here: a False verdict always originates in a
            # component that already emitted the precise reason (the rate
            # limiter's DROP_CACHE_DELAY) — a second, vaguer DROP_POLICED
            # for the same packet would only double the emission volume.
            self.counters["regular_dropped"] += 1
        return verdict

    # -- introspection --------------------------------------------------------------
    def limiter_for(self, sender: str, link: str) -> Optional[RegularRateLimiter]:
        return self.rate_limiters.get((sender, link))

    @property
    def active_rate_limiters(self) -> int:
        return len(self.rate_limiters)


class LegacyAccessRouter(Router):
    """An access router in a non-upgraded AS (§5, partial deployment).

    It performs no policing, validates nothing, and attaches no feedback;
    packets its own hosts originate without a NetFence header are marked as
    legacy traffic so every downstream NetFence router serves them on the
    lowest-priority ``legacy`` channel.  (In the paper the demotion happens
    at the first NetFence router the packet crosses; marking at the origin
    access router is observationally identical and keeps transit routers on
    their fast path.)
    """

    def __init__(self, clock: Clock, name: str, as_name: Optional[str] = None) -> None:
        super().__init__(clock, name, as_name=as_name)
        self.legacy_marked = 0

    def admit_from_host(self, packet: Packet, from_link: Optional[Link]) -> Optional[bool]:
        if not packet.is_legacy and get_netfence_header(packet) is None:
            packet.ptype = PacketType.LEGACY
            self.legacy_marked += 1
        return True
