"""Access-router rate limiters.

Two limiters live at the access router:

* :class:`RequestRateLimiter` — one per sender.  It implements the
  priority-based token scheme of §4.2 (Fig. 15): admitting a level-k request
  packet costs ``2^(k-1)`` tokens, tokens refill at one per ``l1`` (1 ms),
  and level-0 packets are never rate limited (they just get the lowest
  forwarding priority).

* :class:`RegularRateLimiter` — one per (sender, bottleneck link) pair,
  created when ``mon`` feedback for that link first appears.  It is a leaky
  bucket implemented as a queue whose de-queuing rate is the rate limit
  (§4.3.3, Fig. 16), deliberately *not* a token bucket, so strategic senders
  cannot save up bursts.  Its rate limit is adjusted once per control
  interval by the robust AIMD rule of §4.3.4 (Fig. 17).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Optional

from repro.core.feedback import Feedback
from repro.core.params import NetFenceParams
from repro.obs.trace import ReasonCode, active_tracer
from repro.simulator.packet import Packet

if TYPE_CHECKING:
    from repro.runtime.clock import Clock, ClockHandle

#: Policing verdicts, mirroring the paper's pseudo-code.
PASS = "pass"
CACHED = "cached"
DROP = "drop"


class RequestRateLimiter:
    """Per-sender token-based policing of request packets (§4.2, Fig. 15)."""

    def __init__(self, params: NetFenceParams) -> None:
        self.params = params
        self._tokens = params.request_token_depth
        self._last_refill = 0.0
        self.admitted = 0
        self.dropped = 0

    def admit(self, packet: Packet, now: float) -> bool:
        """Admit or drop a request packet based on its priority level."""
        level = max(0, min(packet.priority, self.params.max_priority_level))
        if level == 0:
            # Level-0 packets are not rate limited; they are simply forwarded
            # with the lowest priority (§4.2).
            self.admitted += 1
            return True
        tokens_now = min(
            self.params.request_token_depth,
            self._tokens + (now - self._last_refill) * self.params.request_token_rate,
        )
        cost = 2.0 ** (level - 1)
        if cost > tokens_now:
            self.dropped += 1
            # The paper's pseudo-code does not refund or persist the lapsed
            # refill here; we keep the refill so time is not lost.
            self._tokens = tokens_now
            self._last_refill = now
            return False
        self._tokens = tokens_now - cost
        self._last_refill = now
        self.admitted += 1
        return True

    @property
    def available_tokens(self) -> float:
        return self._tokens


@dataclass
class RateLimiterStats:
    """Counters exposed for tests and experiments."""

    passed: int = 0
    cached: int = 0
    dropped: int = 0
    released: int = 0
    bytes_forwarded: int = 0
    increases: int = 0
    decreases: int = 0
    holds: int = 0


class RegularRateLimiter:
    """The per-(sender, bottleneck link) leaky-bucket rate limiter.

    Packets that cannot be forwarded immediately are cached in a FIFO and
    released at the rate limit; packets whose queuing delay would exceed
    ``params.max_caching_delay`` are dropped (Fig. 16's
    ``caching_delay_too_long``).

    AIMD state (§4.3.4): ``has_incr`` records whether fresh ``L↑`` feedback
    has been seen this control interval; the adjustment runs once per
    ``Ilim`` via :meth:`adjust`.
    """

    def __init__(
        self,
        clock: Clock,
        sender: str,
        link: str,
        params: NetFenceParams,
        release_fn: Callable[[Packet], None],
        initial_rate_bps: Optional[float] = None,
    ) -> None:
        self.clock = clock
        self.sender = sender
        self.link = link
        self.params = params
        self.release_fn = release_fn
        self.rate_bps = initial_rate_bps or params.initial_rate_limit_bps
        self.stats = RateLimiterStats()

        # AIMD bookkeeping (Fig. 17).
        self.has_incr = False
        self.interval_start = clock.now
        self._interval_bytes = 0

        # Appendix B.2 extensions (rate-limiter inference).
        self.has_incr_star = False
        self.is_active = False
        self.is_active_star = False

        # Leaky bucket.
        self._cache: Deque[Packet] = deque()
        self._cache_bytes = 0
        self._last_departure = clock.now
        self._unleash_event: Optional[ClockHandle] = None
        # Hot-path constants: the bucket depth in bits and the cache-capacity
        # floor never change after construction, so the per-packet charge in
        # :meth:`police` avoids re-deriving them from params every time.
        self._depth_bits = params.leaky_bucket_depth_bytes * 8.0
        self._min_cache_bytes = float(params.min_cache_bytes)
        self._max_caching_delay = params.max_caching_delay

        # Idle-termination bookkeeping (§4.3.1): a limiter can be removed once
        # it has neither seen L↓ feedback nor dropped a packet for Ta seconds.
        self.last_pressure_time = clock.now

        # Tracing touches only the cache/drop branches, never the PASS fast
        # path, so a limiter with tracing off pays nothing per passed packet.
        self._tracer = active_tracer()
        self._trace_point = f"limiter:{sender}->{link}"

    # -- feedback status --------------------------------------------------------
    def update_status(self, feedback: Feedback) -> None:
        """Record the feedback presented with a packet (Fig. 17's update_status)."""
        if feedback.is_decr:
            self.last_pressure_time = self.clock.now
            self.is_active = True
        if feedback.is_incr:
            self.is_active = True
            if feedback.ts >= self.interval_start:
                self.has_incr = True

    def update_inferred_status(self, feedback: Feedback) -> None:
        """Record feedback *inferred* from another link's feedback (Appendix B.2)."""
        self.is_active_star = True
        if feedback.is_incr and feedback.ts >= self.interval_start:
            self.has_incr_star = True

    # -- policing -----------------------------------------------------------------
    def police(self, packet: Packet) -> str:
        """Pass, cache, or drop a regular packet (Fig. 16)."""
        now = self.clock.now
        if not self._cache:
            # Credit drains at the rate limit but is capped at one MTU of
            # transmission time: idle periods cannot fund bursts (the bucket
            # stays leaky, §4.3.3), yet fractional credit accrued since the
            # last departure is preserved instead of being discarded, so
            # sustained goodput tracks rate_bps even for sub-MTU packets.
            # A single floored rate keeps accrual and consumption consistent
            # even if AIMD drives rate_bps below 1 bps.
            rate = max(self.rate_bps, 1.0)
            credit_bits = (now - self._last_departure) * rate
            depth_bits = self._depth_bits
            if credit_bits > depth_bits:
                credit_bits = depth_bits
                self._last_departure = now - depth_bits / rate
            tx_bits = packet.size_bytes * 8
            if credit_bits >= tx_bits:
                self._last_departure += tx_bits / rate
                self._account_forward(packet)
                self.stats.passed += 1
                return PASS
            if self._caching_delay_too_long(packet):
                self._record_drop(packet)
                return DROP
        else:
            if self._caching_delay_too_long(packet):
                self._record_drop(packet)
                return DROP
        self._cache.append(packet)
        self._cache_bytes += packet.size_bytes
        self.stats.cached += 1
        if self._tracer is not None:
            self._tracer.emit(self._trace_point,
                              ReasonCode.RATE_LIMITED, packet, ts=now,
                              detail=f"cached at {self.rate_bps:.0f} bps")
        if len(self._cache) == 1:
            self._schedule_next_unleash()
        return CACHED

    def _caching_delay_too_long(self, packet: Packet) -> bool:
        # The cache may hold up to max_caching_delay's worth of bytes at the
        # current rate limit, but never less than min_cache_bytes so that a
        # TCP sender always has room for a couple of segments (Fig. 3 notes
        # every limiter queues at least one packet).
        capacity_bytes = max(
            self.rate_bps * self._max_caching_delay / 8.0,
            self._min_cache_bytes,
        )
        return self._cache_bytes + packet.size_bytes > capacity_bytes

    def _record_drop(self, packet: Packet) -> None:
        self.stats.dropped += 1
        self.last_pressure_time = self.clock.now
        if self._tracer is not None:
            self._tracer.emit(self._trace_point,
                              ReasonCode.DROP_CACHE_DELAY, packet,
                              ts=self.clock.now,
                              detail=f"cache {self._cache_bytes}B full")

    def _account_forward(self, packet: Packet) -> None:
        self._interval_bytes += packet.size_bytes
        self.stats.bytes_forwarded += packet.size_bytes

    # -- leaky-bucket release -------------------------------------------------------
    def _schedule_next_unleash(self) -> None:
        if not self._cache:
            return
        head = self._cache[0]
        wait = head.size_bytes * 8 / max(self.rate_bps, 1.0)
        elapsed = self.clock.now - self._last_departure
        delay = max(wait - elapsed, 0.0)
        self._unleash_event = self.clock.schedule(delay, self._unleash)

    def _unleash(self) -> None:
        # This event has fired; drop the handle so a later close() does not
        # cancel an already-dispatched event.
        self._unleash_event = None
        if not self._cache:
            return
        packet = self._cache.popleft()
        self._cache_bytes -= packet.size_bytes
        # Consume exactly the packet's transmission time; any residual credit
        # (the release may have fired early thanks to banked credit) carries
        # over to the next departure.
        tx_s = packet.size_bytes * 8 / max(self.rate_bps, 1.0)
        self._last_departure = min(self._last_departure + tx_s, self.clock.now)
        self._account_forward(packet)
        self.stats.released += 1
        self.release_fn(packet)
        if self._cache:
            self._schedule_next_unleash()

    # -- AIMD adjustment ----------------------------------------------------------
    @property
    def interval_throughput_bps(self) -> float:
        elapsed = max(self.clock.now - self.interval_start, 1e-9)
        return self._interval_bytes * 8 / elapsed

    def adjust(self) -> str:
        """Apply the robust AIMD rule at the end of a control interval (Fig. 17).

        Returns "increase", "decrease", or "keep" for observability.
        """
        action = "keep"
        if self.has_incr:
            if self.interval_throughput_bps > self.rate_bps / 2:
                self.rate_bps += self.params.additive_increase_bps
                action = "increase"
                self.stats.increases += 1
            else:
                self.stats.holds += 1
        else:
            self.rate_bps *= 1 - self.params.multiplicative_decrease
            action = "decrease"
            self.stats.decreases += 1
        self._start_new_interval()
        return action

    def adjust_with_inference(self) -> str:
        """Appendix B.2 adjustment: also consult inferred feedback state."""
        action = "keep"
        if self.has_incr or self.has_incr_star:
            if self.interval_throughput_bps > self.rate_bps / 2:
                self.rate_bps += self.params.additive_increase_bps
                action = "increase"
                self.stats.increases += 1
            else:
                self.stats.holds += 1
        elif self.is_active:
            self.rate_bps *= 1 - self.params.multiplicative_decrease
            action = "decrease"
            self.stats.decreases += 1
        elif self.is_active_star:
            self.stats.holds += 1
        else:
            self.rate_bps *= 1 - self.params.multiplicative_decrease
            action = "decrease"
            self.stats.decreases += 1
        self._start_new_interval()
        return action

    def _start_new_interval(self) -> None:
        self.has_incr = False
        self.has_incr_star = False
        self.is_active = False
        self.is_active_star = False
        self.interval_start = self.clock.now
        self._interval_bytes = 0

    # -- lifecycle -----------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        return len(self._cache)

    def idle_for(self) -> float:
        """Seconds since the limiter last saw L↓ feedback or dropped a packet."""
        return self.clock.now - self.last_pressure_time

    def close(self) -> None:
        """Cancel pending releases (used when the access router removes the limiter).

        Cached packets are forwarded immediately rather than silently lost:
        removing a limiter means the bottleneck no longer needs policing.
        """
        if self._unleash_event is not None:
            self._unleash_event.cancel()
            self._unleash_event = None
        while self._cache:
            packet = self._cache.popleft()
            self._cache_bytes -= packet.size_bytes
            # Flushed packets are forwarded like any other release, so they
            # must show up in the experiment counters too.
            self._account_forward(packet)
            self.stats.released += 1
            self.release_fn(packet)
