"""Congestion quota (§7, Discussion) — an optional second line of defense.

The paper observes that when legitimate users have *limited* demand during an
attack while attackers try to congest a bottleneck persistently, the damage
can be reduced further by charging each sender a **congestion quota** at its
access router, an idea borrowed from re-ECN [9]: only a bounded amount of
"congestion traffic" may be sent through a bottleneck per period of time.

Congestion traffic is defined as the traffic a sender pushes through a rate
limiter while that limiter's rate is being decreased — i.e. while the sender
keeps transmitting into a congested bottleneck.  Unlike re-ECN, the quota is
kept per (sender, bottleneck link), so a sender's traffic toward healthy
links is never collateral damage.

:class:`CongestionQuota` tracks the spend and answers whether a sender has
exhausted its quota; :class:`QuotaEnforcer` glues it onto a
:class:`~repro.core.access.NetFenceAccessRouter` by wrapping the router's
rate limiters' accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.core.access import NetFenceAccessRouter
from repro.core.ratelimiter import RegularRateLimiter
from repro.simulator.engine import PeriodicTimer

if TYPE_CHECKING:
    from repro.runtime.clock import Clock


@dataclass
class QuotaState:
    """Congestion-byte accounting for one (sender, bottleneck link) pair."""

    spent_bytes: int = 0
    total_spent_bytes: int = 0
    exhausted: bool = False


class CongestionQuota:
    """Per-(sender, bottleneck link) congestion quota accounting.

    Args:
        quota_bytes: congestion bytes a sender may push through one
            bottleneck per replenishment period.
        period_s: replenishment period; at each period boundary every pair's
            spend resets (a simple sliding-window approximation of re-ECN's
            continuous accounting).
    """

    def __init__(self, quota_bytes: int = 500_000, period_s: float = 60.0) -> None:
        if quota_bytes <= 0:
            raise ValueError("quota_bytes must be positive")
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        self.quota_bytes = quota_bytes
        self.period_s = period_s
        self._state: Dict[Tuple[str, str], QuotaState] = {}

    def state_for(self, sender: str, link: str) -> QuotaState:
        key = (sender, link)
        state = self._state.get(key)
        if state is None:
            state = QuotaState()
            self._state[key] = state
        return state

    def charge(self, sender: str, link: str, size_bytes: int) -> None:
        """Charge congestion bytes to a sender's quota for one bottleneck."""
        state = self.state_for(sender, link)
        state.spent_bytes += size_bytes
        state.total_spent_bytes += size_bytes
        if state.spent_bytes > self.quota_bytes:
            state.exhausted = True

    def allows(self, sender: str, link: str) -> bool:
        """Whether the sender may still send congestion traffic via ``link``."""
        return not self.state_for(sender, link).exhausted

    def replenish(self) -> None:
        """Reset every pair's spend for a new period."""
        for state in self._state.values():
            state.spent_bytes = 0
            state.exhausted = False

    @property
    def exhausted_pairs(self) -> list[Tuple[str, str]]:
        return [key for key, state in self._state.items() if state.exhausted]


class QuotaEnforcer:
    """Attach congestion-quota enforcement to a NetFence access router.

    Every control interval the enforcer inspects each rate limiter: if the
    limiter's rate was decreased (the bottleneck was congested) the bytes the
    sender pushed through it during that interval are charged to the sender's
    quota.  Once a (sender, link) pair exhausts its quota, packets policed by
    that limiter are dropped until the quota replenishes.
    """

    def __init__(
        self,
        clock: Clock,
        router: NetFenceAccessRouter,
        quota: Optional[CongestionQuota] = None,
    ) -> None:
        self.clock = clock
        self.router = router
        self.quota = quota or CongestionQuota()
        self.dropped_over_quota = 0
        self._last_forwarded: Dict[Tuple[str, str], int] = {}
        self._last_decreases: Dict[Tuple[str, str], int] = {}

        # Piggyback on the router's control interval and the quota period.
        self._audit_timer = PeriodicTimer(clock, router.params.control_interval, self._audit)
        self._audit_timer.start()
        self._replenish_timer = PeriodicTimer(clock, self.quota.period_s, self.quota.replenish)
        self._replenish_timer.start()

        # Intercept policing results: wrap each limiter's police() lazily.
        self._original_get = router.get_rate_limiter
        router.get_rate_limiter = self._get_rate_limiter  # type: ignore[assignment]

    # -- limiter wrapping -------------------------------------------------------
    def _get_rate_limiter(self, sender: str, link: str) -> RegularRateLimiter:
        limiter = self._original_get(sender, link)
        if not getattr(limiter, "_quota_wrapped", False):
            original_police = limiter.police

            def police_with_quota(packet, _original=original_police, _sender=sender,
                                  _link=link):
                if not self.quota.allows(_sender, _link):
                    self.dropped_over_quota += 1
                    limiter.stats.dropped += 1
                    return "drop"
                return _original(packet)

            limiter.police = police_with_quota  # type: ignore[assignment]
            limiter._quota_wrapped = True
        return limiter

    # -- periodic audit -----------------------------------------------------------
    def _audit(self) -> None:
        for (sender, link), limiter in self.router.rate_limiters.items():
            key = (sender, link)
            forwarded = limiter.stats.bytes_forwarded
            decreases = limiter.stats.decreases
            delta_bytes = forwarded - self._last_forwarded.get(key, 0)
            delta_decreases = decreases - self._last_decreases.get(key, 0)
            self._last_forwarded[key] = forwarded
            self._last_decreases[key] = decreases
            if delta_decreases > 0 and delta_bytes > 0:
                # Traffic sent while the limiter was being decreased is
                # congestion traffic; charge it against the quota.
                self.quota.charge(sender, link, delta_bytes)

    def stop(self) -> None:
        self._audit_timer.stop()
        self._replenish_timer.stop()
