"""Application-level workloads used in the paper's evaluation.

* :class:`FileTransferApp` — a sender that repeatedly transfers a fixed-size
  file (20 KB in Fig. 8) to the victim and records per-transfer completion
  times and the completion ratio.
* :class:`WebTrafficApp` — the "web-like" workload of Fig. 9b: file sizes
  drawn from a mixture of Pareto and exponential distributions (after Luo &
  Marin [28]), capped at 150 KB, with uniform 0.1–0.2 s think times between
  transfers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.seeding import derive_seed
from repro.simulator.node import Host
from repro.simulator.trace import ThroughputMonitor
from repro.transport.tcp import TcpReceiver, TcpSender, TcpTransferResult

if TYPE_CHECKING:
    from repro.runtime.clock import Clock


def web_file_size_sampler(
    rng: random.Random,
    exponential_mean: float = 12_000.0,
    pareto_shape: float = 1.2,
    pareto_scale: float = 10_000.0,
    pareto_fraction: float = 0.3,
    min_bytes: int = 1_000,
    max_bytes: int = 150_000,
) -> int:
    """Draw a web-object size from a Pareto/exponential mixture (§6.3.2).

    The mixture follows the modelling approach of [28]: most objects are
    small (exponential body) with a heavy Pareto tail, truncated at 150 KB to
    keep experiments bounded as in the paper.
    """
    if rng.random() < pareto_fraction:
        size = pareto_scale * (rng.paretovariate(pareto_shape))
    else:
        size = rng.expovariate(1.0 / exponential_mean)
    return int(min(max(size, min_bytes), max_bytes))


@dataclass
class TransferLog:
    """Aggregated statistics over many transfers from one application."""

    results: List[TcpTransferResult] = field(default_factory=list)

    def record(self, result: TcpTransferResult) -> None:
        self.results.append(result)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def completed(self) -> int:
        return sum(1 for r in self.results if r.completed)

    @property
    def completion_ratio(self) -> float:
        return self.completed / self.attempted if self.attempted else 0.0

    @property
    def completed_durations(self) -> List[float]:
        return [r.duration for r in self.results if r.completed and r.duration is not None]

    @property
    def average_transfer_time(self) -> float:
        durations = self.completed_durations
        return sum(durations) / len(durations) if durations else float("nan")

    @property
    def total_bytes_completed(self) -> int:
        return sum(r.file_bytes for r in self.results if r.completed)


class _SequentialTransferApp:
    """Shared machinery: run TCP transfers back to back between two hosts."""

    def __init__(
        self,
        clock: Clock,
        src_host: Host,
        dst_host: Host,
        deadline_s: Optional[float] = 200.0,
        monitor: Optional[ThroughputMonitor] = None,
        stop_at: Optional[float] = None,
    ) -> None:
        self.clock = clock
        self.src_host = src_host
        self.dst_host = dst_host
        self.deadline_s = deadline_s
        self.monitor = monitor
        self.stop_at = stop_at
        self.log = TransferLog()
        self._transfer_index = 0
        self._running = False
        self._current_sender: Optional[TcpSender] = None

    # Subclasses decide the next file size and inter-transfer gap.
    def _next_file_bytes(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def _next_gap(self) -> float:
        return 0.0

    def start(self, at: float = 0.0) -> None:
        if self._running:
            return
        self._running = True
        delay = max(0.0, at - self.clock.now)
        self.clock.schedule(delay, self._start_next_transfer)

    def stop(self) -> None:
        self._running = False

    def _start_next_transfer(self) -> None:
        if not self._running:
            return
        if self.stop_at is not None and self.clock.now >= self.stop_at:
            self._running = False
            return
        self._transfer_index += 1
        flow_id = f"tcp:{self.src_host.name}->{self.dst_host.name}:{self._transfer_index}"
        TcpReceiver(self.clock, self.dst_host, flow_id, monitor=self.monitor)
        sender = TcpSender(
            self.clock,
            self.src_host,
            self.dst_host.name,
            file_bytes=self._next_file_bytes(),
            flow_id=flow_id,
            deadline_s=self.deadline_s,
            on_complete=self._on_transfer_done,
        )
        self._current_sender = sender
        sender.start()

    def _on_transfer_done(self, result: TcpTransferResult) -> None:
        self.log.record(result)
        # Free the per-flow agents so hosts do not accumulate state.
        self.src_host.remove_agent(result.flow_id)
        self.dst_host.remove_agent(result.flow_id)
        if self._running:
            self.clock.schedule(self._next_gap(), self._start_next_transfer)


class FileTransferApp(_SequentialTransferApp):
    """Repeatedly transfer a fixed-size file (Fig. 8's 20 KB workload)."""

    def __init__(
        self,
        clock: Clock,
        src_host: Host,
        dst_host: Host,
        file_bytes: int = 20_000,
        gap_s: float = 0.0,
        deadline_s: Optional[float] = 200.0,
        monitor: Optional[ThroughputMonitor] = None,
        stop_at: Optional[float] = None,
    ) -> None:
        super().__init__(clock, src_host, dst_host, deadline_s, monitor, stop_at)
        self.file_bytes = file_bytes
        self.gap_s = gap_s

    def _next_file_bytes(self) -> int:
        return self.file_bytes

    def _next_gap(self) -> float:
        return self.gap_s


class WebTrafficApp(_SequentialTransferApp):
    """Web-like workload: mixture-distributed file sizes, 0.1–0.2 s gaps."""

    def __init__(
        self,
        clock: Clock,
        src_host: Host,
        dst_host: Host,
        rng: Optional[random.Random] = None,
        size_sampler: Optional[Callable[[random.Random], int]] = None,
        gap_range: tuple[float, float] = (0.1, 0.2),
        deadline_s: Optional[float] = 200.0,
        monitor: Optional[ThroughputMonitor] = None,
        stop_at: Optional[float] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(clock, src_host, dst_host, deadline_s, monitor, stop_at)
        # Without an explicit rng, derive a per-instance stream from the
        # (seed, src, dst) identity: two apps on different hosts must not
        # sample identical file-size / think-time sequences.
        if rng is None:
            rng = random.Random(
                derive_seed(seed, "web-traffic", src_host.name, dst_host.name)
            )
        self.rng = rng
        self.size_sampler = size_sampler or web_file_size_sampler
        self.gap_range = gap_range

    def _next_file_bytes(self) -> int:
        return self.size_sampler(self.rng)

    def _next_gap(self) -> float:
        low, high = self.gap_range
        return self.rng.uniform(low, high)


class LongRunningTcpApp:
    """A single long-running TCP transfer (Fig. 9a / Fig. 10 workload).

    Implemented as one very large file transfer; throughput is measured at
    the receiver by the supplied monitor, so the transfer never needs to
    complete within the simulation.
    """

    def __init__(
        self,
        clock: Clock,
        src_host: Host,
        dst_host: Host,
        monitor: Optional[ThroughputMonitor] = None,
        file_bytes: int = 1_000_000_000,
    ) -> None:
        self.clock = clock
        self.src_host = src_host
        self.dst_host = dst_host
        self.flow_id = f"tcp:{src_host.name}->{dst_host.name}:long"
        self.receiver = TcpReceiver(clock, dst_host, self.flow_id, monitor=monitor)
        self.sender = TcpSender(
            clock,
            src_host,
            dst_host.name,
            file_bytes=file_bytes,
            flow_id=self.flow_id,
            deadline_s=None,
        )

    def start(self, at: float = 0.0) -> None:
        delay = max(0.0, at - self.clock.now)
        self.clock.schedule(delay, self.sender.start)
