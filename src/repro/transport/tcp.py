"""A Reno-style TCP for the packet-level simulator.

The paper's legitimate users are TCP senders (long-running file transfers,
repeated 20 KB transfers, or web-like workloads).  The behaviours that matter
for reproducing the evaluation are implemented faithfully:

* three-way handshake with an initial 1 s SYN retransmission timeout,
  exponential backoff, and at most nine retransmissions (§6.3.1);
* slow start / congestion avoidance / fast retransmit / retransmission
  timeouts (enough congestion control for AIMD-vs-rate-limiter interaction);
* a per-transfer deadline (200 s in the paper) after which the transfer is
  aborted;
* cumulative ACKs so the NetFence end-host shim can piggyback returned
  congestion policing feedback on the reverse path (§3.1, step 4).

Sequence numbers are in MSS-sized segments rather than bytes, which keeps the
implementation compact without changing any of the dynamics the experiments
measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Optional, Set

from repro.simulator.node import Host
from repro.simulator.packet import ACK_PACKET_SIZE, Packet, PacketType
from repro.simulator.trace import ThroughputMonitor

if TYPE_CHECKING:
    from repro.runtime.clock import Clock, ClockHandle

#: Maximum segment size (payload bytes per data packet).
MSS = 1460
#: Data packet size on the wire (MSS + 40 B TCP/IP header).
DATA_SEGMENT_SIZE = MSS + 40
#: Control packet (SYN / SYN-ACK / ACK) size.
CONTROL_SIZE = ACK_PACKET_SIZE


class TcpState(Enum):
    CLOSED = "closed"
    SYN_SENT = "syn_sent"
    ESTABLISHED = "established"
    COMPLETED = "completed"
    ABORTED = "aborted"


@dataclass
class TcpHeader:
    """The transport header carried in ``packet.headers["tcp"]``."""

    kind: str  # "syn", "syn_ack", "data", "ack", "fin"
    seq: int = 0
    ack: int = 0


@dataclass
class TcpTransferResult:
    """Outcome of one TCP file transfer."""

    flow_id: str
    src: str
    dst: str
    file_bytes: int
    start_time: float
    end_time: Optional[float] = None
    completed: bool = False
    abort_reason: Optional[str] = None
    syn_retries: int = 0
    retransmissions: int = 0

    @property
    def duration(self) -> Optional[float]:
        if self.end_time is None:
            return None
        return self.end_time - self.start_time


class TcpReceiver:
    """The passive side of a TCP connection.

    Responds to SYNs with SYN-ACKs and to data segments with cumulative ACKs.
    Out-of-order segments are buffered (as a set of received sequence
    numbers) so a single loss does not stall the connection.
    """

    def __init__(
        self,
        clock: Clock,
        host: Host,
        flow_id: str,
        monitor: Optional[ThroughputMonitor] = None,
    ) -> None:
        self.clock = clock
        self.host = host
        self.flow_id = flow_id
        self.monitor = monitor
        self.next_expected = 1
        self.received: Set[int] = set()
        self.data_packets = 0
        self.bytes_received = 0
        host.add_agent(flow_id, self)

    def on_packet(self, packet: Packet) -> None:
        header: Optional[TcpHeader] = packet.get_header("tcp")
        if header is None:
            return
        if header.kind == "syn":
            self._send_control("syn_ack", ack=1)
        elif header.kind == "data":
            self.data_packets += 1
            self.bytes_received += packet.size_bytes
            if self.monitor is not None:
                self.monitor.record(packet)
            if header.seq >= self.next_expected:
                self.received.add(header.seq)
            while self.next_expected in self.received:
                self.received.discard(self.next_expected)
                self.next_expected += 1
            self._send_control("ack", ack=self.next_expected)

    def _send_control(self, kind: str, ack: int) -> None:
        packet = Packet(
            src=self.host.name,
            dst=self._peer,
            size_bytes=CONTROL_SIZE,
            ptype=PacketType.REGULAR,
            flow_id=self.flow_id,
            protocol="tcp",
        )
        packet.set_header("tcp", TcpHeader(kind=kind, ack=ack))
        self.host.send(packet)

    @property
    def _peer(self) -> str:
        # flow ids are "tcp:<src>-><dst>:<n>"
        try:
            middle = self.flow_id.split(":", 2)[1]
            return middle.split("->")[0]
        except (IndexError, ValueError):  # pragma: no cover - defensive
            raise RuntimeError(f"cannot derive peer from flow id {self.flow_id!r}")


class TcpSender:
    """The active side: connects, sends ``file_bytes``, reports the result."""

    INITIAL_SYN_TIMEOUT = 1.0
    MAX_SYN_RETRIES = 9
    MIN_RTO = 0.2
    MAX_RTO = 60.0
    INITIAL_SSTHRESH = 64.0

    def __init__(
        self,
        clock: Clock,
        host: Host,
        dst: str,
        file_bytes: int,
        flow_id: str,
        deadline_s: Optional[float] = 200.0,
        on_complete: Optional[Callable[[TcpTransferResult], None]] = None,
    ) -> None:
        if file_bytes <= 0:
            raise ValueError("file_bytes must be positive")
        self.clock = clock
        self.host = host
        self.dst = dst
        self.file_bytes = file_bytes
        self.flow_id = flow_id
        self.deadline_s = deadline_s
        self.on_complete = on_complete
        self.total_segments = max(1, math.ceil(file_bytes / MSS))

        self.state = TcpState.CLOSED
        self.result = TcpTransferResult(
            flow_id=flow_id, src=host.name, dst=dst,
            file_bytes=file_bytes, start_time=clock.now,
        )

        # Congestion control state (segments).
        self.cwnd = 1.0
        self.ssthresh = self.INITIAL_SSTHRESH
        self.snd_una = 1
        self.snd_next = 1
        self.dupacks = 0

        # RTT estimation (RFC 6298 style).
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.rto = 1.0
        self._timed_seq: Optional[int] = None
        self._timed_at = 0.0

        self._syn_retries = 0
        self._syn_timer: Optional[ClockHandle] = None
        self._rto_timer: Optional[ClockHandle] = None
        self._deadline_timer: Optional[ClockHandle] = None

        host.add_agent(flow_id, self)

    # -- public API -----------------------------------------------------------
    def start(self) -> None:
        """Open the connection and begin the transfer."""
        if self.state is not TcpState.CLOSED:
            raise RuntimeError("sender already started")
        self.result.start_time = self.clock.now
        self.state = TcpState.SYN_SENT
        if self.deadline_s is not None:
            self._deadline_timer = self.clock.schedule(self.deadline_s, self._on_deadline)
        self._send_syn()

    @property
    def finished(self) -> bool:
        return self.state in (TcpState.COMPLETED, TcpState.ABORTED)

    # -- connection setup -------------------------------------------------------
    def _send_syn(self) -> None:
        packet = Packet(
            src=self.host.name,
            dst=self.dst,
            size_bytes=CONTROL_SIZE,
            ptype=PacketType.REQUEST,
            flow_id=self.flow_id,
            protocol="tcp",
        )
        packet.set_header("tcp", TcpHeader(kind="syn", seq=0))
        self.host.send(packet)
        timeout = self.INITIAL_SYN_TIMEOUT * (2 ** self._syn_retries)
        self._syn_timer = self.clock.schedule(timeout, self._on_syn_timeout)

    def _on_syn_timeout(self) -> None:
        if self.state is not TcpState.SYN_SENT:
            return
        self._syn_retries += 1
        self.result.syn_retries = self._syn_retries
        if self._syn_retries > self.MAX_SYN_RETRIES:
            self._abort("syn_retries_exhausted")
            return
        self._send_syn()

    # -- data transfer ------------------------------------------------------------
    def _send_data(self, seq: int, retransmit: bool = False) -> None:
        last = seq == self.total_segments
        payload = self.file_bytes - (self.total_segments - 1) * MSS if last else MSS
        packet = Packet(
            src=self.host.name,
            dst=self.dst,
            size_bytes=payload + 40,
            ptype=PacketType.REGULAR,
            flow_id=self.flow_id,
            protocol="tcp",
        )
        packet.set_header("tcp", TcpHeader(kind="data", seq=seq))
        if retransmit:
            self.result.retransmissions += 1
        elif self._timed_seq is None:
            self._timed_seq = seq
            self._timed_at = self.clock.now
        self.host.send(packet)

    def _fill_window(self) -> None:
        while (
            self.snd_next <= self.total_segments
            and (self.snd_next - self.snd_una) < self.cwnd
        ):
            self._send_data(self.snd_next)
            self.snd_next += 1
        self._arm_rto()

    # -- inbound packets -------------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        header: Optional[TcpHeader] = packet.get_header("tcp")
        if header is None or self.finished:
            return
        if header.kind == "syn_ack":
            self._on_syn_ack()
        elif header.kind == "ack":
            self._on_ack(header.ack)

    def _on_syn_ack(self) -> None:
        if self.state is not TcpState.SYN_SENT:
            return
        self.state = TcpState.ESTABLISHED
        if self._syn_timer is not None:
            self._syn_timer.cancel()
            self._syn_timer = None
        self._fill_window()

    def _on_ack(self, ack: int) -> None:
        if self.state is not TcpState.ESTABLISHED:
            return
        if ack > self.snd_una:
            newly_acked = ack - self.snd_una
            self.snd_una = ack
            self.dupacks = 0
            self._update_rtt(ack)
            self._grow_cwnd(newly_acked)
            if self.snd_una > self.total_segments:
                self._complete()
                return
            self._arm_rto(restart=True)
            self._fill_window()
        elif ack == self.snd_una:
            self.dupacks += 1
            if self.dupacks == 3:
                # Fast retransmit + (simplified) fast recovery.
                self.ssthresh = max(self.cwnd / 2.0, 2.0)
                self.cwnd = self.ssthresh
                self.dupacks = 0
                self._send_data(self.snd_una, retransmit=True)
                self._arm_rto(restart=True)

    # -- congestion control -------------------------------------------------------------
    def _grow_cwnd(self, newly_acked: int) -> None:
        for _ in range(newly_acked):
            if self.cwnd < self.ssthresh:
                self.cwnd += 1.0
            else:
                self.cwnd += 1.0 / self.cwnd

    def _update_rtt(self, ack: int) -> None:
        if self._timed_seq is None or ack <= self._timed_seq:
            return
        sample = self.clock.now - self._timed_at
        self._timed_seq = None
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = min(max(self.srtt + 4 * self.rttvar, self.MIN_RTO), self.MAX_RTO)

    # -- timers ------------------------------------------------------------------
    def _arm_rto(self, restart: bool = False) -> None:
        if self._rto_timer is not None:
            if not restart:
                return
            self._rto_timer.cancel()
        if self.snd_una > self.total_segments:
            self._rto_timer = None
            return
        self._rto_timer = self.clock.schedule(self.rto, self._on_rto)

    def _on_rto(self) -> None:
        if self.state is not TcpState.ESTABLISHED or self.finished:
            return
        # Timeout: multiplicative backoff, shrink to one segment, go-back-N.
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = 1.0
        self.dupacks = 0
        self.rto = min(self.rto * 2.0, self.MAX_RTO)
        self.snd_next = self.snd_una
        self._timed_seq = None
        self._send_data(self.snd_una, retransmit=True)
        self.snd_next = self.snd_una + 1
        self._rto_timer = self.clock.schedule(self.rto, self._on_rto)

    def _on_deadline(self) -> None:
        if not self.finished:
            self._abort("deadline_exceeded")

    # -- termination --------------------------------------------------------------
    def _cancel_timers(self) -> None:
        for timer in (self._syn_timer, self._rto_timer, self._deadline_timer):
            if timer is not None:
                timer.cancel()
        self._syn_timer = self._rto_timer = self._deadline_timer = None

    def _complete(self) -> None:
        self.state = TcpState.COMPLETED
        self._cancel_timers()
        self.result.completed = True
        self.result.end_time = self.clock.now
        if self.on_complete is not None:
            self.on_complete(self.result)

    def _abort(self, reason: str) -> None:
        self.state = TcpState.ABORTED
        self._cancel_timers()
        self.result.completed = False
        self.result.abort_reason = reason
        self.result.end_time = self.clock.now
        if self.on_complete is not None:
            self.on_complete(self.result)
