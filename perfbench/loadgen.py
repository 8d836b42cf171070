"""Open-loop feed-poll generator.

Requests are due on a fixed schedule (``rate`` per second, alternating
over the keep-alive connections) and are written, pipelined, as soon as
they fall due, whether or not earlier polls were answered. Each poll is
timed from its due time to the arrival of its response, so a server
stall is charged to every poll queued behind it. The generator also
records how late it wrote each request: a step in which the generator
itself fell behind measures the generator, not the server, and is
reported as invalid.
"""

from __future__ import annotations

import random
import selectors
import socket
import time
from dataclasses import dataclass, field

#: Production poll mix per 100 requests, as in benchmarks/bench_feed_serving.py:
#: conditional polls that find nothing new, one-behind deltas, cold fulls.
MIX_NOT_MODIFIED = 90
MIX_DELTA = 9
MIX_FULL = 1

#: Seconds a step waits after its last due time for outstanding responses.
DRAIN_GRACE_S = 1.0


def request_mix(latest_version: int, latest_hash: str, seed: int) -> list[bytes]:
    """100 request byte strings in a seeded order, in the production mix."""
    etag = (
        b"GET /v1/feed HTTP/1.1\r\nHost: bench\r\nIf-None-Match: "
        + latest_hash.encode() + b"\r\n\r\n"
    )
    delta = (
        b"GET /v1/feed?since=" + str(latest_version - 1).encode()
        + b" HTTP/1.1\r\nHost: bench\r\n\r\n"
    )
    full = b"GET /v1/feed HTTP/1.1\r\nHost: bench\r\n\r\n"
    mix = [etag] * MIX_NOT_MODIFIED + [delta] * MIX_DELTA + [full] * MIX_FULL
    random.Random(seed).shuffle(mix)
    return mix


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (inf for an empty list)."""
    if not values:
        return float("inf")
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered) + 0.5) - 1))
    return ordered[rank]


@dataclass
class StepResult:
    rate: float
    attempted: int
    #: Latency in ms of every answered poll, from its due time.
    latencies_ms: list[float] = field(default_factory=list)
    #: How late (ms) each request was written after its due time.
    late_ms: list[float] = field(default_factory=list)
    #: Latencies (ms) by HTTP status of the response.
    by_status: dict[int, list[float]] = field(default_factory=dict)
    failed: int = 0
    #: Polls still unanswered when the last request fell due.
    backlog_at_end: int = 0
    #: Seconds from the first due time to the last response.
    wall_s: float = 0.0

    @property
    def statuses(self) -> dict[int, int]:
        return {status: len(values) for status, values in self.by_status.items()}

    @property
    def answered(self) -> int:
        return len(self.latencies_ms)

    def p(self, fraction: float) -> float:
        """Latency percentile in ms; failed polls count as infinitely late."""
        values = self.latencies_ms + [float("inf")] * self.failed
        return percentile(values, fraction)

    @property
    def achieved_rps(self) -> float:
        return self.answered / self.wall_s if self.wall_s else 0.0


class _Conn:
    """One pipelined keep-alive connection and its response parser."""

    __slots__ = ("sock", "outbuf", "inbuf", "pending", "dead")

    def __init__(self, address: tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.outbuf = bytearray()
        self.inbuf = bytearray()
        #: Due times of requests written and not yet answered, FIFO.
        self.pending: list[float] = []
        self.dead = False

    def flush(self) -> None:
        while self.outbuf:
            try:
                sent = self.sock.send(self.outbuf)
            except BlockingIOError:
                return
            del self.outbuf[:sent]

    def receive(self, step: StepResult) -> None:
        """Read what is available and account each complete response."""
        while True:
            try:
                chunk = self.sock.recv(1 << 20)
            except BlockingIOError:
                break
            if not chunk:
                self.dead = True
                break
            self.inbuf += chunk
            if len(chunk) < (1 << 20):
                break
        arrived = time.perf_counter()
        buffer = self.inbuf
        offset = 0
        answered = 0
        while True:
            head_end = buffer.find(b"\r\n\r\n", offset)
            if head_end < 0:
                break
            length_at = buffer.find(b"Content-Length: ", offset, head_end)
            line_end = buffer.find(b"\r\n", length_at)
            length = int(buffer[length_at + 16:line_end])
            body_end = head_end + 4 + length
            if body_end > len(buffer):
                break
            status = int(buffer[offset + 9:offset + 12])
            latency = (arrived - self.pending[answered]) * 1000.0
            step.latencies_ms.append(latency)
            step.by_status.setdefault(status, []).append(latency)
            answered += 1
            offset = body_end
        if offset:
            del buffer[:offset]
        if answered:
            del self.pending[:answered]

    def close(self) -> None:
        self.sock.close()


def run_step(
    address: tuple[str, int],
    mix: list[bytes],
    rate: float,
    duration_s: float,
    connections: int = 2,
) -> StepResult:
    """Poll at ``rate`` per second for ``duration_s`` seconds, open loop."""
    total = int(rate * duration_s)
    step = StepResult(rate=rate, attempted=total)
    conns = [_Conn(address) for _ in range(connections)]
    selector = selectors.DefaultSelector()
    for conn in conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    interval = 1.0 / rate
    mix_len = len(mix)
    started = time.perf_counter()
    deadline = started + duration_s + DRAIN_GRACE_S
    next_index = 0
    schedule_done = False
    late_ms = step.late_ms
    try:
        while True:
            now = time.perf_counter()
            while next_index < total:
                due = started + next_index * interval
                if due > now:
                    break
                conn = conns[next_index % connections]
                conn.outbuf += mix[next_index % mix_len]
                conn.pending.append(due)
                late_ms.append((now - due) * 1000.0)
                next_index += 1
            for conn in conns:
                if conn.outbuf and not conn.dead:
                    conn.flush()
            if next_index >= total:
                outstanding = sum(len(conn.pending) for conn in conns)
                if not schedule_done:
                    schedule_done = True
                    step.backlog_at_end = outstanding
                if outstanding == 0 or now >= deadline or all(c.dead for c in conns):
                    break
                timeout = min(0.05, deadline - now)
            else:
                # Spin rather than sleep until the next due time: waking a
                # sleeping thread costs more than the gap between polls.
                timeout = 0.0
            for key, _ in selector.select(timeout):
                key.data.receive(step)
    finally:
        for conn in conns:
            step.failed += len(conn.pending)
            selector.unregister(conn.sock)
            conn.close()
        selector.close()
    step.wall_s = time.perf_counter() - started
    return step


def http_get(address: tuple[str, int], target: str, timeout: float = 10.0) -> tuple[int, bytes]:
    """One plain GET on a fresh connection: (status, body)."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(
            f"GET {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n".encode()
        )
        data = bytearray()
        while True:
            head_end = data.find(b"\r\n\r\n")
            if head_end >= 0:
                length_at = data.find(b"Content-Length: ", 0, head_end)
                line_end = data.find(b"\r\n", length_at)
                length = int(data[length_at + 16:line_end])
                if len(data) >= head_end + 4 + length:
                    return int(data[9:12]), bytes(data[head_end + 4:head_end + 4 + length])
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed before a full response")
            data += chunk
