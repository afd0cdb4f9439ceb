"""Transport channels: the runtime's stand-ins for simulator channels.

A transport channel duck-types :class:`repro.simulation.channel.Channel`:
protocol code calls the synchronous ``send(message)`` and the channel
guarantees reliable FIFO delivery into the destination mailbox -- the one
communication assumption the paper's correctness argument needs
(Section 2).  Two implementations ship:

* :class:`LocalChannel` -- an in-process bounded FIFO drained by one
  scheduled callback (no Task, no queue future per message); and
* :class:`repro.runtime.tcp.TcpChannel` -- length-prefixed JSON frames over
  a TCP session with sequence numbers, acknowledgements and reconnect.

Both apply **backpressure** with a bounded send queue: ``send`` raises
:class:`TransportOverflowError` when the bound is hit, and pacing producers
``await channel.drain()`` to stay below the high-water mark (protocol
traffic is self-limiting; only workload injectors need to pace).
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import TYPE_CHECKING

from repro.runtime.errors import TransportOverflowError
from repro.simulation.channel import Message
from repro.simulation.metrics import MetricsCollector

if TYPE_CHECKING:
    from repro.runtime.kernel import AsyncRuntime
    from repro.simulation.mailbox import Mailbox


class RuntimeChannel:
    """Shared accounting for transport channels (metrics + FIFO contract)."""

    def __init__(
        self,
        runtime: "AsyncRuntime",
        name: str,
        metrics: MetricsCollector | None = None,
        max_queue: int = 1024,
    ):
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.runtime = runtime
        self.name = name
        self.metrics = metrics
        self.max_queue = max_queue
        self.sent_count = 0

    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Enqueue ``message`` for reliable FIFO delivery (synchronous)."""
        raise NotImplementedError

    @property
    def idle(self) -> bool:
        """True when no sent message is still queued or in flight."""
        raise NotImplementedError

    @property
    def queued(self) -> int:
        """Messages accepted by ``send`` but not yet delivered/acked."""
        raise NotImplementedError

    async def drain(self, below: int | None = None) -> None:
        """Wait until the send queue holds fewer than ``below`` messages.

        Defaults to half the bound -- the pacing hook for producers that
        could otherwise outrun the network.
        """
        limit = below if below is not None else max(1, self.max_queue // 2)
        while self.queued >= limit:
            self.runtime.check()
            await asyncio.sleep(0.001)

    async def flush(self, timeout: float = 30.0) -> None:
        """Wait (wall seconds) until every accepted message was delivered."""
        await self.runtime.wait_until(
            lambda: self.idle, timeout=timeout, stable_polls=1
        )

    async def aclose(self) -> None:
        """Release transport resources (idempotent)."""

    # ------------------------------------------------------------------
    def _account(self, message: Message) -> None:
        message.sent_at = self.runtime.now
        self.sent_count += 1
        if self.metrics is not None:
            self.metrics.record_message(
                self.name, message.kind, message.payload_rows()
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, sent={self.sent_count})"


class LocalChannel(RuntimeChannel):
    """In-process transport: one bounded FIFO, one delivery callback.

    ``send`` appends to a deque and, unless one is already pending,
    schedules a single delivery callback through ``runtime.schedule``.
    That callback drains the whole deque in order, so a burst sent in
    one tick costs one callback, and a raising destination is recorded
    by the runtime like any failed scheduled callback.
    """

    def __init__(
        self,
        runtime: "AsyncRuntime",
        name: str,
        destination: "Mailbox",
        metrics: MetricsCollector | None = None,
        max_queue: int = 1024,
    ):
        super().__init__(runtime, name, metrics, max_queue)
        self.destination = destination
        self._queue: deque[Message] = deque()
        self._delivery_pending = False

    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        self._account(message)
        if len(self._queue) >= self.max_queue:
            raise TransportOverflowError(
                f"channel {self.name!r}: bounded send queue full"
                f" ({self.max_queue} messages); pace the producer with drain()"
            )
        self._queue.append(message)
        if not self._delivery_pending:
            self._delivery_pending = True
            self.runtime.schedule(0.0, self._deliver)

    @property
    def idle(self) -> bool:
        return not self._queue

    @property
    def queued(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    def _deliver(self) -> None:
        self._delivery_pending = False
        queue = self._queue
        now = self.runtime.now
        while queue:
            message = queue.popleft()
            message.delivered_at = now
            self.destination.put(message)


__all__ = ["LocalChannel", "RuntimeChannel"]
