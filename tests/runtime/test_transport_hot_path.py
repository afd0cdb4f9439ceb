"""Task-free message path: ack watchdog, ack bytes, no Task per message.

The transports move each message with callbacks and one Event, not with
an asyncio Task, timer or queue future per message.  These tests pin
the observable side of that design:

* the ack watchdog -- dead-peer detection only while frames are in
  flight -- reconnects and resends the unacked suffix, exhausts the
  retry budget into :class:`TransportRetriesExceeded`, and leaves an
  idle session connected;
* the listener's preformatted acks are byte-identical to
  :func:`write_frame`'s;
* the number of Tasks created does not grow with the message count, on
  :class:`LocalChannel` and on an established TCP session;
* a raising destination of a :class:`LocalChannel` fails the runtime.
"""

import asyncio
import io

import pytest

from repro.relational.delta import Delta
from repro.runtime import (
    AsyncRuntime,
    ChannelListener,
    LocalChannel,
    TcpChannel,
    TcpChannelConfig,
    TransportRetriesExceeded,
    WireCodec,
)
from repro.runtime.tcp import read_frame, write_frame
from repro.simulation.channel import Message
from repro.sources.messages import UpdateNotice


class Sink:
    def __init__(self):
        self.items = []

    def put(self, message):
        self.items.append(message)


def make_message(view, seq):
    return Message(
        "update",
        "R1",
        UpdateNotice(
            source_index=1,
            seq=seq,
            delta=Delta(view.schema_of(1), {(seq, seq): 1}),
            applied_at=float(seq),
        ),
    )


#: Small timeouts so a missing ack is noticed in a fraction of a second.
WATCHDOG = TcpChannelConfig(
    read_timeout=0.2,
    connect_timeout=0.5,
    max_retries=2,
    backoff_initial=0.01,
    backoff_max=0.02,
)


# ---------------------------------------------------------------------------
# The ack watchdog
# ---------------------------------------------------------------------------

def test_unacked_frames_trip_the_watchdog_and_exhaust_retries(paper_view):
    """A peer that welcomes but never acks: resend, then give up."""

    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        codec = WireCodec(paper_view)
        seen: list[int] = []
        sessions = 0

        async def never_ack(reader, writer):
            nonlocal sessions
            try:
                await read_frame(reader)  # hello
                sessions += 1
                if sessions == 2:
                    server.close()  # stop listening: reconnects now fail
                write_frame(writer, {"t": "welcome", "expect": 1, "codec": 1})
                await writer.drain()
                while True:
                    seen.append((await read_frame(reader))["seq"])
            except (asyncio.IncompleteReadError, ConnectionError):
                pass
            finally:
                writer.close()

        server = await asyncio.start_server(never_ack, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        channel = TcpChannel(
            runtime, "R1->wh", "127.0.0.1", port, codec, config=WATCHDOG
        )
        for seq in (1, 2, 3):
            channel.send(make_message(paper_view, seq))
        with pytest.raises(TransportRetriesExceeded, match="R1->wh"):
            await runtime.wait_until(lambda: False, timeout=10.0)
        await channel.aclose()
        await runtime.aclose()
        return seen, sessions

    seen, sessions = asyncio.run(main())
    assert sessions == 2
    # Both sessions carried the whole unacked suffix, in order.
    assert seen == [1, 2, 3, 1, 2, 3]


def test_idle_established_session_is_not_torn_down(paper_view):
    """Nothing in flight: the session outlives many read_timeouts."""

    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        codec = WireCodec(paper_view)
        sink = Sink()
        listener = ChannelListener(runtime)
        listener.register("R1->wh", sink, codec)
        await listener.start()
        channel = TcpChannel(
            runtime, "R1->wh", *listener.address, codec, config=WATCHDOG
        )
        channel.send(make_message(paper_view, 1))
        await channel.flush()
        await asyncio.sleep(4 * WATCHDOG.read_timeout)
        channel.send(make_message(paper_view, 2))
        await channel.flush()
        runtime.check()
        result = (
            channel.reconnects,
            listener.connections_accepted,
            [m.payload.seq for m in sink.items],
        )
        await channel.aclose()
        await listener.aclose()
        await runtime.aclose()
        return result

    reconnects, connections, delivered = asyncio.run(main())
    assert reconnects == 0
    assert connections == 1
    assert delivered == [1, 2]


def test_listener_ack_bytes_match_write_frame(paper_view):
    """The preformatted acks are exactly what write_frame would emit."""

    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        codec = WireCodec(paper_view)
        listener = ChannelListener(runtime)
        listener.register("R1->wh", Sink(), codec)
        await listener.start()
        reader, writer = await asyncio.open_connection(*listener.address)
        write_frame(writer, {"t": "hello", "channel": "R1->wh", "next": 1})
        await writer.drain()
        assert (await read_frame(reader))["t"] == "welcome"
        acks = []
        for seq in (1, 2, 3):
            frame = {
                "t": "msg",
                "seq": seq,
                "m": codec.encode_message(make_message(paper_view, seq), 1),
            }
            write_frame(writer, frame)
            await writer.drain()
            expected = io.BytesIO()
            write_frame(expected, {"t": "ack", "seq": seq})
            ack = expected.getvalue()
            acks.append((await reader.readexactly(len(ack)), ack))
        writer.close()
        await listener.aclose()
        await runtime.aclose()
        return acks

    for got, expected in asyncio.run(main()):
        assert got == expected


# ---------------------------------------------------------------------------
# No Task per message
# ---------------------------------------------------------------------------

N_MESSAGES = 200


def _count_tasks(loop) -> list[int]:
    """Install a task factory that counts every Task the loop creates."""
    created = [0]

    def factory(loop, coro, **kwargs):
        created[0] += 1
        return asyncio.Task(coro, loop=loop, **kwargs)

    loop.set_task_factory(factory)
    return created


async def _send_one_per_tick(channel, view, first_seq):
    for seq in range(first_seq, first_seq + N_MESSAGES):
        channel.send(make_message(view, seq))
        await asyncio.sleep(0)
    await channel.flush()


def test_local_channel_creates_no_task_per_message(paper_view):
    async def main():
        created = _count_tasks(asyncio.get_running_loop())
        runtime = AsyncRuntime(time_scale=0.001)
        sink = Sink()
        channel = LocalChannel(runtime, "R1->wh", sink)
        before = created[0]
        await _send_one_per_tick(channel, paper_view, 1)
        during = created[0] - before
        runtime.check()
        await runtime.aclose()
        return during, len(sink.items)

    during, delivered = asyncio.run(main())
    assert delivered == N_MESSAGES
    assert during == 0


def test_tcp_session_creates_no_task_per_message(paper_view):
    async def main():
        created = _count_tasks(asyncio.get_running_loop())
        runtime = AsyncRuntime(time_scale=0.001)
        codec = WireCodec(paper_view)
        sink = Sink()
        listener = ChannelListener(runtime)
        listener.register("R1->wh", sink, codec)
        await listener.start()
        channel = TcpChannel(runtime, "R1->wh", *listener.address, codec)
        # Establish the session first: its handful of Tasks (writer, ack
        # reader, handshake, listener handler) is a per-session cost.
        channel.send(make_message(paper_view, 1))
        await channel.flush()
        before = created[0]
        await _send_one_per_tick(channel, paper_view, 2)
        during = created[0] - before
        runtime.check()
        connections = listener.connections_accepted
        await channel.aclose()
        await listener.aclose()
        await runtime.aclose()
        return during, len(sink.items), connections

    during, delivered, connections = asyncio.run(main())
    assert delivered == N_MESSAGES + 1
    assert connections == 1
    assert during == 0


def test_local_channel_destination_error_fails_the_runtime(paper_view):
    class Exploding:
        def put(self, message):
            raise RuntimeError("destination exploded")

    async def main():
        runtime = AsyncRuntime(time_scale=0.001)
        channel = LocalChannel(runtime, "R1->wh", Exploding())
        channel.send(make_message(paper_view, 1))
        with pytest.raises(RuntimeError, match="destination exploded"):
            await runtime.wait_until(lambda: False, timeout=5.0)
        await runtime.aclose()

    asyncio.run(main())
