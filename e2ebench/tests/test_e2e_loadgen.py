"""Open-loop timing and failure counting against stub HTTP servers."""

import asyncio
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from loadgen import open_loop  # noqa: E402


class StubServer:
    """Answers each POST with ``{"n": <body n>}`` after ``delay`` seconds.

    Requests whose ``n`` is in ``drop`` are never answered (the handler
    stalls, as a stranded request does); those in ``hang_up`` get the
    connection closed instead of an answer.
    """

    def __init__(self, delay=0.0, drop=(), hang_up=()):
        self.delay = delay
        self.drop = set(drop)
        self.hang_up = set(hang_up)
        self.connections = 0
        self.server = None

    async def handle(self, reader, writer):
        self.connections += 1
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                length = 0
                while True:
                    header = await reader.readline()
                    if header in (b"\r\n", b""):
                        break
                    name, _, value = header.decode().partition(":")
                    if name.lower() == "content-length":
                        length = int(value)
                n = json.loads(await reader.readexactly(length))["n"]
                if n in self.hang_up:
                    return
                if n in self.drop:
                    await asyncio.sleep(3600)
                await asyncio.sleep(self.delay)
                body = json.dumps({"n": n}).encode()
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body) + body)
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.CancelledError):
            pass
        finally:
            writer.close()

    async def __aenter__(self):
        self.server = await asyncio.start_server(self.handle, "127.0.0.1", 0)
        return self.server.sockets[0].getsockname()[1]

    async def __aexit__(self, *exc):
        self.server.close()


def bodies(count):
    return [json.dumps({"n": n}).encode() for n in range(count)]


def lanes(count, connections):
    return [n % connections for n in range(count)]


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, 30))


def test_latency_is_timed_from_the_due_time_so_queueing_counts():
    async def main():
        # One connection, a request every 10 ms, 40 ms per answer: the
        # client queue grows by 30 ms per request.
        async with StubServer(delay=0.040) as port:
            return await open_loop("127.0.0.1", port, bodies(8), lanes(8, 1), rate=100, deadline=5.0)

    step = run(main())
    assert step.attempted == 8 and step.failed == 0
    latencies = step.latencies()
    for index, outcome in enumerate(step.outcomes):
        assert json.loads(outcome.body) == {"n": index}
        assert abs(outcome.due - (step.outcomes[0].due + index * 0.010)) < 1e-9
        # Latency counts the wait in the client queue, not just the exchange.
        assert latencies[index] >= outcome.done - outcome.sent
    assert latencies[-1] - (step.outcomes[-1].done - step.outcomes[-1].sent) > 0.15
    assert latencies[-1] > latencies[0] + 0.15


def test_generator_lateness_is_recorded_and_charged_to_latency():
    async def main():
        async with StubServer() as port:
            loop = asyncio.get_running_loop()
            # Block the event loop 150 ms into the step: requests due
            # meanwhile are issued late.
            loop.call_later(0.055, time.sleep, 0.150)
            return await open_loop("127.0.0.1", port, bodies(20), lanes(20, 2), rate=100, deadline=5.0)

    step = run(main())
    assert step.failed == 0
    lateness = step.lateness()
    assert max(lateness) > 0.1
    assert min(lateness) >= 0.0
    worst = max(range(len(lateness)), key=lateness.__getitem__)
    assert step.latencies()[worst] >= lateness[worst]


def test_a_dropped_response_fails_by_its_deadline_and_the_rest_complete():
    async def main():
        async with StubServer(drop={3}) as port:
            started = time.perf_counter()
            step = await open_loop("127.0.0.1", port, bodies(12), lanes(12, 2), rate=50, deadline=0.3)
            return step, time.perf_counter() - started

    step, elapsed = run(main())
    assert step.attempted == 12
    assert step.failed == 1
    assert step.outcomes[3].error and step.outcomes[3].failed
    assert [json.loads(o.body)["n"] for i, o in enumerate(step.outcomes) if i != 3] == [
        n for n in range(12) if n != 3
    ]
    # The step ends at the deadline: a lost answer is never a hang.
    assert elapsed < 0.3 + 12 / 50 + 1.0


def test_a_closed_connection_fails_its_request_and_the_client_reconnects():
    async def main():
        stub = StubServer(hang_up={2})
        async with stub as port:
            step = await open_loop("127.0.0.1", port, bodies(10), lanes(10, 1), rate=100, deadline=1.0)
        return step, stub.connections

    step, connections = run(main())
    assert step.failed == 1 and step.outcomes[2].error
    assert connections == 2


def test_the_deadline_runs_from_sending_so_queueing_alone_never_fails():
    async def main():
        # One connection, 50 ms per answer, a request every 10 ms: the
        # last requests wait far longer than the deadline in the queue,
        # but each is answered within it once sent.
        async with StubServer(delay=0.050) as port:
            return await open_loop("127.0.0.1", port, bodies(12), lanes(12, 1), rate=100, deadline=0.2)

    step = run(main())
    assert step.failed == 0
    assert max(step.latencies()) > 0.4
    assert step.backlog_end > 4


def test_each_request_goes_out_on_its_lane():
    async def main():
        # Request 0 never gets an answer on lane 0; lane 1 keeps going.
        async with StubServer(drop={0}) as port:
            return await open_loop("127.0.0.1", port, bodies(6), [0, 0, 1, 0, 1, 1], rate=100, deadline=0.3)

    step = run(main())
    assert [outcome.failed for outcome in step.outcomes] == [True, False, False, False, False, False]
    # Lane 0's queue waited behind the lost request; lane 1's did not.
    assert step.outcomes[1].sent - step.outcomes[1].due > 0.25
    assert step.outcomes[5].latency() < 0.1


def test_only_the_measured_requests_are_recorded_and_the_rest_stop_once_they_resolve():
    async def main():
        stub = StubServer(delay=0.005)
        async with stub as port:
            started = time.perf_counter()
            step = await open_loop("127.0.0.1", port, bodies(200), lanes(200, 2), rate=100, deadline=1.0, measured=10)
            return step, time.perf_counter() - started

    step, elapsed = run(main())
    assert step.attempted == 10 and step.failed == 0
    assert [json.loads(o.body)["n"] for o in step.outcomes] == list(range(10))
    # The trailing traffic ran only until the tenth answer, not for 2 s.
    assert elapsed < 0.5
