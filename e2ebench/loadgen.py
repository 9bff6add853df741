"""Open-loop HTTP load generator over a few keep-alive connections.

Request ``i`` is due at ``start + i / rate`` and is sent on connection
``lanes[i]``.  The scheduler issues it at its due time whether or not
earlier requests were answered; if its connection is busy (one request
in flight per connection, as an HTTP/1.1 client without pipelining) it
waits in that connection's queue.  A slow server therefore receives the
same offered load as a fast one, and the queues can grow.  Every
latency is measured from the request's *due* time, so a stall also
charges the wait it imposes on every later request; how late the
scheduler itself issued each request is recorded separately.

Each request has a deadline of ``deadline`` seconds after it was sent,
as a client's request timeout has.  A request that is not answered with
a ``200`` by then fails — it is never waited for beyond that — and the
client drops the connection and reconnects.  Failures count against the
requests attempted.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple


@dataclass
class Outcome:
    """One request: when it was due, issued, sent and answered (``nan`` if never)."""

    due: float
    issued: float = math.nan
    sent: float = math.nan
    done: float = math.nan
    status: int = 0
    body: bytes = b""
    error: str = ""

    def latency(self) -> float:
        """Seconds from due time to answer (``inf`` if unanswered)."""
        return self.done - self.due if self.done == self.done else math.inf

    @property
    def failed(self) -> bool:
        return bool(self.error) or self.status != 200


@dataclass
class StepResult:
    """One rate step of the open loop."""

    rate: float
    outcomes: List[Outcome] = field(default_factory=list)
    #: Requests issued but unanswered when the last measured one was issued.
    backlog_end: int = 0

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(outcome.failed for outcome in self.outcomes)

    def latencies(self) -> List[float]:
        """Per-request latency (s) from due time; a failed request counts as ``inf``."""
        return [math.inf if outcome.failed else outcome.latency() for outcome in self.outcomes]

    def lateness(self) -> List[float]:
        """Seconds the scheduler issued each request after its due time."""
        return [outcome.issued - outcome.due for outcome in self.outcomes]


def http_request(body: bytes, host: str) -> bytes:
    """A keep-alive ``POST /predict`` request carrying a JSON body."""
    head = (
        f"POST /predict HTTP/1.1\r\nHost: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nConnection: keep-alive\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def read_response(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    """One HTTP/1.1 response with a ``Content-Length`` body: (status, body)."""
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("connection closed by the server")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    return status, await reader.readexactly(length)


class Client:
    """One keep-alive connection, reopened after a failure."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def exchange(self, request: bytes) -> Tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
        self.writer.write(request)
        return await read_response(self.reader)

    async def close(self) -> None:
        writer, self.reader, self.writer = self.writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


async def open_loop(
    host: str,
    port: int,
    bodies: Sequence[bytes],
    lanes: Sequence[int],
    rate: float,
    deadline: float = 1.0,
    measured: Optional[int] = None,
) -> StepResult:
    """Issue ``bodies`` open-loop at ``rate`` requests/s and collect the answers.

    Request ``i`` goes out on connection ``lanes[i]``.  Only the first
    ``measured`` requests (default: all) are recorded.  The rest are the
    traffic that goes on after a measurement window in an open system:
    they follow the same schedule, but only until every recorded request
    is answered or past its deadline, and are then abandoned.  Returns
    at that point.
    """
    measured = len(bodies) if measured is None else measured
    step = StepResult(rate=rate)
    issued: List[Outcome] = []
    queues: List["asyncio.Queue[int]"] = [asyncio.Queue() for _ in range(max(lanes) + 1)]
    resolved = asyncio.Event()
    unresolved = measured

    async def worker(client: Client, queue: "asyncio.Queue[int]") -> None:
        nonlocal unresolved
        while True:
            index = await queue.get()
            outcome = issued[index]
            try:
                outcome.sent = time.perf_counter()
                outcome.status, outcome.body = await asyncio.wait_for(
                    client.exchange(http_request(bodies[index], host)), deadline
                )
                outcome.done = time.perf_counter()
            except asyncio.TimeoutError:
                outcome.error = "no answer before the deadline"
                await client.close()
            except (OSError, asyncio.IncompleteReadError, ValueError, IndexError) as error:
                outcome.error = f"{type(error).__name__}: {error}"
                await client.close()
            finally:
                if index < measured:
                    unresolved -= 1
                    if not unresolved:
                        resolved.set()

    clients = [Client(host, port) for _ in queues]
    workers = [asyncio.ensure_future(worker(client, queue)) for client, queue in zip(clients, queues)]
    try:
        start = time.perf_counter() + 0.01
        for index in range(len(bodies)):
            if resolved.is_set():
                break
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            issued.append(Outcome(due=due, issued=time.perf_counter()))
            queues[lanes[index]].put_nowait(index)
            if index == measured - 1:
                step.backlog_end = sum(1 for seen in issued if not seen.error and seen.done != seen.done)
        # Every request resolves by its deadline once sent, so this ends.
        await resolved.wait()
    finally:
        # Cancel until every worker has stopped: before Python 3.12,
        # ``wait_for`` swallows a cancel that lands as its call completes.
        while not all(task.done() for task in workers):
            for task in workers:
                task.cancel()
            await asyncio.wait(workers, timeout=0.1)
        for client in clients:
            await client.close()
    step.outcomes.extend(issued[:measured])
    return step
