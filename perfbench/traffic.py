"""Seeded service traffic, an in-process ASGI client and a closed loop.

Everything that shapes the replayed load lives here, so a change to the
program's load generator cannot move the numbers:

* :func:`request_stream` draws an endless, seeded sequence of request
  payloads for one client from the query templates (the template data
  itself is the program's, from :mod:`repro.loadgen.vocabulary`);
* :class:`InProcessServer` runs the ASGI app on its own event loop
  thread, drives its lifespan and performs HTTP exchanges without
  sockets, time-stamping the SSE ``ready`` frame and the end of each
  response;
* :meth:`InProcessServer.drive` runs closed-loop clients that each send
  their next request as soon as the previous one completed (zero think
  time) until a deadline.

The event loop's default executor copies the submitting context into
each job, as ``asyncio.to_thread`` does, so spans opened by a client
stay the parents of the work its request runs on executor threads.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import random
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterator

__all__ = [
    "Exchange",
    "InProcessServer",
    "parse_events",
    "request_stream",
]

#: Recency bounds a convergence request scans.
CONVERGENCE_BOUNDS = (0, 1, 2)
#: Requests per template in one deck, by ``(convergence, stream)``: about
#: 15% go to ``/v1/convergence`` and 40% ask for the SSE form.
DECK = {(False, False): 17, (False, True): 11, (True, False): 3, (True, True): 2}
#: Client-side limit on one exchange; a stall beyond it is a failure.
CLIENT_TIMEOUT_S = 60.0


def request_stream(
    seed: int, client: int, templates: tuple, fresh_share: float = 0.0, fresh_tag: int = 0
) -> Iterator[tuple[str, dict]]:
    """Endless ``(path, payload)`` requests for one client.

    Requests are dealt from a deck holding every template in every
    :data:`DECK` form, reshuffled each time it runs out by the client's
    generator ``Random("perfbench:<seed>:<client>")`` (string seeds hash
    the same in every process).  Dealing instead of drawing keeps the
    share of expensive requests the same for every seed, so the seed
    changes the order of the load but not its mix.  With
    ``fresh_share``, that share of each deck (positions the generator
    picks) carries a ``max_configurations`` never used before, which
    makes it a new query for a result store without changing its
    verdict; streams with another ``fresh_tag`` or client never repeat
    each other's.
    """
    rng = random.Random(f"perfbench:{seed}:{client}")
    deck = [
        (template, convergence, stream)
        for template in templates
        for (convergence, stream), count in DECK.items()
        for _ in range(count)
    ]
    fresh, fresh_per_deck = 0, round(fresh_share * len(deck))
    while True:
        rng.shuffle(deck)
        fresh_at = set(rng.sample(range(len(deck)), fresh_per_deck))
        for position, (template, convergence, stream) in enumerate(deck):
            payload = template.payload()
            if position in fresh_at:
                fresh += 1
                payload["max_configurations"] = (
                    1_000_000 * (1 + fresh_tag) + 100_000 * client + fresh
                )
            if convergence:
                payload.pop("bound", None)
                payload["bounds"] = list(CONVERGENCE_BOUNDS)
            if stream:
                payload["stream"] = True
            yield ("/v1/convergence" if convergence else "/v1/reachability"), payload


@dataclass
class Exchange:
    """One completed request as the client saw it."""

    path: str
    payload: dict
    status: int
    body: bytes
    started: float
    ended: float
    ready_at: float | None = None

    @property
    def latency(self) -> float:
        return self.ended - self.started


def parse_events(body: bytes) -> list[tuple[str, dict | None]]:
    """The ``(event, data)`` frames of an SSE body, in order."""
    events = []
    for frame in body.split(b"\n\n"):
        event, data = None, None
        for line in frame.decode("utf-8").splitlines():
            if line.startswith("event: "):
                event = line[len("event: "):]
            elif line.startswith("data: "):
                data = json.loads(line[len("data: "):])
        if event is not None:
            events.append((event, data))
    return events


class _ContextExecutor(ThreadPoolExecutor):
    """A thread pool running each job in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class InProcessServer:
    """An ASGI app served on a private event loop thread (see module docs)."""

    def __init__(self, app) -> None:
        self._app = app
        self._loop = asyncio.new_event_loop()
        self._executor = _ContextExecutor(thread_name_prefix="perfbench-asgi")
        self._loop.set_default_executor(self._executor)
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="perfbench-loop", daemon=True
        )
        self._lifespan_in: asyncio.Queue | None = None
        self._lifespan_out: asyncio.Queue | None = None
        self._lifespan_task = None

    def _run(self, coroutine, timeout: float = CLIENT_TIMEOUT_S):
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result(timeout)

    def start(self) -> None:
        """Start the loop and run the app's lifespan startup."""
        self._thread.start()

        async def startup():
            self._lifespan_in, self._lifespan_out = asyncio.Queue(), asyncio.Queue()
            self._lifespan_task = asyncio.ensure_future(
                self._app({"type": "lifespan"}, self._lifespan_in.get, self._lifespan_out.put)
            )
            await self._lifespan_in.put({"type": "lifespan.startup"})
            return await self._lifespan_out.get()

        message = self._run(startup())
        if message["type"] != "lifespan.startup.complete":
            self.close()
            raise RuntimeError(f"app startup failed: {message}")

    def close(self) -> None:
        """Run lifespan shutdown, stop the loop and join every thread (idempotent)."""
        if self._loop.is_closed():
            return
        if self._thread.is_alive():
            if self._lifespan_task is not None:

                async def shutdown():
                    await self._lifespan_in.put({"type": "lifespan.shutdown"})
                    message = await self._lifespan_out.get()
                    await self._lifespan_task
                    return message

                self._run(shutdown())
                self._lifespan_task = None
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join()
        self._executor.shutdown(wait=True)
        self._loop.close()

    def request(self, path: str, payload: dict) -> Exchange:
        """POST ``payload`` as JSON to ``path`` and wait for the whole reply."""
        return self._run(self._exchange(path, payload))

    async def _exchange(self, path: str, payload: dict) -> Exchange:
        body = json.dumps(payload).encode("utf-8")
        scope = {
            "type": "http",
            "asgi": {"version": "3.0"},
            "http_version": "1.1",
            "method": "POST",
            "scheme": "http",
            "path": path,
            "raw_path": path.encode("ascii"),
            "query_string": b"",
            "headers": [(b"content-type", b"application/json")],
            "client": ("127.0.0.1", 0),
            "server": ("127.0.0.1", 0),
        }
        exchange = Exchange(path, payload, 0, b"", perf_counter(), 0.0)
        chunks: list[bytes] = []
        finished = asyncio.Event()
        delivered = False

        async def receive() -> dict:
            nonlocal delivered
            if not delivered:
                delivered = True
                return {"type": "http.request", "body": body, "more_body": False}
            await finished.wait()
            return {"type": "http.disconnect"}

        async def send(message: dict) -> None:
            if message["type"] == "http.response.start":
                exchange.status = message["status"]
                return
            chunk = message.get("body", b"")
            if chunk:
                if exchange.ready_at is None and b"event: ready" in chunk:
                    exchange.ready_at = perf_counter()
                chunks.append(chunk)
            if not message.get("more_body"):
                exchange.ended = perf_counter()
                finished.set()

        await self._app(scope, receive, send)
        exchange.body = b"".join(chunks)
        if not exchange.ended:
            exchange.ended = perf_counter()
        return exchange

    def drive(
        self,
        streams: list[Iterator[tuple[str, dict]]],
        seconds: float,
        record: Callable[[Exchange | tuple[str, dict, str]], None],
        around: Callable[[], object] | None = None,
    ) -> tuple[float, float]:
        """Run one closed-loop client per stream until ``seconds`` pass.

        Clients are tasks on the server's own event loop, as an HTTP
        server's connections would be, so no client thread has to be
        woken between a reply and the next request.  Each client sends
        its next request as soon as the previous reply is complete and
        hands the exchange — or ``(path, payload, error)`` for a request
        that exceeded :data:`CLIENT_TIMEOUT_S` — to ``record``.
        ``around`` returns a context manager wrapped around each request
        (the traced run opens a root span with it).  Returns the times
        of the first send and of the last reply.
        """

        async def client(stream, deadline: float) -> None:
            for path, payload in stream:
                if perf_counter() >= deadline:
                    return
                try:
                    if around is None:
                        exchange = await asyncio.wait_for(self._exchange(path, payload),
                                                          CLIENT_TIMEOUT_S)
                    else:
                        with around():
                            exchange = await asyncio.wait_for(self._exchange(path, payload),
                                                              CLIENT_TIMEOUT_S)
                except asyncio.TimeoutError as error:
                    exchange = (path, payload, f"client:{type(error).__name__}")
                record(exchange)

        async def clients() -> tuple[float, float]:
            started = perf_counter()
            await asyncio.gather(*(client(stream, started + seconds) for stream in streams))
            return started, perf_counter()

        return self._run(clients(), timeout=seconds + 2 * CLIENT_TIMEOUT_S)
