"""Load generation for in-process and wire targets, from one scheduler.

Two load modes share one target interface (``fire`` a request, ``drain``
the ones in flight):

* :func:`schedule` walks a seeded Poisson schedule and creates each
  request only when it falls due; nothing is pre-spawned.  Latency is
  timed from the request's *intended* send time, so a stall in the
  program is charged to every request that fell due during it, and the
  generator's own lag (actual minus intended send time) is recorded per
  request.
* :func:`saturate` keeps a fixed number of requests in flight for a set
  time, issuing the next request as each one completes.  Its completion
  rate is what the program sustains when it is never idle: the
  capacity behind ``max_rate_rps``.
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np

from common import LATENCY_LIMIT_MS, timing_summary

#: Request outcomes.
PENDING, OK, REJECTED, FAILED = 0, 1, 2, 3

#: How long a phase may take to drain its in-flight requests before the
#: stragglers are recorded as unanswered.
DRAIN_TIMEOUT_S = 5.0
#: Share of a saturation phase left out of its completion rate, while
#: the window fills and the batches settle.
SETTLE_SHARE = 0.2


def poisson_offsets(rng: np.random.Generator, rate: float, duration: float) -> np.ndarray:
    """Arrival offsets (seconds from phase start) of a Poisson process."""
    expected = int(rate * duration * 1.2) + 64
    gaps = rng.exponential(1.0 / rate, size=expected)
    offsets = np.cumsum(gaps)
    while offsets[-1] < duration:
        more = np.cumsum(rng.exponential(1.0 / rate, size=expected)) + offsets[-1]
        offsets = np.concatenate([offsets, more])
    return offsets[offsets < duration]


class Phase:
    """Per-request records of one traffic phase against one target.

    ``tenant_index[i]`` and ``row[i]`` name request ``i``'s tenant and
    its row of that tenant's request pool; the workload sets them before
    the phase runs.
    """

    def __init__(self, name: str, rate: float, duration: float, n: int, offsets=None):
        self.name = name
        self.rate = float(rate)
        self.duration = float(duration)
        self.offsets = offsets
        self.tenant_index = np.zeros(n, dtype=np.int64)
        self.row = np.zeros(n, dtype=np.int64)
        self.intended = np.zeros(n)
        self.sent = np.zeros(n)
        self.done = np.zeros(n)
        self.status = np.zeros(n, dtype=np.int8)
        self.prediction = np.full(n, -1, dtype=np.int64)
        self.start = 0.0
        self.send_end = 0.0
        #: Requests kept in flight (saturation phases only).
        self.window = 0
        #: p99 latency limit (ms) the generator's lag, and a saturation
        #: phase's latency, are judged against.
        self.limit_ms = LATENCY_LIMIT_MS
        self.errors: dict[str, int] = {}

    @property
    def n(self) -> int:
        return len(self.status)

    def finish(self, i: int, status: int, at: float, prediction: int = -1, error=None) -> None:
        self.done[i] = at
        self.status[i] = status
        self.prediction[i] = prediction
        if error is not None:
            self.errors[error] = self.errors.get(error, 0) + 1

    def truncate(self, count: int) -> None:
        """Keep only the first ``count`` requests (the ones actually sent)."""
        for name in ("tenant_index", "row", "intended", "sent", "done", "status", "prediction"):
            setattr(self, name, getattr(self, name)[:count])

    def latencies_ms(self) -> np.ndarray:
        """Latency (ms) of the requests that succeeded, from intended send time."""
        served = self.status == OK
        return (self.done[served] - self.intended[served]) * 1e3

    def lag_ms(self) -> np.ndarray:
        return (self.sent - self.intended) * 1e3

    def counts(self) -> dict:
        return {
            "sent": int(self.n),
            "succeeded": int(np.sum(self.status == OK)),
            "rejected": int(np.sum(self.status == REJECTED)),
            "failed": int(np.sum(self.status == FAILED)),
            "unanswered": int(np.sum(self.status == PENDING)),
        }

    def clean(self) -> bool:
        """Every request answered with a prediction."""
        return self.n > 0 and bool(np.all(self.status == OK))

    def per_window(self, values: np.ndarray, q: float, windows: int) -> list[float]:
        """Each equal time window's ``q`` quantile (windows under 100 samples skipped)."""
        edges = np.linspace(0.0, self.duration, windows + 1)
        out = []
        for low, high in zip(edges[:-1], edges[1:]):
            mask = (self.offsets >= low) & (self.offsets < high)
            if mask.sum() >= 100:
                out.append(float(np.quantile(values[mask], q)))
        return out

    def windowed(self, values: np.ndarray, q: float, windows: int = 8) -> float:
        """Median over equal time windows of each window's ``q`` quantile.

        Used only for the generator-health gate: a single host stall lands
        in one window and does not by itself invalidate the run.
        """
        per_window = self.per_window(values, q, windows)
        if not per_window:
            return float(np.quantile(values, q)) if len(values) else 0.0
        return float(np.median(per_window))

    def lag_ok(self) -> bool:
        """The generator kept up: windowed p99 lag within the latency limit."""
        return self.n == 0 or self.windowed(self.lag_ms(), 0.99) <= self.limit_ms

    def completion_rate(self) -> float:
        """Successful completions per second after the settling share.

        Counted between the first and the last completion inside the
        measured span, so the figure is not quantized by the span length.
        """
        settled = self.start + SETTLE_SHARE * self.duration
        done = self.done[self.status == OK]
        done = done[(done >= settled) & (done < self.start + self.duration)]
        if len(done) < 2:
            return 0.0
        return float((len(done) - 1) / (done.max() - done.min()))

    def meets_limit(self) -> bool:
        """Every request served and p99 within the limit."""
        return self.clean() and float(np.quantile(self.latencies_ms(), 0.99)) <= self.limit_ms

    def summary(self) -> dict:
        latency = self.latencies_ms()
        counts = self.counts()
        out = {
            "phase": self.name,
            "start": self.start,
            "duration_s": self.duration,
            **counts,
            "latency_ms": timing_summary(latency.tolist()),
            "errors": dict(self.errors),
        }
        if self.offsets is None:
            out.update(
                window=self.window,
                completion_rps=self.completion_rate(),
                meets_limit=self.meets_limit(),
            )
        else:
            lag = self.lag_ms()
            served = self.status == OK
            latency_all = np.where(served, (self.done - self.intended) * 1e3, np.inf)
            out.update(
                p99_ms=float(np.quantile(latency_all, 0.99)) if self.n else None,
                window_p99s_ms=self.per_window(latency_all, 0.99, 16) if self.n else [],
                offered_rps=self.rate,
                achieved_rps=counts["succeeded"] / max(self.duration, 1e-9),
                lag_ms={
                    "p99": float(np.quantile(lag, 0.99)) if self.n else 0.0,
                    "windowed_p99": self.windowed(lag, 0.99) if self.n else 0.0,
                    "max": float(lag.max()) if self.n else 0.0,
                },
            )
        return out


def scheduled_phase(name: str, rng: np.random.Generator, rate: float, duration: float) -> Phase:
    """An open-loop phase at ``rate`` requests per second."""
    offsets = poisson_offsets(rng, rate, duration)
    return Phase(name, rate, duration, len(offsets), offsets)


def saturation_phase(name: str, window: int, duration: float, max_rps: float) -> Phase:
    """A saturation phase with room for ``max_rps`` completions per second."""
    phase = Phase(name, 0.0, duration, int(max_rps * duration) + window)
    phase.window = window
    return phase


# -- load modes ----------------------------------------------------------------------


async def schedule(phase: Phase, target, events=()) -> Phase:
    """Fire every request of ``phase`` when it falls due, from one coroutine.

    ``events`` is an optional sorted list of ``(offset, callback)`` pairs
    (the updates riding beside the reads) fired from the same loop.
    """
    offsets = phase.offsets
    n = len(offsets)
    events = list(events)
    e = 0
    i = 0
    start = time.perf_counter() + 0.002
    phase.start = start
    while i < n or e < len(events):
        due = time.perf_counter() - start
        while i < n and offsets[i] <= due:
            phase.intended[i] = start + offsets[i]
            phase.sent[i] = time.perf_counter()
            target.fire(phase, i)
            i += 1
        while e < len(events) and events[e][0] <= due:
            events[e][1](start + events[e][0])
            e += 1
        upcoming = min(
            offsets[i] if i < n else np.inf,
            events[e][0] if e < len(events) else np.inf,
        )
        if upcoming == np.inf:
            break
        delay = start + upcoming - time.perf_counter()
        await asyncio.sleep(delay if delay > 0 else 0)
    phase.send_end = time.perf_counter()
    await target.drain()
    return phase


async def saturate(phase: Phase, target, events=()) -> Phase:
    """Keep ``phase.window`` requests in flight for ``phase.duration`` seconds.

    Each completion issues the next request, until the time is up or the
    phase is full.  Latency is timed from the actual send (there is no
    schedule to be late against).  ``events`` fire on the phase's clock
    as in :func:`schedule`.
    """
    start = time.perf_counter()
    deadline = start + phase.duration
    phase.start = start
    sent = 0

    def issue() -> None:
        nonlocal sent
        if sent >= phase.n or time.perf_counter() >= deadline:
            return
        i = sent
        sent += 1
        phase.intended[i] = phase.sent[i] = time.perf_counter()
        target.fire(phase, i, issue)

    for _ in range(phase.window):
        issue()
    for offset, callback in events:
        delay = start + offset - time.perf_counter()
        await asyncio.sleep(delay if delay > 0 else 0)
        callback(start + offset)
    remaining = deadline - time.perf_counter()
    await asyncio.sleep(remaining if remaining > 0 else 0)
    phase.send_end = time.perf_counter()
    await target.drain()
    phase.truncate(sent)
    return phase


# -- in-process target ---------------------------------------------------------------


class InprocTarget:
    """An :class:`InferenceService` in this process.

    ``pools[t]`` is tenant ``t``'s request pool and ``tenants[t]`` its
    name (``None`` in single-model mode).  ``overloaded`` is the
    exception types counted as rejections.  When ``order`` is a list,
    ``(phase name, i)`` is appended as each request is created, which
    is the order the service admits them in.
    """

    def __init__(self, service, pools, tenants, overloaded=(), order=None):
        self.service = service
        self.pools = pools
        self.tenants = tenants
        self.overloaded = overloaded
        self.order = order
        self.tasks: set[asyncio.Task] = set()

    def fire(self, phase: Phase, i: int, then=None) -> None:
        if self.order is not None:
            self.order.append((phase.name, i))
        task = asyncio.get_running_loop().create_task(self._one(phase, i, then))
        self.tasks.add(task)
        task.add_done_callback(self.tasks.discard)

    async def _one(self, phase: Phase, i: int, then) -> None:
        t = phase.tenant_index[i]
        try:
            prediction = await self.service.predict(
                self.pools[t][phase.row[i]], tenant=self.tenants[t]
            )
        except self.overloaded:
            phase.finish(i, REJECTED, time.perf_counter())
        except Exception as error:  # noqa: BLE001 — every failure is counted
            phase.finish(i, FAILED, time.perf_counter(), error=type(error).__name__)
        else:
            phase.finish(i, OK, time.perf_counter(), prediction)
        if then is not None:
            then()

    async def drain(self) -> None:
        if self.tasks:
            await asyncio.wait(list(self.tasks), timeout=DRAIN_TIMEOUT_S)


# -- wire target ---------------------------------------------------------------------


class WireClient:
    """Pipelined NDJSON connections; responses are matched by ``id``.

    Request ids are integers unique within a client; one reader task per
    connection parses the responses and hands each to the callback
    registered under its id.
    """

    def __init__(self):
        self.connections: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self.readers: list[asyncio.Task] = []
        self.pending: dict[int, object] = {}
        self.next_id = 0
        self.decode_seconds = 0.0
        self.decoded = 0

    @classmethod
    async def connect_many(cls, host: str, ports: list[int]) -> "WireClient":
        """One connection per port, in order."""
        client = cls()
        for port in ports:
            reader, writer = await asyncio.open_connection(host, port, limit=2**22)
            client.connections.append((reader, writer))
        loop = asyncio.get_running_loop()
        client.readers = [loop.create_task(client._read(r)) for r, _ in client.connections]
        return client

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            received = time.perf_counter()
            response = json.loads(line)
            self.decode_seconds += time.perf_counter() - received
            self.decoded += 1
            on_response = self.pending.pop(response.get("id"), None)
            if on_response is not None:
                on_response(response, received)

    def send(self, payload: bytes, request_id: int, on_response, connection: int) -> None:
        self.pending[request_id] = on_response
        self.connections[connection % len(self.connections)][1].write(payload)

    async def call(self, request: dict, timeout: float = 30.0) -> dict:
        """One control request (health, warm-up) and its response."""
        request_id = self.take_id()
        future = asyncio.get_running_loop().create_future()
        payload = (json.dumps({**request, "id": request_id}) + "\n").encode()
        self.send(payload, request_id, lambda response, _t: future.set_result(response), 0)
        return await asyncio.wait_for(future, timeout)

    def take_id(self) -> int:
        self.next_id += 1
        return self.next_id

    async def close(self) -> None:
        for _, writer in self.connections:
            writer.close()
        for _, writer in self.connections:
            try:
                await writer.wait_closed()
            except OSError:
                pass
        for task in self.readers:
            task.cancel()
        await asyncio.gather(*self.readers, return_exceptions=True)


class WireTarget:
    """Predict requests over a :class:`WireClient`.

    ``bodies[t][r]`` is the encoded request line for tenant ``t``'s pool
    row ``r`` without its id (see ``workloads._encode_bodies``).  Requests
    go round-robin over the connections unless ``route[t]`` names tenant
    ``t``'s connection.
    """

    def __init__(self, client: WireClient, bodies, route=None):
        self.client = client
        self.bodies = bodies
        self.route = route
        self.in_flight = 0
        self._idle: asyncio.Future | None = None

    def fire(self, phase: Phase, i: int, then=None) -> None:
        t = phase.tenant_index[i]
        request_id = self.client.take_id()
        line = b'{"id": %d, ' % request_id + self.bodies[t][phase.row[i]]

        def handle(response: dict, received: float) -> None:
            self.in_flight -= 1
            if "prediction" in response:
                phase.finish(i, OK, received, response["prediction"])
            else:
                code = response.get("error", "unknown")
                phase.finish(i, REJECTED if code == "overloaded" else FAILED, received, error=code)
            if then is not None:
                then()
            if self.in_flight == 0 and self._idle is not None and not self._idle.done():
                self._idle.set_result(None)

        self.in_flight += 1
        connection = i if self.route is None else self.route[t]
        self.client.send(line, request_id, handle, connection)

    async def drain(self) -> None:
        if self.in_flight:
            self._idle = asyncio.get_running_loop().create_future()
            try:
                await asyncio.wait_for(self._idle, DRAIN_TIMEOUT_S)
            except asyncio.TimeoutError:
                pass
            self._idle = None
