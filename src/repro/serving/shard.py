"""Horizontally sharded serving: one acceptor, N serving processes.

The single-process service tops out on Python dispatch, not the model —
the fused kernels answer a 64-row batch in microseconds while the asyncio
loop burns its core on JSON, queue bookkeeping, and future fan-out.  This
module scales that loop *out*: a front-end TCP acceptor
(:class:`ShardedServer`) fans requests across ``n_shards`` worker
processes, each running its own event loop, its own
:class:`~repro.serving.service.InferenceService`, and its own
:class:`~repro.serving.registry.ModelRegistry` replica.

Design points, in the order they matter:

* **Shard-affine tenant routing.**  A request for tenant ``t`` always
  lands on shard ``crc32(t) % n_shards`` (:func:`shard_for` — CRC32, not
  Python's salted ``hash``, so the mapping is stable across processes and
  runs).  Affinity is what lets the single-process correctness story
  survive sharding: each tenant's requests still flow through exactly one
  collector, so per-tenant FIFO ordering and the ``partial_fit``
  model-visibility contract hold shard-locally, and per-tenant outputs
  are **bit-identical** to single-process serving (the
  ``checks.shard_outputs_match`` gate in ``BENCH_serving.json``).

* **Registry replicas, broadcast control plane.**  Every shard loads the
  same published artifacts into its own registry.  ``publish`` / ``evict``
  admin ops are broadcast to *all* shards (serialized by an admin lock,
  fanned out concurrently), so replicas stay in step and the per-shard
  hot-swap keeps its atomic versioned semantics — a batch in flight on
  the old version finishes on it, the next batch binds the new one.  The
  acceptor records the latest artifact path per tenant; that record is
  the recovery script.

* **Supervision, reused from the training pool.**  Shard processes are
  watched with the same machinery as
  :class:`~repro.parallel.executor.ProcessExecutor` workers
  (:func:`~repro.parallel.executor.watch_process` death callbacks,
  incarnation tags to ignore stale events, join→terminate→kill
  :func:`~repro.parallel.executor.reap_processes`, typed
  :class:`~repro.parallel.executor.WorkerError` when the respawn budget
  runs out).  A dead shard is respawned, republished from the recorded
  artifacts, and its in-flight requests are transparently **re-sent** to
  the fresh incarnation — predictions are idempotent, so a mid-run
  shard kill costs latency, never answers (the bench's
  availability/zero-dropped recovery gates).  A respawned shard's
  registry restarts at version 1 per tenant (it is a fresh process
  rebuilt from artifacts); live ``partial_fit`` updates applied since the
  last publish do not survive a shard death — shards are stateless
  caches of published state.

* **Pipelined wire protocol.**  Both hops — client→acceptor and
  acceptor→shard — use the NDJSON protocol in *pipelined* mode: any
  number of requests may be in flight per connection, responses come
  back **out of order** and are matched by their ``id`` field (the
  acceptor rewrites ids to internal sequence numbers on the shard hop
  and restores the client's own ids on the way back).
  :class:`PipelinedClient` is the matching client, used by the open-loop
  load generator and the tests.  Parent-level failures answer with the
  ``unavailable`` error code, a line over
  :data:`~repro.serving.server.LINE_LIMIT` with ``too_large`` (then the
  connection closes), a request whose shard-hop line would overrun it
  with ``too_large`` under its own id (the connection stays open), and a
  malformed line with ``invalid``.
  Everything a shard answers (``overloaded``, ``unknown_tenant``,
  ``deadline``, …) is forwarded verbatim.  The acceptor counts every
  error it answers by code, reported as ``errors`` by ``health``.

* **Per-shard scrubbing.**  Each shard co-hosts its own
  :class:`~repro.resilience.integrity.FleetScrubber` over its registry
  replica (idle-time ticks, exactly as the single-process server does),
  so integrity coverage scales with the fleet instead of leaving N-1
  processes unscrubbed.  The extended ``health`` op reports per-shard
  blocks: incarnation, port, queue depth, request accounting, scrub
  status.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import multiprocessing.connection
import signal
import time
import zlib
from collections import Counter, OrderedDict

from repro import telemetry
from repro.parallel.executor import (
    DEFAULT_MAX_RESPAWNS,
    WorkerError,
    default_start_method,
    reap_processes,
    watch_process,
)
from repro.serving.service import (
    InferenceService,
    MicrobatchConfig,
    ServingError,
)
from repro.serving.server import LINE_LIMIT, read_line, too_large_response
from repro.utils.validation import check_positive_int

#: How long to wait for a shard to report its bound port before its
#: startup is declared failed (typed :class:`WorkerError`).
DEFAULT_READY_TIMEOUT = 30.0

#: How long :meth:`ShardedServer.stop` waits for in-flight forwarded
#: requests to drain before shards are terminated.
DEFAULT_DRAIN_TIMEOUT = 10.0


def shard_for(tenant: str, n_shards: int) -> int:
    """Deterministic shard affinity for a tenant name.

    CRC32 rather than ``hash()``: Python string hashing is salted per
    process, and the whole point is a mapping every process (and every
    run, and the tests) agrees on.
    """
    check_positive_int(n_shards, "n_shards")
    return zlib.crc32(tenant.encode("utf-8")) % n_shards


# -- shard worker process ------------------------------------------------------


def _shard_main(
    host: str,
    models: list[tuple[str, str]],
    config: MicrobatchConfig,
    ready,
    allow_partial_fit: bool,
    scrub_interval: float,
) -> None:
    """Entry point of one shard process (module-level for ``spawn``).

    Builds the registry replica from the published artifacts, serves a
    pipelined :class:`~repro.serving.server.ServingServer` on an
    ephemeral port, sends that port on its own ``ready`` pipe, and drains
    gracefully on SIGTERM/SIGINT — the same shutdown discipline as
    ``repro serve``.
    """
    # Imports kept local so a spawn-start child pays them here, not at
    # module import in the parent's hot path.
    from repro.lookhd.persistence import load_classifier
    from repro.serving.registry import ModelRegistry
    from repro.serving.server import ServingServer

    registry = ModelRegistry()
    for tenant, path in models:
        registry.publish(tenant, load_classifier(path))

    async def _run() -> None:
        scrubber = None
        if scrub_interval > 0:
            from repro.resilience import FleetScrubber

            scrubber = FleetScrubber(registry)
        service = InferenceService(registry=registry, config=config)
        server = ServingServer(
            service,
            host=host,
            port=0,
            scrubber=scrubber,
            scrub_interval=scrub_interval if scrubber is not None else 0.25,
            allow_partial_fit=allow_partial_fit,
            pipelined=True,
        )
        await server.start()
        ready.send(server.port)
        ready.close()
        shutdown = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, shutdown.set)
            except (NotImplementedError, RuntimeError):
                pass
        await shutdown.wait()
        await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass


# -- acceptor internals --------------------------------------------------------


class _Pending:
    """One forwarded request awaiting its shard response."""

    __slots__ = ("future", "payload", "client_id", "sent")

    def __init__(self, future: asyncio.Future, payload: bytes, client_id):
        self.future = future
        self.payload = payload
        self.client_id = client_id
        #: Whether the payload has been written to the *current* shard
        #: incarnation.  Recovery replays unsent-or-unanswered entries and
        #: flips this, so a request parked on the ready event is not sent
        #: twice.
        self.sent = False


class _ShardLink:
    """Parent-side state for one shard slot: process, transport, pending."""

    __slots__ = (
        "index",
        "incarnation",
        "process",
        "ready_pipe",
        "port",
        "reader",
        "writer",
        "reader_task",
        "pending",
        "ready",
        "recovering",
        "forwarded",
        "answered",
    )

    def __init__(self, index: int):
        self.index = index
        self.incarnation = 0
        self.process = None
        #: Read end of the pipe the current incarnation reports its port
        #: on.  One pipe per process: a shard killed mid-send takes its
        #: pipe with it, where a shared queue's write lock would stay held.
        self.ready_pipe = None
        self.port: int | None = None
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.reader_task: asyncio.Task | None = None
        self.pending: dict[int, _Pending] = {}
        self.ready = asyncio.Event()
        self.recovering = False
        self.forwarded = 0
        self.answered = 0


class ShardedServer:
    """TCP acceptor fanning the fleet protocol across a shard pool.

    Parameters
    ----------
    models:
        Ordered ``(tenant, path)`` pairs of saved artifacts to publish
        into every shard at boot (the ``repro serve --models`` form).
        May be empty; tenants can be published over the wire later.
    n_shards:
        Serving processes behind the acceptor.  ``1`` is a degenerate
        but valid pool (useful for apples-to-apples overhead runs).
    config:
        Per-shard microbatch knobs (each shard runs its own collector).
    host, port:
        Acceptor bind address; ``port=0`` binds an ephemeral port.
    allow_partial_fit:
        Forwarded to every shard server (the ``--partial-fit`` gate).
    scrub_interval:
        Idle-scrub tick interval for each shard's
        :class:`~repro.resilience.integrity.FleetScrubber`; ``0``
        disables per-shard scrubbing.
    max_respawns:
        Supervision budget across the server's lifetime: how many shard
        deaths are answered with a respawn before the slot is declared
        failed (pending and future requests to it answer
        ``unavailable``), mirroring
        :class:`~repro.parallel.executor.ProcessExecutor`'s budget.
    start_method:
        ``fork`` / ``spawn`` / ``forkserver``; default
        :func:`~repro.parallel.executor.default_start_method`.
    """

    def __init__(
        self,
        models,
        n_shards: int,
        config: MicrobatchConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        allow_partial_fit: bool = False,
        scrub_interval: float = 0.0,
        max_respawns: int = DEFAULT_MAX_RESPAWNS,
        start_method: str | None = None,
        ready_timeout: float = DEFAULT_READY_TIMEOUT,
        drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
    ):
        self.n_shards = check_positive_int(n_shards, "n_shards")
        if max_respawns < 0:
            raise ValueError(f"max_respawns must be non-negative, got {max_respawns}")
        if scrub_interval < 0:
            raise ValueError(
                f"scrub_interval must be non-negative, got {scrub_interval}"
            )
        self.config = config if config is not None else MicrobatchConfig()
        self.host = host
        self.allow_partial_fit = bool(allow_partial_fit)
        self.scrub_interval = float(scrub_interval)
        self.max_respawns = int(max_respawns)
        self.start_method = (
            start_method if start_method is not None else default_start_method()
        )
        self.ready_timeout = float(ready_timeout)
        self.drain_timeout = float(drain_timeout)
        #: Latest published artifact path per tenant, in first-publish
        #: order — the replay script for boot and respawn.
        self._published: OrderedDict[str, str] = OrderedDict()
        for tenant, path in models:
            if not isinstance(tenant, str) or not tenant:
                raise ValueError(f"tenant must be a non-empty string, got {tenant!r}")
            if not isinstance(path, str) or not path:
                raise ValueError(f"model path must be a non-empty string, got {path!r}")
            self._published[tenant] = path
        self._requested_port = port
        self._links = [_ShardLink(index) for index in range(self.n_shards)]
        self._failed_shards: dict[int, str] = {}
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._context = None
        self._admin_lock: asyncio.Lock | None = None
        self._running = False
        self._next_sid = 0
        # Always-on acceptor accounting (the sharded twin of the
        # service's request_stats): the bench's zero-dropped gate audits
        # forwarded == answered + failed after a clean run.
        self.forwarded = 0
        self.answered = 0
        self.failed = 0
        self.retried = 0
        self.respawns = 0
        self.cancelled = 0
        #: Error responses written to clients, by error code (shard
        #: answers forwarded verbatim included).
        self.errors: Counter[str] = Counter()

    # -- lifecycle -------------------------------------------------------------

    @property
    def port(self) -> int:
        """The acceptor's actually bound port (after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def running(self) -> bool:
        return self._running

    def tenants(self) -> list[str]:
        """Tenants currently published (acceptor's replay record), sorted."""
        return sorted(self._published)

    async def start(self) -> "ShardedServer":
        if self._running:
            return self
        self._loop = asyncio.get_running_loop()
        self._admin_lock = asyncio.Lock()
        self._context = multiprocessing.get_context(self.start_method)
        self._running = True
        try:
            for link in self._links:
                self._spawn_shard(link)
            ports = await self._await_ready({link.index for link in self._links})
            for link in self._links:
                link.port = ports[link.index]
                await self._connect(link)
                link.ready.set()
            self._server = await asyncio.start_server(
                self._handle_client, self.host, self._requested_port, limit=LINE_LIMIT
            )
        except BaseException:
            self._running = False
            await self._teardown_links()
            raise
        return self

    async def stop(self) -> None:
        """Drain in-flight requests, then drain and reap every shard."""
        if not self._running:
            return
        self._running = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Give forwarded requests a bounded window to come back before
        # the shards are told to drain and exit.
        deadline = self._loop.time() + self.drain_timeout
        while (
            any(link.pending for link in self._links)
            and self._loop.time() < deadline
        ):
            await asyncio.sleep(0.01)
        await self._teardown_links()

    async def _teardown_links(self) -> None:
        for link in self._links:
            if link.reader_task is not None:
                link.reader_task.cancel()
                try:
                    await link.reader_task
                except (asyncio.CancelledError, Exception):  # noqa: BLE001
                    pass
                link.reader_task = None
            if link.writer is not None:
                link.writer.close()
                try:
                    await link.writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    pass
                link.writer = None
            for entry in link.pending.values():
                if not entry.future.done():
                    entry.future.set_exception(
                        ServingError("sharded server stopped with the request in flight")
                    )
            link.pending.clear()
        processes = [link.process for link in self._links if link.process is not None]
        for process in processes:
            if process.is_alive():
                process.terminate()  # SIGTERM → shard-side graceful drain
        await asyncio.get_running_loop().run_in_executor(
            None, reap_processes, processes
        )
        for link in self._links:
            if link.ready_pipe is not None:
                link.ready_pipe.close()
                link.ready_pipe = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def __aenter__(self) -> "ShardedServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- shard pool supervision ------------------------------------------------

    def _spawn_shard(self, link: _ShardLink) -> None:
        """Start one shard process plus its death watcher (incarnation-tagged)."""
        if link.ready_pipe is not None:
            link.ready_pipe.close()
        link.ready_pipe, ready = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_shard_main,
            args=(
                self.host,
                list(self._published.items()),
                self.config,
                ready,
                self.allow_partial_fit,
                self.scrub_interval,
            ),
            daemon=True,
        )
        process.start()
        ready.close()  # the shard holds the write end; EOF means it died
        link.process = process
        incarnation = link.incarnation

        def _on_exit(exitcode, link=link, incarnation=incarnation):
            loop = self._loop
            if loop is None:
                return
            try:
                loop.call_soon_threadsafe(
                    self._begin_recovery, link, incarnation, exitcode
                )
            except RuntimeError:  # loop already closed at teardown
                pass

        watch_process(process, _on_exit, name=f"shard-watch-{link.index}")

    async def _await_ready(self, expected: set[int]) -> dict[int, int]:
        """Collect the port every expected shard sends on its ready pipe."""
        ports: dict[int, int] = {}
        deadline = time.monotonic() + self.ready_timeout
        while expected:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerError(
                    f"shards {sorted(expected)} did not report ready within "
                    f"{self.ready_timeout}s"
                )
            pipes = {self._links[index].ready_pipe: index for index in expected}
            readable = await self._loop.run_in_executor(
                None, multiprocessing.connection.wait, list(pipes), min(remaining, 0.5)
            )
            for pipe in readable:
                index = pipes[pipe]
                try:
                    ports[index] = pipe.recv()
                except EOFError:
                    process = self._links[index].process
                    process.join(timeout=1.0)
                    raise WorkerError(
                        f"shard {index} exited with code {process.exitcode} "
                        "before reporting ready",
                        worker_index=index,
                    ) from None
                expected.discard(index)
        return ports

    async def _connect(self, link: _ShardLink) -> None:
        reader, writer = await asyncio.open_connection(
            self.host, link.port, limit=LINE_LIMIT
        )
        link.reader = reader
        link.writer = writer
        link.reader_task = self._loop.create_task(
            self._read_responses(link, link.incarnation)
        )

    async def _read_responses(self, link: _ShardLink, incarnation: int) -> None:
        """Demultiplex one shard connection: resolve pending by id."""
        try:
            while True:
                line = await read_line(link.reader)
                if line == b"":
                    break
                if line is None:
                    # An over-limit answer cannot be matched to its
                    # request: recycle the link as if it had broken.
                    break
                try:
                    message = json.loads(line)
                except json.JSONDecodeError:
                    continue
                entry = link.pending.pop(message.get("id"), None)
                if entry is None:
                    continue  # duplicate answer after a mid-flight replay
                link.answered += 1
                self.answered += 1
                if not entry.future.done():
                    entry.future.set_result(message)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        except asyncio.CancelledError:
            return
        # EOF or reset: the shard side went away.  The watcher thread
        # reports process death too; whichever lands first wins the
        # incarnation check and the other becomes a no-op.
        self._begin_recovery(link, incarnation, None)

    def _begin_recovery(self, link: _ShardLink, incarnation: int, exitcode) -> None:
        """Deduplicated entry into shard recovery (loop thread only)."""
        if not self._running or link.recovering or incarnation != link.incarnation:
            return
        if link.index in self._failed_shards:
            return
        if link.port is None:
            return  # died while booting: start() reports it as a WorkerError
        link.recovering = True
        link.incarnation += 1
        link.ready.clear()
        self._loop.create_task(self._recover(link, exitcode))

    def _fail_shard(self, link: _ShardLink, detail: str) -> None:
        self._failed_shards[link.index] = detail
        for entry in link.pending.values():
            if not entry.future.done():
                self.failed += 1
                entry.future.set_exception(ServingError(detail))
        link.pending.clear()
        link.ready.set()  # wake waiters so they observe the failure

    async def _recover(self, link: _ShardLink, exitcode) -> None:
        """Respawn a dead shard, republish, replay its in-flight requests.

        Bounded by ``max_respawns`` across the server lifetime; budget
        exhaustion marks the slot failed with a typed detail (the
        :class:`~repro.parallel.executor.WorkerError` message callers see
        under the ``unavailable`` wire code).
        """
        try:
            while True:
                if self.respawns >= self.max_respawns:
                    error = WorkerError(
                        f"shard {link.index} exited (code {exitcode}) and the "
                        f"respawn budget ({self.max_respawns}) is exhausted",
                        worker_index=link.index,
                    )
                    self._fail_shard(link, str(error))
                    return
                self.respawns += 1
                telemetry.count("serving.shard.respawns", shard=str(link.index))
                if link.reader_task is not None:
                    link.reader_task.cancel()
                    link.reader_task = None
                if link.writer is not None:
                    link.writer.close()
                    link.writer = None
                try:
                    self._spawn_shard(link)
                    ports = await self._await_ready({link.index})
                    link.port = ports[link.index]
                    await self._connect(link)
                except WorkerError:
                    link.incarnation += 1  # invalidate the failed attempt
                    continue
                # Replay every request the dead incarnation left
                # unanswered (or that queued up while it was down), in
                # admission order.  Predictions are idempotent; the fresh
                # shard was republished from the recorded artifacts, so
                # replayed answers stay bit-identical.
                for sid in sorted(link.pending):
                    entry = link.pending[sid]
                    entry.sent = True
                    self.retried += 1
                    link.writer.write(entry.payload)
                if link.pending:
                    await link.writer.drain()
                link.ready.set()
                return
        finally:
            link.recovering = False

    # -- request routing -------------------------------------------------------

    def _route(self, tenant) -> int:
        if tenant is None:
            tenant = InferenceService.DEFAULT_TENANT
        if not isinstance(tenant, str) or not tenant:
            raise ValueError("'tenant' must be a non-empty string")
        return shard_for(tenant, self.n_shards)

    async def _forward(self, shard_index: int, request: dict) -> dict:
        """Send one request to a shard; resolve with its response dict.

        The client's ``id`` is replaced by an internal sequence number on
        the shard hop (the pending key) and restored on the way back.
        """
        link = self._links[shard_index]
        detail = self._failed_shards.get(shard_index)
        if detail is not None:
            raise ServingError(detail)
        sid = self._next_sid
        client_id = request.get("id")
        forwarded = dict(request)
        forwarded["id"] = sid
        # Compact and unescaped, so the shard hop is about as long as the
        # client's line.  Still checked: a re-encoding can grow (``1e9``
        # becomes ``1000000000.0``), and a line the shard refuses would
        # look like a broken link.  ``surrogatepass`` keeps lone
        # surrogates, which ``json.loads`` on bytes decodes the same way.
        encoded = json.dumps(forwarded, separators=(",", ":"), ensure_ascii=False)
        payload = encoded.encode("utf-8", "surrogatepass")
        if len(payload) > LINE_LIMIT:
            return {
                **too_large_response(),
                "id": client_id,
                "detail": f"request exceeds {LINE_LIMIT} bytes on the shard hop",
            }
        payload += b"\n"
        self._next_sid += 1
        entry = _Pending(self._loop.create_future(), payload, client_id)
        link.pending[sid] = entry
        self.forwarded += 1
        link.forwarded += 1
        while not link.ready.is_set():
            await link.ready.wait()
        # The future may already hold _fail_shard's exception; recovery
        # may also have replayed the payload for us — only write when
        # neither happened.
        if not entry.future.done() and not entry.sent:
            entry.sent = True
            try:
                link.writer.write(payload)
                await link.writer.drain()
            except OSError:
                # The shard died under the write.  The entry is still
                # pending, so recovery replays it (or fails it).
                pass
        response = dict(await entry.future)
        response["id"] = client_id
        return response

    # -- admin / health ops ----------------------------------------------------

    async def _broadcast(self, request: dict) -> list[dict]:
        """Fan one admin op to every shard concurrently; responses in order."""
        stripped = {key: value for key, value in request.items() if key != "id"}
        return list(
            await asyncio.gather(
                *(self._forward(index, dict(stripped)) for index in range(self.n_shards))
            )
        )

    async def _publish(self, request: dict) -> dict:
        tenant = request.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            raise ValueError("publish must carry a non-empty 'tenant' string")
        path = request.get("path")
        if not isinstance(path, str) or not path:
            raise ValueError("publish must carry a 'path' to a saved model")
        async with self._admin_lock:
            responses = await self._broadcast(request)
            for index, response in enumerate(responses):
                if "error" in response:
                    # Partial publish: some replicas may have flipped.
                    # Surface the first failure verbatim (plus the shard)
                    # and leave the replay record untouched — health shows
                    # the per-shard versions for the operator.
                    failed = dict(response)
                    failed["shard"] = index
                    failed["id"] = request.get("id")
                    return failed
            self._published[tenant] = path
        versions = {str(i): r.get("version") for i, r in enumerate(responses)}
        return {
            "id": request.get("id"),
            "tenant": tenant,
            "version": responses[0].get("version"),
            "bound": responses[0].get("bound"),
            "table_bytes": responses[0].get("table_bytes"),
            "shards": versions,
        }

    async def _evict(self, request: dict) -> dict:
        tenant = request.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            raise ValueError("evict must carry a non-empty 'tenant' string")
        async with self._admin_lock:
            responses = await self._broadcast(request)
        for index, response in enumerate(responses):
            if "error" in response:
                failed = dict(response)
                failed["shard"] = index
                failed["id"] = request.get("id")
                return failed
        return {
            "id": request.get("id"),
            "tenant": tenant,
            "released": any(bool(r.get("released")) for r in responses),
            "shards": {str(i): bool(r.get("released")) for i, r in enumerate(responses)},
        }

    async def _list(self, request: dict) -> dict:
        # Replicas agree on the registered fleet (broadcast control
        # plane); shard 0 answers for all, annotated with the pool shape.
        target = next(
            (i for i in range(self.n_shards) if i not in self._failed_shards), None
        )
        if target is None:
            raise ServingError("no live shards; the respawn budget is exhausted")
        response = await self._forward(target, {"op": "list"})
        response["id"] = request.get("id")
        response["n_shards"] = self.n_shards
        return response

    def request_stats(self) -> dict:
        """Always-on acceptor accounting (the sharded zero-dropped audit).

        ``dropped`` counts forwarded requests that were neither answered
        nor failed — it must be 0 after a clean :meth:`stop`.
        """
        return {
            "forwarded": self.forwarded,
            "answered": self.answered,
            "failed": self.failed,
            "retried": self.retried,
            "respawns": self.respawns,
            "cancelled": self.cancelled,
            "dropped": self.forwarded - self.answered - self.failed,
            "pending": sum(len(link.pending) for link in self._links),
        }

    async def health(self) -> dict:
        """Pool-level health: acceptor accounting + per-shard blocks.

        Each live shard contributes its own ``health`` response —
        status, queue depth, request accounting, scrub state, fleet —
        wrapped with the supervision view (incarnation, port, alive).
        """
        shards: dict[str, dict] = {}
        degraded = bool(self._failed_shards)
        for link in self._links:
            block: dict = {
                "incarnation": link.incarnation,
                "port": link.port,
                "alive": bool(link.process is not None and link.process.is_alive()),
                "forwarded": link.forwarded,
                "answered": link.answered,
                "pending": len(link.pending),
            }
            detail = self._failed_shards.get(link.index)
            if detail is not None:
                block["error"] = detail
            else:
                try:
                    response = await asyncio.wait_for(
                        self._forward(link.index, {"op": "health"}),
                        timeout=self.ready_timeout,
                    )
                    response.pop("id", None)
                    block.update(response)
                except (ServingError, asyncio.TimeoutError) as error:
                    block["error"] = str(error)
                    degraded = True
            if block.get("status") == "degraded":
                degraded = True
            shards[str(link.index)] = block
        return {
            "status": "degraded" if degraded else "ok",
            "n_shards": self.n_shards,
            "tenants": self.tenants(),
            "requests": self.request_stats(),
            "errors": dict(self.errors),
            "shards": shards,
        }

    # -- connection handling ---------------------------------------------------

    async def _answer(self, line: bytes | None) -> dict:
        """Answer one line (``None``: it overran the limit), counting errors."""
        response = too_large_response() if line is None else await self._dispatch(line)
        if "error" in response:
            self.errors[response["error"]] += 1
        return response

    async def _dispatch(self, line: bytes) -> dict:
        request_id = None
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            request_id = request.get("id")
            op = request.get("op", "predict")
            if op == "health":
                return {"id": request_id, **await self.health()}
            if op == "list":
                return await self._list(request)
            if op == "publish":
                return await self._publish(request)
            if op == "evict":
                return await self._evict(request)
            if op in ("predict", "partial_fit"):
                shard = self._route(request.get("tenant"))
                return await self._forward(shard, request)
            raise ValueError(f"unknown op {op!r}")
        except ServingError as error:
            return {"id": request_id, "error": "unavailable", "detail": str(error)}
        except (ValueError, TypeError, json.JSONDecodeError) as error:
            return {"id": request_id, "error": "invalid", "detail": str(error)}

    async def _respond(
        self, line: bytes | None, writer: asyncio.StreamWriter, lock: asyncio.Lock
    ) -> None:
        response = await self._answer(line)
        async with lock:
            if writer.is_closing():
                self.cancelled += 1
                return
            try:
                writer.write((json.dumps(response) + "\n").encode())
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                self.cancelled += 1

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Pipelined client connection: task per line, responses by id."""
        telemetry.count("serving.shard.connections.opened")
        lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                line = await read_line(reader)
                if line == b"":
                    break
                task = self._loop.create_task(self._respond(line, writer, lock))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                if line is None:
                    break  # answered too_large; close once it is written
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        except asyncio.CancelledError:
            pass
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            telemetry.count("serving.shard.connections.closed")
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            except asyncio.CancelledError:
                pass

    # -- chaos hooks (bench / tests) -------------------------------------------

    def kill_shard(self, index: int, force: bool = True) -> int:
        """Kill one shard process (SIGKILL by default) — the chaos hook.

        Returns the killed process's pid.  Recovery is automatic: the
        watcher and the link reader race to notice, the slot respawns,
        republishes, and replays its in-flight requests.
        """
        link = self._links[index]
        process = link.process
        if process is None or not process.is_alive():
            raise ValueError(f"shard {index} has no live process to kill")
        pid = process.pid
        if force:
            process.kill()
        else:
            process.terminate()
        telemetry.count("serving.shard.chaos_kills", shard=str(index))
        return pid


# -- pipelined NDJSON client ---------------------------------------------------


class PipelinedClient:
    """Client for pipelined NDJSON servers: responses matched by ``id``.

    The open-loop load generator's transport: one connection carries any
    number of in-flight requests, each ``request`` call gets exactly the
    response whose ``id`` echoes its own.  Not thread-safe; one event
    loop only.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._closed = False
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "PipelinedClient":
        reader, writer = await asyncio.open_connection(host, port, limit=LINE_LIMIT)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        reason = "connection closed with the request in flight"
        try:
            while True:
                line = await read_line(self._reader)
                if line == b"":
                    break
                if line is None:
                    # Unmatchable: fail everything in flight instead.
                    reason = f"response line exceeds {LINE_LIMIT} bytes"
                    break
                try:
                    message = json.loads(line)
                except json.JSONDecodeError:
                    continue
                future = self._pending.pop(message.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(message)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        except asyncio.CancelledError:
            return
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(ServingError(reason))
            self._pending.clear()

    async def request(self, payload: dict) -> dict:
        """Send one request; resolve with its matched response."""
        if self._closed:
            raise ServingError("client is closed")
        if self._reader_task.done():
            raise ServingError("connection closed")
        request_id = self._next_id
        self._next_id += 1
        message = dict(payload)
        message["id"] = request_id
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self._writer.write((json.dumps(message) + "\n").encode())
        await self._writer.drain()
        return await future

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    async def __aenter__(self) -> "PipelinedClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
