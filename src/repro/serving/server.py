"""Newline-delimited-JSON TCP front end over :class:`InferenceService`.

Stdlib-only transport (asyncio streams) so the serving path adds no
dependencies.  Protocol — one JSON object per line, each answered with
one JSON line:

    → {"id": 7, "features": [0.1, 0.2, ...]}
    ← {"id": 7, "prediction": 3}

A request may carry ``"deadline_ms"`` to bound how long it is allowed to
wait for a batch slot (see ``MicrobatchConfig.deadline_ms``).  A
``{"op": "health"}`` request returns the service's liveness snapshot
instead of a prediction: running state, queue depth, request accounting,
and — when an integrity scrubber is attached — its status, including the
last detected error and last repair.

Fleet protocol (service constructed over a
:class:`~repro.serving.registry.ModelRegistry`): a predict request adds
a tenant name, and ``"x"`` is accepted as an alias for ``"features"``
(the compact form fleet clients use):

    → {"op": "predict", "tenant": "edge-7", "x": [0.1, 0.2, ...]}
    ← {"id": null, "tenant": "edge-7", "prediction": 3}

Admin ops (all answered on the same connection, interleaved with
traffic):

* ``{"op": "publish", "tenant": ..., "path": ...}`` — load a saved model
  and hot-swap it in as the tenant's next version.  The load + table
  build run in a worker thread, so in-flight predicts keep batching; the
  version flip itself is atomic.  Answers ``{"tenant", "version",
  "bound", "table_bytes"}``.
* ``{"op": "list"}`` — the registry's fleet snapshot (per-tenant
  version/binding plus cache-budget accounting).
* ``{"op": "evict", "tenant": ...}`` — drop the tenant's cached table
  set (the model stays registered; next hit rebuilds lazily).
* ``{"op": "partial_fit", "tenant": ..., "x": [[...], ...], "y": [...]}``
  — apply a labelled batch to the tenant's live model (``features``/
  ``labels`` long-form aliases accepted).  Gated behind
  ``--partial-fit``; requires an online-capable model, else answers the
  ``unsupported`` error code.  Serialized against predict flushes by the
  service's collector, so clients never observe a half-applied update.

Error responses carry a machine-routable ``error`` code plus a
human-readable ``detail``:

* ``invalid`` — malformed JSON, missing/NaN features, wrong width
  (maps from ``ValueError``); the connection stays open.
* ``overloaded`` — admission control rejected
  (:class:`ServiceOverloadedError`, including its per-tenant-quota
  subclass); the client should back off and retry.
* ``unknown_tenant`` — no model registered under the requested name
  (:class:`~repro.serving.registry.UnknownTenantError`).
* ``deadline`` — the request expired before its batch flushed
  (:class:`~repro.resilience.retry.DeadlineExceededError`); the model
  never ran for it.
* ``closed`` — the service stopped while the request was in flight.
* ``too_large`` — the request line overran :data:`LINE_LIMIT`; it is
  answered (``"id": null``, the line is never parsed) and the connection
  is closed.

Every error response is counted by code in :attr:`ServingServer.errors`
(reported as ``errors`` by the ``health`` op), so any line a client can
send is either answered with a result or accounted as an error.

Every connection shares the one microbatcher, so concurrent clients are
exactly what fills its batches.  A client that disconnects with a
request in flight does not disturb the service: the batch completes and
drains normally, the unanswerable response is accounted under
:attr:`ServingServer.cancelled`, and the handler closes quietly — no
stack traces for a routine hangup.

Resilience wiring: pass a :class:`~repro.resilience.integrity.Scrubber`
to co-host integrity scrubbing with serving.  The scrub loop ticks on the
event loop only while the request queue is empty, so verification steals
idle cycles instead of taxing p99 latency under load.
"""

from __future__ import annotations

import asyncio
import json
from collections import Counter

from repro import telemetry
from repro.lookhd.persistence import ArtifactError, load_classifier
from repro.resilience.retry import DeadlineExceededError
from repro.serving.registry import UnknownTenantError
from repro.serving.service import (
    InferenceService,
    ServiceClosedError,
    ServiceOverloadedError,
    UpdateNotSupportedError,
)

#: Longest request line, in bytes, that any NDJSON endpoint reads: the
#: servers, the sharded acceptor, and both ends of its shard links.
#: asyncio's default of 64 KiB cannot carry a 64-row ``partial_fit`` at
#: n=100 (~130 KB of JSON); 4 MiB fits batches many times that size while
#: keeping per-connection memory bounded.
LINE_LIMIT = 4 * 1024 * 1024


async def read_line(reader: asyncio.StreamReader) -> bytes | None:
    """Read one line: ``b""`` at EOF, ``None`` if it overran :data:`LINE_LIMIT`.

    An over-limit line is discarded through its newline (or EOF) in
    buffer-sized pieces, so memory stays bounded and the peer can still
    be answered before the connection is closed.  A final line without
    a newline is returned as is, like ``StreamReader.readline``.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as error:
        return error.partial
    except asyncio.LimitOverrunError as error:
        consumed = error.consumed
    while True:
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
            return None
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError as error:
            consumed = error.consumed


def too_large_response() -> dict:
    """The answer to a line over :data:`LINE_LIMIT` (never parsed, so no id)."""
    return {
        "id": None,
        "error": "too_large",
        "detail": f"request line exceeds {LINE_LIMIT} bytes",
    }


class ServingServer:
    """TCP server wrapping an (already constructed) :class:`InferenceService`.

    Parameters
    ----------
    service:
        The microbatcher to serve.  The server starts/stops it with its
        own lifecycle.
    host, port:
        Bind address.  ``port=0`` binds an ephemeral port; read
        :attr:`port` after :meth:`start` (the in-process test/smoke path).
    scrubber:
        Optional :class:`~repro.resilience.integrity.Scrubber` over the
        served classifier.  When set, a background task ticks it every
        ``scrub_interval`` seconds while the service is idle, and its
        status is reported by the ``health`` op.
    scrub_interval:
        Seconds between scrub ticks (only meaningful with ``scrubber``).
    pipelined:
        Connection handling mode.  ``False`` (default, the public
        protocol): requests on one connection are answered strictly in
        order, one at a time — a client that wants concurrency opens
        more connections.  ``True`` (the shard-link protocol used by
        :mod:`repro.serving.shard`): every line is dispatched as its own
        task the moment it is read, and responses are written as they
        complete, **out of order**, matched to requests by their ``id``
        field — so a single connection can carry an arbitrary number of
        in-flight requests.  Per-tenant admission order still equals
        line order: dispatch tasks are created in read order and admit
        synchronously on their first step, before any await.
    """

    def __init__(
        self,
        service: InferenceService,
        host: str = "127.0.0.1",
        port: int = 0,
        scrubber=None,
        scrub_interval: float = 0.25,
        allow_partial_fit: bool = False,
        pipelined: bool = False,
    ):
        self.service = service
        self.host = host
        self.pipelined = bool(pipelined)
        #: Gate for the ``partial_fit`` op.  Off by default: accepting
        #: unauthenticated training data over the wire changes the model,
        #: so live updating is an explicit deployment decision
        #: (``repro serve --partial-fit``), not an always-open door.
        self.allow_partial_fit = bool(allow_partial_fit)
        self.scrubber = scrubber
        if not scrub_interval > 0:
            raise ValueError(
                f"scrub_interval must be positive, got {scrub_interval}"
            )
        self.scrub_interval = scrub_interval
        #: Requests whose client disconnected before the answer could be
        #: written.  The prediction itself still completed (the service
        #: drains normally); only the response had nobody to go to.
        self.cancelled = 0
        #: Error responses written, by error code (``invalid``,
        #: ``too_large``, ``overloaded``, …).
        self.errors: Counter[str] = Counter()
        self._requested_port = port
        self._server: asyncio.AbstractServer | None = None
        self._scrub_task: asyncio.Task | None = None

    @property
    def port(self) -> int:
        """The actually bound port (after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "ServingServer":
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port, limit=LINE_LIMIT
        )
        if self.scrubber is not None and self._scrub_task is None:
            self._scrub_task = asyncio.get_running_loop().create_task(
                self._scrub_loop()
            )
        return self

    async def stop(self) -> None:
        if self._scrub_task is not None:
            self._scrub_task.cancel()
            try:
                await self._scrub_task
            except asyncio.CancelledError:
                pass
            self._scrub_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def __aenter__(self) -> "ServingServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- resilience ------------------------------------------------------------

    async def _scrub_loop(self) -> None:
        """Tick the scrubber whenever the service has no queued work.

        ``Scrubber.tick`` is deliberately small (a handful of block
        digests per call) and never raises, so running it inline on the
        event loop is safe; gating on an empty queue keeps it out of the
        latency path under load.
        """
        while True:
            await asyncio.sleep(self.scrub_interval)
            if self.service.queue_depth == 0:
                self.scrubber.tick()

    def health(self) -> dict:
        """Liveness snapshot served by the ``{"op": "health"}`` request."""
        scrub = self.scrubber.status() if self.scrubber is not None else None
        degraded = bool(scrub["degraded"]) if scrub is not None else False
        health = {
            "status": "degraded" if degraded else "ok",
            "running": self.service.running,
            "queue_depth": self.service.queue_depth,
            "requests": self.service.request_stats(),
            "cancelled": self.cancelled,
            "errors": dict(self.errors),
            "scrub": scrub,
        }
        if self.service.registry is not None:
            health["fleet"] = self.service.registry.describe()
        return health

    # -- connection handling ---------------------------------------------------

    def _account_cancelled(self) -> None:
        """The client hung up while its request was in flight.

        The prediction itself already completed and the service drained it;
        account the orphaned answer and let the handler close quietly — a
        routine hangup is not worth a stack trace.
        """
        self.cancelled += 1
        telemetry.count("serving.requests.cancelled", reason="disconnect")

    async def _write_answer(
        self,
        line: bytes | None,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> None:
        """Pipelined mode: answer one line and write it under the lock.

        Several of these tasks run concurrently per connection; the lock
        serialises the write+drain pair so responses never interleave
        mid-line.  A client gone by write time is accounted exactly like
        the sequential path's orphaned answer.
        """
        response = await self._answer(line)
        async with lock:
            if writer.is_closing():
                self._account_cancelled()
                return
            try:
                writer.write((json.dumps(response) + "\n").encode())
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                self._account_cancelled()

    async def _handle_pipelined(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Shard-link mode: task per line, out-of-order responses by id."""
        lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        loop = asyncio.get_running_loop()
        try:
            while True:
                line = await read_line(reader)
                if line == b"":
                    break
                task = loop.create_task(self._write_answer(line, writer, lock))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                if line is None:
                    break  # answered too_large; close once it is written
        finally:
            # Drain in-flight answers before closing: a half-closed peer
            # (EOF seen, connection writable) still gets every response
            # for the lines it managed to send.
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        telemetry.count("serving.connections.opened")
        try:
            if self.pipelined:
                await self._handle_pipelined(reader, writer)
                return
            while True:
                line = await read_line(reader)
                if line == b"":
                    break
                response = await self._answer(line)
                # A peer that closed while its request was in flight sends
                # FIN, which does not fail the first write — the EOF/closing
                # flags are how the hangup is actually observable here.  (A
                # half-closing client is treated as gone; NDJSON peers hold
                # the connection open for their responses.)
                if writer.is_closing() or reader.at_eof():
                    self._account_cancelled()
                    break
                try:
                    writer.write((json.dumps(response) + "\n").encode())
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    self._account_cancelled()
                    break
                if line is None:
                    break  # answered too_large; close the connection
        except (ConnectionResetError, BrokenPipeError, OSError):
            # Disconnect between requests: nothing was in flight.
            pass
        except asyncio.CancelledError:
            # Server stop cancels handlers parked on readline.  Finishing
            # through the finally (rather than re-raising) leaves the task
            # without an exception, so asyncio's streams callback does not
            # log a spurious traceback for a routine shutdown.
            pass
        finally:
            telemetry.count("serving.connections.closed")
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            except asyncio.CancelledError:
                # Loop teardown cancelled the handler mid-close.  Finishing
                # (rather than re-raising) keeps asyncio's stream callback
                # from logging a spurious traceback for a routine shutdown.
                pass

    # -- fleet admin ops -------------------------------------------------------

    def _registry(self):
        registry = self.service.registry
        if registry is None:
            raise ValueError(
                "fleet ops require a registry-backed service; "
                "start with `repro serve --models`"
            )
        return registry

    @staticmethod
    def _request_tenant(request: dict) -> str:
        tenant = request.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            raise ValueError("request must carry a non-empty 'tenant' string")
        return tenant

    async def _publish(self, request: dict) -> dict:
        """Hot-swap a tenant's model from a saved artifact, off the loop.

        ``load_classifier`` + the fused table build are the expensive part
        of a swap; both run in the default executor so the event loop —
        and every in-flight batch — keeps serving the old version.  The
        registry's internal lock makes the final version flip atomic with
        respect to dispatch-time ``registry.get`` calls.
        """
        registry = self._registry()
        tenant = self._request_tenant(request)
        path = request.get("path")
        if not isinstance(path, str) or not path:
            raise ValueError("publish must carry a 'path' to a saved model")

        def load_and_publish():
            return registry.publish(tenant, load_classifier(path))

        record = await asyncio.get_running_loop().run_in_executor(
            None, load_and_publish
        )
        telemetry.count("serving.fleet.publishes", tenant=tenant)
        return {"tenant": tenant, **record.describe()}

    async def _partial_fit(self, request: dict) -> dict:
        """Apply a labelled batch to a tenant's live model over the wire.

        Payload: ``{"op": "partial_fit", "tenant": ..., "x": [[...], ...],
        "y": [...]}`` (``features``/``labels`` accepted as the long-form
        aliases).  Answers ``{"applied": N}`` once the update has been
        flushed — i.e. after every predict admitted before it was served.
        """
        if not self.allow_partial_fit:
            raise ValueError(
                "partial_fit is disabled on this server; start with --partial-fit"
            )
        features = request.get("features", request.get("x"))
        labels = request.get("labels", request.get("y"))
        if not isinstance(features, list) or not features:
            raise ValueError(
                "partial_fit must carry a non-empty 'features' (or 'x') "
                "list of samples"
            )
        if not isinstance(labels, list) or not labels:
            raise ValueError(
                "partial_fit must carry a non-empty 'labels' (or 'y') list"
            )
        tenant = request.get("tenant")
        if tenant is not None and (not isinstance(tenant, str) or not tenant):
            raise ValueError("'tenant' must be a non-empty string")
        applied = await self.service.partial_fit(features, labels, tenant=tenant)
        response = {"applied": applied}
        if tenant is not None:
            response["tenant"] = tenant
        return response

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
                return {"id": request_id, **self.health()}
            if op == "list":
                return {"id": request_id, "fleet": self._registry().describe()}
            if op == "evict":
                tenant = self._request_tenant(request)
                released = self._registry().evict(tenant)
                return {"id": request_id, "tenant": tenant, "released": released}
            if op == "publish":
                return {"id": request_id, **await self._publish(request)}
            if op == "partial_fit":
                return {"id": request_id, **await self._partial_fit(request)}
            if op != "predict":
                raise ValueError(f"unknown op {op!r}")
            features = request.get("features", request.get("x"))
            if not isinstance(features, list):
                raise ValueError("request must carry a 'features' (or 'x') list")
            tenant = request.get("tenant")
            if tenant is not None and (not isinstance(tenant, str) or not tenant):
                raise ValueError("'tenant' must be a non-empty string")
            prediction = await self.service.predict(
                features, deadline_ms=request.get("deadline_ms"), tenant=tenant
            )
        except UnknownTenantError as error:
            return {"id": request_id, "error": "unknown_tenant", "detail": str(error)}
        except ServiceOverloadedError as error:
            return {"id": request_id, "error": "overloaded", "detail": str(error)}
        except DeadlineExceededError as error:
            return {"id": request_id, "error": "deadline", "detail": str(error)}
        except UpdateNotSupportedError as error:
            return {"id": request_id, "error": "unsupported", "detail": str(error)}
        except ServiceClosedError as error:
            return {"id": request_id, "error": "closed", "detail": str(error)}
        except (ValueError, TypeError, json.JSONDecodeError, OSError, ArtifactError) as error:
            return {"id": request_id, "error": "invalid", "detail": str(error)}
        response = {"id": request_id, "prediction": int(prediction)}
        if tenant is not None:
            response["tenant"] = tenant
        return response
