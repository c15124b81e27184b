"""Serve saved models the way one ``repro serve --shards`` shard does.

A pipelined :class:`~repro.serving.server.ServingServer` over a
:class:`~repro.serving.registry.ModelRegistry` of the given artifacts,
default :class:`~repro.serving.service.MicrobatchConfig`, and a
:class:`~repro.resilience.FleetScrubber` ticking every 0.25 s while the
queue is idle.  The only additions are the benchmark's: it prints
``ready <port>`` once listening, can install the span wrappers
(``--trace``), and on SIGTERM drains, then writes its request books,
registry snapshot and spans to ``--report``.

Usage::

    python3 perfbench/fleet_server.py --models NAME=PATH ... --report OUT.json [--trace]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import import_repro  # noqa: E402

import_repro()

from tracing import Tracer  # noqa: E402

#: Scrub cadence of a ``repro serve`` shard (its ``--scrub-interval`` default).
SCRUB_INTERVAL_S = 0.25


def _model(text: str) -> tuple[str, str]:
    name, _, path = text.partition("=")
    if not name or not path:
        raise argparse.ArgumentTypeError(f"expected NAME=PATH, got {text!r}")
    return name, path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--models", nargs="+", type=_model, required=True)
    parser.add_argument("--report", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer().install() if args.trace else None

    from repro.lookhd import load_classifier
    from repro.resilience import FleetScrubber
    from repro.serving import InferenceService, MicrobatchConfig, ModelRegistry, ServingServer

    registry = ModelRegistry()
    for tenant, path in args.models:
        registry.publish(tenant, load_classifier(path))
    service = InferenceService(registry=registry, config=MicrobatchConfig())

    async def serve() -> None:
        server = ServingServer(
            service,
            host="127.0.0.1",
            port=0,
            scrubber=FleetScrubber(registry),
            scrub_interval=SCRUB_INTERVAL_S,
            pipelined=True,
        )
        await server.start()
        print(f"ready {server.port}", flush=True)
        shutdown = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, shutdown.set)
        await shutdown.wait()
        await server.stop()

    asyncio.run(serve())
    requests = service.request_stats()
    requests.pop("kernel_backends", None)
    report = {
        "requests": requests,
        "registry": registry.describe(),
        "max_batch": service.config.max_batch,
        "tenant_of": {
            str(id(registry.record(tenant).classifier)): tenant for tenant in registry.tenants()
        },
        "spans": tracer.spans if tracer is not None else [],
    }
    args.report.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
