"""Sharded serving: tenant affinity, broadcast admin ops, supervised respawn.

Process-spawning tests are kept small (two shards, tiny models saved once
per module) and every assertion that involves shard death goes through
the public recovery surface — acceptor counters, health incarnations,
and the answered responses themselves — not implementation internals.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.lookhd.classifier import LookHDClassifier, LookHDConfig
from repro.lookhd.persistence import save_classifier
from repro.parallel.executor import WorkerError
from repro.serving import (
    InferenceService,
    MicrobatchConfig,
    PipelinedClient,
    ServingServer,
    ShardedServer,
    shard_for,
)


class TestShardFor:
    def test_deterministic_and_in_range(self):
        for n_shards in (1, 2, 3, 8):
            for tenant in ("alpha", "beta", "edge-7", "default"):
                index = shard_for(tenant, n_shards)
                assert 0 <= index < n_shards
                assert index == shard_for(tenant, n_shards)

    def test_stable_across_processes(self):
        # CRC32, not salted hash(): the routing must survive interpreter
        # restarts, or a respawned acceptor would strand per-tenant FIFO.
        assert shard_for("alpha", 4) == 2
        assert shard_for("beta", 4) == 3

    def test_single_shard_takes_everything(self):
        assert shard_for("anything", 1) == 0


@pytest.fixture(scope="module")
def tenant_artifacts(small_dataset, tmp_path_factory):
    root = tmp_path_factory.mktemp("shard-models")
    artifacts = {}
    for tenant, seed in (("alpha", 3), ("beta", 11)):
        clf = LookHDClassifier(
            LookHDConfig(dim=512, levels=4, chunk_size=4, seed=seed)
        )
        clf.fit(small_dataset.train_features, small_dataset.train_labels)
        artifacts[tenant] = (clf, str(save_classifier(clf, root / f"{tenant}.npz")))
    return artifacts


@pytest.fixture
def queries(small_dataset):
    return np.asarray(small_dataset.test_features, dtype=np.float64)[:12]


def _models(tenant_artifacts):
    return [(tenant, path) for tenant, (_, path) in tenant_artifacts.items()]


class TestShardedServer:
    def test_predictions_match_direct_across_tenants(
        self, tenant_artifacts, queries
    ):
        expected = {
            tenant: clf.predict(queries)
            for tenant, (clf, _) in tenant_artifacts.items()
        }

        async def drive():
            async with ShardedServer(
                _models(tenant_artifacts),
                n_shards=2,
                config=MicrobatchConfig(max_batch=8, max_wait_ms=2.0),
            ) as server:
                async with await PipelinedClient.connect(
                    server.host, server.port
                ) as client:
                    # Interleave tenants so both shard links carry
                    # concurrent in-flight traffic.
                    responses = await asyncio.gather(*[
                        client.request(
                            {"op": "predict", "tenant": tenant, "x": row.tolist()}
                        )
                        for row in queries
                        for tenant in ("alpha", "beta")
                    ])
                    health = await server.health()
                stats = server.request_stats()
            return responses, health, stats

        responses, health, stats = asyncio.run(drive())
        for offset, tenant in ((0, "alpha"), (1, "beta")):
            got = np.asarray([r["prediction"] for r in responses[offset::2]])
            np.testing.assert_array_equal(got, expected[tenant])
        assert health["status"] == "ok"
        assert sorted(health["shards"]) == ["0", "1"]
        assert all(block["alive"] for block in health["shards"].values())
        assert stats["dropped"] == 0
        assert stats["failed"] == 0
        assert stats["answered"] == stats["forwarded"]

    def test_broadcast_publish_evict_and_routing_errors(
        self, tenant_artifacts, queries
    ):
        _, alpha_path = tenant_artifacts["alpha"]

        async def drive():
            async with ShardedServer(
                _models(tenant_artifacts),
                n_shards=2,
                config=MicrobatchConfig(max_batch=8, max_wait_ms=2.0),
            ) as server:
                async with await PipelinedClient.connect(
                    server.host, server.port
                ) as client:
                    published = await client.request(
                        {"op": "publish", "tenant": "alpha", "path": alpha_path}
                    )
                    listed = await client.request({"op": "list"})
                    served = await client.request(
                        {"op": "predict", "tenant": "alpha",
                         "x": queries[0].tolist()}
                    )
                    evicted = await client.request(
                        {"op": "evict", "tenant": "alpha"}
                    )
                    unknown = await client.request(
                        {"op": "predict", "tenant": "ghost",
                         "x": queries[0].tolist()}
                    )
                    invalid = await client.request({"op": "predict"})
            return published, listed, served, evicted, unknown, invalid

        published, listed, served, evicted, unknown, invalid = asyncio.run(drive())
        # Publish is a broadcast: one version everywhere, per-shard echo.
        assert published["tenant"] == "alpha" and published["version"] == 2
        assert set(published["shards"]) == {"0", "1"}
        assert all(v == 2 for v in published["shards"].values())
        assert listed["fleet"]["tenants"]["alpha"]["version"] == 2
        assert listed["n_shards"] == 2
        expected = int(tenant_artifacts["alpha"][0].predict(queries[0]))
        assert served["prediction"] == expected  # same artifact: bit-identical
        assert evicted["tenant"] == "alpha" and "released" in evicted
        assert unknown["error"] == "unknown_tenant"
        assert invalid["error"] == "invalid"

    def test_shard_kill_replays_in_flight_requests(
        self, tenant_artifacts, queries
    ):
        alpha_clf, _ = tenant_artifacts["alpha"]
        victim = shard_for("alpha", 2)
        expected = alpha_clf.predict(queries)

        async def drive():
            async with ShardedServer(
                _models(tenant_artifacts),
                n_shards=2,
                config=MicrobatchConfig(max_batch=8, max_wait_ms=20.0),
            ) as server:
                async with await PipelinedClient.connect(
                    server.host, server.port
                ) as client:
                    tasks = [
                        asyncio.create_task(client.request(
                            {"op": "predict", "tenant": "alpha",
                             "x": row.tolist()}
                        ))
                        for row in queries
                    ]
                    # Kill the shard that owns tenant alpha while its
                    # requests are in flight: the supervisor respawns the
                    # slot and the acceptor replays everything pending.
                    await asyncio.sleep(0)
                    server.kill_shard(victim)
                    responses = await asyncio.gather(*tasks)
                    health = await server.health()
                stats = server.request_stats()
            return responses, health, stats

        responses, health, stats = asyncio.run(drive())
        got = np.asarray([r["prediction"] for r in responses])
        np.testing.assert_array_equal(got, expected)  # replay is idempotent
        assert stats["respawns"] >= 1
        assert stats["dropped"] == 0
        assert health["shards"][str(victim)]["incarnation"] >= 1
        assert health["shards"][str(victim)]["alive"] is True

    def test_constructor_validation(self, tenant_artifacts):
        with pytest.raises(ValueError, match="n_shards"):
            ShardedServer(_models(tenant_artifacts), n_shards=0)
        with pytest.raises(ValueError, match="max_respawns"):
            ShardedServer(_models(tenant_artifacts), n_shards=1, max_respawns=-1)
        with pytest.raises(ValueError, match="tenant"):
            ShardedServer([("", "model.npz")], n_shards=1)
        with pytest.raises(ValueError, match="path"):
            ShardedServer([("alpha", "")], n_shards=1)

    def test_shard_dying_before_ready_fails_start_typed(self, tmp_path):
        # The shard cannot load its artifact and exits; its ready pipe
        # closes, so start() fails at once instead of at the ready timeout.
        async def drive():
            server = ShardedServer(
                [("ghost", str(tmp_path / "missing.npz"))], n_shards=1, ready_timeout=20.0
            )
            await server.start()

        with pytest.raises(WorkerError, match="before reporting ready"):
            asyncio.run(drive())


class TestPipelinedServerMode:
    def test_out_of_order_responses_matched_by_id(
        self, fitted_lookhd, queries
    ):
        expected = fitted_lookhd.predict(queries)

        async def drive():
            service = InferenceService(
                fitted_lookhd, MicrobatchConfig(max_batch=4, max_wait_ms=2.0)
            )
            async with ServingServer(service, port=0, pipelined=True) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                # Burst every request down the single connection before
                # reading anything back — the sequential protocol would
                # deadlock-or-serialise here; pipelined mode answers all.
                for i, row in enumerate(queries):
                    writer.write(
                        (json.dumps({"id": i, "features": row.tolist()}) + "\n")
                        .encode()
                    )
                await writer.drain()
                responses = [
                    json.loads(await reader.readline()) for _ in queries
                ]
                writer.close()
                await writer.wait_closed()
            return responses

        responses = asyncio.run(drive())
        by_id = {r["id"]: r["prediction"] for r in responses}
        assert sorted(by_id) == list(range(len(queries)))
        np.testing.assert_array_equal(
            np.asarray([by_id[i] for i in range(len(queries))]), expected
        )

    def test_pipelined_client_round_trip(self, fitted_lookhd, queries):
        expected = fitted_lookhd.predict(queries)

        async def drive():
            service = InferenceService(
                fitted_lookhd, MicrobatchConfig(max_batch=4, max_wait_ms=2.0)
            )
            async with ServingServer(service, port=0, pipelined=True) as server:
                async with await PipelinedClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    responses = await asyncio.gather(*[
                        client.request({"features": row.tolist()})
                        for row in queries
                    ])
            return responses

        responses = asyncio.run(drive())
        np.testing.assert_array_equal(
            np.asarray([r["prediction"] for r in responses]), expected
        )
