"""Wire robustness: long request lines, over-limit lines, hostile lines.

Every NDJSON endpoint reads lines up to ``LINE_LIMIT``.  A ``partial_fit``
the size an in-process learner takes (64 rows at n=100, ~130 KB of JSON)
must be answered over TCP; a line over the limit must get one typed
``too_large`` answer, be counted, and close the connection — never an
asyncio "Unhandled exception" traceback or a bare reset.  Any other line
a client can send gets a typed error and shows up in ``health``.
"""

from __future__ import annotations

import asyncio
import json
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import SyntheticSpec, make_synthetic_classification
from repro.lookhd.classifier import LookHDClassifier, LookHDConfig
from repro.lookhd.online import OnlineLookHD
from repro.lookhd.persistence import save_classifier
from repro.serving import (
    InferenceService,
    MicrobatchConfig,
    PipelinedClient,
    ServingError,
    ServingServer,
    ShardedServer,
)
from repro.serving.server import LINE_LIMIT

N_FEATURES = 100
UPDATE_ROWS = 64
#: Never parsed: the server must answer before decoding anything.
OVERSIZED = b'{"op": "predict", "x": [' + b"0.5, " * (LINE_LIMIT // 5) + b"0.5]}\n"


@pytest.fixture(scope="module")
def wide_dataset():
    spec = SyntheticSpec(n_features=N_FEATURES, n_classes=4, n_train=200, n_test=40, seed=5)
    return make_synthetic_classification(spec, name="wide")


@pytest.fixture(scope="module")
def wide_classifier(wide_dataset):
    clf = LookHDClassifier(LookHDConfig(dim=256, levels=4, chunk_size=4, seed=2))
    clf.fit(wide_dataset.train_features, wide_dataset.train_labels)
    return clf


@pytest.fixture
def update_line(wide_dataset):
    """A 64-row n=100 ``partial_fit`` line, well over asyncio's 64 KiB default."""
    payload = {
        "id": 1,
        "op": "partial_fit",
        "x": wide_dataset.train_features[:UPDATE_ROWS].tolist(),
        "y": wide_dataset.train_labels[:UPDATE_ROWS].tolist(),
    }
    line = (json.dumps(payload) + "\n").encode()
    assert 65536 < len(line) < LINE_LIMIT
    return line


@pytest.fixture
def no_asyncio_tracebacks(caplog):
    caplog.set_level(logging.DEBUG, logger="asyncio")
    yield
    unhandled = [r for r in caplog.records if "Unhandled exception" in r.getMessage()]
    assert not unhandled, [r.getMessage() for r in unhandled]
    assert not [r for r in caplog.records if r.name == "asyncio" and r.exc_info]


async def _exchange(port: int, line: bytes, then_closed: bool = False) -> dict:
    """Send one line and read its answer (and, if asked, the server's close)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=LINE_LIMIT)
    try:
        writer.write(line)
        await writer.drain()
        response = json.loads(await reader.readline())
        if then_closed:
            assert await asyncio.wait_for(reader.read(), timeout=10) == b""
    finally:
        writer.close()
        await writer.wait_closed()
    return response


def _online(wide_dataset, wide_classifier) -> OnlineLookHD:
    learner = OnlineLookHD(wide_classifier.encoder, 4)
    learner.partial_fit(wide_dataset.train_features[64:], wide_dataset.train_labels[64:])
    return learner


@pytest.mark.parametrize("pipelined", [False, True], ids=["sequential", "pipelined"])
def test_large_update_and_oversized_line(
    pipelined, wide_dataset, wide_classifier, update_line, no_asyncio_tracebacks
):
    learner = _online(wide_dataset, wide_classifier)
    seen = learner.samples_seen

    async def drive():
        service = InferenceService(learner, MicrobatchConfig(max_batch=8, max_wait_ms=2.0))
        async with ServingServer(
            service, allow_partial_fit=True, pipelined=pipelined
        ) as server:
            applied = await _exchange(server.port, update_line)
            rejected = await _exchange(server.port, OVERSIZED, then_closed=True)
            # The server keeps serving after closing the offending connection.
            query = {"id": 2, "x": wide_dataset.test_features[0].tolist()}
            after = await _exchange(server.port, (json.dumps(query) + "\n").encode())
            return applied, rejected, after, server.health()

    applied, rejected, after, health = asyncio.run(drive())
    assert applied == {"id": 1, "applied": UPDATE_ROWS}
    assert learner.samples_seen == seen + UPDATE_ROWS
    assert rejected["id"] is None and rejected["error"] == "too_large"
    assert after["prediction"] == int(learner.predict(wide_dataset.test_features[:1])[0])
    assert health["errors"] == {"too_large": 1}
    assert health["requests"]["updates"] == 1
    assert health["requests"]["dropped"] == 0


def test_sharded_acceptor_carries_large_lines(
    wide_classifier, update_line, tmp_path, no_asyncio_tracebacks
):
    models = [
        (tenant, str(save_classifier(wide_classifier, tmp_path / f"{tenant}.npz")))
        for tenant in ("alpha", "beta")
    ]
    tenant_line = update_line.replace(b'"id": 1,', b'"id": 1, "tenant": "alpha",')

    async def drive():
        async with ShardedServer(models, n_shards=2, allow_partial_fit=True) as server:
            forwarded = await _exchange(server.port, tenant_line)
            rejected = await _exchange(server.port, OVERSIZED, then_closed=True)
            return forwarded, rejected, await server.health()

    forwarded, rejected, health = asyncio.run(drive())
    # Shards serve saved (offline) classifiers, so the shard's typed
    # ``unsupported`` answer is what proves the line crossed both hops.
    assert forwarded["id"] == 1 and forwarded["error"] == "unsupported"
    assert rejected["id"] is None and rejected["error"] == "too_large"
    assert health["errors"] == {"too_large": 1, "unsupported": 1}
    assert health["requests"]["dropped"] == 0
    assert health["requests"]["failed"] == 0


def test_acceptor_checks_the_line_it_forwards(
    wide_dataset, wide_classifier, tmp_path, no_asyncio_tracebacks
):
    """The shard hop re-encodes each request; that copy must fit the limit too.

    Raw UTF-8 padding passes through at its own size.  A request whose
    forwarded copy grows past the limit (``1e9`` re-encodes as
    ``1000000000.0``) is answered ``too_large`` by the acceptor and never
    reaches a shard, so no shard is respawned or failed over it.
    """
    models = [
        (tenant, str(save_classifier(wide_classifier, tmp_path / f"{tenant}.npz")))
        for tenant in ("alpha", "beta")
    ]
    x = wide_dataset.test_features[0].tolist()
    query = json.dumps({"tenant": "alpha", "x": x}).encode()[:-1]
    accent = "\u00e9".encode()  # two bytes raw, six once ASCII-escaped
    unicode_padded = query + b', "id": 1, "pad": "' + accent * (LINE_LIMIT // 3) + b'"}\n'
    number_padded = query + b', "id": 2, "pad": [' + b"1e9," * (LINE_LIMIT // 8) + b"1e9]}\n"
    plain = query + b', "id": 3}\n'
    assert len(unicode_padded) < LINE_LIMIT and len(number_padded) < LINE_LIMIT

    async def drive():
        async with ShardedServer(models, n_shards=2) as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port, limit=LINE_LIMIT
            )
            responses = []
            for line in (unicode_padded, number_padded, plain):
                writer.write(line)
                await writer.drain()
                responses.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            return responses, await server.health()

    (passed, rejected, after), health = asyncio.run(drive())
    expected = int(wide_classifier.predict(wide_dataset.test_features[:1])[0])
    assert passed == {"id": 1, "prediction": expected, "tenant": "alpha"}
    assert rejected["id"] == 2 and rejected["error"] == "too_large"
    assert after == {"id": 3, "prediction": expected, "tenant": "alpha"}
    assert health["status"] == "ok"
    assert health["errors"] == {"too_large": 1}
    requests = health["requests"]
    assert requests["forwarded"] == requests["answered"]
    assert requests["respawns"] == requests["failed"] == requests["dropped"] == 0


def test_pipelined_client_fails_on_an_over_limit_response(no_asyncio_tracebacks):
    async def drive():
        async def answer_oversized(reader, writer):
            await reader.readline()
            writer.write(OVERSIZED)
            await writer.drain()
            await reader.read()
            writer.close()

        server = await asyncio.start_server(answer_oversized, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            async with await PipelinedClient.connect("127.0.0.1", port) as client:
                with pytest.raises(ServingError, match="exceeds"):
                    await asyncio.wait_for(client.request({"op": "health"}), timeout=10)
                with pytest.raises(ServingError, match="closed"):
                    await client.request({"op": "health"})
        finally:
            server.close()
            await server.wait_closed()

    asyncio.run(drive())


_malformed = st.text(max_size=20).map(lambda text: ('{"x": [' + text).encode())
_non_utf8 = st.binary(max_size=20).map(lambda raw: b"\xff" + raw)
_non_object = st.one_of(
    st.integers(), st.none(), st.booleans(), st.text(max_size=10), st.lists(st.integers())
).map(lambda value: json.dumps(value).encode())
_wrong_width = st.integers(0, 60).filter(lambda width: width != N_FEATURES).map(
    lambda width: json.dumps({"id": width, "x": [0.5] * width}).encode()
)
_hostile = st.one_of(_malformed, _non_utf8, _non_object, _wrong_width).map(
    lambda line: line.replace(b"\n", b" ") + b"\n"
)


@settings(max_examples=25, deadline=None)
@given(lines=st.lists(_hostile, min_size=1, max_size=8))
def test_hostile_lines_get_typed_errors_and_are_accounted(wide_classifier, lines):
    async def drive():
        service = InferenceService(wide_classifier)
        async with ServingServer(service) as server:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            responses = []
            for line in lines:
                writer.write(line)
                await writer.drain()
                responses.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            return responses, server.health()

    responses, health = asyncio.run(drive())
    assert [response["error"] for response in responses] == ["invalid"] * len(lines)
    assert all(isinstance(response["detail"], str) for response in responses)
    assert health["errors"] == {"invalid": len(lines)}
    assert health["requests"]["admitted"] == 0
    assert health["requests"]["dropped"] == 0

