"""Span recording around the calls into each layer's public functions.

The traced run installs wrappers from the benchmark's own files; the
program under test is not edited.  Module-level kernel ops are replaced
on ``repro.kernels`` (every caller reaches them as ``kernels.<op>``) and
public methods are replaced on their classes.  Spans stay in memory as
plain tuples and are written out, or aggregated, when the run ends.

A span is ``(name, start, end, parent, key, rows, nbytes, caller, ok)``:

* ``parent`` is the index of the enclosing synchronous span, or -1;
* ``key`` groups the spans of one request (the tenant for service spans);
* ``rows`` is the batch height the call processed;
* ``nbytes`` is bytes moved computed from tensor sizes (gather ops only);
* ``caller`` is the calling function's name, which separates the
  service's batch predict (``_predict_batch``) from offline calls;
* ``ok`` is false when the call raised.

Times come from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), which
all processes on one host share, so spans recorded in a server process
line up with the client's phase boundaries.
"""

from __future__ import annotations

import functools
import sys
import time

NAME, START, END, PARENT, KEY, ROWS, NBYTES, CALLER, OK = range(9)


def _rows(array) -> int:
    shape = getattr(array, "shape", None)
    if shape is None:
        try:
            return len(array) if array and isinstance(array[0], (list, tuple)) else 1
        except TypeError:
            return 1
    return int(shape[0]) if len(shape) > 1 else 1


def _gather_bytes(args) -> int:
    """Bytes one ``gather_accumulate`` call moves, from its tensor sizes.

    Each of the ``N × m`` addresses reads one table row of ``width``
    elements; the addresses are read once and the ``(N, width)`` output
    is written once in the output dtype (float64 or the int accumulator,
    both 8 bytes).
    """
    table, addresses = args[0], args[1]
    n, m = addresses.shape
    width = table.shape[-1]
    return int(n * m * width * table.itemsize + addresses.nbytes + n * width * 8)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _sync(self, name, fn, rows_of, bytes_of=None, keyed=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(spans)
            spans.append(None)
            tracer._stack.append(index)
            caller = sys._getframe(1).f_code.co_name
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                spans[index] = (
                    name,
                    start,
                    end,
                    parent,
                    id(args[0]) if keyed else None,
                    rows_of(args),
                    bytes_of(args) if bytes_of is not None and ok else 0,
                    caller,
                    ok,
                )

        return wrapper

    def _async(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        async def wrapper(service, features, *args, **kwargs):
            key = kwargs.get("tenant") or service.DEFAULT_TENANT
            ok = False
            start = time.perf_counter()
            try:
                result = await fn(service, features, *args, **kwargs)
                ok = True
                return result
            finally:
                tracer.spans.append(
                    (name, start, time.perf_counter(), -1, key, 1, 0, "", ok)
                )

        return wrapper

    def _patch(self, owner, attribute: str, wrapper) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    # -- installation ------------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every layer boundary the benchmark reports on."""
        from repro import kernels
        from repro.lookhd.classifier import LookHDClassifier
        from repro.lookhd.online import OnlineLookHD
        from repro.quantization.base import Quantizer
        from repro.serving.registry import ModelRegistry
        from repro.serving.service import InferenceService
        from repro.streaming.quantizer import StreamingQuantizer

        def first_rows(args):
            return _rows(args[0])

        def method_rows(args):
            return _rows(args[1])

        def one(args):
            return 1

        for op in ("chunk_addresses", "counter_observe", "gather_accumulate"):
            rows = (lambda args: _rows(args[1])) if op == "gather_accumulate" else first_rows
            bytes_of = _gather_bytes if op == "gather_accumulate" else None
            self._patch(
                kernels, op, self._sync(f"kernels.{op}", getattr(kernels, op), rows, bytes_of)
            )
        self._patch(
            kernels,
            "counter_materialize",
            self._sync("kernels.counter_materialize", kernels.counter_materialize, one),
        )
        self._patch(
            kernels,
            "compressed_score",
            self._sync("kernels.compressed_score", kernels.compressed_score, first_rows),
        )
        self._patch(
            Quantizer,
            "transform",
            self._sync("quantization.transform", Quantizer.transform, method_rows),
        )
        for owner, method, name, rows in (
            (LookHDClassifier, "predict", "lookhd.predict", method_rows),
            (LookHDClassifier, "fit", "lookhd.fit", method_rows),
            (LookHDClassifier, "warm_tables", "lookhd.warm_tables", one),
            (OnlineLookHD, "predict", "lookhd.online.predict", method_rows),
            (OnlineLookHD, "partial_fit", "lookhd.online.partial_fit", method_rows),
            (StreamingQuantizer, "partial_fit", "streaming.quantizer.partial_fit", method_rows),
            (ModelRegistry, "publish", "registry.publish", one),
        ):
            self._patch(
                owner, method, self._sync(name, owner.__dict__[method], rows, keyed=True)
            )
        self._patch(
            InferenceService,
            "predict",
            self._async("service.predict", InferenceService.predict),
        )
        self._patch(
            InferenceService,
            "partial_fit",
            self._async("service.partial_fit", InferenceService.partial_fit),
        )
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


# -- aggregation -------------------------------------------------------------------


def children_index(spans) -> dict[int, float]:
    """``{parent index: seconds covered by its direct children}`` in one pass."""
    covered: dict[int, float] = {}
    for span in spans:
        if span is not None and span[PARENT] >= 0:
            covered[span[PARENT]] = covered.get(span[PARENT], 0.0) + span[END] - span[START]
    return covered
