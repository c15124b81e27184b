"""Build and load the compiled fused predict kernel, ``fused_predict.c``.

The kernel is compiled on first use with the system C compiler (``cc``,
else ``gcc``) into a user cache directory, keyed by the source hash, the
compiler's resolved path and stat, and the machine.  The build goes to a
temp file in that directory and is moved into place with ``os.replace``,
so processes that first use the kernel at the same time each load a
complete library.  Once built, loading runs no compiler.

The flags keep floating point exact: no ``-ffast-math`` and no
``-march=native``, and ``-ffp-contract=off``, so the chunk-major
addition order of :func:`repro.kernels.reference.gather_accumulate` is
reproduced bit for bit.

When no compiler is found, the build fails, the cache is unwritable or
the library does not load, :func:`kernel` returns ``None``,
:func:`fallback_reason` says why, and callers serve the NumPy path.  The
library handle lives here, at module level, so nothing that gets pickled
or persisted ever holds it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("fused_predict.c")
COMPILERS = ("cc", "gcc")
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
COMPILE_TIMEOUT_S = 120

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p
#: Every argument declared: without argtypes ctypes would pass the int64
#: sizes as 32-bit C ints.
_ARGTYPES = (_PTR, _I64, _I64, _PTR, _I64, _I64, _I64, _I64, _PTR, _I64, _I64, _PTR, _PTR)

_lock = threading.Lock()
#: ``None`` until the first load attempt, then ``(library, function,
#: fallback reason)`` with exactly one of function / reason set.
_state: tuple | None = None


def cache_dir() -> Path:
    """The user cache directory the built library goes to."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro-lookhd"


def find_compiler() -> str | None:
    """Resolved path of the first C compiler on ``PATH``, or ``None``."""
    for name in COMPILERS:
        path = shutil.which(name)
        if path:
            return os.path.realpath(path)
    return None


def library_path(compiler: str, source: bytes) -> Path:
    """Where the build of ``source`` by ``compiler`` is cached."""
    stat = os.stat(compiler)
    key = hashlib.sha256(source)
    for part in (compiler, stat.st_size, stat.st_mtime_ns, platform.machine(), sys.platform, FLAGS):
        key.update(repr(part).encode())
    return cache_dir() / f"fused_predict-{key.hexdigest()[:24]}.so"


def _build(compiler: str, library: Path) -> str | None:
    """Compile into ``library`` atomically; the fallback reason on failure."""
    try:
        library.parent.mkdir(parents=True, exist_ok=True)
        handle, temp = tempfile.mkstemp(prefix=library.stem + ".", suffix=".tmp", dir=library.parent)
        os.close(handle)
    except OSError as exc:
        return f"cache unwritable: {exc}"
    try:
        subprocess.run(
            [compiler, *FLAGS, "-o", temp, str(SOURCE)],
            check=True, capture_output=True, text=True, timeout=COMPILE_TIMEOUT_S,
        )
        os.replace(temp, library)
    except subprocess.CalledProcessError as exc:
        lines = (exc.stderr or "").strip().splitlines()
        return f"compile failed: {lines[0] if lines else f'exit status {exc.returncode}'}"
    except (OSError, subprocess.SubprocessError) as exc:
        return f"compile failed: {exc}"
    finally:
        if os.path.exists(temp):
            os.unlink(temp)
    return None


def _load() -> tuple:
    compiler = find_compiler()
    if compiler is None:
        return None, None, f"no C compiler ({', '.join(COMPILERS)}) on PATH"
    try:
        library = library_path(compiler, SOURCE.read_bytes())
    except OSError as exc:
        return None, None, f"load failed: {exc}"
    if not library.exists():
        reason = _build(compiler, library)
        if reason is not None:
            return None, None, reason
    try:
        handle = ctypes.CDLL(str(library))
        function = handle.fused_predict
    except (OSError, AttributeError) as exc:
        return None, None, f"load failed: {exc}"
    function.argtypes = _ARGTYPES
    function.restype = _I64
    return handle, function, None


def _loaded() -> tuple:
    global _state
    state = _state
    if state is None:
        with _lock:
            if _state is None:
                _state = _load()
            state = _state
    return state


def kernel():
    """The loaded kernel function (building it on first use), or ``None``."""
    return _loaded()[1]


def fallback_reason() -> str | None:
    """Why the kernel is not available (``None`` when it is)."""
    return _loaded()[2]


def _address(array: np.ndarray) -> int:
    """Data address of a C-contiguous array.

    ``from_buffer`` costs about a third of ``array.ctypes.data``, which
    matters at batch 1; read-only and empty arrays take the slow route.
    """
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    except (TypeError, ValueError):
        return array.ctypes.data


def fused_predict(
    values: np.ndarray,
    boundaries: np.ndarray,
    q: int,
    chunk_size: int,
    n_chunks: int,
    table: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Quantize, address, score and argmax ``(N, n)`` values in one C pass.

    ``boundaries`` are the ascending global quantizer boundaries (levels
    are ``searchsorted(boundaries, v, side="right")``, clipped to
    ``q - 1``) and ``table`` the ``(n_chunks, q**chunk_size, k)`` float64
    score table.  Returns ``(scores, predictions, bad_row)``: ``(N, k)``
    float64 scores bit-identical to
    ``gather_accumulate(table, chunk_addresses(levels, …))``, ``(N,)``
    int64 first-max argmaxes, and ``-1``, or the index of the first row
    holding a non-finite value (that row and those after it are left
    unscored).
    """
    function = kernel()
    if function is None:
        raise RuntimeError(f"the compiled fused predict kernel is unavailable: {fallback_reason()}")
    values = np.ascontiguousarray(values, dtype=np.float64)
    boundaries = np.ascontiguousarray(boundaries, dtype=np.float64)
    table = np.ascontiguousarray(table, dtype=np.float64)
    n_rows, n_features = values.shape
    if (
        table.ndim != 3
        or table.shape[0] != n_chunks
        or q < 1
        or table.shape[1] != q**chunk_size
        or not 0 < n_features <= n_chunks * chunk_size
    ):
        raise ValueError(
            f"table {table.shape} and {n_features} features do not fit "
            f"{n_chunks} chunks of {chunk_size} at q={q}"
        )
    k = table.shape[2]
    scores = np.empty((n_rows, k), dtype=np.float64)
    predictions = np.empty(n_rows, dtype=np.int64)
    bad_row = function(
        _address(values), n_rows, n_features,
        _address(boundaries), min(boundaries.size, q - 1), q,
        chunk_size, n_chunks,
        _address(table), table.shape[1], k,
        _address(scores), _address(predictions),
    )
    return scores, predictions, int(bad_row)
