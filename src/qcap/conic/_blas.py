"""One OpenBLAS thread for each solve and each phase-sector search.

On the CLI experiments the solver's dense work runs on PSD blocks of side at
most 64 and Schur complements of at most a few hundred rows, where OpenBLAS
threads cost more in hand-offs than they save; at four channel uses the
Schur complements reach 1,312-3,905 rows, where two threads factor faster.
numpy and scipy may each load their own OpenBLAS copy, so every loaded copy is found through
``/proc/self/maps`` and driven through its own thread-count symbols.  Where
no copy is found (another BLAS, another platform) this does nothing.
"""
from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager

_MAPS = "/proc/self/maps"
_SYMBOLS = [
    (f"{pre}openblas_get_num_threads{suf}", f"{pre}openblas_set_num_threads{suf}")
    for pre in ("scipy_", "")
    for suf in ("64_", "")
]

_pools: list | None = None  # (get, set) per loaded OpenBLAS, found on first use
_lock = threading.Lock()
_depth = 0
_saved: list[int] = []


def _find_pools() -> list:
    try:
        with open(_MAPS) as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return []
    pools = []
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get, put = getattr(dll, get_name, None), getattr(dll, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                pools.append((get, put))
                break
    return pools


def blas_pools() -> list:
    """(get, set) thread-count functions of every loaded OpenBLAS, cached."""
    global _pools
    if _pools is None:
        _pools = _find_pools()
    return _pools


@contextmanager
def one_blas_thread():
    """Run the body with each OpenBLAS at 1 thread, then restore its count.

    Nested and concurrent uses share one limit: the outermost entry saves
    the counts and the last exit restores them.
    """
    global _depth, _saved
    pools = blas_pools()
    with _lock:
        if _depth == 0:
            _saved = [get() for get, _ in pools]
            for _, put in pools:
                put(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for (_, put), n in zip(pools, _saved):
                    put(n)
