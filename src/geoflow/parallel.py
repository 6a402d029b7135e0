"""Thread-pool helper honoring the GEOFLOW_THREADS cap.

Nothing in the package calls it any more: two threads were slower than
one on every workload.  It stays importable for ``bench/tracer.py``.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

__all__ = ["thread_count", "parallel_map"]

_T = TypeVar("_T")
_R = TypeVar("_R")


def thread_count() -> int:
    """Worker count: GEOFLOW_THREADS if set and positive, else the CPU count."""
    raw = os.environ.get("GEOFLOW_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n <= 0:
        n = os.cpu_count() or 1
    return n


def parallel_map(fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
    """Order-preserving map over a thread pool.

    Falls back to a plain loop for a single worker or a single item, so
    results (and their order) are identical either way.
    """
    seq: Sequence[_T] = list(items)
    workers = min(thread_count(), len(seq)) or 1
    if workers == 1:
        return [fn(item) for item in seq]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, seq))
