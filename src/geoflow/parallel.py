"""Order-preserving map, kept as the binding ``bench/tracer.py`` wraps.

Nothing in the package calls it.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

__all__ = ["parallel_map"]

_T = TypeVar("_T")
_R = TypeVar("_R")


def parallel_map(fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
    """``[fn(item) for item in items]``, in order."""
    return [fn(item) for item in items]
