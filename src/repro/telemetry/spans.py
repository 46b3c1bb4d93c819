"""Span-based tracing: ``with span("mma.model")`` and ``@traced``.

Spans nest through a :mod:`contextvars` stack, so the durations recorded in
the global registry form a tree keyed by the path of enclosing span names —
batched pipelines attribute time per stage even when stages call each other
(e.g. feature encoding invoking the bulk k-NN internally).

Disabled mode returns one shared no-op context manager: the per-call cost
is a flag check plus two trivial method calls, bounded by the perf smoke
test in ``tests/test_telemetry.py``.
"""

from __future__ import annotations

import functools
import os
from contextvars import ContextVar
from time import perf_counter
from typing import Callable, Optional, Tuple, TypeVar

from . import state

_PATH: ContextVar[Tuple[str, ...]] = ContextVar("repro_span_path", default=())


def _reset_path_after_fork() -> None:
    # A child forked mid-span inherits the parent's open path, which would
    # root every worker span under a stage it never entered (and the parent
    # exit that would pop it never happens in the child).
    _PATH.set(())


if hasattr(os, "register_at_fork"):  # pragma: no branch - always true on posix
    os.register_at_fork(after_in_child=_reset_path_after_fork)

F = TypeVar("F", bound=Callable)


class _NullSpan:
    """Shared do-nothing span used whenever telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("_name", "_token", "_start")

    def __init__(self, name: str) -> None:
        self._name = name

    def __enter__(self) -> "_Span":
        self._token = _PATH.set(_PATH.get() + (self._name,))
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        elapsed = perf_counter() - self._start
        path = _PATH.get()
        _PATH.reset(self._token)
        state.get_registry().record_span(path, elapsed)
        return False


def span(name: str):
    """Context manager timing a named stage (no-op when disabled).

    >>> from repro import telemetry
    >>> with telemetry.span("demo"):
    ...     pass
    """
    if not state._enabled:
        return _NULL_SPAN
    return _Span(name)


def traced(name: Optional[str] = None) -> Callable[[F], F]:
    """Decorator form of :func:`span`; defaults to the function's name.

    Usable both bare (``@traced``) and parameterised (``@traced("stage")``).
    """
    if callable(name):  # bare @traced usage
        return traced()(name)

    def decorate(fn: F) -> F:
        label = name or fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not state._enabled:
                return fn(*args, **kwargs)
            with _Span(label):
                return fn(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate


def current_path() -> Tuple[str, ...]:
    """The active span path (empty outside any span)."""
    return _PATH.get()
