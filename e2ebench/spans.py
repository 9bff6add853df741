"""Spans around calls into the program's layers, and the arithmetic on them.

A :class:`Tracer` replaces a function (or property) of the program with
a wrapper that records one :class:`Span` per call: its name
(``layer:function``), start and end (``perf_counter`` seconds), the
span that was open when it was called (its parent, tracked per thread
and per asyncio task through a context variable) and an op id shared
by every span that serves one operation.  Spans stay in memory until
the traced process writes them out.

Self time is a span's duration minus the part of its interval that its
children cover; a layer is *busy* for the duration of its outermost
spans, so a layer calling itself is not counted twice.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import time
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

#: Shared attrs of spans that record none (never mutated).
EMPTY: Dict[str, Any] = {}

AttrsFn = Callable[[tuple, dict, Any], Dict[str, Any]]
OpFn = Callable[[tuple, dict], str]


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    op: Optional[str] = None
    attrs: Dict[str, Any] = EMPTY

    @property
    def layer(self) -> str:
        return self.name.partition(":")[0]

    @property
    def duration(self) -> float:
        return self.end - self.start



class Tracer:
    """Records spans for wrapped callables; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar("span", default=None)

    def _begin(self, args: tuple, kwargs: dict, op: Optional[OpFn]):
        parent = self._current.get()
        span_id = next(self._ids)
        op_id = op(args, kwargs) if op is not None else (parent[1] if parent else None)
        token = self._current.set((span_id, op_id))
        return span_id, parent[0] if parent else None, op_id, token

    def _end(self, name, begun, start, args, kwargs, result, attrs, failed) -> None:
        span_id, parent, op_id, token = begun
        end = self.clock()
        self._current.reset(token)
        values = {"error": failed} if failed else (attrs(args, kwargs, result) if attrs else EMPTY)
        self.spans.append(Span(span_id, parent, name, start, end, op_id, values))

    def traced(
        self,
        function: Callable,
        name: str,
        attrs: Optional[AttrsFn] = None,
        op: Optional[OpFn] = None,
    ) -> Callable:
        """``function`` wrapped to record a span per call (sync or async)."""
        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def async_wrapper(*args, **kwargs):
                begun = self._begin(args, kwargs, op)
                start = self.clock()
                result, failed = None, ""
                try:
                    result = await function(*args, **kwargs)
                    return result
                except BaseException as error:
                    failed = type(error).__name__
                    raise
                finally:
                    self._end(name, begun, start, args, kwargs, result, attrs, failed)

            return async_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            begun = self._begin(args, kwargs, op)
            start = self.clock()
            result, failed = None, ""
            try:
                result = function(*args, **kwargs)
                return result
            except BaseException as error:
                failed = type(error).__name__
                raise
            finally:
                self._end(name, begun, start, args, kwargs, result, attrs, failed)

        return wrapper

    def wrap(self, owner: Any, attribute: str, name: str, **options) -> None:
        """Replace ``owner.attribute`` (function, method or property) by a traced one."""
        current = inspect.getattr_static(owner, attribute)
        if isinstance(current, property):
            setattr(owner, attribute, property(self.traced(current.fget, name, **options)))
        else:
            setattr(owner, attribute, self.traced(getattr(owner, attribute), name, **options))


# ---------------------------------------------------------------------------
# Arithmetic on recorded spans
# ---------------------------------------------------------------------------


def covered(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total, reach = 0.0, start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def outermost(spans: Sequence[Span], layer: str) -> List[Span]:
    """Spans of ``layer`` with no ancestor span of the same layer."""
    by_id = {span.id: span for span in spans}
    result = []
    for span in spans:
        if span.layer != layer:
            continue
        parent = by_id.get(span.parent) if span.parent is not None else None
        while parent is not None and parent.layer != layer:
            parent = by_id.get(parent.parent) if parent.parent is not None else None
        if parent is None:
            result.append(span)
    return result


def busy_seconds(spans: Sequence[Span], layer: str) -> float:
    return sum(span.duration for span in outermost(spans, layer))


def window_waits(spans: Sequence[Span]) -> List[float]:
    """Seconds each batched request waited for its batch to start.

    A ``service.batching:submit`` span is matched to the first
    ``experiments.setup:predictor_batch`` span that starts after it
    and carries its op key; a submit answered from another request's
    batch that was already running (in-flight dedup) has none.
    """
    starts: Dict[str, List[float]] = {}
    for span in spans:
        if span.name == "experiments.setup:predictor_batch":
            for key in span.attrs.get("ops", ()):
                starts.setdefault(key, []).append(span.start)
    for values in starts.values():
        values.sort()
    waits = []
    for span in spans:
        if span.name != "service.batching:submit":
            continue
        candidates = starts.get(span.op, [])
        index = bisect_left(candidates, span.start)
        if index < len(candidates) and candidates[index] <= span.end:
            waits.append(candidates[index] - span.start)
    return waits


def _count(spans: Sequence[Span], name: str) -> int:
    return sum(1 for span in spans if span.name == name)


def _attr_sum(spans: Sequence[Span], name: str, attr: str) -> float:
    return sum(span.attrs.get(attr, 0) for span in spans if span.name == name)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_table(spans: Sequence[Span], counters: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from one traced run's spans and end-of-run counters.

    ``counters`` carries what the program counts itself and the benchmark
    reads at exit (``import_s``, the profile stores' ``simulated`` and
    ``loaded`` totals).
    """
    self_of = self_times(spans)

    def self_sum(layer: str) -> float:
        return sum(self_of[span.id] for span in spans if span.layer == layer)

    store_requests = sum(1 for span in spans if span.layer == "profiling.store")
    mppm_mixes = _attr_sum(spans, "core.mppm:predict_batch", "mixes")
    cache_gets = _count(spans, "engine.cache:get")
    cache_puts = _count(spans, "engine.cache:put")
    cache_hits = sum(1 for span in spans if span.name == "engine.cache:get" and span.attrs.get("hit"))
    batches = _count(spans, "experiments.setup:predictor_batch")
    batch_items = sum(
        len(span.attrs.get("ops", ())) for span in spans if span.name == "experiments.setup:predictor_batch"
    )
    waits = window_waits(spans)
    simulated = counters.get("profiles_simulated", 0)
    return {
        "import.s": counters.get("import_s", 0.0),
        "workloads.generator.calls": _count(spans, "workloads.generator:generate"),
        "workloads.generator.busy_s": busy_seconds(spans, "workloads.generator"),
        "workloads.generator.accesses": _attr_sum(spans, "workloads.generator:generate", "accesses"),
        "simulators.single_core.calls": sum(1 for span in spans if span.layer == "simulators.single_core"),
        "simulators.single_core.busy_s": busy_seconds(spans, "simulators.single_core"),
        "simulators.single_core.instructions": sum(
            span.attrs.get("instructions", 0) for span in spans if span.layer == "simulators.single_core"
        ),
        "simulators.multi_core.calls": _count(spans, "simulators.multi_core:run"),
        "simulators.multi_core.busy_s": busy_seconds(spans, "simulators.multi_core"),
        "simulators.multi_core.instructions": _attr_sum(spans, "simulators.multi_core:run", "instructions"),
        "profiling.store.requests": store_requests,
        "profiling.store.simulated": simulated,
        "profiling.store.loaded": counters.get("profiles_loaded", 0),
        "profiling.store.hit_ratio": _ratio(store_requests - simulated, store_requests),
        "profiling.profile.cpi_calls": _count(spans, "profiling.profile:cpi"),
        "profiling.profile.busy_s": busy_seconds(spans, "profiling.profile"),
        "core.mppm.mixes": mppm_mixes,
        "core.mppm.batches": len(outermost(spans, "core.mppm")),
        "core.mppm.busy_s": busy_seconds(spans, "core.mppm"),
        "core.mppm.iterations_mean": _ratio(
            _attr_sum(spans, "core.mppm:predict_batch", "iterations"), mppm_mixes
        ),
        "experiments.setup.self_s": self_sum("experiments.setup"),
        "engine.executor.runs": _count(spans, "engine.executor:run"),
        "engine.executor.jobs": _count(spans, "engine.executor:job"),
        "engine.executor.self_s": self_sum("engine.executor"),
        "engine.cache.gets": cache_gets,
        "engine.cache.hits": cache_hits,
        "engine.cache.puts": cache_puts,
        # Results served from the cache over results delivered: a batched
        # MPPM miss is detected without a get, so gets alone undercount misses.
        "engine.cache.hit_ratio": _ratio(cache_hits, cache_hits + cache_puts),
        "engine.cache.get_s": sum(span.duration for span in spans if span.name == "engine.cache:get"),
        "engine.cache.put_s": sum(span.duration for span in spans if span.name == "engine.cache:put"),
        "engine.cache.bytes_read": _attr_sum(spans, "engine.cache:read", "bytes"),
        "engine.cache.bytes_written": _attr_sum(spans, "engine.cache:write", "bytes"),
        "service.http.requests": _count(spans, "service.http:handle"),
        "service.batching.batches": batches,
        "service.batching.mean_batch": _ratio(batch_items, batches),
        "service.batching.window_wait_ms": 1000.0 * _ratio(sum(waits), len(waits)),
    }
