"""Self-time arithmetic, span nesting and the per-layer table."""

import asyncio
import os
import sys
import threading

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from spans import Span, Tracer, busy_seconds, covered, layer_table, outermost, self_times, window_waits  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == 4.0
    assert covered([(6.0, 7.0), (1.0, 2.0)], 0.0, 10.0) == 2.0
    # A child that outlives its parent (another thread) counts only inside it.
    assert covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0
    assert covered([(2.0, 4.0), (2.5, 3.0)], 0.0, 10.0) == 2.0


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        Span(1, None, "a:f", 0.0, 10.0),
        Span(2, 1, "b:g", 1.0, 4.0),
        Span(3, 1, "b:g", 3.0, 6.0),
        Span(4, 2, "c:h", 1.5, 2.0),
    ]
    times = self_times(spans)
    assert times[1] == 10.0 - 5.0
    assert times[2] == 3.0 - 0.5
    assert times[3] == 3.0
    assert times[4] == 0.5


def test_tracer_records_parents_ops_and_attrs():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner(x):
        clock.now += 1.0
        return x * 2

    traced_inner = tracer.traced(inner, "layer.b:inner", attrs=lambda args, kwargs, result: {"result": result})

    def outer(x):
        clock.now += 2.0
        value = traced_inner(x)
        clock.now += 3.0
        return value

    traced_outer = tracer.traced(outer, "layer.a:outer", op=lambda args, kwargs: f"op-{args[0]}")
    assert traced_outer(21) == 42
    inner_span, outer_span = tracer.spans
    assert (outer_span.parent, inner_span.parent) == (None, outer_span.id)
    assert inner_span.op == outer_span.op == "op-21"
    assert inner_span.attrs == {"result": 42}
    assert (outer_span.duration, inner_span.duration) == (6.0, 1.0)
    assert self_times(tracer.spans)[outer_span.id] == 5.0


def test_tracer_records_failures_and_threads_start_without_a_parent():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    traced = tracer.traced(boom, "layer:boom")
    try:
        traced()
    except KeyError:
        pass
    assert tracer.spans[0].attrs == {"error": "KeyError"}

    leaf = tracer.traced(lambda: None, "layer:leaf")

    def spawn():
        thread = threading.Thread(target=leaf)
        thread.start()
        thread.join(5)
        assert not thread.is_alive()

    tracer.traced(spawn, "layer:spawn")()
    leaf_span = next(span for span in tracer.spans if span.name == "layer:leaf")
    assert leaf_span.parent is None


def test_tracer_wraps_coroutines_methods_and_properties():
    tracer = Tracer()

    class Thing:
        def __init__(self):
            self.value = 3

        @property
        def doubled(self):
            return self.value * 2

        async def fetch(self):
            return self.doubled

    tracer.wrap(Thing, "doubled", "thing:doubled")
    tracer.wrap(Thing, "fetch", "thing:fetch")
    assert asyncio.run(Thing().fetch()) == 6
    assert Thing().doubled == 6
    names = [span.name for span in tracer.spans]
    assert names == ["thing:doubled", "thing:fetch", "thing:doubled"]
    assert tracer.spans[0].parent == tracer.spans[1].id


def test_busy_time_counts_a_recursive_layer_once():
    spans = [
        Span(1, None, "core.mppm:predict_batch", 0.0, 4.0),
        Span(2, 1, "other:x", 1.0, 3.0),
        Span(3, 2, "core.mppm:predict_batch", 1.5, 2.5),
        Span(4, None, "core.mppm:predict_batch", 5.0, 6.0),
    ]
    assert [span.id for span in outermost(spans, "core.mppm")] == [1, 4]
    assert busy_seconds(spans, "core.mppm") == 5.0


def test_window_wait_matches_each_submit_to_the_batch_that_carried_it():
    spans = [
        Span(1, None, "service.batching:submit", 0.000, 0.020, "k1"),
        Span(2, None, "service.batching:submit", 0.002, 0.020, "k2"),
        Span(3, None, "experiments.setup:predictor_batch", 0.006, 0.015, None, {"ops": ["k1", "k2"]}),
        # A duplicate that arrived while k1's batch ran shares its result: no wait.
        Span(4, None, "service.batching:submit", 0.010, 0.020, "k1"),
    ]
    waits = window_waits(spans)
    assert [round(wait, 6) for wait in waits] == [0.006, 0.004]


def test_layer_table_counts_and_ratios():
    spans = [
        Span(1, None, "engine.executor:run", 0.0, 10.0),
        Span(2, 1, "engine.executor:job", 1.0, 9.0, "job-1"),
        Span(3, 2, "engine.cache:get", 1.0, 1.5, "job-1", {"hit": True}),
        Span(4, 3, "engine.cache:read", 1.1, 1.4, "job-1", {"bytes": 700}),
        Span(5, 2, "engine.cache:get", 2.0, 2.5, "job-1", {"hit": False}),
        Span(6, 2, "engine.cache:put", 3.0, 4.0, "job-1"),
        Span(7, 6, "engine.cache:write", 3.1, 3.9, "job-1", {"bytes": 300}),
        Span(8, 2, "profiling.store:get", 5.0, 6.0),
        Span(9, 2, "profiling.store:get_profile", 6.0, 6.5),
    ]
    table = layer_table(spans, {"import_s": 1.25, "profiles_simulated": 1, "profiles_loaded": 0})
    assert table["import.s"] == 1.25
    assert table["engine.executor.runs"] == 1
    assert table["engine.executor.jobs"] == 1
    assert table["engine.executor.self_s"] == (10.0 - 8.0) + (8.0 - 3.5)
    assert (table["engine.cache.gets"], table["engine.cache.hits"], table["engine.cache.puts"]) == (2, 1, 1)
    assert table["engine.cache.hit_ratio"] == 0.5
    assert (table["engine.cache.get_s"], table["engine.cache.put_s"]) == (1.0, 1.0)
    assert (table["engine.cache.bytes_read"], table["engine.cache.bytes_written"]) == (700, 300)
    assert table["profiling.store.requests"] == 2
    assert table["profiling.store.hit_ratio"] == 0.5
    assert table["service.batching.window_wait_ms"] == 0.0
