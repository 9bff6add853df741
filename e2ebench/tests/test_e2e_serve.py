"""The serve workload's request pool, output-check sample and traced-span window."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402
from spans import Span  # noqa: E402


def pool_and_steps():
    pool = [[f"p{i}", f"q{i}", f"r{i}", f"s{i}"] for i in range(run.POOL_SIZE)]
    # Mostly warm-up mixes, as Zipf popularity gives, and some beyond it.
    first = [pool[i % 50] for i in range(400)] + [pool[run.WARM_MIXES + i] for i in range(40)]
    second = [pool[i % 80] for i in range(400)] + [pool[run.WARM_MIXES + 40 + i] for i in range(5)]
    steps = [run.Step(result=None, mixes=mixes, wrong=0) for mixes in (first, second)]
    return pool, steps


def test_each_pool_mix_has_one_connection_and_both_carry_half_the_traffic():
    names = [f"b{i}" for i in range(29)]
    pool, weights, lanes = run.request_pool(3, names)
    assert len({tuple(mix) for mix in pool}) == run.POOL_SIZE
    assert all(mix == sorted(mix) for mix in pool)
    assert set(lanes) == {tuple(mix) for mix in pool}
    share = [sum(w for mix, w in zip(pool, weights) if lanes[tuple(mix)] == lane) for lane in range(run.CONNECTIONS)]
    assert max(share) / sum(share) < 0.51
    assert run.request_pool(3, names) == (pool, weights, lanes)


def test_check_sample_takes_half_from_mixes_computed_under_load():
    pool, steps = pool_and_steps()
    sample = run.check_sample(7, steps, pool)
    warm = {tuple(mix) for mix in pool[: run.WARM_MIXES]}
    assert len(sample) == len(set(sample)) == run.SERVE_CHECKS
    assert sum(mix not in warm for mix in sample) >= run.SERVE_CHECKS // 2
    # The seed alone decides.
    assert run.check_sample(7, steps, pool) == sample
    assert run.check_sample(8, steps, pool) != sample


def test_after_warm_up_keeps_only_the_measured_step():
    def handle(span_id, start, end, path, simulated):
        attrs = {"path": path, "profiles_simulated": simulated, "profiles_loaded": 0}
        return Span(span_id, None, "service.http:handle", start, end, f"request:{span_id}", attrs)

    spans = [
        handle(1, 0.0, 0.1, "/healthz", 29),
        handle(2, 1.0, 3.0, "/predict", 29),
        Span(3, 2, "engine.cache:put", 2.0, 2.1),
        handle(4, 4.0, 4.1, "/predict", 29),
        Span(5, 4, "engine.cache:put", 4.0, 4.05),
        handle(6, 5.0, 5.1, "/shutdown", 29),
    ]
    report = {"spans": [list(span) for span in spans], "profiles_simulated": 29, "profiles_loaded": 0}
    kept = run.after_warm_up(report)
    assert [span.id for span in kept["spans"]] == [4, 5]
    assert kept["profiles_simulated"] == 0
    table = run.per_layer(kept, {})
    assert table["service.http.requests"] == 1
    assert table["engine.cache.puts"] == 1
