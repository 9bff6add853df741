"""Unit tests for the vectorized stack-distance kernel.

The kernel's contract is exact equivalence with the per-access
reference machinery: :func:`stack_distances` must reproduce
:class:`StackDistanceProfiler` access by access, and
:func:`replay_private_levels` plus :func:`stack_distances` on the
surviving stream must reproduce the stateful cache walk of
:class:`repro.oracles.ReferenceSingleCoreSimulator`, for any stream and
any cache geometry — including single-set (fully associative) and
direct-mapped corners.
"""

import numpy as np
import pytest

from repro.caches.set_associative import SetAssociativeCache
from repro.caches.stack_distance import StackDistanceCounters, StackDistanceProfiler
from repro.caches.vectorized import (
    _count_preceding_greater,
    lru_hit_mask,
    replay_private_levels,
    stack_distances,
)
from repro.config.cache_config import CacheConfig
from repro.config.machine import MachineConfig
from repro.oracles import ReferenceSingleCoreSimulator
from repro.workloads.benchmark import BenchmarkSpec
from repro.workloads.trace import MemoryTrace


def _random_stream(rng, n, num_lines, repeat_runs=False):
    """A random line-address stream, optionally with MRU repeat runs."""
    lines = rng.integers(0, num_lines, n).astype(np.int64)
    if repeat_runs:
        lines = np.repeat(lines, 3)[:n]
    # Scatter the address space the way the generator does (large
    # per-benchmark bases, non-contiguous line ids).
    return lines * int(rng.choice([1, 7, 1 << 20])) + int(rng.choice([0, 1 << 40]))


class TestCountPrecedingGreater:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(1, 150))
            values = rng.integers(0, int(rng.choice([1, 2, 4, 30, 10**6])), n)
            brute = np.array([(values[:k] > values[k]).sum() for k in range(n)])
            assert np.array_equal(_count_preceding_greater(values), brute)

    def test_trivial_inputs(self):
        assert _count_preceding_greater(np.array([], dtype=np.int64)).size == 0
        assert np.array_equal(_count_preceding_greater(np.array([7])), [0])
        assert np.array_equal(
            _count_preceding_greater(np.array([3, 2, 1, 0])), [0, 1, 2, 3]
        )
        assert np.array_equal(
            _count_preceding_greater(np.array([0, 0, 0])), [0, 0, 0]
        )


class TestStackDistances:
    @pytest.mark.parametrize("num_sets", [1, 2, 4, 5, 16, 64])
    def test_matches_profiler(self, num_sets):
        rng = np.random.default_rng(num_sets)
        for trial in range(25):
            n = int(rng.integers(1, 500))
            lines = _random_stream(
                rng, n, int(rng.integers(1, 90)), repeat_runs=trial % 3 == 0
            )
            profiler = StackDistanceProfiler(num_sets=num_sets, associativity=4)
            expected = np.array([profiler.access(int(line)) for line in lines])
            assert np.array_equal(stack_distances(lines, num_sets), expected)

    def test_cold_accesses_are_zero(self):
        lines = np.array([10, 20, 30], dtype=np.int64)
        assert np.array_equal(stack_distances(lines, 4), [0, 0, 0])

    def test_mru_repeats_are_distance_one(self):
        lines = np.array([5, 5, 5, 5], dtype=np.int64)
        assert np.array_equal(stack_distances(lines, 8), [0, 1, 1, 1])

    def test_rejects_bad_num_sets(self):
        with pytest.raises(ValueError):
            stack_distances(np.array([1, 2]), 0)

    def test_empty_stream(self):
        assert stack_distances(np.array([], dtype=np.int64), 4).size == 0

    @pytest.mark.parametrize("associativity", [1, 2, 8])
    def test_hit_mask_matches_lru_cache(self, associativity):
        """Stack inclusion: distance <= A iff an A-way LRU cache hits."""
        rng = np.random.default_rng(associativity)
        config = CacheConfig(
            name="c", size_bytes=8 * 64 * associativity, associativity=associativity
        )
        for _ in range(10):
            lines = _random_stream(rng, 400, 60)
            cache = SetAssociativeCache(config)
            expected = np.array([cache.access(int(line)).hit for line in lines])
            distances = stack_distances(lines, config.num_sets)
            assert np.array_equal(lru_hit_mask(distances, associativity), expected)


class TestReplayHierarchy:
    def _machines(self):
        line = 64
        return [
            MachineConfig(),  # default L1/L2/L3
            MachineConfig(  # single-set (fully associative) everything
                private_levels=(
                    CacheConfig(name="L1D", size_bytes=4 * line, associativity=4),
                ),
                llc=CacheConfig(
                    name="L3", size_bytes=16 * line, associativity=16, shared=True
                ),
            ),
            MachineConfig(  # direct-mapped private levels and LLC
                private_levels=(
                    CacheConfig(name="L1D", size_bytes=8 * line, associativity=1),
                    CacheConfig(name="L2", size_bytes=32 * line, associativity=1),
                ),
                llc=CacheConfig(
                    name="L3", size_bytes=128 * line, associativity=1, shared=True
                ),
            ),
        ]

    def test_matches_stateful_hierarchy(self):
        rng = np.random.default_rng(7)
        for machine in self._machines():
            lines = _random_stream(rng, 600, 200)
            trace = MemoryTrace(
                spec=BenchmarkSpec(name="stream"),
                num_instructions=4 * len(lines),
                access_insn=np.arange(0, 4 * len(lines), 4, dtype=np.int64),
                access_line=lines,
                base_cycle_gap=np.ones(len(lines)),
                tail_base_cycles=0.0,
            )
            oracle = ReferenceSingleCoreSimulator(machine)
            expected_levels, expected_index = oracle._private_outcomes(trace)
            expected_hit, expected_distances = oracle._llc_outcomes(oracle.filter_private(trace))

            served, surviving, stream = replay_private_levels(lines, machine)
            assert np.array_equal(served, expected_levels)
            assert np.array_equal(surviving, expected_index)
            assert np.array_equal(stream, lines[expected_index])
            llc_distances = stack_distances(stream, machine.llc.num_sets)
            assert np.array_equal(llc_distances, expected_distances)
            assert np.array_equal(
                lru_hit_mask(llc_distances, machine.llc.associativity), expected_hit
            )


class TestFromDistancesBatchAPI:
    def test_matches_record(self):
        rng = np.random.default_rng(3)
        distances = rng.integers(0, 14, 300)
        recorded = StackDistanceCounters(associativity=8)
        for distance in distances:
            recorded.record(int(distance))
        batched = StackDistanceCounters.from_distances(distances, 8)
        assert batched == recorded
        assert np.array_equal(batched.counts, recorded.counts)

    def test_empty_batch(self):
        counters = StackDistanceCounters.from_distances(np.array([], dtype=np.int64), 4)
        assert counters.total_accesses == 0

    def test_rejects_bad_associativity(self):
        with pytest.raises(ValueError):
            StackDistanceCounters.from_distances(np.array([1]), 0)
