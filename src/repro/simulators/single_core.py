"""Single-core detailed simulation (the profiling run).

Running a benchmark in isolation on the target machine is the paper's
one-time cost per benchmark: it yields the per-interval single-core
CPI, memory CPI and stack-distance counters that MPPM consumes, plus —
in our trace-driven setup — the filtered LLC access stream that the
multi-core reference simulator replays.

One :class:`SingleCoreSimulator.run` call produces everything at once:
a :class:`SingleCoreRunResult` holding the interval measurements, the
overall CPI stack and the :class:`LLCAccessTrace`.  It runs in two
stages:

1. :meth:`SingleCoreSimulator.filter_private` — the LLC-independent
   stage: filter the trace through the private levels and do all of
   their cycle accounting, leaving a :class:`PrivateMissStream` (the
   accesses that miss every private level, with their upstream cycle
   gaps and interval ids);
2. the per-LLC stage — resolve the LLC on that stream (hit/miss,
   stack-distance counters) and assemble the CPI stack and LLC trace.

By LRU stack inclusion (Mattson et al., 1970) only the second stage
depends on the LLC, so ``run`` also accepts a miss stream filtered
earlier: profiling one benchmark on several LLC configurations that
share the private levels (the six Table 2 machines) generates and
filters its trace once.

Every cache level is resolved with batched per-set stack distances
(:mod:`repro.caches.vectorized`) — a handful of array passes over the
whole trace, exploiting that an access hits an A-way LRU cache iff its
stack distance is at most A.  The per-access outcomes of each stage
come from one protected hook per stage
(:meth:`SingleCoreSimulator._private_outcomes` and
:meth:`SingleCoreSimulator._llc_outcomes`); everything else — all
cycle accounting — is shared assembly.  The test oracle
:class:`repro.oracles.ReferenceSingleCoreSimulator` overrides only the
two hooks with per-access walks through stateful cache objects, so its
results are bit-identical by construction — asserted by the
equivalence suite and guarded by ``benchmarks/bench_singlecore_kernel.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

import numpy as np

from repro.caches.stack_distance import StackDistanceCounters, distance_slots
from repro.caches.vectorized import lru_hit_mask, replay_private_levels, stack_distances
from repro.config.cache_config import CacheConfig
from repro.config.machine import MachineConfig
from repro.cores.core_model import CoreTimingModel
from repro.cores.cpi_stack import CPIStack
from repro.simulators.llc_trace import LLCAccessTrace
from repro.workloads.benchmark import BenchmarkSpec
from repro.workloads.trace import MemoryTrace


@dataclass(frozen=True)
class IntervalMeasurement:
    """Measurements for one profiling interval (the paper uses 20M instructions)."""

    index: int
    instructions: int
    cycles: float
    memory_cycles: float
    llc_accesses: int
    llc_hits: int
    llc_misses: int
    sdc: StackDistanceCounters

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def memory_cpi(self) -> float:
        return self.memory_cycles / self.instructions if self.instructions else 0.0


@dataclass(frozen=True)
class PrivateMissStream:
    """The LLC-independent half of a profiling run.

    Everything :meth:`SingleCoreSimulator.filter_private` derives from a
    trace and the private cache levels alone: the stream of accesses
    that miss every private level (the LLC's input) and the
    per-interval cycles of the base CPI and private-level hits.  Every
    array is read-only: the LLC traces of all machines that share the
    private levels reference these arrays instead of copying them, so
    an in-place write would corrupt a sibling configuration's trace.

    Attributes
    ----------
    spec, num_instructions:
        The benchmark and the dynamic instruction count of its trace.
    private_levels, interval_instructions:
        What the stream was filtered through and cut by; a simulator
        only accepts a stream that matches its own.
    line, insn, upstream_cycle_gap:
        Per miss-stream access: line address, dynamic instruction index
        and upstream cycles since the previous one (the
        :class:`LLCAccessTrace` fields of the same names).
    interval_id:
        Per miss-stream access: the profiling interval it falls in.
    tail_cycles:
        Upstream cycles after the last miss-stream access.
    interval_lengths, base_cycles, private_cycles:
        Per interval: instructions, base cycles and exposed
        private-hit cycles.
    """

    spec: BenchmarkSpec
    num_instructions: int
    private_levels: Tuple[CacheConfig, ...]
    interval_instructions: int
    line: np.ndarray
    insn: np.ndarray
    upstream_cycle_gap: np.ndarray
    interval_id: np.ndarray
    tail_cycles: float
    interval_lengths: np.ndarray
    base_cycles: np.ndarray
    private_cycles: np.ndarray

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


@dataclass(frozen=True)
class SingleCoreRunResult:
    """Everything one isolated profiling run produces."""

    benchmark: str
    machine_name: str
    interval_instructions: int
    intervals: List[IntervalMeasurement]
    cpi_stack: CPIStack
    llc_trace: LLCAccessTrace

    @property
    def num_instructions(self) -> int:
        return self.cpi_stack.instructions

    @property
    def cycles(self) -> float:
        return self.cpi_stack.total_cycles

    @property
    def cpi(self) -> float:
        """Single-core CPI of the whole run (the paper's CPI_SC)."""
        return self.cpi_stack.cpi

    @property
    def memory_cpi(self) -> float:
        """Memory CPI of the whole run (the paper's CPI_mem)."""
        return self.cpi_stack.memory_cpi

    @property
    def llc_miss_rate(self) -> float:
        accesses = sum(interval.llc_accesses for interval in self.intervals)
        misses = sum(interval.llc_misses for interval in self.intervals)
        return misses / accesses if accesses else 0.0


class SingleCoreSimulator:
    """Trace-driven simulation of one benchmark in isolation.

    Parameters
    ----------
    machine:
        The target machine.  Only one core is used; the LLC is present
        but not shared with anyone.
    interval_instructions:
        Profiling interval length in dynamic instructions (the paper
        uses 20M out of 1B; the default of 4,000 out of 200,000 keeps
        the same 50-interval structure at our trace scale).
    """

    def __init__(self, machine: MachineConfig, interval_instructions: int = 4_000) -> None:
        if interval_instructions <= 0:
            raise ValueError("interval_instructions must be positive")
        self.machine = machine
        self.interval_instructions = interval_instructions

    def run(self, trace: Union[MemoryTrace, PrivateMissStream]) -> SingleCoreRunResult:
        """Simulate ``trace`` in isolation and collect the profile data.

        ``trace`` is either a memory trace or the miss stream
        :meth:`filter_private` made of it on a machine with the same
        private levels (any LLC); the result is the same.
        """
        if isinstance(trace, PrivateMissStream):
            stream = self._check_stream(trace)
        else:
            stream = self.filter_private(trace)
        llc_hit, llc_distances = self._llc_outcomes(stream)
        return self._resolve_llc(stream, llc_hit, llc_distances)

    def filter_private(self, trace: MemoryTrace) -> PrivateMissStream:
        """The LLC-independent stage: filter ``trace`` through the private levels."""
        served_level, llc_index = self._private_outcomes(trace)
        return self._miss_stream(trace, served_level, llc_index)

    def run_with_perfect_llc(self, trace: MemoryTrace) -> float:
        """CPI of a run where every LLC access hits (the paper's perfect-LLC run).

        The paper describes two ways of obtaining the memory CPI; the
        two-run method subtracts the perfect-LLC CPI from the real CPI.
        Our accounting method gives the same number directly, but this
        run is kept for cross-validation in the test suite.  Every
        access that reaches the perfect LLC hits, so only the private
        levels are replayed.
        """
        stream = self.filter_private(trace)
        llc_hit_penalty = CoreTimingModel(self.machine, trace.spec).llc_hit_penalty
        cycles = (
            float(stream.base_cycles.sum())
            + float(stream.private_cycles.sum())
            + len(stream.line) * llc_hit_penalty
        )
        return cycles / trace.num_instructions

    def _check_stream(self, stream: PrivateMissStream) -> PrivateMissStream:
        if stream.private_levels != self.machine.private_levels:
            raise ValueError(
                f"{stream.spec.name}: the miss stream was filtered through other private levels"
            )
        if stream.interval_instructions != self.interval_instructions:
            raise ValueError(
                f"{stream.spec.name}: the miss stream has "
                f"{stream.interval_instructions}-instruction intervals, "
                f"the simulator {self.interval_instructions}"
            )
        return stream

    # ------------------------------------------------------------------
    # Per-access outcomes (the hooks the test oracle overrides)
    # ------------------------------------------------------------------

    def _private_outcomes(self, trace: MemoryTrace) -> Tuple[np.ndarray, np.ndarray]:
        """The private level that served each access (``P + 1`` where none
        did) and the ascending indices of the accesses that reach the LLC."""
        served_level, llc_index, _ = replay_private_levels(trace.access_line, self.machine)
        return served_level, llc_index

    def _llc_outcomes(self, stream: PrivateMissStream) -> Tuple[np.ndarray, np.ndarray]:
        """The LLC hit mask and per-set LLC stack distance of each miss-stream access."""
        llc = self.machine.llc
        llc_distances = stack_distances(stream.line, llc.num_sets)
        return lru_hit_mask(llc_distances, llc.associativity), llc_distances

    # ------------------------------------------------------------------
    # Shared assembly: outcomes -> PrivateMissStream -> SingleCoreRunResult
    # ------------------------------------------------------------------

    def _miss_stream(
        self, trace: MemoryTrace, served_level: np.ndarray, llc_index: np.ndarray
    ) -> PrivateMissStream:
        """Turn the private-level outcomes into the LLC-independent stage.

        All base and private-hit cycle accounting happens here, as
        weighted sums over the outcome arrays.
        """
        core_model = CoreTimingModel(self.machine, trace.spec)
        num_private = len(self.machine.private_levels)
        penalties = [core_model.private_hit_penalty(level) for level in range(num_private)]

        # Leading-zero cumulative sums: sum over accesses [a, b) is c[b] - c[a].
        # Full per-access cumsums are only needed where windows are cut at
        # arbitrary positions (the LLC gap windows): base cycles, plus the
        # populations of private levels with a non-zero exposed penalty.
        cum_base = np.concatenate(([0.0], np.cumsum(trace.base_cycle_gap)))
        cum_level = {
            level: np.concatenate(([0], np.cumsum(served_level == level)))
            for level in range(num_private)
            if penalties[level]
        }

        # Filtered LLC stream: upstream cycles between consecutive LLC
        # accesses are the base cycles of the window ending at (and
        # including) each LLC access, plus the exposed private-hit
        # penalties inside the window.
        window_start = np.concatenate(([0], llc_index[:-1] + 1))
        window_stop = llc_index + 1
        gaps = cum_base[window_stop] - cum_base[window_start]
        for level, cum in cum_level.items():
            gaps = gaps + (cum[window_stop] - cum[window_start]) * penalties[level]

        num_accesses = trace.num_accesses
        tail_start = int(llc_index[-1]) + 1 if len(llc_index) else 0
        tail_cycles = cum_base[num_accesses] - cum_base[tail_start]
        for level, cum in cum_level.items():
            tail_cycles += float(cum[num_accesses] - cum[tail_start]) * penalties[level]
        tail_cycles += trace.tail_base_cycles

        # Per-interval base cycles and private-level populations.
        slices = trace.interval_slices(self.interval_instructions)
        num_intervals = len(slices)
        starts = np.fromiter((start for start, _ in slices), dtype=np.int64, count=num_intervals)
        stops = np.fromiter((stop for _, stop in slices), dtype=np.int64, count=num_intervals)
        interval_id = np.repeat(np.arange(num_intervals, dtype=np.int64), stops - starts)
        level_hist = np.bincount(
            interval_id * (num_private + 2) + served_level,
            minlength=num_intervals * (num_private + 2),
        ).reshape(num_intervals, num_private + 2)
        base_cycles = cum_base[stops] - cum_base[starts]
        # Cycles after the last memory access belong to the last interval.
        base_cycles[-1] += trace.tail_base_cycles
        private_cycles = np.zeros(num_intervals, dtype=np.float64)
        for level in cum_level:
            private_cycles = private_cycles + level_hist[:, level] * penalties[level]
        boundaries = np.minimum(
            np.arange(1, num_intervals + 1, dtype=np.int64) * self.interval_instructions,
            trace.num_instructions,
        )

        return PrivateMissStream(
            spec=trace.spec,
            num_instructions=trace.num_instructions,
            private_levels=self.machine.private_levels,
            interval_instructions=self.interval_instructions,
            line=np.asarray(trace.access_line[llc_index], dtype=np.int64),
            insn=np.asarray(trace.access_insn[llc_index], dtype=np.int64),
            upstream_cycle_gap=np.asarray(gaps, dtype=np.float64),
            interval_id=interval_id[llc_index],
            tail_cycles=float(tail_cycles),
            interval_lengths=np.diff(boundaries, prepend=0),
            base_cycles=base_cycles,
            private_cycles=private_cycles,
        )

    def _resolve_llc(
        self, stream: PrivateMissStream, llc_hit: np.ndarray, llc_distances: np.ndarray
    ) -> SingleCoreRunResult:
        """Turn the LLC outcomes of a miss stream into the run result.

        LLC cycle accounting and the CPI stack happen here; this method
        and :meth:`_miss_stream` are what the oracle shares, which makes
        its results bit-identical.  The LLC trace shares the stream's
        arrays.
        """
        machine = self.machine
        core_model = CoreTimingModel(machine, stream.spec)
        associativity = machine.llc.associativity
        num_intervals = len(stream.base_cycles)
        interval_id = stream.interval_id
        hits_per_interval = np.bincount(interval_id[llc_hit], minlength=num_intervals)
        misses_per_interval = np.bincount(interval_id[~llc_hit], minlength=num_intervals)
        # SDC counters of each interval's slice of the LLC stream (the
        # per-set stacks persist across interval boundaries).
        slots = distance_slots(llc_distances, associativity)
        sdc_hist = np.bincount(
            interval_id * (associativity + 1) + slots,
            minlength=num_intervals * (associativity + 1),
        ).reshape(num_intervals, associativity + 1).astype(np.float64)

        overall = CPIStack()
        intervals: List[IntervalMeasurement] = []
        for interval_index in range(num_intervals):
            interval_stack = CPIStack()
            interval_stack.add_base(float(stream.base_cycles[interval_index]))
            interval_stack.add_private_cache(float(stream.private_cycles[interval_index]))
            llc_hits = int(hits_per_interval[interval_index])
            llc_misses = int(misses_per_interval[interval_index])
            interval_stack.add_llc(llc_hits * core_model.llc_hit_penalty)
            interval_stack.add_memory(llc_misses * core_model.memory_penalty)
            interval_instructions = int(stream.interval_lengths[interval_index])
            interval_stack.add_instructions(interval_instructions)

            intervals.append(
                IntervalMeasurement(
                    index=interval_index,
                    instructions=interval_instructions,
                    cycles=interval_stack.total_cycles,
                    memory_cycles=interval_stack.memory,
                    llc_accesses=llc_hits + llc_misses,
                    llc_hits=llc_hits,
                    llc_misses=llc_misses,
                    sdc=StackDistanceCounters(
                        associativity=associativity, counts=sdc_hist[interval_index]
                    ),
                )
            )
            overall = overall.merged_with(interval_stack)

        llc_trace = LLCAccessTrace(
            spec=stream.spec,
            num_instructions=stream.num_instructions,
            line=stream.line,
            insn=stream.insn,
            upstream_cycle_gap=stream.upstream_cycle_gap,
            tail_cycles=stream.tail_cycles,
            isolated_cycles=overall.total_cycles,
        )

        return SingleCoreRunResult(
            benchmark=stream.spec.name,
            machine_name=machine.name,
            interval_instructions=self.interval_instructions,
            intervals=intervals,
            cpi_stack=overall,
            llc_trace=llc_trace,
        )
