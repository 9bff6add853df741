"""Per-access reference implementations: the test oracles of the fast paths.

Every production layer runs exactly one path, and every one of those
paths is a batched or vectorized rewrite of a simple loop.  The loops
live here, as subclasses of the production classes.  Each overrides the
one protected hook where its kernel differs and inherits all shared
assembly, so oracle and fast path perform the same float operations in
the same order and must agree bit for bit:

* :class:`ReferenceTraceGenerator` — the per-access LRU-stack loop that
  resolves reuse depths to lines (overrides ``_assemble``);
* :class:`ReferenceSingleCoreSimulator` — walks every access through
  stateful :class:`~repro.caches.set_associative.SetAssociativeCache`
  and :class:`~repro.caches.stack_distance.StackDistanceProfiler`
  objects (overrides ``_private_outcomes`` and ``_llc_outcomes``);
* :class:`ReferenceMultiCoreSimulator` — interleaves the cores one LLC
  access at a time from a binary heap of ready times (overrides
  ``_interleave``);
* :class:`ReferenceMPPM` — solves every mix with the per-mix loop of
  Figure 2 (overrides ``_solve``).

The equivalence tests and the speed gates in ``benchmarks/`` compare
the production classes against these.  ``import repro`` does not import
this module, and no production module does either.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.caches.set_associative import SetAssociativeCache
from repro.caches.stack_distance import StackDistanceProfiler
from repro.core.mppm import MPPM
from repro.core.result import MixPrediction
from repro.cores.core_model import CoreTimingModel
from repro.profiling.profile import SingleCoreProfile
from repro.simulators.llc_trace import LLCAccessTrace
from repro.simulators.multi_core import (
    _CORE_ADDRESS_OFFSET,
    MultiCoreRunResult,
    MultiCoreSimulator,
)
from repro.simulators.single_core import PrivateMissStream, SingleCoreSimulator
from repro.workloads.benchmark import BenchmarkSpec
from repro.workloads.generator import TraceGenerator, _benchmark_address_base
from repro.workloads.trace import MemoryTrace

__all__ = [
    "ReferenceMPPM",
    "ReferenceMultiCoreSimulator",
    "ReferenceSingleCoreSimulator",
    "ReferenceTraceGenerator",
]


class ReferenceTraceGenerator(TraceGenerator):
    """Trace generation with the original per-access loop."""

    def _assemble(self, spec: BenchmarkSpec, phase_data) -> MemoryTrace:
        address_base = _benchmark_address_base(spec.name)

        access_insn_parts = []
        access_line_parts = []
        gap_parts = []

        # The LRU stack of touched lines (most recent first) persists
        # across phases, as it would in a real program.
        stack: list = []
        next_new_line = 0
        last_insn = -1
        last_phase_cpi = spec.base_cpi

        for plan, insn_idx, depths in phase_data:
            lines = np.empty(plan.num_accesses, dtype=np.int64)

            for i, depth in enumerate(depths):
                if depth < 0 or depth > len(stack):
                    # Brand-new line (or a reuse deeper than the current
                    # footprint, which degenerates to a new line).
                    if next_new_line < spec.working_set_lines:
                        line = next_new_line
                        next_new_line += 1
                        stack.insert(0, line)
                    else:
                        # Working set exhausted: cycle over the LRU end.
                        line = stack[-1]
                        del stack[-1]
                        stack.insert(0, line)
                else:
                    # Reuse the line at 1-based stack depth ``depth``.
                    line = stack[depth - 1]
                    del stack[depth - 1]
                    stack.insert(0, line)
                lines[i] = line

            gaps = np.empty(plan.num_accesses, dtype=np.float64)
            prev = last_insn
            for i, insn in enumerate(insn_idx):
                gaps[i] = (insn - prev) * plan.base_cpi
                prev = insn
            last_insn = int(insn_idx[-1])
            last_phase_cpi = plan.base_cpi

            access_insn_parts.append(insn_idx)
            access_line_parts.append(lines + address_base)
            gap_parts.append(gaps)

        tail = (self.num_instructions - 1 - last_insn) * last_phase_cpi
        return MemoryTrace(
            spec=spec,
            num_instructions=self.num_instructions,
            access_insn=np.concatenate(access_insn_parts),
            access_line=np.concatenate(access_line_parts),
            base_cycle_gap=np.concatenate(gap_parts),
            tail_base_cycles=float(max(tail, 0.0)),
        )


class ReferenceSingleCoreSimulator(SingleCoreSimulator):
    """Single-core replay through stateful caches, one access at a time."""

    def _private_outcomes(self, trace: MemoryTrace) -> Tuple[np.ndarray, np.ndarray]:
        levels = [SetAssociativeCache(config) for config in self.machine.private_levels]
        served_level = np.full(trace.num_accesses, len(levels) + 1, dtype=np.int64)
        llc_index: List[int] = []
        for i, line in enumerate(trace.access_line.tolist()):
            for level_index, level in enumerate(levels):
                if level.access(line).hit:
                    served_level[i] = level_index
                    break
            else:
                llc_index.append(i)
        return served_level, np.asarray(llc_index, dtype=np.int64)

    def _llc_outcomes(self, stream: PrivateMissStream) -> Tuple[np.ndarray, np.ndarray]:
        llc_config = self.machine.llc
        llc = SetAssociativeCache(llc_config)
        profiler = StackDistanceProfiler(
            num_sets=llc_config.num_sets, associativity=llc_config.associativity
        )
        llc_hit = np.empty(len(stream.line), dtype=bool)
        llc_distances = np.empty(len(stream.line), dtype=np.int64)
        for k, line in enumerate(stream.line.tolist()):
            llc_hit[k] = llc.access(line).hit
            llc_distances[k] = profiler.access(line)
        return llc_hit, llc_distances


class ReferenceMultiCoreSimulator(MultiCoreSimulator):
    """Shared-LLC interleaving one access at a time, earliest ready core first."""

    def _interleave(self, llc_traces: Sequence[LLCAccessTrace]) -> MultiCoreRunResult:
        machine = self.machine
        shared_llc = SetAssociativeCache(machine.llc)
        num_cores = machine.num_cores

        core_models = [CoreTimingModel(machine, trace.spec) for trace in llc_traces]
        hit_penalty = [model.llc_hit_penalty for model in core_models]
        miss_penalty = [model.memory_penalty for model in core_models]

        # Per-core mutable state.
        index = [0] * num_cores
        cycle = [0.0] * num_cores
        first_pass_cycles: List[Optional[float]] = [None] * num_cores
        passes = [0] * num_cores
        accesses_first = [0] * num_cores
        hits_first = [0] * num_cores
        misses_first = [0] * num_cores
        total_accesses = 0
        total_misses = 0

        gaps = [trace.upstream_cycle_gap for trace in llc_traces]
        lines = [trace.line for trace in llc_traces]
        lengths = [trace.num_llc_accesses for trace in llc_traces]
        tails = [trace.tail_cycles for trace in llc_traces]

        unfinished = num_cores
        # (ready time, core): the tuple ordering breaks ready-time ties
        # by lowest core index.
        ready_heap = [(cycle[core] + gaps[core][0], core) for core in range(num_cores)]
        heapq.heapify(ready_heap)

        # Interleave LLC accesses in global time order: repeatedly pick the
        # core whose next LLC access is ready earliest.
        while unfinished:
            best_ready, core = heapq.heappop(ready_heap)
            in_first_pass = first_pass_cycles[core] is None
            line = int(lines[core][index[core]]) + core * _CORE_ADDRESS_OFFSET
            hit = shared_llc.access(line).hit
            total_accesses += 1
            if in_first_pass:
                accesses_first[core] += 1
            if hit:
                penalty = hit_penalty[core]
                if in_first_pass:
                    hits_first[core] += 1
            else:
                penalty = miss_penalty[core]
                total_misses += 1
                if in_first_pass:
                    misses_first[core] += 1
            cycle[core] = best_ready + penalty

            index[core] += 1
            if index[core] >= lengths[core]:
                # End of the trace: account for the post-LLC tail, then
                # restart the program (FAME re-iteration).
                cycle[core] += tails[core]
                passes[core] += 1
                index[core] = 0
                if in_first_pass:
                    first_pass_cycles[core] = cycle[core]
                    unfinished -= 1
            if unfinished:
                heapq.heappush(ready_heap, (cycle[core] + gaps[core][index[core]], core))

        return self._assemble(
            llc_traces,
            first_pass_cycles,
            passes,
            accesses_first,
            hits_first,
            misses_first,
            total_accesses,
            total_misses,
        )


class ReferenceMPPM(MPPM):
    """MPPM that solves every mix with the per-mix loop of Figure 2."""

    def _solve(self, batches: List[List[SingleCoreProfile]]) -> List[MixPrediction]:
        return [self._predict_mix(profiles) for profiles in batches]
