"""The single-core profile data model.

A :class:`SingleCoreProfile` is exactly what the paper's §2.1 collects
per benchmark: for every interval of the isolated run,

* the single-core CPI,
* the memory CPI (cycles waiting for memory per instruction), and
* the LLC stack-distance counters (SDCs),

plus enough bookkeeping (interval length, trace length, LLC geometry)
for MPPM to aggregate windows of the profile as its iterative process
advances each program's instruction pointer.  Profiles are plain data:
they can be serialised to JSON and reloaded without touching the
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.caches.stack_distance import StackDistanceCounters


class ProfileError(ValueError):
    """Raised for inconsistent profile data or invalid window queries."""


@dataclass(frozen=True)
class IntervalProfile:
    """Profile of one interval (the paper's 20M-instruction granularity)."""

    index: int
    instructions: int
    cpi: float
    memory_cpi: float
    llc_accesses: float
    llc_misses: float
    sdc: StackDistanceCounters

    def __post_init__(self) -> None:
        if self.instructions <= 0:
            raise ProfileError(f"interval {self.index}: instructions must be positive")
        if self.cpi <= 0:
            raise ProfileError(f"interval {self.index}: CPI must be positive, got {self.cpi}")
        if self.memory_cpi < 0 or self.memory_cpi > self.cpi:
            raise ProfileError(
                f"interval {self.index}: memory CPI {self.memory_cpi} must be within [0, CPI]"
            )
        if self.llc_accesses < 0 or self.llc_misses < 0 or self.llc_misses > self.llc_accesses:
            raise ProfileError(f"interval {self.index}: inconsistent LLC access/miss counts")

    @property
    def cycles(self) -> float:
        return self.cpi * self.instructions

    @property
    def memory_cycles(self) -> float:
        return self.memory_cpi * self.instructions


@dataclass(frozen=True)
class ProfileWindow:
    """Aggregation of a profile over a window of instructions.

    MPPM repeatedly needs "the SDCs, the memory cycles and the isolated
    LLC miss count over the next N_p instructions starting from the
    program's current position I_p"; a :class:`ProfileWindow` is that
    aggregate.  Partial intervals are scaled proportionally.
    """

    instructions: float
    cycles: float
    memory_cycles: float
    llc_accesses: float
    llc_misses: float
    sdc: StackDistanceCounters

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def memory_cpi(self) -> float:
        return self.memory_cycles / self.instructions if self.instructions else 0.0

    @property
    def average_miss_penalty(self) -> float:
        """Average exposed cycles per isolated LLC miss over the window.

        This is the paper's ``LLC_miss_penalty_p = CPI_mem,p * N_p /
        #LLC misses``; zero when the window contains no misses.
        """
        if self.llc_misses <= 0:
            return 0.0
        return self.memory_cycles / self.llc_misses


class ProfileWindowTable:
    """Precomputed cumulative per-interval counter sums for window queries.

    MPPM aggregates the profile over a window ``[I_p, I_p + N_p)``
    every iteration; with exclusive prefix sums of every per-interval
    counter, any window is two gathered point evaluations and a
    subtract (plus the whole-trace totals once per full wrap-around
    pass).  Both MPPM solvers — the scalar per-mix loop through
    :meth:`SingleCoreProfile.window` and the batched mix-major solver —
    evaluate windows through this one table, so their float operations
    are identical and the two stay bit-identical by construction.

    The point evaluation ``P(x)`` (cumulative counters over ``[0, x)``)
    locates the interval containing ``x`` and interpolates the partial
    interval proportionally; a window starting at ``s`` (already
    wrapped into the trace) of length ``n`` with ``e = s + n``,
    ``q = floor(e / L)`` full passes and remainder ``r = e - q*L`` then
    aggregates to ``(P(r) - P(s)) + q * totals``.
    """

    #: Column layout of :attr:`values` / :attr:`prefix` / window rows:
    #: the five scalar counters, then the A+1 stack-distance counters.
    COL_INSTRUCTIONS = 0
    COL_CYCLES = 1
    COL_MEMORY_CYCLES = 2
    COL_LLC_ACCESSES = 3
    COL_LLC_MISSES = 4
    SDC_OFFSET = 5

    def __init__(self, profile: "SingleCoreProfile") -> None:
        intervals = profile.intervals
        sdc = np.stack([interval.sdc.counts for interval in intervals]).astype(np.float64)
        #: Per-interval counter matrix, one row per interval.
        self.values = np.column_stack(
            [
                np.array([interval.instructions for interval in intervals], dtype=np.float64),
                np.array([interval.cycles for interval in intervals], dtype=np.float64),
                np.array([interval.memory_cycles for interval in intervals], dtype=np.float64),
                np.array([interval.llc_accesses for interval in intervals], dtype=np.float64),
                np.array([interval.llc_misses for interval in intervals], dtype=np.float64),
                sdc,
            ]
        )
        #: Exclusive prefix sums: ``prefix[i]`` = counters over intervals < i.
        self.prefix = np.vstack(
            [np.zeros((1, self.values.shape[1])), np.cumsum(self.values, axis=0)]
        )
        #: Whole-trace totals (the last prefix row).
        self.totals = self.prefix[-1]
        #: Instruction positions where each interval starts / ends.  The
        #: interval lengths are integers, so these cumulative sums are
        #: exact in float64 and partial-interval fractions land in [0, 1].
        self.starts = self.prefix[:-1, self.COL_INSTRUCTIONS]
        self.boundaries = self.prefix[1:, self.COL_INSTRUCTIONS]
        self.instructions = self.values[:, self.COL_INSTRUCTIONS]
        self.trace_length = float(profile.num_instructions)

    def point(self, positions: np.ndarray) -> np.ndarray:
        """``P(x)``: cumulative counters over ``[0, x)`` for ``x`` in [0, L]."""
        index = np.minimum(
            np.searchsorted(self.boundaries, positions, side="right"),
            len(self.instructions) - 1,
        )
        fraction = (positions - self.starts[index]) / self.instructions[index]
        return self.prefix[index] + fraction[..., None] * self.values[index]

    def windows(self, start_instructions: np.ndarray, num_instructions: np.ndarray) -> np.ndarray:
        """Aggregate counters over ``[start, start + n)`` windows.

        Starts wrap around the end of the trace and windows may span
        the wrap-around point any number of times.  Accepts scalars or
        arrays (broadcast together); returns rows in the column layout
        above, with one extra leading axis per input axis.
        """
        length = self.trace_length
        start = np.mod(np.asarray(start_instructions, dtype=np.float64), length)
        end = start + np.asarray(num_instructions, dtype=np.float64)
        full_passes = np.floor(end / length)
        remainder = np.minimum(np.maximum(end - full_passes * length, 0.0), length)
        return (self.point(remainder) - self.point(start)) + full_passes[
            ..., None
        ] * self.totals


class SingleCoreProfile:
    """Per-benchmark single-core profile on a given machine."""

    def __init__(
        self,
        benchmark: str,
        machine_key: str,
        machine_name: str,
        interval_instructions: int,
        intervals: Sequence[IntervalProfile],
        llc_associativity: int,
    ) -> None:
        if not intervals:
            raise ProfileError("a profile needs at least one interval")
        if interval_instructions <= 0:
            raise ProfileError("interval_instructions must be positive")
        expected_index = list(range(len(intervals)))
        if [interval.index for interval in intervals] != expected_index:
            raise ProfileError("profile intervals must be consecutively indexed from 0")
        for interval in intervals:
            if interval.sdc.associativity != llc_associativity:
                raise ProfileError(
                    "interval SDC associativity does not match the profile's LLC associativity"
                )
        self.benchmark = benchmark
        self.machine_key = machine_key
        self.machine_name = machine_name
        self.interval_instructions = interval_instructions
        self.intervals: List[IntervalProfile] = list(intervals)
        self.llc_associativity = llc_associativity

        # Precomputed cumulative instruction boundaries for window lookups.
        self._boundaries = np.cumsum([interval.instructions for interval in self.intervals])
        self._window_table: Optional[ProfileWindowTable] = None

    # ------------------------------------------------------------------
    # Whole-trace aggregates
    # ------------------------------------------------------------------

    @property
    def num_intervals(self) -> int:
        return len(self.intervals)

    @property
    def num_instructions(self) -> int:
        """Total instructions of the profiled trace."""
        return int(self._boundaries[-1])

    @property
    def total_cycles(self) -> float:
        return sum(interval.cycles for interval in self.intervals)

    @property
    def cpi(self) -> float:
        """Overall single-core CPI (the paper's CPI_SC)."""
        return self.total_cycles / self.num_instructions

    @property
    def memory_cpi(self) -> float:
        """Overall memory CPI (the paper's CPI_mem)."""
        return sum(interval.memory_cycles for interval in self.intervals) / self.num_instructions

    @property
    def memory_cpi_fraction(self) -> float:
        """Memory CPI as a fraction of total CPI (used for MEM/COMP classification)."""
        return self.memory_cpi / self.cpi if self.cpi else 0.0

    @property
    def total_llc_accesses(self) -> float:
        return sum(interval.llc_accesses for interval in self.intervals)

    @property
    def total_llc_misses(self) -> float:
        return sum(interval.llc_misses for interval in self.intervals)

    @property
    def llc_misses_per_kilo_instruction(self) -> float:
        return 1000.0 * self.total_llc_misses / self.num_instructions

    def total_sdc(self) -> StackDistanceCounters:
        """Sum of all interval SDCs."""
        return StackDistanceCounters.sum(
            (interval.sdc for interval in self.intervals), self.llc_associativity
        )

    # ------------------------------------------------------------------
    # Window aggregation (the operation MPPM performs every iteration)
    # ------------------------------------------------------------------

    @property
    def window_table(self) -> ProfileWindowTable:
        """The profile's prefix-sum window table (built lazily, cached)."""
        if self._window_table is None:
            self._window_table = ProfileWindowTable(self)
        return self._window_table

    def window(self, start_instruction: float, num_instructions: float) -> ProfileWindow:
        """Aggregate the profile over ``[start, start + num_instructions)``.

        The start position wraps around the end of the trace (MPPM lets
        fast programs iterate over their trace more than once), and the
        window itself may span the wrap-around point.  Partial
        intervals contribute proportionally.  The aggregation goes
        through :class:`ProfileWindowTable` — the same float operations
        the batched MPPM solver applies to whole arrays of windows.
        """
        if num_instructions <= 0:
            raise ProfileError(f"window length must be positive, got {num_instructions}")
        table = self.window_table
        row = table.windows(float(start_instruction), float(num_instructions))
        return ProfileWindow(
            instructions=float(row[ProfileWindowTable.COL_INSTRUCTIONS]),
            cycles=float(row[ProfileWindowTable.COL_CYCLES]),
            memory_cycles=float(row[ProfileWindowTable.COL_MEMORY_CYCLES]),
            llc_accesses=float(row[ProfileWindowTable.COL_LLC_ACCESSES]),
            llc_misses=float(row[ProfileWindowTable.COL_LLC_MISSES]),
            sdc=StackDistanceCounters(
                associativity=self.llc_associativity,
                counts=row[ProfileWindowTable.SDC_OFFSET :].copy(),
            ),
        )

    # ------------------------------------------------------------------
    # Derived profiles
    # ------------------------------------------------------------------

    def reduced_associativity(self, ways: int) -> "SingleCoreProfile":
        """Derive the profile for an LLC with fewer ways (same sets).

        The paper points out that profiles collected for a 16-way LLC
        can be reused for an 8-way LLC without re-simulation.  The SDCs
        fold exactly; the CPI and memory CPI are adjusted by charging
        the additional misses the average miss penalty observed in the
        interval (an approximation the paper shares).
        """
        new_intervals = []
        for interval in self.intervals:
            new_sdc = interval.sdc.reduced_associativity(ways)
            extra_misses = new_sdc.misses - interval.sdc.misses
            if interval.llc_misses > 0:
                penalty = interval.memory_cycles / interval.llc_misses
            else:
                penalty = 0.0
            extra_cycles = extra_misses * penalty
            cycles = interval.cycles + extra_cycles
            memory_cycles = interval.memory_cycles + extra_cycles
            new_intervals.append(
                IntervalProfile(
                    index=interval.index,
                    instructions=interval.instructions,
                    cpi=cycles / interval.instructions,
                    memory_cpi=memory_cycles / interval.instructions,
                    llc_accesses=interval.llc_accesses,
                    llc_misses=interval.llc_misses + extra_misses,
                    sdc=new_sdc,
                )
            )
        return SingleCoreProfile(
            benchmark=self.benchmark,
            machine_key=f"{self.machine_key}|derived_ways={ways}",
            machine_name=f"{self.machine_name} (derived {ways}-way LLC)",
            interval_instructions=self.interval_instructions,
            intervals=new_intervals,
            llc_associativity=ways,
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict:
        """Plain-data representation suitable for JSON."""
        return {
            "benchmark": self.benchmark,
            "machine_key": self.machine_key,
            "machine_name": self.machine_name,
            "interval_instructions": self.interval_instructions,
            "llc_associativity": self.llc_associativity,
            "intervals": [
                {
                    "index": interval.index,
                    "instructions": interval.instructions,
                    "cpi": interval.cpi,
                    "memory_cpi": interval.memory_cpi,
                    "llc_accesses": interval.llc_accesses,
                    "llc_misses": interval.llc_misses,
                    "sdc": interval.sdc.counts.tolist(),
                }
                for interval in self.intervals
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SingleCoreProfile":
        """Inverse of :meth:`to_dict`."""
        associativity = int(data["llc_associativity"])
        intervals = [
            IntervalProfile(
                index=int(entry["index"]),
                instructions=int(entry["instructions"]),
                cpi=float(entry["cpi"]),
                memory_cpi=float(entry["memory_cpi"]),
                llc_accesses=float(entry["llc_accesses"]),
                llc_misses=float(entry["llc_misses"]),
                sdc=StackDistanceCounters(
                    associativity=associativity,
                    counts=np.asarray(entry["sdc"], dtype=np.float64),
                ),
            )
            for entry in data["intervals"]
        ]
        return cls(
            benchmark=data["benchmark"],
            machine_key=data["machine_key"],
            machine_name=data["machine_name"],
            interval_instructions=int(data["interval_instructions"]),
            intervals=intervals,
            llc_associativity=associativity,
        )

    def describe(self) -> str:
        return (
            f"{self.benchmark} on {self.machine_name}: CPI_SC {self.cpi:.3f}, "
            f"CPI_mem {self.memory_cpi:.3f} ({self.memory_cpi_fraction:.0%}), "
            f"{self.llc_misses_per_kilo_instruction:.2f} LLC MPKI, "
            f"{self.num_intervals} intervals"
        )
