"""Caching store for single-core profiles (and their LLC traces).

Single-core simulation is the one-time cost of the paper's methodology;
the store makes sure it really is paid only once per (benchmark,
machine) pair within a process, and — optionally — across processes by
persisting profiles as JSON files in a cache directory.

Two kinds of artefacts are cached:

* the :class:`SingleCoreProfile` — all MPPM ever needs; persisted to
  disk when a cache directory is configured, and
* the :class:`LLCAccessTrace` of the same isolated run — needed only by
  the multi-core *reference* simulator; kept in memory and regenerated
  on demand (it is deterministic, so regeneration is always consistent
  with the profile).

Profiling splits into an LLC-independent stage (trace generation and
private-level filtering, see :meth:`Profiler.miss_stream`) and a cheap
per-LLC stage.  The store memoises the first per (benchmark spec,
private cache levels), so profiling a suite on all six Table 2 LLC
configurations generates and filters each trace once, and the six
machines' LLC traces share the memoised stream's (read-only) arrays.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.config.cache_config import CacheConfig
from repro.config.machine import MachineConfig
from repro.io import atomic_write_json, read_json_tolerant
from repro.profiling.profile import SingleCoreProfile
from repro.profiling.profiler import ProfiledBenchmark, Profiler
from repro.simulators.llc_trace import LLCAccessTrace
from repro.simulators.single_core import PrivateMissStream
from repro.workloads.benchmark import BenchmarkSpec
from repro.workloads.suite import BenchmarkSuite


class ProfileStore:
    """Caches profiles per (benchmark, machine).

    Parameters
    ----------
    num_instructions, interval_instructions, seed:
        Passed through to the :class:`Profiler` when a profile has to
        be produced.
    cache_dir:
        Optional directory for JSON persistence of profiles.
    workload_spec:
        Optional workload spec string (see
        :mod:`repro.workloads.registry`) qualifying the on-disk cache
        keys, so two workloads that both contain a benchmark of the
        same name can never collide in one ``cache_dir``.  Every save
        also writes the *unqualified* (content-addressed) key — whose
        digest covers the full benchmark spec, so it is collision-free
        too — which lets workloads that share bit-identical benchmark
        specs (``suite:spec29`` vs ``suite:spec29/scaled@8``, a
        ``random:*`` family scaled up) share profiles: a qualified
        miss falls back to that shared layer (which also covers
        payloads written by older, unqualified stores) and adopts the
        profile under the qualified key.
    """

    def __init__(
        self,
        num_instructions: int = 200_000,
        interval_instructions: int = 4_000,
        seed: int = 0,
        cache_dir: Optional[Path] = None,
        workload_spec: Optional[str] = None,
    ) -> None:
        self.num_instructions = num_instructions
        self.interval_instructions = interval_instructions
        self.seed = seed
        self.workload_spec = workload_spec
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._profiles: Dict[Tuple[BenchmarkSpec, str], SingleCoreProfile] = {}
        self._traces: Dict[Tuple[BenchmarkSpec, str], LLCAccessTrace] = {}
        self._profilers: Dict[str, Profiler] = {}
        self._miss_streams: Dict[
            Tuple[BenchmarkSpec, Tuple[CacheConfig, ...]], PrivateMissStream
        ] = {}
        self.simulated_profiles = 0
        self.loaded_profiles = 0
        self.absorbed_profiles = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def get_profile(self, spec: BenchmarkSpec, machine: MachineConfig) -> SingleCoreProfile:
        """Profile (or fetch the cached profile of) one benchmark on one machine."""
        key = self._key(spec, machine)
        cached = self._profiles.get(key)
        if cached is not None:
            return cached

        loaded = self._load_from_disk(spec, machine)
        if loaded is not None:
            self._profiles[key] = loaded
            self.loaded_profiles += 1
            return loaded

        return self._simulate(spec, machine).profile

    def get_llc_trace(self, spec: BenchmarkSpec, machine: MachineConfig) -> LLCAccessTrace:
        """The LLC access trace of the isolated run (simulates if needed)."""
        key = self._key(spec, machine)
        cached = self._traces.get(key)
        if cached is not None:
            return cached
        return self._simulate(spec, machine).llc_trace

    def get(self, spec: BenchmarkSpec, machine: MachineConfig) -> ProfiledBenchmark:
        """Both the profile and the LLC trace for one benchmark."""
        key = self._key(spec, machine)
        if key in self._profiles and key in self._traces:
            return ProfiledBenchmark(profile=self._profiles[key], llc_trace=self._traces[key])
        profiled = self._simulate(spec, machine)
        return profiled

    def get_suite(
        self, suite: BenchmarkSuite, machine: MachineConfig
    ) -> Dict[str, ProfiledBenchmark]:
        """Profiles for every benchmark of a suite (name → profiled benchmark)."""
        return {spec.name: self.get(spec, machine) for spec in suite}

    def get_suite_profiles(
        self, suite: BenchmarkSuite, machine: MachineConfig
    ) -> Dict[str, SingleCoreProfile]:
        """Profiles only, for every benchmark of a suite."""
        return {spec.name: self.get_profile(spec, machine) for spec in suite}

    def preload(self, suite: BenchmarkSuite, machine: MachineConfig) -> int:
        """Warm the full (profile, LLC trace) bundle for a whole suite.

        Long-running callers (the prediction service) pay the one-time
        profiling cost once at startup and then share the in-memory
        bundles read-only across every subsequent request — no
        re-profiling, no re-pickling per call.  Returns the number of
        (benchmark, machine) pairs now resident.
        """
        for spec in suite:
            self.get(spec, machine)
        return len(suite)

    def has(self, spec: BenchmarkSpec, machine: MachineConfig) -> bool:
        """Whether the pair has an in-memory profile (disk is not probed)."""
        return self._key(spec, machine) in self._profiles

    def load_if_cached(self, spec: BenchmarkSpec, machine: MachineConfig) -> bool:
        """Pull the pair's profile into memory if it is cached anywhere.

        Unlike :meth:`get_profile` this never simulates: it returns
        ``True`` when the profile was already in memory or could be
        loaded from disk, ``False`` otherwise.  Note a disk hit only
        provides the profile — the LLC trace still requires a
        simulation, so callers that need traces must not rely on this.
        """
        key = self._key(spec, machine)
        if key in self._profiles:
            return True
        loaded = self._load_from_disk(spec, machine)
        if loaded is None:
            return False
        self._profiles[key] = loaded
        self.loaded_profiles += 1
        return True

    def absorb(
        self, spec: BenchmarkSpec, machine: MachineConfig, profiled: ProfiledBenchmark
    ) -> None:
        """Adopt a profile computed elsewhere (e.g. by an engine worker).

        The artefacts enter the in-memory and on-disk caches exactly as
        if this store had simulated them, but ``simulated_profiles`` is
        untouched — the simulation work was paid in another process.
        """
        key = self._key(spec, machine)
        self._profiles[key] = profiled.profile
        self._traces[key] = profiled.llc_trace
        self.absorbed_profiles += 1
        self._save_to_disk(spec, profiled.profile)

    def cached_pairs(self) -> int:
        """Number of (benchmark, machine) pairs with an in-memory profile."""
        return len(self._profiles)

    def clear(self) -> None:
        """Drop the in-memory caches (the on-disk cache is untouched)."""
        self._profiles.clear()
        self._traces.clear()
        self._miss_streams.clear()

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _key(self, spec: BenchmarkSpec, machine: MachineConfig) -> Tuple[BenchmarkSpec, str]:
        # Keyed by the full (frozen, hashable) spec, not just its name, so
        # that redefining a benchmark under the same name never returns a
        # stale profile.
        return (spec, machine.profile_key())

    def _profiler_for(self, machine: MachineConfig) -> Profiler:
        key = machine.profile_key()
        if key not in self._profilers:
            self._profilers[key] = Profiler(
                machine=machine,
                num_instructions=self.num_instructions,
                interval_instructions=self.interval_instructions,
                seed=self.seed,
            )
        return self._profilers[key]

    def _simulate(self, spec: BenchmarkSpec, machine: MachineConfig) -> ProfiledBenchmark:
        profiler = self._profiler_for(machine)
        # The LLC-independent stage, shared by every LLC configuration
        # on the same private levels.
        stream_key = (spec, machine.private_levels)
        stream = self._miss_streams.get(stream_key)
        if stream is None:
            stream = self._miss_streams[stream_key] = profiler.miss_stream(spec)
        profiled = profiler.profile(spec, stream)
        key = self._key(spec, machine)
        self._profiles[key] = profiled.profile
        self._traces[key] = profiled.llc_trace
        self.simulated_profiles += 1
        self._save_to_disk(spec, profiled.profile)
        return profiled

    def _disk_path(
        self, spec: BenchmarkSpec, machine_key: str, qualified: bool = True
    ) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        digest = 0
        description = (
            f"{machine_key}|{self.num_instructions}|{self.interval_instructions}|"
            f"{self.seed}|{spec!r}"
        )
        if qualified and self.workload_spec is not None:
            description = f"{self.workload_spec}|{description}"
        for char in description:
            digest = (digest * 131 + ord(char)) & 0xFFFFFFFF
        return self.cache_dir / f"{spec.name}-{digest:08x}.json"

    def _load_from_disk(
        self, spec: BenchmarkSpec, machine: MachineConfig
    ) -> Optional[SingleCoreProfile]:
        path = self._disk_path(spec, machine.profile_key())
        if path is None:
            return None
        data = read_json_tolerant(path)
        if data is None and self.workload_spec is not None:
            # Shared content-addressed layer (also covers payloads
            # written by pre-workload-spec stores): load and adopt the
            # profile under the qualified key.
            shared = self._disk_path(spec, machine.profile_key(), qualified=False)
            data = read_json_tolerant(shared)
            if data is not None:
                atomic_write_json(path, data)
        if data is None:
            return None
        return SingleCoreProfile.from_dict(data)

    def _save_to_disk(self, spec: BenchmarkSpec, profile: SingleCoreProfile) -> None:
        path = self._disk_path(spec, profile.machine_key)
        if path is None:
            return
        payload = profile.to_dict()
        atomic_write_json(path, payload)
        if self.workload_spec is not None:
            # The shared layer other workloads with bit-identical
            # benchmark specs (and legacy stores) read from.
            shared = self._disk_path(spec, profile.machine_key, qualified=False)
            atomic_write_json(shared, payload)
