"""Unit tests for the shared experiment setup (caching, machines, classification)."""

import dataclasses

import pytest

from repro.contention import make_contention_model
from repro.experiments import ExperimentConfig, ExperimentSetup, default_setup
from repro.oracles import ReferenceMPPM, ReferenceMultiCoreSimulator
from repro.workloads import BenchmarkClass, WorkloadMix, small_suite


@pytest.fixture(scope="module")
def small_setup():
    """A fast setup: 6 benchmarks, short traces."""
    return ExperimentSetup(
        config=ExperimentConfig(scale=16, num_instructions=30_000, interval_instructions=1_000),
        suite=small_suite(6),
    )


class TestExperimentConfig:
    def test_defaults_are_consistent(self):
        config = ExperimentConfig()
        assert config.num_instructions % config.interval_instructions == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(scale=0),
            dict(num_instructions=0),
            dict(interval_instructions=0),
            dict(num_instructions=1_000, interval_instructions=300),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    def test_every_field_is_a_result_input(self):
        # Each field changes results and enters the cache keys; no
        # speed-only setting rides along.
        assert [field.name for field in dataclasses.fields(ExperimentConfig)] == [
            "scale",
            "num_instructions",
            "interval_instructions",
            "seed",
        ]


class TestExperimentSetup:
    def test_machines_are_scaled_table2_configs(self, small_setup):
        machine = small_setup.machine(num_cores=4, llc_config=1)
        assert machine.num_cores == 4
        assert "config #1" in machine.name
        # Scaled by 16: the 512KB LLC becomes 32KB.
        assert machine.llc.size_bytes == 512 * 1024 // 16
        design_space = small_setup.design_space()
        assert len(design_space) == 6

    def test_profiles_are_cached_per_machine(self, small_setup):
        machine = small_setup.machine()
        first = small_setup.profiles(machine)
        second = small_setup.profiles(machine)
        assert first is second
        assert set(first) == set(small_setup.benchmark_names)

    def test_profiles_shared_across_core_counts(self, small_setup):
        four_core = small_setup.machine(num_cores=4)
        eight_core = small_setup.machine(num_cores=8)
        assert small_setup.profiles(four_core) is small_setup.profiles(eight_core)

    def test_simulation_results_are_cached(self, small_setup):
        machine = small_setup.machine()
        mix = WorkloadMix(programs=tuple(small_setup.benchmark_names[:4]))
        before = small_setup.reference_runs()
        first = small_setup.simulate(mix, machine)
        second = small_setup.simulate(mix, machine)
        assert first is second
        assert small_setup.reference_runs() == before + 1

    def test_predictions_are_cached_only_for_default_model(self, small_setup):
        from repro.core import MPPMConfig

        machine = small_setup.machine()
        mix = WorkloadMix(programs=tuple(small_setup.benchmark_names[:4]))
        first = small_setup.predict(mix, machine)
        second = small_setup.predict(mix, machine)
        assert first is second
        custom = small_setup.predict(mix, machine, mppm_config=MPPMConfig(smoothing=0.9))
        assert custom is not first

    def test_simulate_adapts_machine_core_count_to_mix_size(self, small_setup):
        machine = small_setup.machine(num_cores=4)
        mix = WorkloadMix(programs=tuple(small_setup.benchmark_names[:2]))
        result = small_setup.simulate(mix, machine)
        assert result.num_cores == 2

    def test_classification_covers_all_benchmarks(self, small_setup):
        classes = small_setup.classification()
        assert set(classes) == set(small_setup.benchmark_names)
        assert all(isinstance(value, BenchmarkClass) for value in classes.values())

    def test_default_setup_is_shared(self):
        assert default_setup() is default_setup()
        assert default_setup(seed=1) is not default_setup(seed=0)


class TestBatchedMppmSweeps:
    """The batched solver path through ``predict_batch`` is invisible:
    bit-identical results, per-op cache entries, shared dedup objects."""

    MPPM_SPECS = ("mppm:foa", "mppm:sdc", "mppm:prob", "mppm:windowed", "mppm:figure2")

    @staticmethod
    def _setup(**kwargs):
        return ExperimentSetup(
            config=ExperimentConfig(scale=16, num_instructions=30_000, interval_instructions=1_000),
            suite=small_suite(6),
            **kwargs,
        )

    def test_batched_sweep_matches_reference_bitwise(self):
        setup = self._setup()
        machine = setup.machine(num_cores=2)
        mixes = setup.mixes(num_programs=2, num_mixes=4)
        for spec in self.MPPM_SPECS:
            batched = setup.predict_batch([(mix, machine) for mix in mixes], predictor=spec)
            predictor = setup.predictor(spec)
            oracle = ReferenceMPPM(
                machine, make_contention_model(predictor.contention), predictor.mppm_config
            )
            for mix, fast in zip(mixes, batched):
                slow = oracle.predict_mix(mix, setup.mix_profiles(mix, machine))
                assert fast.iterations == slow.iterations
                assert fast.converged == slow.converged
                # Exact equality on purpose: the two solvers share op order.
                assert [p.predicted_cpi for p in fast.programs] == [
                    p.predicted_cpi for p in slow.programs
                ]

    def test_duplicate_ops_share_one_prediction_object(self):
        setup = self._setup()
        machine = setup.machine(num_cores=2)
        mix = WorkloadMix(programs=tuple(setup.benchmark_names[:2]))
        other = WorkloadMix(programs=tuple(setup.benchmark_names[2:4]))
        results = setup.predict_batch(
            [(mix, machine), (other, machine), (mix, machine)], predictor="mppm:foa"
        )
        assert results[0] is results[2]
        assert results[0] is not results[1]

    def test_batch_path_populates_per_op_cache_entries(self, tmp_path):
        setup = self._setup(cache_dir=tmp_path)
        machine = setup.machine(num_cores=2)
        pairs = [(mix, machine) for mix in setup.mixes(num_programs=2, num_mixes=3)]
        pairs.append(pairs[0])  # duplicate op: one store, two results
        first = setup.predict_batch(pairs, predictor="mppm:sdc")
        stats = setup.engine.cache_stats()
        predict_stores = 3  # unique (mix, machine) ops, not batch jobs
        assert stats["stores"] >= predict_stores

        # A fresh setup over the same cache directory answers every op
        # from the per-op cache entries the batch job scattered out.
        rerun_setup = self._setup(cache_dir=tmp_path)
        rerun_machine = rerun_setup.machine(num_cores=2)
        rerun_pairs = [(mix, rerun_machine) for mix, _ in pairs]
        before = rerun_setup.engine.cache_stats()
        rerun = rerun_setup.predict_batch(rerun_pairs, predictor="mppm:sdc")
        after = rerun_setup.engine.cache_stats()
        assert after["hits"] - before["hits"] >= predict_stores
        for fresh, cached in zip(first, rerun):
            assert [p.predicted_cpi for p in fresh.programs] == [
                p.predicted_cpi for p in cached.programs
            ]


class TestMulticoreKernelPlumbing:
    """The setup's reference simulations are the per-access oracle's,
    bit for bit, on every engine path."""

    @staticmethod
    def _setup(**kwargs):
        return ExperimentSetup(
            config=ExperimentConfig(scale=16, num_instructions=30_000, interval_instructions=1_000),
            suite=small_suite(6),
            **kwargs,
        )

    def test_all_kernels_simulate_bit_identically(self):
        setup = self._setup()
        machine = setup.machine(num_cores=4)
        mix = WorkloadMix(programs=tuple(setup.benchmark_names[:4]))
        oracle = ReferenceMultiCoreSimulator(machine).run(setup.llc_traces(mix, machine))
        assert setup.simulate(mix, machine) == oracle

    def test_detailed_sweep_repackages_like_predict(self):
        setup = self._setup()
        machine = setup.machine(num_cores=2)
        mix = WorkloadMix(programs=tuple(setup.benchmark_names[:2]))
        direct = setup.predict(mix, machine, predictor="detailed")
        assert direct.predictor == "detailed"
        # The sweep path repackages simulate jobs the same way.
        swept = setup.predict_batch([(mix, machine)], predictor="detailed")[0]
        assert swept == direct

    def test_parallel_simulation_matches_serial_bitwise(self):
        serial = self._setup()
        machine = serial.machine(num_cores=2)
        mixes = serial.mixes(num_programs=2, num_mixes=3)
        pairs = [(mix, machine) for mix in mixes]
        expected = serial.simulate_batch(pairs)
        parallel = self._setup(jobs=2)
        try:
            assert parallel.simulate_batch(pairs) == expected
        finally:
            parallel.close()
