"""Batched-vs-reference equivalence matrix for the MPPM solver.

The batched mix-major solver claims *bit-identical* results to the
per-mix Python loop that :class:`repro.oracles.ReferenceMPPM` forces —
not approximately equal.  Every assertion here
is therefore exact ``==`` on floats: same predicted CPIs, same
iteration counts, same convergence flags, for every registered
``mppm:*`` variant, across smoothing settings, uneven trace lengths,
single-mix batches and the ``max_iterations`` cap.
"""

import dataclasses

import pytest

from repro.contention import make_contention_model
from repro.core import MPPM, MPPMConfig
from repro.core.mppm import MPPMError
from repro.oracles import ReferenceMPPM
from repro.profiling import ProfileStore
from repro.workloads import WorkloadMix

from testdefaults import TEST_INSTRUCTIONS, TEST_INTERVAL

#: Every registered ``mppm:*`` spec as (contention model, config).
VARIANTS = {
    "foa": ("foa", MPPMConfig()),
    "sdc": ("sdc", MPPMConfig()),
    "prob": ("prob", MPPMConfig()),
    "windowed": ("foa", MPPMConfig(use_windowed_cpi=True)),
    "figure2": ("foa", MPPMConfig(literal_figure2_update=True)),
}


def assert_bit_identical(reference, batched):
    assert len(reference) == len(batched)
    for ref, bat in zip(reference, batched):
        assert ref.iterations == bat.iterations
        assert ref.converged == bat.converged
        assert ref.machine_name == bat.machine_name
        assert len(ref.programs) == len(bat.programs)
        for ref_program, bat_program in zip(ref.programs, bat.programs):
            assert ref_program.name == bat_program.name
            assert ref_program.core == bat_program.core
            # Exact equality on purpose: the two solvers share op order.
            assert ref_program.single_core_cpi == bat_program.single_core_cpi
            assert ref_program.predicted_cpi == bat_program.predicted_cpi


@pytest.fixture(scope="module")
def mixed_batches(profiles4):
    """A batch exercising 1/2/4-core mixes and duplicated programs."""
    names = sorted(profiles4)
    return [
        [profiles4[names[0]], profiles4[names[1]]],
        [profiles4[name] for name in names[:4]],
        [profiles4[names[0]], profiles4[names[0]], profiles4[names[2]], profiles4[names[3]]],
        [profiles4[names[4]]],
        [profiles4[names[5]], profiles4[names[2]]],
    ]


@pytest.fixture(scope="module")
def short_profiles(tiny_suite, machine4):
    """Profiles of the same suite at half the trace length (uneven mixes)."""
    store = ProfileStore(
        num_instructions=TEST_INSTRUCTIONS // 2,
        interval_instructions=TEST_INTERVAL,
        seed=0,
    )
    return {spec.name: store.get_profile(spec, machine4) for spec in tiny_suite}


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("smoothing", [0.0, 0.5, 0.9])
    def test_batched_matches_reference_bitwise(
        self, machine4, mixed_batches, variant, smoothing
    ):
        contention, config = VARIANTS[variant]
        config = dataclasses.replace(config, smoothing=smoothing)
        oracle = ReferenceMPPM(machine4, make_contention_model(contention), config)
        reference = oracle.predict_batch(mixed_batches)
        batched = MPPM(machine4, make_contention_model(contention), config).predict_batch(
            mixed_batches
        )
        assert_bit_identical(reference, batched)
        assert all(prediction.converged for prediction in batched)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_uneven_trace_lengths_within_one_mix(
        self, machine4, profiles4, short_profiles, variant
    ):
        contention, config = VARIANTS[variant]
        names = sorted(profiles4)
        # Full-length and half-length traces co-scheduled in one mix:
        # the chunk comes from the shortest trace and the programs
        # reach target_passes at different rates.
        batches = [
            [profiles4[names[0]], short_profiles[names[1]]],
            [short_profiles[names[2]], profiles4[names[3]], short_profiles[names[4]]],
        ]
        assert_bit_identical(
            ReferenceMPPM(machine4, make_contention_model(contention), config).predict_batch(
                batches
            ),
            MPPM(machine4, make_contention_model(contention), config).predict_batch(batches),
        )

    def test_single_mix_batch_equals_predict(self, machine4, profiles4):
        names = sorted(profiles4)
        profiles = [profiles4[name] for name in names[:4]]
        model = MPPM(machine4)
        single = model.predict(profiles)
        batch_of_one = model.predict_batch([profiles])
        assert [p.predicted_cpi for p in single.programs] == [
            p.predicted_cpi for p in batch_of_one[0].programs
        ]

    def test_max_iterations_cap_is_identical(self, machine4, mixed_batches):
        config = MPPMConfig(max_iterations=2)
        reference = ReferenceMPPM(machine4, config=config).predict_batch(mixed_batches)
        batched = MPPM(machine4, config=config).predict_batch(mixed_batches)
        assert_bit_identical(reference, batched)
        assert all(prediction.iterations == 2 for prediction in batched)
        assert not any(prediction.converged for prediction in batched)


class TestKernelRouting:
    def test_store_history_falls_back_to_reference(self, machine4, profiles4):
        names = sorted(profiles4)
        profiles = [profiles4[name] for name in names[:4]]
        config = MPPMConfig(store_history=True)
        prediction = MPPM(machine4, config=config).predict(profiles)
        assert len(prediction.history) == prediction.iterations
        assert prediction == ReferenceMPPM(machine4, config=config).predict(profiles)
        # The history is the only difference from the batched solve.
        batched = MPPM(machine4).predict(profiles)
        assert dataclasses.replace(prediction, history=()) == batched

    def test_empty_mix_rejected_by_both_kernels(self, machine4):
        for model in (MPPM(machine4), ReferenceMPPM(machine4)):
            with pytest.raises(MPPMError):
                model.predict([])

    def test_predict_many_dedups_identical_mixes(self, machine4, profiles4):
        names = sorted(profiles4)
        mix_a = WorkloadMix(programs=(names[0], names[1]))
        mix_b = WorkloadMix(programs=(names[2], names[3]))
        predictions = MPPM(machine4.with_num_cores(2)).predict_many(
            [mix_a, mix_b, mix_a, mix_a], profiles4
        )
        assert len(predictions) == 4
        assert predictions[0] is predictions[2]
        assert predictions[0] is predictions[3]
        assert predictions[0] is not predictions[1]
        # Dedup applies on the oracle too.
        reference = ReferenceMPPM(machine4.with_num_cores(2)).predict_many(
            [mix_a, mix_b, mix_a], profiles4
        )
        assert reference[0] is reference[2]
        assert_bit_identical([reference[0]], [predictions[0]])
