"""Benchmark guard: the batched MPPM solver versus the per-mix reference loop.

Exploring the paper's workload space means solving the Figure-2 fixed
point for hundreds to thousands of mixes per sweep.  :class:`MPPM`
solves a whole batch at once over mix-major numpy state arrays (one
vectorized iteration step, a convergence mask retiring mixes in
place); the test oracle :class:`repro.oracles.ReferenceMPPM` iterates
each mix in pure Python.  This guard asserts, at workload-space scale
on the default experiment configuration, that the two stay
bit-identical for every ``mppm:*`` variant *and* that the batched
solver keeps its speedup — so a fall back to the per-mix loop (or a
regression that slows the solver to parity) fails the build.

Run standalone (CI uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_mppm_batch.py [--quick]
"""

from __future__ import annotations

import argparse
import time

from repro.contention import make_contention_model
from repro.core import MPPM, MPPMConfig
from repro.experiments import ExperimentConfig, ExperimentSetup
from repro.oracles import ReferenceMPPM

#: Every registered ``mppm:*`` spec as (contention model, config);
#: the equivalence sweep runs all of them, the timing run uses FOA.
VARIANTS = {
    "foa": ("foa", MPPMConfig()),
    "sdc": ("sdc", MPPMConfig()),
    "prob": ("prob", MPPMConfig()),
    "windowed": ("foa", MPPMConfig(use_windowed_cpi=True)),
    "figure2": ("foa", MPPMConfig(literal_figure2_update=True)),
}

#: Full mode: default experiment traces, a workload-space-sized sweep.
DEFAULT_INSTRUCTIONS = 200_000
DEFAULT_MIXES = 300
#: Speedup floor at the default scale (measured ~25x; the margin
#: absorbs machine noise while still catching a fallback or regression).
DEFAULT_FLOOR = 5.0
#: Quick mode: short traces + a small sweep for CI smoke; fixed numpy
#: overheads eat into the ratio at this size, so the floor only needs
#: to prove the batched path is live (the per-mix loop measures ~1x).
QUICK_INSTRUCTIONS = 50_000
QUICK_MIXES = 64
QUICK_FLOOR = 2.0

#: How many mixes of the sweep go through the all-variant identity check
#: (every mix is checked for the timed FOA variant regardless).
IDENTITY_SLICE = 10


def _assert_identical(reference, batched):
    assert len(reference) == len(batched)
    for ref, bat in zip(reference, batched):
        assert ref.iterations == bat.iterations
        assert ref.converged == bat.converged
        for ref_program, bat_program in zip(ref.programs, bat.programs):
            # Exact equality on purpose: the two solvers share op order.
            assert ref_program.predicted_cpi == bat_program.predicted_cpi


def measure_kernels(
    num_instructions: int = DEFAULT_INSTRUCTIONS,
    num_mixes: int = DEFAULT_MIXES,
    rounds: int = 3,
) -> dict:
    """Time solver and oracle over one mix sweep; returns seconds + speedup.

    Uses best-of-``rounds`` per solver (the minimum is the least noisy
    estimator of the true cost) and asserts bit-identical results for
    every ``mppm:*`` variant along the way.
    """
    interval = min(4_000, num_instructions // 50)
    setup = ExperimentSetup(
        config=ExperimentConfig(
            num_instructions=num_instructions, interval_instructions=interval
        )
    )
    machine = setup.machine(num_cores=4)
    profiles = setup.profiles(machine)
    mixes = setup.mixes(num_programs=4, num_mixes=num_mixes, seed=0)
    batches = [[profiles[name] for name in mix.programs] for mix in mixes]

    for contention, config in VARIANTS.values():
        slice_ = batches[:IDENTITY_SLICE]
        _assert_identical(
            ReferenceMPPM(machine, make_contention_model(contention), config).predict_batch(
                slice_
            ),
            MPPM(machine, make_contention_model(contention), config).predict_batch(slice_),
        )

    # The timed variant: mppm:foa defaults.
    model, oracle = MPPM(machine), ReferenceMPPM(machine)
    _assert_identical(oracle.predict_batch(batches), model.predict_batch(batches))

    def best_of(solver: MPPM) -> float:
        timings = []
        for _ in range(rounds):
            start = time.perf_counter()
            solver.predict_batch(batches)
            timings.append(time.perf_counter() - start)
        return min(timings)

    batched_seconds = best_of(model)
    reference_seconds = best_of(oracle)
    return {
        "num_instructions": num_instructions,
        "num_mixes": num_mixes,
        "variants_checked": sorted(VARIANTS),
        "batched_seconds": batched_seconds,
        "reference_seconds": reference_seconds,
        "speedup": reference_seconds / batched_seconds,
    }


def run_guard(quick: bool = False) -> dict:
    """Measure and enforce the speedup floor; returns the measurement."""
    result = measure_kernels(
        num_instructions=QUICK_INSTRUCTIONS if quick else DEFAULT_INSTRUCTIONS,
        num_mixes=QUICK_MIXES if quick else DEFAULT_MIXES,
    )
    floor = QUICK_FLOOR if quick else DEFAULT_FLOOR
    print(
        f"MPPM solve of {result['num_mixes']} 4-core mixes "
        f"({result['num_instructions']} instructions per trace): "
        f"batched {result['batched_seconds']:.3f}s, "
        f"reference {result['reference_seconds']:.3f}s "
        f"-> speedup {result['speedup']:.1f}x (floor {floor:.1f}x)"
    )
    assert result["speedup"] >= floor, (
        f"batched MPPM solver regressed (or fell back to the per-mix "
        f"loop): {result['speedup']:.2f}x < required {floor:.1f}x"
    )
    return result


def test_batched_mppm_guard():
    """Pytest entry point: full default-scale guard."""
    run_guard(quick=False)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sweep + relaxed floor (CI smoke: catches a fall back to "
        "the per-mix loop, tolerates shared-runner noise)",
    )
    args = parser.parse_args()
    result = run_guard(quick=args.quick)
    from perf_snapshot import round_floats, write_snapshot

    write_snapshot("mppm_batch", round_floats(result), quick=args.quick)


if __name__ == "__main__":
    main()
