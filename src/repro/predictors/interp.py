"""Design-space interpolation: predict config #k from two detailed anchors.

``interp:anchors=A+B`` answers the paper's design-space-exploration
question — "how does this mix behave across the six Table 2 LLC
configurations?" — with detailed simulation at only two *anchor*
configurations (the default pair ``1+6`` brackets the space: smallest
and largest LLC).  Any other configuration's per-program CPI is
linearly interpolated between the two anchor runs, positioned by
``log2`` of the LLC capacity — cache miss curves are closer to linear
in log-capacity than in raw bytes, and equal-capacity steps in Table 2
are equal log-steps.

The target machine must be one of the setup's design-space machines
(:meth:`~repro.experiments.setup.ExperimentSetup.design_space`); asking
for an arbitrary machine is a :class:`PredictorError`, not a silent
extrapolation.  At an anchor configuration the answer *is* the
detailed run, re-tagged — so anchors are exact, interior
configurations approximate, and a sweep over the whole space costs two
reference simulations per mix instead of six.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Tuple

from repro.core.result import MixPrediction, ProgramPrediction
from repro.predictors.base import PredictorError, tag_prediction
from repro.predictors.detailed import prediction_from_run

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config.machine import MachineConfig
    from repro.experiments.setup import ExperimentSetup
    from repro.workloads.mixes import WorkloadMix


class InterpolatedPredictor:
    """``interp:anchors=A+B`` — design-space interpolation (module docstring)."""

    def __init__(
        self, setup: "ExperimentSetup", anchors: Tuple[int, int], spec: str
    ) -> None:
        self.setup = setup
        self.anchors = anchors
        self.spec = spec

    def _locate(self, machine: "MachineConfig"):
        """(1-based design-space index, the full space) for ``machine``."""
        space = self.setup.design_space(machine.num_cores)
        for index, candidate in enumerate(space):
            if candidate.llc == machine.llc:
                return index + 1, space
        raise PredictorError(
            f"{self.spec}: machine {machine.name!r} is not in the LLC design "
            f"space; interp predicts Table 2 configurations #1..#{len(space)} only"
        )

    def predict(self, mix: "WorkloadMix", machine: "MachineConfig") -> MixPrediction:
        if machine.num_cores != mix.num_programs:
            machine = machine.with_num_cores(mix.num_programs)
        index, space = self._locate(machine)
        if index in self.anchors:
            # Anchors are exact: the detailed run re-tagged as interp.
            run = self.setup.simulate(mix, machine)
            return tag_prediction(prediction_from_run(run), self.spec)
        low, high = self.anchors
        low_machine, high_machine = space[low - 1], space[high - 1]
        low_run = self.setup.simulate(mix, low_machine)
        high_run = self.setup.simulate(mix, high_machine)
        low_size = low_machine.llc.size_bytes
        high_size = high_machine.llc.size_bytes
        if high_size != low_size:
            position = (
                math.log2(machine.llc.size_bytes) - math.log2(low_size)
            ) / (math.log2(high_size) - math.log2(low_size))
        else:
            # Equal-capacity anchors (associativity-only step): fall
            # back to the configuration index as the axis.
            position = (index - low) / (high - low)
        position = min(1.0, max(0.0, position))
        low_by_core = {stats.core: stats for stats in low_run.programs}
        high_by_core = {stats.core: stats for stats in high_run.programs}
        profiles = self.setup.mix_profiles(mix, machine)
        programs = []
        for core, name in enumerate(mix.programs):
            low_cpi = low_by_core[core].cpi
            high_cpi = high_by_core[core].cpi
            predicted = (1.0 - position) * low_cpi + position * high_cpi
            # CPI_SC comes from the *target* machine's own profile, so
            # slowdown/STP are measured against the right baseline.
            single_core_cpi = profiles[name].cpi
            programs.append(
                ProgramPrediction(
                    name=name,
                    core=core,
                    single_core_cpi=single_core_cpi,
                    # Contention never makes a program faster than its
                    # own isolated run on the same machine.
                    predicted_cpi=max(predicted, single_core_cpi),
                )
            )
        return MixPrediction(
            machine_name=machine.name,
            programs=tuple(programs),
            iterations=0,
            converged=True,
            predictor=self.spec,
        )

    def describe(self) -> str:
        low, high = self.anchors
        return (
            f"per-program CPI interpolated across the LLC design space from "
            f"detailed runs at anchor configurations #{low} and #{high}"
        )
