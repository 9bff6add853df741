"""MPPM as a registry predictor (``mppm:<contention-model>`` and variants).

One registry entry per cache-contention model: ``mppm:foa`` (the
paper's choice and the package default), ``mppm:sdc`` and
``mppm:prob`` — plus one per model *variant* used by the ablations:
``mppm:windowed`` (windowed per-interval CPI progress) and
``mppm:figure2`` (the paper's literal Figure 2 slowdown update), both
over the FOA contention model.  The predictor draws single-core
profiles through the setup's
:class:`~repro.profiling.store.ProfileStore` — exactly the code path
the pre-registry ``ExperimentSetup.predict`` used, so predictions are
bit-identical to it by construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.contention import make_contention_model
from repro.core import MPPM, MPPMConfig
from repro.core.result import MixPrediction
from repro.predictors.base import tag_prediction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config.machine import MachineConfig
    from repro.experiments.setup import ExperimentSetup
    from repro.workloads.mixes import WorkloadMix


class MPPMPredictor:
    """The iterative Multi-Program Performance Model behind the Predictor API."""

    def __init__(
        self,
        setup: "ExperimentSetup",
        contention: str = "foa",
        mppm_config: Optional[MPPMConfig] = None,
        spec: Optional[str] = None,
    ) -> None:
        self.setup = setup
        self.contention = contention
        self.mppm_config = mppm_config
        # Variant entries (mppm:windowed, mppm:figure2) override the
        # spec: they are named after their MPPMConfig, not the
        # contention model they run on.
        self.spec = spec if spec is not None else f"mppm:{contention}"

    def _model(self, machine: "MachineConfig") -> MPPM:
        return MPPM(
            machine,
            contention_model=make_contention_model(self.contention),
            config=self.mppm_config,
        )

    def predict(self, mix: "WorkloadMix", machine: "MachineConfig") -> MixPrediction:
        """Run the iterative model on the mix's single-core profiles."""
        profiles = self.setup.mix_profiles(mix, machine)
        return tag_prediction(self._model(machine).predict_mix(mix, profiles), self.spec)

    def predict_batch(
        self, items: Sequence[Tuple["WorkloadMix", "MachineConfig"]]
    ) -> List[MixPrediction]:
        """Solve many (mix, machine) pairs in one batched fixed-point pass.

        Pairs are grouped by machine (one :class:`MPPM` instance per
        distinct machine) and each group is handed to
        :meth:`MPPM.predict_batch` as a single mix-major batch, so a
        homogeneous sweep over thousands of mixes costs one numpy pass
        instead of thousands of Python loops.  Results come back in
        input order, bit-identical to per-pair :meth:`predict` calls.
        """
        predictions: List[Optional[MixPrediction]] = [None] * len(items)
        groups: Dict[Tuple[str, int], List[int]] = {}
        machines: Dict[Tuple[str, int], "MachineConfig"] = {}
        for index, (_, machine) in enumerate(items):
            group_key = (machine.profile_key(), machine.num_cores)
            groups.setdefault(group_key, []).append(index)
            machines.setdefault(group_key, machine)
        for group_key, indices in groups.items():
            machine = machines[group_key]
            model = self._model(machine)
            batches = []
            for index in indices:
                mix = items[index][0]
                profiles = self.setup.mix_profiles(mix, machine)
                batches.append([profiles[name] for name in mix.programs])
            for index, prediction in zip(indices, model.predict_batch(batches)):
                predictions[index] = tag_prediction(prediction, self.spec)
        return predictions

    def describe(self) -> str:
        return (
            f"iterative MPPM with the {self.contention.upper()} cache-contention model "
            "(single-core profiles only)"
        )
