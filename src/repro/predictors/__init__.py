"""Unified Predictor API: one registry for every performance estimator.

The paper compares *estimators* of multi-program performance — the
iterative MPPM, two degenerate baselines and detailed simulation.  This
package gives all of them one first-class abstraction (the
:class:`Predictor` protocol) and one spec-string registry: the
families below are rows of a :class:`repro.specs.Registry` table,
which supplies the grammar, canonical forms and listing (README "Spec
strings"); ``repro models`` lists every spec.

``make_predictor(spec, setup)`` constructs a predictor bound to an
:class:`~repro.experiments.setup.ExperimentSetup` (its profile store
and, for ``detailed``, its memoised reference simulations).  Every
experiment and CLI command accepts these specs, and
:mod:`repro.engine.tasks` caches and parallelises them keyed by
``(spec, mix, machine)`` — so any new estimator (a learned model, a
hybrid scheme, a new contention model) becomes available to the whole
stack through a single registry entry here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Mapping, Optional, Tuple

from repro.contention import available_contention_models
from repro.core.mppm import MPPMConfig
from repro.predictors.base import Predictor, PredictorError, tag_prediction
from repro.predictors.baseline import VARIANTS as _BASELINE_VARIANTS, BaselinePredictor
from repro.predictors.detailed import DetailedSimulationPredictor, prediction_from_run
from repro.predictors.hybrid import HybridPredictor
from repro.predictors.interp import InterpolatedPredictor
from repro.predictors.learned import LearnedPredictor
from repro.predictors.mppm import MPPMPredictor
from repro.specs import Family, Param, ParsedSpec, Registry, Row

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.setup import ExperimentSetup

__all__ = [
    "Predictor",
    "PredictorError",
    "MPPMPredictor",
    "BaselinePredictor",
    "DetailedSimulationPredictor",
    "HybridPredictor",
    "InterpolatedPredictor",
    "LearnedPredictor",
    "DEFAULT_PREDICTOR",
    "DEFAULT_HYBRID_K",
    "DEFAULT_LEARNED_MIXES",
    "DEFAULT_LEARNED_SEED",
    "DEFAULT_INTERP_ANCHORS",
    "available_predictors",
    "canonical_spec",
    "describe_predictors",
    "lookup_spec",
    "make_predictor",
    "parse_spec",
    "prediction_from_run",
    "predictor_requires_traces",
    "tag_prediction",
]

#: The spec every experiment and CLI command defaults to (the paper's model).
DEFAULT_PREDICTOR = "mppm:foa"

#: Spot-check budget of the bare ``hybrid`` shorthand.
DEFAULT_HYBRID_K = 4

#: Training-set size and sampling seed of the bare ``learned`` shorthand.
DEFAULT_LEARNED_MIXES = 24
DEFAULT_LEARNED_SEED = 0

#: Anchor configurations of the bare ``interp`` shorthand: the Table 2
#: design-space extremes (smallest and largest LLC).
DEFAULT_INTERP_ANCHORS = (1, 6)

#: Size of the Table 2 LLC design space (valid interp anchor range).
_DESIGN_SPACE_SIZE = 6

#: MPPM model variants exposed as their own specs (ablation entries):
#: variant name -> (MPPMConfig, one-line description).  Both run over
#: the default FOA contention model.
_MPPM_VARIANTS: Mapping[str, Tuple[MPPMConfig, str]] = {
    "windowed": (
        MPPMConfig(use_windowed_cpi=True),
        "iterative MPPM (FOA) using windowed per-interval CPI for progress",
    ),
    "figure2": (
        MPPMConfig(literal_figure2_update=True),
        "iterative MPPM (FOA) with the paper's literal Figure 2 slowdown update",
    ),
}


_SPECS = Registry("predictor", PredictorError, (
    Family("mppm", default_head="foa", head={
        **{
            name: f"iterative MPPM with the {name.upper()} cache-contention model"
            for name in available_contention_models()
        },
        **{variant: description for variant, (_, description) in _MPPM_VARIANTS.items()},
    }),
    Family("baseline", head={
        variant: description for variant, (_, description) in _BASELINE_VARIANTS.items()
    }),
    Family("hybrid", params=(Param("k", default=DEFAULT_HYBRID_K, low=1),), rows=(
        Row(f"hybrid:k={DEFAULT_HYBRID_K}",
            "MPPM for the bulk, detailed spot-checks for each pool's predicted worst-K mixes"),
    )),
    Family("learned", params=(
        Param("n", default=DEFAULT_LEARNED_MIXES, low=2),
        Param("seed", default=DEFAULT_LEARNED_SEED, low=0),
    ), rows=(
        Row(f"learned:n={DEFAULT_LEARNED_MIXES},seed={DEFAULT_LEARNED_SEED}",
            "ridge regression over single-core profile features, trained on cached detailed "
            "runs"),
    )),
    Family("interp", params=(
        Param("anchors", kind="pair", default=DEFAULT_INTERP_ANCHORS, low=1,
              high=_DESIGN_SPACE_SIZE),
    ), rows=(
        Row("interp:anchors={}+{}".format(*DEFAULT_INTERP_ANCHORS),
            "per-program CPI interpolated across the LLC design space from two detailed "
            "anchors"),
    )),
    Family("detailed", rows=(
        Row("detailed", "detailed shared-LLC multi-core simulation (the reference)"),
    )),
))

#: Families whose predictions run the detailed simulator (spot-checks,
#: training runs, anchors), so they need LLC access traces.
_TRACE_FAMILIES = frozenset(("detailed", "hybrid", "learned", "interp"))


def available_predictors() -> List[str]:
    """All registered predictor specs, in canonical listing order."""
    return _SPECS.available()


def parse_spec(spec: str) -> ParsedSpec:
    """Parse a predictor spec into its family, head and typed parameters.

    Raises :class:`PredictorError` listing the available specs for
    anything the registry does not know.
    """
    return _SPECS.parse(spec)


def canonical_spec(spec: str) -> str:
    """Normalise and validate a predictor spec string.

    ``"mppm"`` is shorthand for the default ``"mppm:foa"``.  Raises
    :class:`PredictorError` (a ``ValueError``) listing the available
    specs for anything the registry does not know.
    """
    return _SPECS.parse(spec).canonical


def make_predictor(
    spec: str,
    setup: "ExperimentSetup",
    mppm_config: Optional[MPPMConfig] = None,
) -> Predictor:
    """Construct a predictor by spec, bound to an experiment setup.

    ``mppm_config`` tunes the iterative model and is only meaningful
    for ``mppm:<contention>`` specs; passing it with any other spec —
    including the ``mppm:windowed`` / ``mppm:figure2`` variants, whose
    configuration *is* their identity — is an error.
    """
    family, variant, params, canonical = _SPECS.parse(spec)
    if family == "mppm" and variant in _MPPM_VARIANTS:
        if mppm_config is not None:
            raise PredictorError(
                f"{canonical!r} carries its own MPPMConfig; pass a plain "
                "mppm:<contention> spec to tune the model explicitly"
            )
        variant_config, _ = _MPPM_VARIANTS[variant]
        return MPPMPredictor(
            setup, contention="foa", mppm_config=variant_config, spec=canonical
        )
    if family != "mppm" and mppm_config is not None:
        raise PredictorError(
            f"mppm_config only applies to mppm:* predictors, not {canonical!r}"
        )
    if family == "mppm":
        return MPPMPredictor(setup, contention=variant, mppm_config=mppm_config)
    if family == "baseline":
        return BaselinePredictor(setup, variant=variant)
    if family == "hybrid":
        return HybridPredictor(setup, worst_k=params["k"], spec=canonical)
    if family == "learned":
        return LearnedPredictor(
            setup, num_mixes=params["n"], seed=params["seed"], spec=canonical
        )
    if family == "interp":
        return InterpolatedPredictor(setup, anchors=params["anchors"], spec=canonical)
    return DetailedSimulationPredictor(setup)


def lookup_spec(spec: str) -> str:
    """Best-effort canonicalisation for result lookups.

    Result accessors key by canonical spec; this lets them accept the
    same shorthand the experiments accept (``"mppm"``, mixed case)
    while passing unknown strings through unchanged so the accessor
    raises its own KeyError rather than a registry error.
    """
    try:
        return canonical_spec(spec)
    except PredictorError:
        return spec


def predictor_requires_traces(spec: str) -> bool:
    """Whether the predictor replays LLC access traces (vs. profiles only).

    The engine's parallel warm-up phase uses this to decide whether a
    disk-cached profile is enough or the full (profile, trace) bundle
    must be simulated before mix jobs fan out.  ``hybrid:*``,
    ``learned:*`` and ``interp:*`` need traces too: their spot-check /
    training / anchor stages all run the detailed simulator.
    """
    return _SPECS.parse(spec).family in _TRACE_FAMILIES


def describe_predictors() -> List[Tuple[str, str]]:
    """(spec, description) rows for every registered predictor."""
    return _SPECS.describe()
