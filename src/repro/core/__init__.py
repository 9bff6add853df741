"""The Multi-Program Performance Model (MPPM) — the paper's contribution.

Given the single-core profiles of the programs in a multi-program
workload mix, :class:`MPPM` predicts each program's multi-core CPI on a
machine with a shared last-level cache, and from those the mix's system
throughput (STP) and average normalized turnaround time (ANTT) —
without any multi-core simulation.

The model is the iterative process of the paper's Figure 2; see
:mod:`repro.core.mppm` for the step-by-step correspondence.
"""

from repro.core.batched import solve_batch
from repro.core.mppm import MPPM, MPPMConfig
from repro.core.result import IterationRecord, MixPrediction, ProgramPrediction
from repro.core.baselines import NoContentionPredictor, OneShotContentionPredictor

__all__ = [
    "MPPM",
    "MPPMConfig",
    "solve_batch",
    "MixPrediction",
    "ProgramPrediction",
    "IterationRecord",
    "NoContentionPredictor",
    "OneShotContentionPredictor",
]
