"""Design-space workload: rank the six Table 2 LLC configurations with MPPM.

Runs inside :mod:`launch` (``launch.py design ...``).  Set-up builds an
``ExperimentSetup`` (no result cache) and preloads the single-core
profiles of the whole suite on all six LLC configurations; each sweep
then predicts a fresh seeded sample of 4-program mixes on every
configuration through one ``predict_batch(..., "mppm:foa")`` call, so
no simulation runs while sweeps are timed.  With ``--check N``, N
seeded sweep items are recomputed by single ``ExperimentSetup.predict``
calls and must be identical to the batch results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import time
from typing import Dict, List

#: Mixes per sweep; times the six configurations, 12,000 predictions.
MIXES_PER_SWEEP = 2000


def prediction_digest(predictions) -> str:
    text = json.dumps([prediction.to_dict() for prediction in predictions], sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv: List[str], report: Dict) -> int:
    from repro.experiments import ExperimentConfig, ExperimentSetup

    parser = argparse.ArgumentParser(prog="launch.py design")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-sweeps", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--check", type=int, default=0)
    options = parser.parse_args(argv)

    started = time.perf_counter()
    setup = ExperimentSetup(config=ExperimentConfig(seed=options.seed))
    machines = setup.design_space(num_cores=4)
    for machine in machines:
        setup.profiles(machine)
    report["setup_s"] = report["import_s"] + time.perf_counter() - started
    if options.setup_only:
        return 0

    sweep_seconds: List[float] = []
    first_sweep = None
    measuring = time.perf_counter()
    while len(sweep_seconds) < options.min_sweeps or time.perf_counter() - measuring < options.seconds:
        mixes = setup.mixes(4, MIXES_PER_SWEEP, seed=options.seed * 1000 + len(sweep_seconds))
        pairs = [(mix, machine) for mix in mixes for machine in machines]
        begin = time.perf_counter()
        predictions = setup.predict_batch(pairs, "mppm:foa")
        sweep_seconds.append(time.perf_counter() - begin)
        if first_sweep is None:
            first_sweep = (pairs, predictions)
    pairs, predictions = first_sweep
    report["sweep_s"] = sweep_seconds
    report["predictions_per_sweep"] = len(pairs)
    report["result_digest"] = prediction_digest(predictions)
    report["ranking"] = rank_configurations(machines, pairs, predictions)

    mismatches = 0
    sample = random.Random(options.seed).sample(range(len(pairs)), options.check)
    for index in sample:
        mix, machine = pairs[index]
        single = setup.predict(mix, machine, "mppm:foa")
        if json.dumps(single.to_dict(), sort_keys=True) != json.dumps(
            predictions[index].to_dict(), sort_keys=True
        ):
            mismatches += 1
    report["checked"] = len(sample)
    report["mismatches"] = mismatches
    return 0


def rank_configurations(machines, pairs, predictions) -> List[int]:
    """LLC configuration numbers (1-6) by mean predicted STP, best first."""
    position = {id(machine): index for index, machine in enumerate(machines)}
    totals = [0.0] * len(machines)
    for (_, machine), prediction in zip(pairs, predictions):
        totals[position[id(machine)]] += prediction.system_throughput
    return [index + 1 for index in sorted(range(len(machines)), key=lambda index: -totals[index])]
