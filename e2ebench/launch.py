"""Run the program in a child process, optionally with layer spans.

Usage (from the repository root)::

    python3 e2ebench/launch.py --report OUT.json [--trace] cli -- run --experiment accuracy ...
    python3 e2ebench/launch.py --report OUT.json [--trace] design --seed 3 ...

``cli`` calls ``repro.cli.main`` with the arguments after ``--`` (the
same code path as ``python -m repro.cli``); ``design`` runs the
design-space workload in :mod:`design`.  The launcher times ``import
repro`` and, with ``--trace``, wraps the public entry points of every
layer (see :func:`install`) before the program runs.  At exit it writes
``OUT.json``: the import time, the profile stores' counters, whatever
the design-space workload reported, and every recorded span.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

from spans import Tracer  # noqa: E402

#: ExperimentSetup methods a caller enters the experiments layer through.
SETUP_METHODS = (
    "profiles",
    "mix_profiles",
    "llc_traces",
    "predict",
    "simulate",
    "predictor_batch",
    "predict_batch",
    "simulate_batch",
    "evaluate_predictors",
)


def op_key(mix, machine) -> str:
    """The identity of one prediction request: programs and machine."""
    return f"{','.join(mix.programs)}|{machine.profile_key()}|{machine.num_cores}"


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def multi_core_instructions(result) -> int:
    """Instructions of every completed pass of every program in a detailed run.

    A lower bound on what the run simulated: a program that finishes
    its pass early re-runs its trace until the slowest one finishes, and
    the run reports only that program's completed passes, not the
    partial pass it was in when the run stopped.
    """
    return sum(program.num_instructions * max(1, program.passes_completed) for program in result.programs)


def store_counters(stores: List) -> Dict[str, int]:
    """Profiles the profile stores have simulated and loaded so far."""
    return {
        "profiles_simulated": sum(store.simulated_profiles for store in stores),
        "profiles_loaded": sum(store.loaded_profiles for store in stores),
    }


def install(tracer: Tracer, stores: List) -> None:
    """Wrap each layer's public entry points so every call records a span."""
    import repro.engine.cache as cache_module
    from repro.core.mppm import MPPM
    from repro.engine.executor import Executor
    from repro.engine.job import Job
    from repro.experiments.setup import ExperimentSetup
    from repro.profiling.profile import SingleCoreProfile
    from repro.profiling.store import ProfileStore
    from repro.service.app import PredictionService
    from repro.service.batching import PredictionBatcher
    from repro.simulators.multi_core import MultiCoreSimulator
    from repro.simulators.single_core import SingleCoreSimulator
    from repro.workloads.generator import TraceGenerator

    def trace_of(args, kwargs):
        return kwargs["trace"] if "trace" in kwargs else args[1]

    wrap = tracer.wrap
    wrap(
        TraceGenerator,
        "generate",
        "workloads.generator:generate",
        attrs=lambda args, kwargs, trace: {"accesses": int(len(trace.access_line))},
    )
    for function in ("run", "run_with_perfect_llc"):
        wrap(
            SingleCoreSimulator,
            function,
            f"simulators.single_core:{function}",
            attrs=lambda args, kwargs, _: {"instructions": trace_of(args, kwargs).num_instructions},
        )
    wrap(
        MultiCoreSimulator,
        "run",
        "simulators.multi_core:run",
        attrs=lambda args, kwargs, result: {"instructions": multi_core_instructions(result)},
    )
    for function in ("get_profile", "get_llc_trace", "get"):
        wrap(ProfileStore, function, f"profiling.store:{function}")
    original_init = ProfileStore.__init__

    def remembering_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        stores.append(self)

    ProfileStore.__init__ = remembering_init
    wrap(SingleCoreProfile, "cpi", "profiling.profile:cpi")
    wrap(
        MPPM,
        "predict_batch",
        "core.mppm:predict_batch",
        attrs=lambda args, kwargs, result: {
            "mixes": len(result),
            "iterations": sum(prediction.iterations for prediction in result),
        },
    )
    for function in SETUP_METHODS:
        attrs = None
        if function == "predictor_batch":
            attrs = lambda args, kwargs, _: {  # noqa: E731
                "ops": [op_key(mix, machine) for _, mix, machine in args[1]]
            }
        wrap(ExperimentSetup, function, f"experiments.setup:{function}", attrs=attrs)
    wrap(Executor, "run", "engine.executor:run")
    wrap(Job, "run", "engine.executor:job", op=lambda args, kwargs: args[0].key)
    wrap(
        cache_module.ResultCache,
        "get",
        "engine.cache:get",
        attrs=lambda args, kwargs, value: {"hit": value is not cache_module.MISS},
    )
    wrap(cache_module.ResultCache, "put", "engine.cache:put")
    wrap(
        cache_module,
        "read_json_tolerant",
        "engine.cache:read",
        attrs=lambda args, kwargs, _: {"bytes": _file_bytes(args[0])},
    )
    wrap(
        cache_module,
        "atomic_write_json",
        "engine.cache:write",
        attrs=lambda args, kwargs, _: {"bytes": _file_bytes(args[0])},
    )
    requests = itertools.count(1)
    wrap(
        PredictionService,
        "handle",
        "service.http:handle",
        op=lambda args, kwargs: f"request:{next(requests)}",
        # The store counters at the end of each request let a reader
        # leave out what earlier requests (a warm-up) profiled.
        attrs=lambda args, kwargs, _: {"path": args[1].path, **store_counters(stores)},
    )
    wrap(
        PredictionBatcher,
        "submit",
        "service.batching:submit",
        op=lambda args, kwargs: op_key(args[1].mix, args[1].machine),
    )


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True, help="JSON file written at exit")
    parser.add_argument("--trace", action="store_true", help="record layer spans")
    parser.add_argument("mode", choices=("cli", "design"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    options = parser.parse_args(argv)
    args = options.args[1:] if options.args[:1] == ["--"] else options.args

    sys.path.insert(0, SRC)
    started = time.perf_counter()
    import repro  # noqa: F401
    import repro.cli

    report: Dict = {"import_s": time.perf_counter() - started}
    tracer = Tracer()
    stores: List = []
    if options.trace:
        install(tracer, stores)
    try:
        if options.mode == "cli":
            code = repro.cli.main(args)
        else:
            import design

            code = design.main(args, report)
    finally:
        report.update(store_counters(stores))
        report["spans"] = tracer.spans
        with open(options.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
