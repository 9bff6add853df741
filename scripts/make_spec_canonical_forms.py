"""Regenerate the committed spec-string identity table under ``tests/data/``.

The table maps spec strings of every registry family -- workloads
(``suite``, ``random``, ``service``, ``perf``), predictors (``mppm``,
``baseline``, ``hybrid``, ``learned``, ``interp``, ``detailed``) and
fleets (``localhost``, ``ssh``, ``attach``) -- to the canonical form
the registry gives them, or to ``"rejected"`` when the registry raises
its own spec error (``"crash:<Exception>"`` for any other exception).
Canonical forms are hashed into every result-cache, profile-store and
fleet-worker key, so ``tests/test_specs.py`` checks that the parser
still produces exactly these bytes.

Inputs include shorthands, reordered parameters, whitespace and case
variants, range edges and the ``perf:`` fixture under ``tests/data``.
Run from the repository root (``perf:`` paths are relative to it)::

    PYTHONPATH=src python scripts/make_spec_canonical_forms.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List

from repro.engine.remote import FleetSpecError, parse_fleet_spec
from repro.predictors import PredictorError, canonical_spec
from repro.workloads import WorkloadSpecError, canonical_workload_spec

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "spec_canonical_forms.json"

PERF = "tests/data/perf_ingest_samples.csv"

SUITE = [
    "suite", "suite:spec29", "  SUITE:SPEC29 ", "Suite:Spec29", "suite:spec30", "suite:",
    "suite:spec29/", "suite: spec29", "suite :spec29", "suite:spec29:extra",
    "suite:spec29,n=3", "suite:spec29/scaled@8", "suite:spec29/scaled@1",
    "suite:spec29/scaled@28", "suite:spec29/scaled@29", "suite:spec29/scaled@100",
    "suite:spec29/scaled@0", "suite:spec29/scaled@", "suite:spec29/scaled@x",
    "suite:spec29/scaled@-3", "suite:spec29/scaled@+3", "suite:spec29/scaled@1_0",
    "suite:spec29/scaled@\u0663", "suite:spec29/scaled@08", "suite:spec29/SCALED@5",
    "suite:spec29/scaled@ 5", "suite:spec29/scaled@5,n=3", "suite:spec29/mem",
    "suite:spec29/comp", "suite:spec29/mix", "suite:spec29/MEM", "suite:spec29/comp+mem",
    "suite:spec29/mem+comp", "suite:spec29/mem + comp", "suite:spec29/mix+mem",
    "suite:spec29/comp-mem", "suite:spec29/all", "suite:spec29/all-mix",
    "suite:spec29/all-mem-comp", "suite:spec29/mem+comp+mix", "suite:spec29/mem-mem",
    "suite:spec29/all-mem-comp-mix", "suite:spec29/bogus", "suite:spec29/mem+bogus",
    "suite:spec29/mem+", "suite:spec29/-mem", "suite:spec29/mem,comp",
]

PARAMETRIC = [
    "random", "random:", "random:n=8,seed=0", "random:seed=1,n=4", "random: n = 4",
    "RANDOM:N=4", "random:n=1", "random:n=128", "random:n=129", "random:n=0",
    "random:n=100000", "random:n=", "random:m=3", "random:n=8,n=3", "random:n=1_0",
    "random:n=+3", "random:n=\u0663", "random:n=08", "random:seed=-1", "random:n=4,",
    "random:n", "random:n=4,seed=2,extra=1", "random:n=4.0", "random :n=4", "random:,",
    "random:n=3 4", "random:seed=7", "service", "service:seed=3", "service:n=4,seed=0",
    "service:n=0", "service:seed=-1", "service:n=12", "service:n=4,n=4", "SERVICE:N=5,SEED=2",
]

OTHER_WORKLOADS = ["", "   ", "oracle", "inline:abc", ":", "detailed", "random:n=4:5"]


def perf_inputs() -> List[str]:
    digest = canonical_workload_spec(f"perf:{PERF}").rpartition("=")[2]
    return [
        f"perf:{PERF}", f"PERF:{PERF}", f"  perf: {PERF} ", f"perf :{PERF}",
        f"perf:{PERF},benchmarks=2", f"perf:{PERF},seed=3,benchmarks=2",
        f"perf:{PERF},benchmarks=2,seed=3", f"perf:{PERF},BENCHMARKS=2", f"perf:{PERF},seed=0",
        f"perf:{PERF}, seed = 4 ", f"perf:{PERF},benchmarks=3", f"perf:{PERF},benchmarks=0",
        f"perf:{PERF},benchmarks=9", f"perf:{PERF},benchmarks=+2", f"perf:{PERF},benchmarks=x",
        f"perf:{PERF},cores=2", f"perf:{PERF},seed=-1", f"perf:{PERF},seed=1,seed=2",
        f"perf:{PERF},digest={digest}", f"perf:{PERF},digest={digest.upper()}",
        f"perf:{PERF},seed=3,digest={digest}", f"perf:{PERF},digest=000000000000",
        f"perf:{PERF},extra", "perf:", "perf: ", "perf:tests/data/nope.csv",
        f"perf:{PERF.upper()}", "perf:" + "x" * 300,
    ]


PREDICTORS = [
    "mppm", "MPPM", "mppm:foa", "mppm:sdc", "mppm:prob", "  MPPM:SDC ", "mppm:windowed",
    "mppm:figure2", "mppm:FIGURE2", "mppm:", "mppm:bogus", "mppm: foa", "mppm :foa",
    "mppm:foa,k=2", "mppm:foa:sdc", "baseline", "baseline:no-contention", "baseline:one-shot",
    "baseline:ONE-SHOT", "baseline:", "baseline:two-shot", "detailed", "DETAILED", "detailed:",
    "detailed:x", "hybrid", "hybrid:", "hybrid:k=4", "hybrid:k=1", "hybrid:k=2",
    "  HYBRID:K=2 ", "hybrid:k = 2", "hybrid:k=0", "hybrid:k=", "hybrid:k=x", "hybrid:n=2",
    "hybrid:k=3,k=4", "hybrid:k=+3", "hybrid:k=\u0663", "hybrid:k=1_0", "hybrid:k=-1",
    "hybrid:k=007", "hybrid:k=1000", "hybrid:k=3,seed=1", "hybrid:k", "hybrid :k=2",
    "hybrid:k=2:3", "learned", "learned:", "learned:n=24,seed=0", " LEARNED:seed=3,n=8 ",
    "learned:n=2", "learned:n=1", "learned:n=x", "learned:seed=-1", "learned:k=4",
    "learned:n=4,n=5", "learned:seed=5", "learned:n=1_0", "learned:n=\u0663", "learned:n=4,",
    "learned:n=+4", "learned: n = 6 , seed = 1", "interp", "interp:", "interp:anchors=1+6",
    "interp:anchors=6+2", "interp:anchors=3+5", "interp:anchors=1+1", "interp:anchors=0+6",
    "interp:anchors=1+7", "interp:anchors=1", "interp:anchors=a+b", "interp:span=1+6",
    "interp:anchors= 2 + 4", "interp:anchors=1+2+3", "interp:anchors=1+6,anchors=2+3",
    "interp:anchors=\u0663+5", "INTERP:ANCHORS=2+5", "interp:anchors=01+06",
    "interp:anchors=+1+6", "interp:anchors=1_0+2", "oracle", "",
]

FLEETS = [
    "fleet:localhost:2", "fleet:localhost:1", "fleet: localhost:2 ", "fleet:localhost:16",
    "fleet:localhost:02", "fleet:localhost: 2", "fleet:localhost:2,timeout=900",
    "fleet:localhost:4,timeout=600", "fleet:localhost:4,timeout=600.0",
    "fleet:localhost:2,timeout=1.5", "fleet:localhost:2,timeout=1e3",
    "fleet:localhost:2,timeout=0.25", "fleet:localhost:2, timeout=30",
    "fleet:localhost:2,timeout= 30", "fleet:localhost:2,timeout =30",
    "fleet:localhost:2,timeout=nan", "fleet:localhost:2,timeout=inf",
    "fleet:localhost:2,timeout=1e400", "fleet:localhost:2,timeout=-inf",
    "fleet:localhost:2,timeout=0", "fleet:localhost:2,timeout=-1", "fleet:localhost:2,timeout=x",
    "fleet:localhost:2,timeout=", "fleet:localhost:2,timeout=5,timeout=7",
    "fleet:localhost:2,python=x", "fleet:localhost:2,python=python3", "fleet:localhost:2,",
    "fleet:localhost:2,bogus=1", "fleet:localhost:2,TIMEOUT=5", "fleet:localhost:2,3",
    "fleet:", "fleet:localhost", "fleet:localhost:0", "fleet:localhost:x",
    "fleet:localhost:\u0663", "fleet:localhost:\u00b2", "fleet:localhost:+2",
    "fleet:localhost:-1", "fleet:localhostx:2", "fleet:LOCALHOST:2", "FLEET:localhost:2",
    "localhost:2", "fleet:bogus:2", "fleet:ssh=", "fleet:ssh=a", "fleet:ssh=host1,host2",
    "fleet:ssh=host1,host2,python=python3.11", "fleet:ssh=a,b,timeout=30,python=/usr/bin/python3",
    "fleet:ssh=a,python=python3", "fleet:ssh=a,python=", "fleet:ssh=a,timeout=3,b",
    "fleet:ssh=a,,b", "fleet:ssh=a,timeout=5,timeout=6", "fleet:ssh=a,x=y",
    "fleet:ssh=a,TIMEOUT=5", "fleet:ssh= a,b", "fleet:ssh=a,python= x",
    "fleet:ssh=a,python=x,python=y", "fleet:attach=", "fleet:attach=hostonly",
    "fleet:attach=10.0.0.1:8001+10.0.0.2:8001", "fleet:attach=h:1+", "fleet:attach=h:1++g:2",
    "fleet:attach=h:\u0663", "fleet:attach=h:x", "fleet:attach=:80", "fleet:attach=h:80,timeout=10",
    "fleet:attach=h:80,python=x", "fleet:attach=h:1,h2:2", "fleet:attach= h:1 + g:2 ",
]


def outcome(canonicalise: Callable[[str], str], error: type, text: str) -> str:
    try:
        return canonicalise(text)
    except error:
        return "rejected"
    except Exception as other:  # noqa: BLE001 - recorded, not hidden
        return f"crash:{type(other).__name__}"


def main() -> None:
    families: Dict[str, Dict[str, str]] = {
        "workload": {
            text: outcome(canonical_workload_spec, WorkloadSpecError, text)
            for text in SUITE + PARAMETRIC + perf_inputs() + OTHER_WORKLOADS
        },
        "predictor": {
            text: outcome(canonical_spec, PredictorError, text) for text in PREDICTORS
        },
        "fleet": {
            text: outcome(lambda spec: parse_fleet_spec(spec).canonical, FleetSpecError, text)
            for text in FLEETS
        },
    }
    # One line per input keeps the file diffable.
    blocks = []
    for name, table in families.items():
        rows = ",\n  ".join(
            f"{json.dumps(text)}: {json.dumps(result)}" for text, result in table.items()
        )
        blocks.append(f" {json.dumps(name)}: {{\n  {rows}\n }}")
    OUT.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    total = sum(len(table) for table in families.values())
    print(f"wrote {OUT} ({total} inputs)")


if __name__ == "__main__":
    main()
