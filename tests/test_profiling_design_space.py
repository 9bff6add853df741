"""Profiling the Table 2 LLC design space through one store.

Trace generation and private-level filtering do not depend on the LLC,
so the store memoises them per (benchmark spec, private levels) and
resolves only the LLC per configuration.  These tests pin that the
shared stage changes no bit of any profile or LLC trace (against fresh
stores and against the per-access oracle), that it really is paid once
per benchmark, and that it is never reused where it does not apply.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import llc_design_space, scaled
from repro.oracles import ReferenceSingleCoreSimulator
from repro.profiling import ProfileStore
from repro.profiling.profiler import profile_from_run
from repro.simulators.single_core import SingleCoreSimulator
from repro.workloads import make_workload
from repro.workloads.generator import TraceGenerator

from testdefaults import TEST_SCALE

#: Short traces keep the per-access oracle affordable over 6 machines.
INSTRUCTIONS = 12_000
INTERVAL = 1_000

WORKLOADS = ["suite:spec29", "random:n=6,seed=11"]


def design_space():
    return [scaled(machine, TEST_SCALE) for machine in llc_design_space(num_cores=4)]


def make_store():
    return ProfileStore(num_instructions=INSTRUCTIONS, interval_instructions=INTERVAL)


def assert_same_llc_trace(ours, theirs):
    for field in ("line", "insn", "upstream_cycle_gap"):
        assert np.array_equal(getattr(ours, field), getattr(theirs, field))
    assert ours.isolated_cycles == theirs.isolated_cycles
    assert ours.tail_cycles == theirs.tail_cycles


class CallCounter:
    """Counts calls of a method while delegating to it."""

    def __init__(self, monkeypatch, owner, name):
        self.calls = 0
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_store_equals_fresh_single_machine_stores(workload):
    suite = make_workload(workload).suite()
    machines = design_space()
    shared = make_store()
    for machine in machines:
        fresh = make_store()
        for spec in suite:
            ours = shared.get(spec, machine)
            theirs = fresh.get(spec, machine)
            assert ours.profile.to_dict() == theirs.profile.to_dict()
            assert_same_llc_trace(ours.llc_trace, theirs.llc_trace)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_oracle_resolves_one_miss_stream_on_every_machine(workload):
    """The per-access oracle filters each trace once and resolves that one
    stream on all six machines; every profile and LLC trace equals the
    fast store's bit for bit."""
    suite = make_workload(workload).suite()
    machines = design_space()
    assert len({machine.private_levels for machine in machines}) == 1
    store = make_store()
    generator = TraceGenerator(num_instructions=INSTRUCTIONS, seed=0)
    oracles = [ReferenceSingleCoreSimulator(machine, INTERVAL) for machine in machines]
    for spec in suite:
        stream = oracles[0].filter_private(generator.generate(spec))
        for machine, oracle in zip(machines, oracles):
            run = oracle.run(stream)
            fast = store.get(spec, machine)
            assert profile_from_run(run, machine).to_dict() == fast.profile.to_dict()
            assert_same_llc_trace(run.llc_trace, fast.llc_trace)


def test_design_space_generates_and_filters_each_trace_once(monkeypatch):
    generated = CallCounter(monkeypatch, TraceGenerator, "generate")
    filtered = CallCounter(monkeypatch, SingleCoreSimulator, "filter_private")
    runs = CallCounter(monkeypatch, SingleCoreSimulator, "run")
    suite = make_workload("suite:spec29").suite()
    store = make_store()
    for machine in design_space():
        store.get_suite(suite, machine)
    assert generated.calls == len(suite) == 29
    assert filtered.calls == len(suite)
    # The per-LLC stage still runs once per (benchmark, machine) pair.
    assert runs.calls == store.simulated_profiles == 6 * len(suite)


def test_a_different_l2_does_not_reuse_the_memoised_stage(tiny_suite, monkeypatch):
    machine = design_space()[0]
    l1, l2 = machine.private_levels
    other = replace(machine, private_levels=(l1, replace(l2, size_bytes=l2.size_bytes * 2)))
    spec = tiny_suite["soplex"]
    store = make_store()
    store.get(spec, machine)
    generated = CallCounter(monkeypatch, TraceGenerator, "generate")
    ours = store.get(spec, other)
    assert generated.calls == 1
    assert ours.profile.to_dict() == make_store().get_profile(spec, other).to_dict()


def test_clear_drops_the_memoised_stage(tiny_suite, monkeypatch):
    first, second = design_space()[:2]
    spec = tiny_suite["hmmer"]
    store = make_store()
    store.get(spec, first)
    store.clear()
    generated = CallCounter(monkeypatch, TraceGenerator, "generate")
    store.get(spec, second)
    assert generated.calls == 1


def test_sibling_llc_traces_share_read_only_arrays(tiny_suite):
    first, second = design_space()[:2]
    spec = tiny_suite["soplex"]
    store = make_store()
    a = store.get_llc_trace(spec, first)
    b = store.get_llc_trace(spec, second)
    for field in ("line", "insn", "upstream_cycle_gap"):
        assert getattr(a, field) is getattr(b, field)
    before = b.upstream_cycle_gap.copy()
    with pytest.raises(ValueError):
        a.upstream_cycle_gap[0] += 1.0
    with pytest.raises(ValueError):
        a.line[:] = 0
    assert np.array_equal(b.upstream_cycle_gap, before)


def test_simulator_rejects_a_stream_it_did_not_filter(tiny_suite):
    machine = design_space()[0]
    trace = TraceGenerator(num_instructions=INSTRUCTIONS, seed=0).generate(tiny_suite["gamess"])
    stream = SingleCoreSimulator(machine, INTERVAL).filter_private(trace)
    l1, l2 = machine.private_levels
    other_l2 = replace(machine, private_levels=(l1, replace(l2, associativity=4)))
    with pytest.raises(ValueError, match="private levels"):
        SingleCoreSimulator(other_l2, INTERVAL).run(stream)
    with pytest.raises(ValueError, match="intervals"):
        SingleCoreSimulator(machine, 2 * INTERVAL).run(stream)
