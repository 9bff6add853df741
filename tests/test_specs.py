"""Tests for the one spec grammar behind every registry (:mod:`repro.specs`).

The contract pinned here: every spec string in the committed identity
table (``tests/data/spec_canonical_forms.json``, captured from the
hand-written parsers this grammar replaced; regenerate with
``scripts/make_spec_canonical_forms.py``) still canonicalises to the
same bytes, apart from a listed set of inputs whose verdict the
grammar's duplicate-key, integer, whitespace and fleet rules change on
purpose; a repeated key and a non-ASCII-digit integer are errors in
every family; canonical forms are fixed points that construct objects
carrying exactly that spec; every listed exemplar parses; and no text
makes a registry raise anything but its own :class:`SpecError`.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import specs
from repro.engine.remote import FleetSpecError, parse_fleet_spec
from repro.experiments import ExperimentConfig, ExperimentSetup
from repro.predictors import (
    PredictorError,
    available_predictors,
    canonical_spec,
    make_predictor,
)
from repro.workloads import (
    WorkloadSpecError,
    available_workloads,
    canonical_workload_spec,
    make_workload,
    small_suite,
)

ROOT = Path(__file__).resolve().parent.parent
TABLE = json.loads((ROOT / "tests" / "data" / "spec_canonical_forms.json").read_text())
PERF = "tests/data/perf_ingest_samples.csv"
PERF_CANONICAL = TABLE["workload"][f"perf:{PERF}"]

#: registry -> (canonicaliser, its error class)
REGISTRIES = {
    "workload": (canonical_workload_spec, WorkloadSpecError),
    "predictor": (canonical_spec, PredictorError),
    "fleet": (lambda text: parse_fleet_spec(text).canonical, FleetSpecError),
}

_DUPLICATE = "a repeated key is an error"
_INTEGER = "integers are ASCII digits only"
_WHITESPACE = "whitespace around the family name and each part is insignificant"

#: (registry, input) -> (outcome now, why it differs from the table).
VERDICT_CHANGES = {
    ("workload", "suite: spec29"): ("suite:spec29", _WHITESPACE),
    ("workload", "suite :spec29"): ("suite:spec29", _WHITESPACE),
    ("workload", "random :n=4"): ("random:n=4,seed=0", _WHITESPACE),
    ("workload", "suite:spec29/scaled@+3"): ("rejected", _INTEGER),
    ("workload", "suite:spec29/scaled@1_0"): ("rejected", _INTEGER),
    ("workload", "suite:spec29/scaled@\u0663"): ("rejected", _INTEGER),
    ("workload", "random:n=1_0"): ("rejected", _INTEGER),
    ("workload", "random:n=+3"): ("rejected", _INTEGER),
    ("workload", "random:n=\u0663"): ("rejected", _INTEGER),
    ("workload", f"perf:{PERF},benchmarks=+2"): ("rejected", _INTEGER),
    ("workload", "random:n=8,n=3"): ("rejected", _DUPLICATE),
    ("workload", "service:n=4,n=4"): ("rejected", _DUPLICATE),
    ("workload", f"perf:{PERF},seed=1,seed=2"): ("rejected", _DUPLICATE),
    ("workload", "perf:" + "x" * 300): (
        "rejected",
        "an unreadable perf path (ENAMETOOLONG) is a spec error, not an OSError",
    ),
    ("predictor", "mppm: foa"): ("mppm:foa", _WHITESPACE),
    ("predictor", "mppm :foa"): ("mppm:foa", _WHITESPACE),
    ("predictor", "hybrid :k=2"): ("hybrid:k=2", _WHITESPACE),
    ("predictor", "hybrid:k=+3"): ("rejected", _INTEGER),
    ("predictor", "hybrid:k=\u0663"): ("rejected", _INTEGER),
    ("predictor", "hybrid:k=1_0"): ("rejected", _INTEGER),
    ("predictor", "learned:n=1_0"): ("rejected", _INTEGER),
    ("predictor", "learned:n=\u0663"): ("rejected", _INTEGER),
    ("predictor", "learned:n=+4"): ("rejected", _INTEGER),
    ("predictor", "interp:anchors=\u0663+5"): ("rejected", _INTEGER),
    ("fleet", "fleet:localhost:2,timeout =30"): ("fleet:localhost:2,timeout=30", _WHITESPACE),
    ("fleet", "fleet:ssh=a,python= x"): ("fleet:ssh=a,python=x", _WHITESPACE),
    ("fleet", "fleet:localhost:\u0663"): ("rejected", _INTEGER),
    ("fleet", "fleet:localhost:\u00b2"): ("rejected", _INTEGER),
    ("fleet", "fleet:attach=h:\u0663"): ("rejected", _INTEGER),
    ("fleet", "fleet:localhost:2,timeout=5,timeout=7"): ("rejected", _DUPLICATE),
    ("fleet", "fleet:ssh=a,timeout=5,timeout=6"): ("rejected", _DUPLICATE),
    ("fleet", "fleet:ssh=a,python=x,python=y"): ("rejected", _DUPLICATE),
    ("fleet", "fleet:localhost:2,timeout=nan"): ("rejected", "timeouts are finite"),
    ("fleet", "fleet:localhost:2,timeout=inf"): ("rejected", "timeouts are finite"),
    ("fleet", "fleet:localhost:2,timeout=1e400"): ("rejected", "timeouts are finite"),
    ("fleet", "fleet:localhost:2,python=x"): ("rejected", "python= applies to ssh fleets only"),
    ("fleet", "fleet:localhost:2,python=python3"): (
        "rejected",
        "python= applies to ssh fleets only",
    ),
    ("fleet", "fleet:attach=h:80,python=x"): ("rejected", "python= applies to ssh fleets only"),
    ("fleet", "fleet:ssh=a,python="): ("rejected", "an empty python= is an error"),
    ("fleet", "fleet:ssh=a,timeout=3,b"): ("rejected", "hosts may not follow an option"),
    ("fleet", "fleet:ssh=a,x=y"): ("rejected", "an unknown key=value part is not a host"),
    ("fleet", "fleet:ssh=a,TIMEOUT=5"): ("rejected", "an unknown key=value part is not a host"),
    ("fleet", "fleet:localhostx:2"): ("rejected", "the worker source is exactly localhost:N"),
}


def outcome(registry: str, text: str) -> str:
    canonicalise, error = REGISTRIES[registry]
    try:
        return canonicalise(text)
    except error:
        return "rejected"


@pytest.fixture
def at_root(monkeypatch):
    """perf: paths in the table are relative to the repository root."""
    monkeypatch.chdir(ROOT)


class TestIdentityTable:
    def test_table_covers_every_family(self):
        assert sum(len(rows) for rows in TABLE.values()) >= 150
        heads = {text.strip().lower().partition(":")[0].strip() for text in TABLE["workload"]}
        assert {"suite", "random", "service", "perf"} <= heads
        heads = {text.strip().lower().partition(":")[0].strip() for text in TABLE["predictor"]}
        assert {"mppm", "baseline", "hybrid", "learned", "interp", "detailed"} <= heads
        fleets = " ".join(TABLE["fleet"])
        assert all(source in fleets for source in ("localhost:", "ssh=", "attach="))

    @pytest.mark.parametrize("registry", sorted(TABLE))
    def test_canonical_forms_are_byte_identical(self, registry, at_root):
        drifted = {}
        for text, recorded in TABLE[registry].items():
            expected = VERDICT_CHANGES.get((registry, text), (recorded, None))[0]
            actual = outcome(registry, text)
            if actual != expected:
                drifted[text] = (recorded, actual)
        assert drifted == {}

    def test_every_listed_change_is_a_real_change(self):
        for (registry, text), (now, _) in VERDICT_CHANGES.items():
            assert TABLE[registry][text] != now, (registry, text)

    def test_only_one_accepted_canonical_form_changes(self):
        # A fleet spec is never part of a cache key; every other accepted
        # input keeps its canonical bytes or is now rejected.
        changed = [
            key
            for key, (now, _) in VERDICT_CHANGES.items()
            if now != "rejected" and TABLE[key[0]][key[1]] not in ("rejected", "crash:OSError")
        ]
        assert changed == [("fleet", "fleet:ssh=a,python= x")]


class TestGrammarRules:
    @pytest.mark.parametrize(
        "registry, text, key",
        [
            ("workload", "random:n=4,n=4", "n"),
            ("workload", "service:seed=1,n=2,seed=1", "seed"),
            ("workload", f"perf:{PERF},benchmarks=1,benchmarks=2", "benchmarks"),
            ("predictor", "hybrid:k=3,k=4", "k"),
            ("predictor", "learned:n=4,n=5", "n"),
            ("predictor", "interp:anchors=1+2,anchors=1+2", "anchors"),
            ("fleet", "fleet:localhost:2,timeout=5,timeout=5", "timeout"),
            ("fleet", "fleet:ssh=a,python=x,python=x", "python"),
        ],
    )
    def test_a_repeated_key_is_an_error_naming_it(self, registry, text, key, at_root):
        canonicalise, error = REGISTRIES[registry]
        with pytest.raises(error, match=f"'{key}' is given more than once"):
            canonicalise(text)

    @pytest.mark.parametrize("number", ["+3", "1_0", "\u0663", "3.0", "-3", " 3 4", "0x3"])
    @pytest.mark.parametrize(
        "registry, template",
        [
            ("workload", "random:n={}"),
            ("workload", "service:seed={}"),
            ("workload", "suite:spec29/scaled@{}"),
            ("workload", f"perf:{PERF},benchmarks={{}}"),
            ("predictor", "hybrid:k={}"),
            ("predictor", "learned:seed={}"),
            ("predictor", "interp:anchors=1+{}"),
            ("fleet", "fleet:localhost:{}"),
            ("fleet", "fleet:attach=h:{}"),
        ],
    )
    def test_integers_are_ascii_digits_only(self, registry, template, number, at_root):
        canonicalise, error = REGISTRIES[registry]
        with pytest.raises(error):
            canonicalise(template.format(number))

    @pytest.mark.parametrize(
        "registry, text, canonical",
        [
            ("workload", "  SUITE:SPEC29 ", "suite:spec29"),
            ("workload", "random: n = 4", "random:n=4,seed=0"),
            ("workload", "RANDOM:SEED=2", "random:n=8,seed=2"),
            ("predictor", "hybrid:k = 2", "hybrid:k=2"),
            ("predictor", " Learned : Seed = 3 , N = 8 ", "learned:n=8,seed=3"),
            ("fleet", "fleet: localhost:2 , timeout = 30 ", "fleet:localhost:2,timeout=30"),
        ],
    )
    def test_surrounding_whitespace_and_case_fold(self, registry, text, canonical):
        assert outcome(registry, text) == canonical

    def test_fleet_specs_keep_their_case(self):
        assert outcome("fleet", "fleet:ssh=HostA,python=Py3") == "fleet:ssh=HostA,python=Py3"
        assert outcome("fleet", "fleet:LOCALHOST:2") == "rejected"

    def test_every_error_class_is_a_spec_error(self):
        for error in (WorkloadSpecError, PredictorError, FleetSpecError):
            assert issubclass(error, specs.SpecError)
            assert issubclass(error, ValueError)

    def test_the_grammar_module_imports_only_the_stdlib(self):
        tree = ast.parse(Path(specs.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").partition(".")[0])
        assert imported <= set(sys.stdlib_module_names)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

_VALUES = st.one_of(
    st.integers(min_value=-3, max_value=200).map(str),
    st.sampled_from(["", "1+6", "6+2", "3+3", "1.5", "nan", "inf", "1e400", "x", "python3"]),
    st.text(alphabet="0123456789+-_. e\u0663", max_size=5),
)
_NOISE = st.text(alphabet="abc019:=,+-/@ \t\u0663\u00b2", max_size=8)


def _spec_text(names, heads, keys):
    """Spec-shaped text: a family, maybe a head, then key=value parts."""
    part = st.one_of(
        st.builds(lambda key, value: f"{key}={value}", st.sampled_from(keys), _VALUES),
        _NOISE,
    )
    return st.builds(
        lambda name, head, parts, pad: pad + ",".join([name + head] + parts) + pad,
        st.sampled_from(names),
        st.one_of(st.sampled_from(heads), st.just(""), _NOISE.map(lambda text: ":" + text)),
        st.lists(part, max_size=3),
        st.sampled_from(["", " ", "  "]),
    )


WORKLOAD_TEXT = _spec_text(
    ["suite", "random", "service", "perf", "SUITE", "Random"],
    [":spec29", ":spec29/scaled@", ":spec29/scaled@7", ":spec29/mem+comp", ":spec29/all-",
     f":{PERF}", ":", ":n=3"],
    ["n", "seed", "benchmarks", "digest", "N"],
)
PREDICTOR_TEXT = _spec_text(
    ["mppm", "baseline", "hybrid", "learned", "interp", "detailed", "HYBRID"],
    [":foa", ":sdc", ":prob", ":windowed", ":figure2", ":no-contention", ":one-shot",
     ":k=2", ":n=4", ":anchors=2+5", ":"],
    ["k", "n", "seed", "anchors", "K"],
)
FLEET_TEXT = _spec_text(
    ["fleet"],
    [":localhost:2", ":localhost:", ":ssh=a", ":ssh=a,b", ":attach=h:1+g:2", ":attach=h",
     ":bogus"],
    ["timeout", "python"],
)


@pytest.fixture(scope="module")
def setup():
    return ExperimentSetup(
        config=ExperimentConfig(scale=16, num_instructions=20_000), suite=small_suite(5)
    )


def _canonical_or_none(registry, text):
    result = outcome(registry, text)
    return None if result == "rejected" else result


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(WORKLOAD_TEXT)
    def test_workload_canonical_forms_are_fixed_points(self, text):
        canonical = _canonical_or_none("workload", text)
        if canonical is not None:
            assert canonical_workload_spec(canonical) == canonical
            assert make_workload(canonical).spec == canonical

    @settings(max_examples=300, deadline=None)
    @given(PREDICTOR_TEXT)
    def test_predictor_canonical_forms_are_fixed_points(self, setup, text):
        canonical = _canonical_or_none("predictor", text)
        if canonical is not None:
            assert canonical_spec(canonical) == canonical
            assert make_predictor(canonical, setup).spec == canonical

    @settings(max_examples=300, deadline=None)
    @given(FLEET_TEXT)
    def test_fleet_canonical_forms_are_fixed_points(self, text):
        canonical = _canonical_or_none("fleet", text)
        if canonical is not None:
            assert parse_fleet_spec(canonical).canonical == canonical

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(sorted(REGISTRIES)),
        st.one_of(st.text(max_size=40), WORKLOAD_TEXT, PREDICTOR_TEXT, FLEET_TEXT),
    )
    def test_any_text_raises_only_the_registry_error(self, registry, text):
        # outcome() lets every exception but the registry's own escape.
        outcome(registry, text)

    def test_every_exemplar_parses_and_constructs(self, setup, at_root):
        for exemplar in available_workloads():
            canonical = canonical_workload_spec(exemplar)
            assert make_workload(exemplar).spec == canonical
        assert PERF_CANONICAL.startswith(f"perf:{PERF},digest=")
        for exemplar in available_predictors():
            assert canonical_spec(exemplar) == exemplar
            assert make_predictor(exemplar, setup).spec == exemplar
