"""Unified Workload API: one spec-string registry for benchmark suites.

PR 4 gave every performance estimator one registry
(:mod:`repro.predictors`); this module gives the *workload* side of an
experiment the same treatment.  A workload — the benchmark suite plus
the way multi-program mixes are drawn from it — is identified by a
spec string (``suite:spec29``, ``random:n=8,seed=0``, ...) and
constructed by :func:`make_workload`.  The families are the rows of
one :class:`repro.specs.Registry` table below; the grammar, the
canonical forms and the listing rows all come from
:mod:`repro.specs` (README "Spec strings").

Every constructed workload implements the :class:`WorkloadSource`
protocol — ``spec`` (the canonical string), ``suite()``, ``mixes(...)``
and ``describe()`` — and every experiment, the engine's content-hash
cache keys, the :class:`~repro.profiling.store.ProfileStore` and the
CLI (``--suite``, ``repro workloads``) identify workloads by these
spec strings instead of implicitly assuming the one suite.  A suite
object passed directly (tests, notebooks) is wrapped by
:func:`workload_for` under a content-digest ``inline:`` spec, so even
ad-hoc workloads cache consistently across processes.
"""

from __future__ import annotations

import hashlib
import re
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.specs import Family, Param, Registry, Row, SpecError, ascii_int
from repro.workloads.benchmark import WorkloadError
from repro.workloads.classification import BenchmarkClass, classify_suite
from repro.workloads.families import random_suite, service_suite
from repro.workloads.mixes import WorkloadMix, sample_category_mixes, sample_mixes
from repro.workloads.suite import BenchmarkSuite, small_suite, spec_cpu2006_like_suite

#: The spec every experiment and CLI command defaults to.
DEFAULT_WORKLOAD = "suite:spec29"

#: Upper bound on parametric family sizes (keeps typos from asking for
#: a million benchmarks; far above any realistic study).
_MAX_FAMILY_SIZE = 128


class WorkloadSpecError(WorkloadError, SpecError):
    """Raised for unknown or malformed workload specs."""


#: A mix category: a :class:`BenchmarkClass`, its (case-insensitive)
#: name ("mem" / "comp" / "mix"), or a sequence of either.
MixCategory = Union[str, BenchmarkClass, Sequence[Union[str, BenchmarkClass]]]


def resolve_categories(category: MixCategory) -> List[BenchmarkClass]:
    """Normalise a :data:`MixCategory` into a list of benchmark classes.

    Raises :class:`WorkloadError` naming the valid categories for
    anything unrecognised.
    """
    if isinstance(category, (str, BenchmarkClass)):
        category = [category]
    resolved = []
    for entry in category:
        if isinstance(entry, BenchmarkClass):
            resolved.append(entry)
            continue
        try:
            resolved.append(BenchmarkClass(str(entry).strip().upper()))
        except ValueError:
            raise WorkloadError(
                f"unknown mix category {entry!r}; valid categories: "
                + ", ".join(cls.value for cls in BenchmarkClass)
            ) from None
    if not resolved:
        raise WorkloadError("at least one mix category is required")
    return resolved


@runtime_checkable
class WorkloadSource(Protocol):
    """Anything that supplies a benchmark suite and samples mixes from it."""

    #: Canonical spec string (registry name), e.g. ``"suite:spec29"``.
    spec: str

    def suite(self) -> BenchmarkSuite:
        """The benchmark suite this workload evaluates."""
        ...  # pragma: no cover - protocol

    def mixes(
        self,
        num_programs: int,
        num_mixes: int,
        seed: int = 0,
        unique: bool = True,
        category: Optional[MixCategory] = None,
    ) -> List[WorkloadMix]:
        """Sample multi-program mixes over the suite's benchmarks."""
        ...  # pragma: no cover - protocol

    def describe(self) -> str:
        """One-line human-readable description of the workload."""
        ...  # pragma: no cover - protocol


class RegisteredWorkload:
    """Concrete :class:`WorkloadSource`: canonical spec + lazy suite builder."""

    def __init__(self, spec: str, description: str, builder: Callable[[], BenchmarkSuite]) -> None:
        self.spec = spec
        self._description = description
        self._builder = builder
        self._suite: Optional[BenchmarkSuite] = None

    def suite(self) -> BenchmarkSuite:
        if self._suite is None:
            self._suite = self._builder()
        return self._suite

    def mixes(
        self,
        num_programs: int,
        num_mixes: int,
        seed: int = 0,
        unique: bool = True,
        category: Optional[MixCategory] = None,
    ) -> List[WorkloadMix]:
        """Sample mixes, optionally constrained to MEM/COMP/MIX categories.

        Without ``category`` this is uniform sampling over the suite
        (``num_mixes`` mixes, distinct when ``unique``).  With a
        category — a :class:`BenchmarkClass`, its name, or a sequence
        of either — mixes are drawn within each requested category
        ("current practice" sampling, §5 of the paper): ``num_mixes``
        mixes *per category*, drawn with replacement (``unique`` does
        not apply), in category order.
        """
        if category is None:
            return sample_mixes(
                self.suite().names, num_programs, num_mixes, seed=seed, unique=unique
            )
        return sample_category_mixes(
            classify_suite(self.suite()),
            num_programs,
            mixes_per_category=num_mixes,
            seed=seed,
            categories=resolve_categories(category),
        )

    def describe(self) -> str:
        return self._description

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RegisteredWorkload({self.spec!r})"


# ---------------------------------------------------------------------------
# The workload spec table
# ---------------------------------------------------------------------------


def _category_subset(categories: Sequence[BenchmarkClass]) -> BenchmarkSuite:
    """The full suite restricted to a set of MEM/COMP/MIX behaviour classes."""
    full = spec_cpu2006_like_suite()
    classes = classify_suite(full)
    wanted = set(categories)
    return full.subset([name for name in full.names if classes[name] in wanted])


#: Canonical category order for set-algebra specs (suite order: the
#: MEM benchmarks come first in listings, then COMP, then MIX).
_CATEGORY_ORDER = (BenchmarkClass.MEM, BenchmarkClass.COMP, BenchmarkClass.MIX)

#: Tokens of the category-set grammar; ``all`` is the universe, so
#: exclusions read naturally (``all-mix`` = everything but MIX).
_CATEGORY_TOKENS: Dict[str, frozenset] = {
    "mem": frozenset((BenchmarkClass.MEM,)),
    "comp": frozenset((BenchmarkClass.COMP,)),
    "mix": frozenset((BenchmarkClass.MIX,)),
    "all": frozenset(_CATEGORY_ORDER),
}


#: The head value of a workload family: (suite builder, description).
_Suite = Tuple[Callable[[], BenchmarkSuite], str]

_FULL_SUITE: _Suite = (spec_cpu2006_like_suite, "the full 29-benchmark SPEC CPU2006-like suite")


def _suite_head(text: str, given: Dict[str, Any]) -> Tuple[str, _Suite]:
    """Read ``spec29[/scaled@N | /<category expression>]``.

    Scaling to 29 or more, or selecting every class, is the full
    suite.  A category expression is ``token(±token)*`` over
    ``mem``/``comp``/``mix``/``all``: ``+`` unions and ``-`` excludes,
    left to right (``all-mix`` is ``mem+comp``).
    """
    base, slash, modifier = text.partition("/")
    if base != "spec29" or (slash and not modifier):
        raise SpecError("the suite is spec29[/scaled@N | /<categories>]")
    if not slash:
        return "spec29", _FULL_SUITE
    if modifier.startswith("scaled@"):
        count = ascii_int(modifier[len("scaled@"):].strip(), "the scaled@N count", low=1)
        if count >= 29:
            return "spec29", _FULL_SUITE
        return f"spec29/scaled@{count}", (
            lambda: small_suite(count),
            f"a curated {count}-benchmark spread of the SPEC CPU2006-like suite's behaviours",
        )
    parts = re.split(r"([+-])", modifier)
    tokens = [part.strip() for part in parts[::2]]
    if any(token not in _CATEGORY_TOKENS for token in tokens):
        raise SpecError(f"categories are {'/'.join(_CATEGORY_TOKENS)} joined by + or -")
    selected = set(_CATEGORY_TOKENS[tokens[0]])
    for operator, token in zip(parts[1::2], tokens[1:]):
        if operator == "+":
            selected |= _CATEGORY_TOKENS[token]
        else:
            selected -= _CATEGORY_TOKENS[token]
    if not selected:
        raise SpecError("the category expression selects no benchmark classes")
    if len(selected) == len(_CATEGORY_ORDER):
        return "spec29", _FULL_SUITE
    categories = [category for category in _CATEGORY_ORDER if category in selected]
    label = "/".join(category.value for category in categories)
    return "spec29/" + "+".join(category.value.lower() for category in categories), (
        lambda: _category_subset(categories),
        f"the {label}-class benchmarks of the SPEC CPU2006-like suite",
    )


def _perf_head(path: str, given: Dict[str, Any]) -> Tuple[str, _Suite]:
    """Read and digest the samples or bundle at a ``perf:`` path.

    Only a cheap parse and hash, never a fit, so a malformed sample
    file fails at the ``--suite`` flag or as a service 400, and the
    canonical spec pins the source *content* through its digest.
    """
    # Lazy import: repro.workloads.__init__ imports this registry, and
    # repro.ingest imports repro.workloads.
    from repro.ingest import IngestError
    from repro.ingest.workload import build_perf_suite, inspect_perf_path

    if not path or "," in path:
        raise SpecError(
            "perf needs one path without commas: "
            "perf:<samples.csv|samples.jsonl|bundle-dir>[,benchmarks=N][,seed=S]"
        )
    try:
        source = inspect_perf_path(path)
    except (IngestError, OSError) as error:
        raise SpecError(str(error)) from None
    digest = given.get("digest")
    if digest is not None and digest != source.digest:
        raise SpecError(
            f"samples changed on disk — the spec pins content digest "
            f"{digest} but {path!r} now digests to {source.digest}"
        )
    benchmarks = given.get("benchmarks")
    if benchmarks is not None and benchmarks > source.num_cores:
        raise SpecError(
            f"benchmarks={benchmarks} out of range; "
            f"{path!r} has {source.num_cores} profiled core(s)"
        )
    given["digest"] = source.digest
    seed = given.get("seed")
    kind = "fitted bundle" if source.is_bundle else "PMU sample stream"
    return path, (
        lambda: build_perf_suite(path, benchmarks, seed),
        f"{benchmarks or source.num_cores} benchmark(s) fitted from the {kind} at {path} "
        f"(digest {source.digest})",
    )


#: Parametric synthetic families: suite builder and what its benchmarks
#: are.  Both take the same parameters.
_PARAMETRIC = {
    "random": (random_suite, "parametric synthetic benchmarks drawn from the ReuseProfile space"),
    "service": (service_suite, "bursty, strongly-phased microservice-like benchmarks"),
}
_FAMILY_PARAMS = (
    Param("n", default=8, low=1, high=_MAX_FAMILY_SIZE),
    Param("seed", default=0, low=0),
)

_SPECS = Registry("workload", WorkloadSpecError, (
    Family("suite", head=_suite_head, default_head="spec29", rows=(
        Row("suite:spec29", "the full 29-benchmark SPEC CPU2006-like suite (default)"),
        Row("suite:spec29/scaled@8",
            "a curated N-benchmark spread of the suite's behaviours (N < 29)",
            "suite:spec29/scaled@N"),
        Row("suite:spec29/mem",
            "the suite restricted to one MEM/COMP/MIX behaviour class",
            "suite:spec29/{mem|comp|mix}"),
        Row("suite:spec29/mem+comp",
            "category-set algebra over mem/comp/mix/all: + unions, - excludes (all-mix = mem+comp)",
            "suite:spec29/<cats>±<cats>"),
    )),
    Family("perf", head=_perf_head, keep_head_case=True, params=(
        Param("benchmarks", low=1, always=False),
        Param("seed", low=0, always=False),
        Param("digest", kind="text", always=False),
    ), rows=(
        Row("perf:tests/data/perf_ingest_samples.csv",
            "benchmarks fitted from a PMU sample stream or ingest bundle at <path>",
            "perf:<path>[,benchmarks=N][,seed=S]"),
    )),
    *(
        Family(name, params=_FAMILY_PARAMS, rows=(
            Row(f"{name}:n=8,seed=0", f"N {what}", f"{name}:n=N,seed=S"),
        ))
        for name, (_, what) in _PARAMETRIC.items()
    ),
))


# ---------------------------------------------------------------------------
# Public API (mirrors repro.predictors)
# ---------------------------------------------------------------------------


def canonical_workload_spec(spec: str) -> str:
    """Normalise and validate a workload spec string.

    ``"suite"`` is shorthand for ``"suite:spec29"``; parametric
    families fill in defaulted parameters (``"random"`` →
    ``"random:n=8,seed=0"``).  Raises :class:`WorkloadSpecError` (a
    ``ValueError``) listing the available specs for anything the
    registry does not know.
    """
    return _SPECS.parse(spec).canonical


def make_workload(spec: str = DEFAULT_WORKLOAD) -> WorkloadSource:
    """Construct a workload source by spec string."""
    family, head, params, canonical = _SPECS.parse(spec)
    if family in _PARAMETRIC:
        build, what = _PARAMETRIC[family]
        n, seed = params["n"], params["seed"]
        description = f"{n} {what} (seed {seed})"
        return RegisteredWorkload(canonical, description, lambda: build(n, seed=seed))
    builder, description = head
    return RegisteredWorkload(canonical, description, builder)


def available_workloads() -> List[str]:
    """Constructible exemplar specs, one per listing row."""
    return _SPECS.available()


def describe_workloads() -> List[Tuple[str, str]]:
    """(spec pattern, description) rows for every registered family."""
    return _SPECS.describe()


def _suite_digest(suite: BenchmarkSuite) -> str:
    """A short content digest of a suite (stable across processes)."""
    description = "\x1f".join(repr(spec) for spec in suite.specs)
    return hashlib.sha256(description.encode("utf-8")).hexdigest()[:12]


def workload_for(
    workload: Union[str, WorkloadSource, BenchmarkSuite, None],
    suite: Optional[BenchmarkSuite] = None,
) -> WorkloadSource:
    """Resolve anything workload-shaped into a :class:`WorkloadSource`.

    * ``None`` → the default workload (``suite:spec29``), or — when a
      bare ``suite`` object is supplied — that suite under a canonical
      spec if it matches a registered workload, else under a
      content-digest ``inline:<hash>`` spec (deterministic across
      processes, so engine cache keys and profile files still agree).
    * a spec string → :func:`make_workload`.
    * a :class:`WorkloadSource` → returned as-is.

    ``suite`` is the authoritative suite object when both are given
    (the engine's worker-reconstruction path ships the pickled suite
    next to the spec so workers never rebuild it from the registry).
    """
    if workload is None and suite is None:
        return make_workload(DEFAULT_WORKLOAD)
    if workload is None:
        full = spec_cpu2006_like_suite()
        if suite.specs == full.specs:
            return make_workload(DEFAULT_WORKLOAD)
        if 0 < len(suite) < 29 and suite.specs == small_suite(len(suite)).specs:
            return make_workload(f"suite:spec29/scaled@{len(suite)}")
        captured = suite
        return RegisteredWorkload(
            f"inline:{_suite_digest(suite)}",
            f"an inline suite of {len(suite)} benchmarks",
            lambda: captured,
        )
    if isinstance(workload, BenchmarkSuite):
        return workload_for(None, suite=workload)
    if isinstance(workload, str):
        source = make_workload(workload)
        if suite is not None and suite.specs != source.suite().specs:
            # A mismatched pair would store results computed from the
            # ad-hoc suite under the registered spec's cache identity,
            # poisoning any shared cache directory.
            raise WorkloadSpecError(
                f"the supplied suite does not match workload {source.spec!r}; "
                "pass the suite alone (it gets its own inline: spec) or "
                "drop it"
            )
    else:
        source = workload
    if suite is not None:
        # Trusted pair (engine recipe ships a WorkloadSource instance
        # whose builder returns this suite): keep the spec, serve the
        # shipped suite object.
        return RegisteredWorkload(source.spec, source.describe(), lambda: suite)
    return source
