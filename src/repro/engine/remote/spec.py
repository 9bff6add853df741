"""Fleet spec strings: how a multi-host backend is named.

A fleet spec is a string with the ``fleet:`` prefix, accepted anywhere
an engine ``jobs`` count is (``create_engine(jobs="fleet:...")``,
``ExperimentSetup(jobs=...)``, ``repro run --fleet ...``).  Its head
names the worker source:

* ``localhost:N`` — N loopback subprocess workers, launched and owned
  by the driver.  The CI-testable path.
* ``ssh=host1,host2`` — one worker per host, launched over ``ssh``
  (``BatchMode``; the hosts need key auth and the repro package on
  their python path).  ``python=`` names the remote interpreter.
* ``attach=host:port+host:port`` — adopt already-running
  ``repro worker`` agents.  Attached workers are not shut down on
  close.

The grammar, the ``timeout``/``python`` parameters and the canonical
form come from the :mod:`repro.specs` table below (README "Spec
strings").  Example: ``fleet:localhost:2,timeout=900``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple, Union

from repro.engine.remote.errors import FleetSpecError
from repro.specs import Family, Param, Registry, Row, SpecError, ascii_int

PREFIX = "fleet:"

#: Per-job execution timeout (seconds) unless the spec overrides it.
DEFAULT_JOB_TIMEOUT = 600.0


def is_fleet_spec(value: object) -> bool:
    """Whether a ``jobs`` value names a fleet rather than a pool size."""
    return isinstance(value, str) and value.startswith(PREFIX)


def normalize_fleet_flag(value: str) -> str:
    """CLI convenience: accept ``localhost:2`` and ``fleet:localhost:2`` alike."""
    spec = value if value.startswith(PREFIX) else PREFIX + value
    return parse_fleet_spec(spec).canonical


@dataclass(frozen=True)
class FleetSpec:
    """A parsed fleet spec.

    ``kind`` is ``"localhost"`` / ``"ssh"`` / ``"attach"``; ``count``
    is the loopback worker count (0 otherwise); ``hosts`` holds ssh
    host names or ``host:port`` endpoints for ``attach``.
    """

    canonical: str
    kind: str
    count: int = 0
    hosts: Tuple[str, ...] = field(default=())
    job_timeout: float = DEFAULT_JOB_TIMEOUT
    python: str = "python3"

    @property
    def num_workers(self) -> int:
        return self.count if self.kind == "localhost" else len(self.hosts)

    def __str__(self) -> str:
        return self.canonical


def _worker_source(text: str, given: Dict[str, Any]) -> Tuple[str, Any]:
    """Read ``localhost:N``, ``ssh=h1,h2`` or ``attach=h:p+h:p``.

    The head value is ``(kind, count, hosts)``.
    """
    kind, _, rest = text.partition("=")
    if kind == "ssh":
        hosts = tuple(host for host in rest.split(",") if host)
        if not hosts:
            raise SpecError("an ssh fleet names no hosts")
        return "ssh=" + ",".join(hosts), ("ssh", 0, hosts)
    if "python" in given:
        raise SpecError("python= only applies to ssh fleets")
    if kind == "attach":
        endpoints = tuple(e.strip() for e in rest.split("+") if e.strip())
        if not endpoints or "," in rest:
            raise SpecError("attach fleets are attach=host:port[+host:port...]")
        for endpoint in endpoints:
            host, colon, port = endpoint.rpartition(":")
            if not (colon and host):
                raise SpecError(f"attach endpoints are 'host:port', got {endpoint!r}")
            ascii_int(port, f"the port of {endpoint!r}")
        return "attach=" + "+".join(endpoints), ("attach", 0, endpoints)
    kind, _, count = text.partition(":")
    if kind != "localhost":
        raise SpecError("the worker source is localhost:N, ssh=... or attach=...")
    workers = ascii_int(count, "the localhost worker count", low=1)
    return f"localhost:{workers}", ("localhost", workers, ())


_SPECS = Registry(
    "fleet",
    FleetSpecError,
    (
        Family(
            "fleet",
            head=_worker_source,
            params=(
                Param("timeout", kind="float", default=DEFAULT_JOB_TIMEOUT, always=False),
                Param("python", kind="text", default="python3", always=False),
            ),
            rows=(Row("fleet:localhost:2", "loopback, ssh= or attach= fleet workers"),),
        ),
    ),
    fold_case=False,
)


def parse_fleet_spec(spec: Union[str, "FleetSpec"]) -> FleetSpec:
    """Parse a ``fleet:`` spec string into a :class:`FleetSpec`."""
    if isinstance(spec, FleetSpec):
        return spec
    if not is_fleet_spec(spec):
        raise FleetSpecError(f"not a fleet spec (missing {PREFIX!r} prefix): {spec!r}")
    parsed = _SPECS.parse(spec)
    kind, count, hosts = parsed.head
    return FleetSpec(
        canonical=parsed.canonical,
        kind=kind,
        count=count,
        hosts=hosts,
        job_timeout=parsed.params["timeout"],
        python=parsed.params["python"],
    )
