"""One grammar for every spec string: workloads, predictors and fleets.

A spec names one choice of an experiment, and its canonical form is
hashed into result-cache, profile-store and fleet-worker keys.  Every
registry is a fixed table of :class:`Family` rows parsed here::

    family[:head][,key=value]...

* ``head`` is an optional positional value: a fixed choice
  (``mppm:sdc``) or text read by a family's :data:`HeadReader`
  (``suite:spec29/scaled@8``, ``perf:<path>``, ``fleet:localhost:2``).
  It runs up to the first comma-separated part that contains ``=``.
* Parameters are typed :class:`Param` declarations.  A key may appear
  once; integers are ASCII digits only.
* Whitespace around the family name, each part, key and value is
  insignificant.  Registries built with ``fold_case`` lower-case the
  spec, except the head of a ``keep_head_case`` family (``perf:``).
* A family named without a colon takes its default head and
  parameters (``hybrid`` is ``hybrid:k=4``).

The canonical form is the family, the canonical head, then the
parameters in declaration order; a parameter declared ``always=False``
is printed only when it differs from its default.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple, Type, Union


class SpecError(ValueError):
    """An unknown or malformed spec string."""


def ascii_int(text: str, what: str, low: Optional[int] = None, high: Optional[int] = None) -> int:
    """``text`` as an integer of ASCII digits within ``[low, high]``."""
    if not (text.isascii() and text.isdigit()):
        raise SpecError(f"{what} must be an integer (ASCII digits), got {text!r}")
    value = int(text)
    if (low is not None and value < low) or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise SpecError(f"{what} must be {bounds}, got {value}")
    return value


class Param(NamedTuple):
    """A typed ``key=value`` parameter.

    ``kind`` is ``int`` (in ``[low, high]``), ``pair`` (two distinct
    such integers joined by ``+``, canonically ascending), ``float`` (a
    finite positive number) or ``text`` (non-empty).
    """

    name: str
    kind: str = "int"
    default: Any = None
    low: Optional[int] = None
    high: Optional[int] = None
    always: bool = True

    def read(self, text: str) -> Any:
        if self.kind == "int":
            return ascii_int(text, self.name, self.low, self.high)
        if self.kind == "pair":
            pieces = text.split("+")
            if len(pieces) != 2:
                raise SpecError(f"{self.name} must be two integers joined by '+', got {text!r}")
            low, high = sorted(ascii_int(p.strip(), self.name, self.low, self.high) for p in pieces)
            if low == high:
                raise SpecError(f"{self.name} must be two distinct integers, got {low} twice")
            return (low, high)
        if self.kind == "float":
            try:
                value = float(text)
            except ValueError:
                value = math.nan
            if not (math.isfinite(value) and value > 0):
                raise SpecError(f"{self.name} must be a finite positive number, got {text!r}")
            return value
        if not text:
            raise SpecError(f"{self.name} must not be empty")
        return text

    def show(self, value: Any) -> str:
        if self.kind == "pair":
            return "+".join(map(str, value))
        return f"{value:g}" if self.kind == "float" else str(value)


class Row(NamedTuple):
    """A listing row: a constructible exemplar, its description, and the
    pattern listed in its place (the exemplar itself when empty)."""

    exemplar: str
    description: str
    pattern: str = ""


#: Reads a positional head: (head text, the parameters given so far) ->
#: (canonical head text, head value).  May add derived parameters
#: (``perf:`` records its content digest); raises :class:`SpecError`.
HeadReader = Callable[[str, Dict[str, Any]], Tuple[str, Any]]


class Family(NamedTuple):
    """A registry row.  ``head`` is ``None``, a ``{choice: description}``
    mapping (one listing row per choice) or a :data:`HeadReader`."""

    name: str
    rows: Tuple[Row, ...] = ()
    params: Tuple[Param, ...] = ()
    head: Union[None, Mapping[str, str], HeadReader] = None
    default_head: Optional[str] = None
    keep_head_case: bool = False


class ParsedSpec(NamedTuple):
    """A family name, its head value, typed parameters (defaults filled
    in) and the canonical form."""

    family: str
    head: Any
    params: Mapping[str, Any]
    canonical: str


class Registry:
    """A fixed table of families sharing one error class."""

    def __init__(
        self,
        kind: str,
        error: Type[SpecError],
        families: Tuple[Family, ...],
        fold_case: bool = True,
    ) -> None:
        self.kind = kind
        self.error = error
        self.families = {family.name: family for family in families}
        self.fold_case = fold_case

    def rows(self) -> List[Row]:
        rows = []
        for family in self.families.values():
            if isinstance(family.head, Mapping):
                rows += [Row(f"{family.name}:{key}", text) for key, text in family.head.items()]
            else:
                rows += family.rows
        return rows

    def available(self) -> List[str]:
        """Constructible exemplar specs, in listing order."""
        return [row.exemplar for row in self.rows()]

    def describe(self) -> List[Tuple[str, str]]:
        """(pattern, description) listing rows."""
        return [(row.pattern or row.exemplar, row.description) for row in self.rows()]

    def parse(self, text: str) -> ParsedSpec:
        """Parse ``text`` or raise the registry's error class."""
        name, colon, body = text.strip().partition(":")
        family = self.families.get(name.strip().lower() if self.fold_case else name.strip())
        parts = [part.strip() for part in body.split(",")] if body.strip() else []
        head_text = None
        if family is not None and family.head is not None:
            end = 1
            while end < len(parts) and "=" not in parts[end]:
                end += 1
            head_text = ",".join(parts[:end]) if colon else family.default_head
            parts = parts[end:]
            if head_text and self.fold_case and not family.keep_head_case:
                head_text = head_text.lower()
        if (
            family is None
            or (colon and family.head is None and not family.params)
            or (family.head is not None and head_text is None)
            or (isinstance(family.head, Mapping) and head_text not in family.head)
        ):
            raise self.error(
                f"unknown {self.kind} spec {text!r}; available {self.kind}s: "
                + ", ".join(self.available())
            )
        declared = {param.name: param for param in family.params}
        given: Dict[str, Any] = {}
        try:
            for part in parts:
                key, eq, value = (part.lower() if self.fold_case else part).partition("=")
                key = key.strip()
                if not eq or key not in declared:
                    expected = ", ".join(f"{known}=" for known in declared) or "no parameters"
                    raise SpecError(f"{family.name} takes {expected}; got {part!r}")
                if key in given:
                    raise SpecError(f"parameter {key!r} is given more than once")
                given[key] = declared[key].read(value.strip())
            head = head_text
            if callable(family.head):
                head_text, head = family.head(head_text, given)
        except SpecError as error:
            raise self.error(f"{text!r}: {error}") from None
        params = {param.name: given.get(param.name, param.default) for param in family.params}
        items = [head_text] if family.head is not None else []
        items += [
            f"{param.name}={param.show(params[param.name])}"
            for param in family.params
            if param.always or params[param.name] != param.default
        ]
        canonical = family.name + (":" + ",".join(items) if items else "")
        return ParsedSpec(family.name, head, params, canonical)
