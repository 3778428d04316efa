"""Scenario scripts: ordered command lists with optional expected errors,
post-run query expectations, and reference resolution.

A step may bind its result (``"as": "c1"``) for later steps to reference
via ``$c1`` / ``$c1.key``; ``@product:WidgetA`` style references resolve
seeded or created entities by name. Reports are pure functions of the
inputs — the only timestamps anywhere are logical ticks.
"""

# no ``from __future__ import annotations``, as in every module that declares
# records: the report writer reads the outcome records' evaluated field types
import json
import typing
from dataclasses import dataclass, field, fields

from . import bundled
from .commands import parse_input
from .engine import Engine
from .foundation import DomainError, SchemaError, json_indented, run_generated
from .queries import run_query
from .state import STORES

# kind -> its store, for each kind of entity an ``@kind:name`` reference can name
NAMED_STORES = {kind: store for store, (kind, cls) in STORES.items()
                if "name" in cls.__dataclass_fields__}


class ParseError(DomainError):
    code = "ParseError"


class UnresolvedReference(DomainError):
    code = "UnresolvedReference"


@dataclass(frozen=True)
class ScenarioStep:
    op: str
    actor: str
    args: dict
    bind: str | None = None
    expect_error: str | None = None


@dataclass(frozen=True)
class Expectation:
    query: str
    args: dict
    expect: object


@dataclass(frozen=True)
class Scenario:
    name: str
    steps: tuple[ScenarioStep, ...]
    expectations: tuple[Expectation, ...]


def load_scenario(path) -> Scenario:
    """The scenario in file ``path``, parsed once per distinct content in
    this process (``bundled.load``) and shared: no run changes it."""
    return bundled.load(path, "scenario", lambda data: parse_scenario(data, source=str(path)))


def parse_scenario(data, source: str = "<memory>") -> Scenario:
    """The scenario in ``data``, declared in ``commands.INPUT_FILES``; a
    ``ParseError`` naming ``source`` for another shape or an empty name."""
    try:
        data = parse_input("scenario", data)
    except SchemaError as exc:
        raise ParseError(f"{source}: {exc}") from None
    if not data["name"]:
        raise ParseError(f"{source}: scenario needs a name")
    steps = tuple(ScenarioStep(op=raw["op"], actor=raw.get("actor", "system"),
                               args=raw.get("args", {}), bind=raw.get("as"),
                               expect_error=raw.get("expect_error"))
                  for raw in data["commands"])
    expectations = tuple(Expectation(query=raw["query"], args=raw.get("args", {}),
                                     expect=raw["expect"])
                         for raw in data.get("expectations", ()))
    return Scenario(name=data["name"], steps=steps, expectations=expectations)


class _Resolver:
    def __init__(self, engine: Engine):
        self.engine = engine
        self.bindings: dict[str, object] = {}

    def resolve(self, value):
        if isinstance(value, str):
            if value.startswith("$"):
                return self._resolve_binding(value[1:])
            if value.startswith("@"):
                return self._resolve_name(value[1:])
            return value
        if isinstance(value, dict):
            try:
                return {self.resolve(k) if isinstance(k, str) else k: self.resolve(v)
                        for k, v in value.items()}
            except TypeError:  # an unhashable key: one bound to a list or an object
                raise UnresolvedReference("an object key bound to a list or an object") from None
        if isinstance(value, list):
            return [self.resolve(v) for v in value]
        return value

    def _resolve_binding(self, ref: str):
        name, _, attr = ref.partition(".")
        if name not in self.bindings:
            raise UnresolvedReference(f"nothing bound as {name!r}")
        result = self.bindings[name]
        if attr:
            if not isinstance(result, dict) or attr not in result:
                raise UnresolvedReference(f"binding {name!r} has no field {attr!r}")
            return result[attr]
        if isinstance(result, dict):
            if len(result) != 1:
                raise UnresolvedReference(
                    f"binding {name!r} is ambiguous; use ${name}.<field>")
            return next(iter(result.values()))
        return result

    def _resolve_name(self, ref: str):
        kind, sep, name = ref.partition(":")
        if not sep or kind not in NAMED_STORES:
            raise UnresolvedReference(f"bad name reference @{ref}")
        store = self.engine.state.stores[NAMED_STORES[kind]]
        matches = sorted(eid for eid, entity in store.items() if entity.name == name)
        if not matches:
            raise UnresolvedReference(f"no {kind} named {name!r}")
        if len(matches) > 1:
            raise UnresolvedReference(f"{len(matches)} {kind}s named {name!r}")
        return str(matches[0])

    def resolve_actor(self, actor: str) -> str:
        if actor == "system":
            return "system:0"
        resolved = self.resolve(actor)
        if not isinstance(resolved, str):
            raise UnresolvedReference(f"actor {actor!r} did not resolve to an id")
        return resolved


@dataclass
class StepOutcome:
    seq: int
    op: str
    actor: str
    outcome: str  # "ok" | "denied" | "error" | "unresolved"
    ok: bool
    error: str | None = None
    expect_error: str | None = None
    result: object = None


@dataclass
class ExpectationOutcome:
    query: str
    ok: bool
    expect: object
    actual: object


@dataclass
class ScenarioReport:
    scenario: str
    steps: list[StepOutcome] = field(default_factory=list)
    expectations: list[ExpectationOutcome] = field(default_factory=list)
    invariants: dict = field(default_factory=dict)
    ok: bool = False


def _items(values: list, write, newline: str) -> str:
    """``values`` as ``json_indented`` writes a list after ``newline``,
    each through ``write``."""
    inner = newline + "  "
    return f"[{inner}{(',' + inner).join(map(write, values))}{newline}]" if values else "[]"


# the text of a field of each scalar type; json_indented writes any other
_SCALAR_TEXT = {str: "_str({0})", int: "str({0})", bool: "('true' if {0} else 'false')",
                str | None: "('null' if {0} is None else _str({0}))"}


def _writer_source(cls: type, depth: int, names: dict) -> str:
    """The source of ``<cls>_json(self)``, which writes a ``cls`` record
    ``depth`` levels in as ``json_indented`` writes the dict of its fields:
    one join of its keys in sorted order, each on its line at a fixed
    indentation, and of its values written by their declared types; the
    writers of the records it lists come first. ``names`` gains the
    indentations it uses."""
    newline, parts, nl, before = "\n" + "  " * depth, [], f"_nl{depth + 1}", ""
    inner = names[nl] = newline + "  "
    for f in sorted(fields(cls), key=lambda f: f.name):
        value = f"self.{f.name}"
        if typing.get_origin(f.type) is list:
            item = typing.get_args(f.type)[0]
            before += _writer_source(item, depth + 2, names)
            text = f"_items({value}, {item.__name__}_json, {nl})"
        else:
            text = _SCALAR_TEXT.get(f.type, "json_indented({0}, {1})").format(value, nl)
        parts += [repr(f'{"," if parts else "{"}{inner}"{f.name}": '), text]
    parts.append(repr(newline + "}"))
    return f"{before}def {cls.__name__}_json(self):\n    return ''.join(({', '.join(parts)}))\n"


_NAMES = {"_str": json.encoder.encode_basestring_ascii, "_items": _items,
          "json_indented": json_indented}
run_generated(_writer_source(ScenarioReport, 0, _NAMES), "<report writer>", _NAMES)
# report_json(report): report.json but its final newline, json_indented of
# the report's fields as a dict, each outcome in it the dict of its fields
report_json = _NAMES["ScenarioReport_json"]


def run_scenario(engine: Engine, scenario: Scenario) -> ScenarioReport:
    """Dispatch every step in order, then evaluate expectations and
    invariants. A step expecting an error succeeds only on that error."""
    report = ScenarioReport(scenario=scenario.name)
    resolver = _Resolver(engine)

    for index, step in enumerate(scenario.steps, start=1):
        outcome = StepOutcome(seq=index, op=step.op, actor=step.actor,
                              outcome="ok", ok=True,
                              expect_error=step.expect_error)
        try:
            actor = resolver.resolve_actor(step.actor)
            args = resolver.resolve(step.args)
            record = engine.dispatch(actor, step.op, args)
            outcome.result = record.result
            if step.bind:
                resolver.bindings[step.bind] = record.result
        except UnresolvedReference as exc:
            outcome.outcome = "unresolved"
            outcome.error = exc.code
            outcome.ok = False
            report.steps.append(outcome)
            continue
        except DomainError as exc:
            outcome.outcome = "denied" if exc.code == "AccessDenied" else "error"
            outcome.error = exc.code
        outcome.ok = (outcome.error == step.expect_error)
        report.steps.append(outcome)

    for expectation in scenario.expectations:
        try:
            args = resolver.resolve(expectation.args)
            actual = run_query(engine, expectation.query, args)
            ok = actual == expectation.expect
        except DomainError as exc:
            actual = {"error": exc.code, "message": str(exc)}
            ok = False
        report.expectations.append(ExpectationOutcome(
            query=expectation.query, ok=ok, expect=expectation.expect,
            actual=actual))

    invariant_report = engine.check_invariants()
    report.invariants = invariant_report.to_dict()
    report.ok = (all(s.ok for s in report.steps)
                 and all(e.ok for e in report.expectations)
                 and invariant_report.ok())
    return report
