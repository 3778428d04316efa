"""Per-layer tracing installed from outside the engine.

Each hook replaces a name the engine looks up at call time (a module
global such as ``storefront.engine.parse_args``, a class attribute such as
``Txn.facts``, or a ``COMMANDS`` entry's ``run``) with a wrapper that
records a span: its name, the ``seq`` of the command it belongs to, its
depth, start and end. Self time is a span's duration minus the time its
direct children cover. Spans stay in memory; the caller writes them out
when the run ends. A hook whose name is gone leaves its layer ``not
measured`` and the run goes on. Untraced runs install nothing.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time
from collections import Counter

MODULES = ["catalog", "shopping_cart", "invoice", "order_shipment", "stock_manager"]

# command target kind -> the module whose operation the command runs
KIND_MODULE = {
    "catalog": "catalog", "product": "catalog",
    "customer": "shopping_cart", "cart": "shopping_cart",
    "employee": "invoice", "invoice": "invoice", "payment": "invoice",
    "order": "order_shipment", "shipment": "order_shipment",
    "stock_item": "stock_manager", "stockroom": "stock_manager",
    "shop_order": "stock_manager",
}

INVARIANT_CHECKS = [
    "cart_items", "catalog_references", "checkout_bijection", "invoice_provenance",
    "log_stage_monotone", "log_structure", "notifications_append_only",
    "payment_conservation", "product_similarity", "referential_integrity",
    "separation_of_duty", "serial_bounds", "shipment_coverage", "shipment_invoice",
    "shop_orders", "stock_conservation",
]

# span name -> every (module, attribute path) that calls reach it through
SITES = {
    "engine.dispatch": [("storefront.engine", "Engine.dispatch")],
    "commands.parse_args": [("storefront.engine", "parse_args")],
    "commands.canonical_payload": [("storefront.engine", "canonical_payload")],
    "rbac.access": [("storefront.engine", "Engine.access_decision")],
    "state.facts": [("storefront.state", "Txn.facts")],
    "state.get_mut": [("storefront.state", "Txn.get_mut")],
    "state.rollback": [("storefront.state", "Txn.rollback")],
    "state.to_json_line": [("storefront.state", "EventRecord.to_json_line")],
    "state.replay": [("storefront.engine", "replay"), ("storefront.cli", "replay")],
    "state.apply_fact": [("storefront.state", "apply_fact")],
    "engine.read_log": [("storefront.engine", "read_log"), ("storefront.cli", "read_log")],
    "engine.write_log": [("storefront.engine", "Engine.write_log")],
    "invariants.check": [("storefront.engine", "Engine.check_invariants")],
    "invoice.accepted_sum": [("storefront.invoice", "accepted_sum")],
    "order_shipment.shipped_coverage": [("storefront.order_shipment", "shipped_coverage"),
                                        ("storefront.invariants", "shipped_coverage")],
    "stock_manager.item_for_product": [("storefront.stock_manager", "item_for_product")],
    "queries.run_query": [("storefront.scenario", "run_query"),
                          ("storefront.engine", "run_query")],
    "scenario.run_scenario": [("storefront.cli", "run_scenario")],
    "scenario.load_scenario": [("storefront.cli", "load_scenario")],
    "cli.main": [("storefront.cli", "main")],
    "cli.build_engine": [("storefront.cli", "build_engine")],
}
SITES.update({f"invariants.{name}": [("storefront.invariants", f"_Checker.check_{name}")]
              for name in INVARIANT_CHECKS})

# span of a scan -> (the store it walks, the metric of rows walked per call)
SCANS = {
    "invoice.accepted_sum": ("payments", "invoice.payments_scanned"),
    "order_shipment.shipped_coverage": ("shipments", "order_shipment.shipments_scanned"),
    "stock_manager.item_for_product": ("stock_items", "stock_manager.stock_items_scanned"),
}


class _Frame:
    __slots__ = ("children",)

    def __init__(self):
        self.children = 0


class Tracer:
    """Spans and exact counts for one repetition of a workload."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.stats: dict[str, list[int]] = {}   # name -> [calls, total ns, self ns]
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []           # (seq, name, depth, start ns, end ns)
        self.seq = 0
        self.phase = "load"                    # scans are counted in the load phase only
        self.rejected_by: str | None = None
        self.missing: set[str] = set()
        self._undo: list = []

    # -- spans -----------------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None, on_error=None):
        stack, spans, clock = self.stack, self.spans, time.perf_counter_ns
        stats = self.stats.setdefault(name, [0, 0, 0])
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before else None
            frame = _Frame()
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error:
                    on_error(exc)
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1].children += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame.children
                spans.append((tracer.seq, name, len(stack), start, end))
            if after:
                after(args, result, token)
            return result
        return wrapper

    def _patch(self, name, module_name, path, **hooks) -> bool:
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            return False
        if not callable(original):
            return False
        setattr(owner, attr, self._wrap(name, original, **hooks))
        self._undo.append((owner, attr, original))
        return True

    # -- hooks -----------------------------------------------------------------

    def _hooks(self, name):
        counts = self.counts
        if name == "engine.dispatch":
            def before(args):
                self.rejected_by = None
                try:
                    self.seq = len(args[0].state.log) + 1
                except (AttributeError, TypeError):
                    self.seq += 1

            def on_error(exc):
                if self.rejected_by is None:
                    code = getattr(exc, "code", "")
                    if code == "AccessDenied":
                        counts["rbac.denied"] += 1
                    elif code == "SchemaError":
                        counts["commands.schema_rejects"] += 1
            return {"before": before, "on_error": on_error}
        if name == "commands.parse_args":
            def on_error(exc):
                self.rejected_by = "commands"
                counts["commands.schema_rejects"] += 1
            return {"on_error": on_error}
        if name == "state.facts":
            def after(args, result, token):
                counts["state.facts"] += len(result)
                counts["state.facts_calls"] += 1
            return {"after": after}
        if name == "state.get_mut":
            def before(args):
                return len(getattr(args[0], "_originals", ()))

            def after(args, result, token):
                originals = getattr(args[0], "_originals", None)
                if originals is None:
                    self.missing.add("state.clones")
                else:
                    counts["state.clones"] += len(originals) - token
            return {"before": before, "after": after}
        if name == "state.rollback":
            def after(args, result, token):
                counts["state.rollbacks"] += 1
            return {"after": after}
        if name == "state.replay":
            def before(args):
                counts["state.replay_records"] += len(args[1])
            return {"before": before}
        if name in SCANS:
            store, metric = SCANS[name]

            def before(args):
                if self.phase != "load":
                    return
                counts[f"{name}.calls"] += 1
                try:
                    counts[metric] += len(args[0].stores[store])
                except (AttributeError, KeyError, TypeError, IndexError):
                    self.missing.add(metric)
            return {"before": before}
        return {}

    def _op_error(self, module):
        def on_error(exc):
            self.rejected_by = module
            self.counts[f"{module}.errors"] += 1
        return on_error

    def install(self) -> None:
        for name, sites in SITES.items():
            patched = [self._patch(name, module, path, **self._hooks(name))
                       for module, path in sites]
            if not any(patched):
                self.missing.add(name)
        self._install_ops()

    def _install_ops(self) -> None:
        try:
            commands = importlib.import_module("storefront.commands").COMMANDS
        except (ImportError, AttributeError):
            self.missing.update(f"{module}.op" for module in MODULES)
            return
        patched = set()
        for command, spec in list(commands.items()):
            module = KIND_MODULE.get(getattr(spec, "kind", None))
            run = getattr(spec, "run", None)
            if module is None or not callable(run):
                continue
            wrapped = self._wrap(f"{module}.op", run, on_error=self._op_error(module))
            try:
                commands[command] = dataclasses.replace(spec, run=wrapped)
            except TypeError:
                continue
            self._undo.append((commands, command, spec))
            patched.add(module)
        self.missing.update(f"{module}.op" for module in MODULES if module not in patched)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()
        return False

    # -- metrics ---------------------------------------------------------------

    def total(self, name) -> int:
        return self.stats.get(name, [0, 0, 0])[1]

    def per_call(self, name, scale, own=False) -> float:
        calls, total, self_ns = self.stats.get(name, [0, 0, 0])
        return (self_ns if own else total) / calls / scale if calls else 0.0

    def metrics(self, root: str, client_ns: int) -> dict[str, float]:
        """Per-layer values of this repetition; see ``PER_LAYER`` for units."""
        us, ms = 1e3, 1e6
        dispatch = self.total("engine.dispatch")
        share = (lambda name: self.total(name) / dispatch) if dispatch else (lambda name: 0.0)
        counts = self.counts
        op_calls = sum(self.stats.get(f"{m}.op", [0])[0] for m in MODULES)
        values = {
            "engine.dispatch.us": self.per_call("engine.dispatch", us),
            "engine.dispatch.self_us": self.per_call("engine.dispatch", us, own=True),
            "engine.envelope.share": sum(share(n) for n in (
                "commands.parse_args", "commands.canonical_payload", "rbac.access",
                "state.facts")),
            "engine.read_log.ms": self.per_call("engine.read_log", ms),
            "engine.write_log.ms": self.per_call("engine.write_log", ms),
            "trace.coverage": self.total(root) / client_ns if client_ns else 0.0,
            "commands.parse_args.us": self.per_call("commands.parse_args", us),
            "commands.parse_args.share": share("commands.parse_args"),
            "commands.canonical_payload.us": self.per_call("commands.canonical_payload", us),
            "commands.canonical_payload.share": share("commands.canonical_payload"),
            "commands.schema_rejects": counts["commands.schema_rejects"],
            "rbac.access.us": self.per_call("rbac.access", us),
            "rbac.access.share": share("rbac.access"),
            "rbac.denied": counts["rbac.denied"],
            "state.facts.us": self.per_call("state.facts", us),
            "state.facts.share": share("state.facts"),
            "state.facts_per_cmd": (counts["state.facts"] / counts["state.facts_calls"]
                                    if counts["state.facts_calls"] else 0.0),
            "state.get_mut.us": self.per_call("state.get_mut", us),
            "state.clones": counts["state.clones"],
            "state.rollbacks": counts["state.rollbacks"],
            "state.rollback_share": counts["state.rollbacks"] / op_calls if op_calls else 0.0,
            "state.to_json_line.us": self.per_call("state.to_json_line", us),
            "state.replay.us_per_record": (self.total("state.replay") / us
                                           / counts["state.replay_records"]
                                           if counts["state.replay_records"] else 0.0),
            "state.apply_fact.us": self.per_call("state.apply_fact", us),
            "invariants.check.ms": self.per_call("invariants.check", ms),
            "queries.run_query.us": self.per_call("queries.run_query", us),
            "queries.run_query.calls": self.stats.get("queries.run_query", [0])[0],
            "scenario.run_scenario.self_ms": self.per_call("scenario.run_scenario", ms, own=True),
            "scenario.load_scenario.ms": self.per_call("scenario.load_scenario", ms),
            "cli.main.self_ms": self.per_call("cli.main", ms, own=True),
            "cli.build_engine.ms": self.per_call("cli.build_engine", ms),
        }
        for module in MODULES:
            values[f"{module}.op.us"] = self.per_call(f"{module}.op", us)
            values[f"{module}.op.share"] = share(f"{module}.op")
            values[f"{module}.errors"] = counts[f"{module}.errors"]
        for name, (_, metric) in SCANS.items():
            calls = counts[f"{name}.calls"]
            values[f"{name}.calls"] = calls
            values[metric] = counts[metric] / calls if calls else 0.0
        for check in INVARIANT_CHECKS:
            values[f"invariants.{check}.ms"] = self.per_call(f"invariants.{check}", ms)
        return values

    def not_measured(self, root: str) -> list[str]:
        """Per-layer metric names that depend on a hook missing in this run."""
        return [metric for metric in PER_LAYER if _depends(metric, root) & self.missing]


def _depends(metric: str, root: str) -> set[str]:
    """The spans (and counters) a per-layer metric is computed from."""
    spans = {span for span in SITES if metric == span or metric.startswith(span + ".")}
    spans |= {f"{m}.op" for m in MODULES if metric.startswith(f"{m}.op.")
              or metric == f"{m}.errors"}
    spans |= {span for span, (_, scanned) in SCANS.items() if metric == scanned}
    spans |= {
        "engine.envelope.share": {"commands.parse_args", "commands.canonical_payload",
                                  "rbac.access", "state.facts"},
        "trace.coverage": {root},
        "trace.overhead_pct": {root},
        "commands.schema_rejects": {"commands.parse_args"},
        "rbac.denied": {"rbac.access"},
        "state.facts_per_cmd": {"state.facts"},
        "state.clones": {"state.get_mut", "state.clones"},
        "state.rollbacks": {"state.rollback"},
        "state.rollback_share": {"state.rollback"} | {f"{m}.op" for m in MODULES},
    }.get(metric, set())
    if metric.endswith(".share") or metric in ("commands.schema_rejects", "rbac.denied"):
        spans.add("engine.dispatch")
    if metric in {scanned for _, scanned in SCANS.values()}:
        spans.add(metric)
    return spans


# name -> (unit, better)
PER_LAYER = {
    "engine.dispatch.us": ("us", "lower"),
    "engine.dispatch.self_us": ("us", "lower"),
    "engine.envelope.share": ("ratio", "lower"),
    "engine.read_log.ms": ("ms", "lower"),
    "engine.write_log.ms": ("ms", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_pct": ("%", "lower"),
    "commands.parse_args.us": ("us", "lower"),
    "commands.parse_args.share": ("ratio", "lower"),
    "commands.canonical_payload.us": ("us", "lower"),
    "commands.canonical_payload.share": ("ratio", "lower"),
    "commands.schema_rejects": ("count", "lower"),
    "rbac.access.us": ("us", "lower"),
    "rbac.access.share": ("ratio", "lower"),
    "rbac.denied": ("count", "lower"),
    "state.facts.us": ("us", "lower"),
    "state.facts.share": ("ratio", "lower"),
    "state.facts_per_cmd": ("count", "lower"),
    "state.get_mut.us": ("us", "lower"),
    "state.clones": ("count", "lower"),
    "state.rollbacks": ("count", "lower"),
    "state.rollback_share": ("ratio", "lower"),
    "state.to_json_line.us": ("us", "lower"),
    "state.replay.us_per_record": ("us", "lower"),
    "state.apply_fact.us": ("us", "lower"),
}
for _module in MODULES:
    PER_LAYER[f"{_module}.op.us"] = ("us", "lower")
    PER_LAYER[f"{_module}.op.share"] = ("ratio", "lower")
    PER_LAYER[f"{_module}.errors"] = ("count", "lower")
for _span, (_, _metric) in SCANS.items():
    PER_LAYER[f"{_span}.calls"] = ("count", "lower")
    PER_LAYER[_metric] = ("count", "lower")
PER_LAYER["invariants.check.ms"] = ("ms", "lower")
for _check in INVARIANT_CHECKS:
    PER_LAYER[f"invariants.{_check}.ms"] = ("ms", "lower")
PER_LAYER.update({
    "queries.run_query.us": ("us", "lower"),
    "queries.run_query.calls": ("count", "lower"),
    "scenario.run_scenario.self_ms": ("ms", "lower"),
    "scenario.load_scenario.ms": ("ms", "lower"),
    "cli.main.self_ms": ("ms", "lower"),
    "cli.build_engine.ms": ("ms", "lower"),
})
PER_LAYER_NAMES = list(PER_LAYER)
