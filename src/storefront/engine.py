"""The composed domain engine: serialized command dispatch with an access
check in front, an append-only event log behind, and a replay oracle.

Every command follows one path: schema-parse the arguments, consult the
access matrix, run the target operation inside a transaction, and append
exactly one event record. Denied and failed commands append a non-mutating
audit record and raise. Two runs over the same seeds and commands produce
byte-identical logs — the clock is logical and every iteration order is
pinned.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path

from . import catalog as catalog_mod
from . import invariants as invariants_mod
from . import stock_manager
# dispatch takes the payload from parse_args and never calls canonical_payload;
# the name stays here, where the bench's tracer hooks each envelope layer
from .commands import COMMANDS, ParseContext, canonical_payload, parse_args  # noqa: F401
from .commands import parse_input
from .foundation import (
    AccessDenied,
    DomainError,
    EntityId,
    Quantity,
    SchemaError,
)
from .invoice import RuleBook, default_rulebook
from .queries import run_query
from .rbac import RbacMatrix, check_access, permissive_matrix
from .state import EngineState, EventRecord, Txn, replay, to_jsonable

logger = logging.getLogger("storefront.engine")

_NO_ROLES = frozenset()  # the roles of an actor whose entity carries none
# the access of a record whose command failed before the check: shared, never mutated
_NOT_EVALUATED = {"verdict": None, "matched_role": None, "reason": "not evaluated"}


class Engine:
    """One strictly serialized command processor over one state."""

    def __init__(self, currency: str = "USD", rulebook: RuleBook | None = None,
                 rbac_matrix: RbacMatrix | None = None,
                 add_policy: str = "first-room"):
        if add_policy not in stock_manager.ADD_POLICIES:
            raise SchemaError(f"unknown stock distribution policy {add_policy!r}")
        if rbac_matrix is None:
            logger.warning("no access matrix loaded; running permissive")
            rbac_matrix = permissive_matrix()
        self.currency = currency
        self.rulebook = rulebook or default_rulebook()
        self.rbac = rbac_matrix
        self.add_policy = add_policy
        self.state = EngineState()
        self.parse_context = ParseContext(currency=currency)
        self._baseline: EngineState | None = None

    # -- seeding -----------------------------------------------------------

    def _seed_txn(self) -> Txn:
        if self.state.log:
            raise SchemaError("seeds must load before the first command")
        self._baseline = None
        return Txn(self.state)

    def seed_catalog(self, entries: list[dict], catalog_name: str = "main") -> EntityId:
        """Load the catalog seed, declared in ``commands.INPUT_FILES``:
        [{name, price, status?, info?, similar?}], status ``Regular`` when absent."""
        entries = parse_input("catalog seed", entries, self.parse_context)
        txn = self._seed_txn()
        catalog_id = catalog_mod.create_catalog(txn, catalog_name)
        by_name: dict[str, EntityId] = {}
        for entry in entries:
            name = entry["name"]
            if name in by_name:
                raise SchemaError(f"catalog seed: duplicate product {name!r}")
            by_name[name] = catalog_mod.add_product(
                txn, catalog_id, name, entry["price"],
                entry.get("status", catalog_mod.ProductStatus.REGULAR))
            info = entry.get("info")
            if info:
                catalog_mod.set_product_info(txn, by_name[name], info.get("description", ""),
                                             info.get("comparison_notes", ""))
        for entry in entries:
            product_id = by_name[entry["name"]]
            for other in entry.get("similar", ()):
                if other not in by_name:
                    raise SchemaError(f"catalog seed: similar link to unknown {other!r}")
                if by_name[other] not in self.state.stores["products"][product_id].similar:
                    catalog_mod.link_similar(txn, product_id, by_name[other])
        return catalog_id

    def seed_stock(self, entries: list[dict]) -> None:
        """Load the stock seed, declared in ``commands.INPUT_FILES``: [{item,
        kind, rooms?: {room name: qty}}]. Stockrooms are created in order of
        first mention; product items link to the catalog product of the same
        name when one exists."""
        entries = parse_input("stock seed", entries, self.parse_context)
        txn = self._seed_txn()
        rooms: dict[str, EntityId] = {
            room.name: rid for rid, room in self.state.stores["stockrooms"].items()}
        products_by_name = {product.name: pid for pid, product
                            in self.state.stores["products"].items()}
        for entry in entries:
            name, kind, placed = entry["item"], entry["kind"], entry.get("rooms", {})
            link = (products_by_name.get(name)
                    if kind is stock_manager.StockKind.PRODUCT else None)
            item_id = stock_manager.create_stock_item(txn, name, kind, link)
            for room_name in placed:
                if room_name not in rooms:
                    rooms[room_name] = stock_manager.create_stockroom(txn, room_name)
            qty = Quantity(sum(placed.values()))
            if qty.value:
                stock_manager.add_to_stock(
                    txn, item_id, qty, {rooms[room_name]: n for room_name, n in placed.items()})

    def baseline(self) -> EngineState:
        """The seeded pre-command state; replays start here."""
        if self._baseline is None:
            self._baseline = self.state.clone_without_log()
        return self._baseline

    # -- access ------------------------------------------------------------

    def access_decision(self, actor: EntityId, command: str, args: dict):
        spec = COMMANDS[command]
        owner, target_missing = spec.owner(self.state, args)
        return check_access(self.rbac, actor,
                            getattr(self.state.entity(actor), "roles", _NO_ROLES),
                            spec.kind, command, owner, target_missing)

    # -- dispatch ------------------------------------------------------------

    def dispatch(self, actor, command: str, args: dict | None = None) -> EventRecord:
        """Run one command end to end, appending exactly one event record.

        Raises the operation's DomainError (or AccessDenied / SchemaError)
        after the audit record lands; the record for a failed command
        never carries deltas.
        """
        self.baseline()
        args = args or {}
        if isinstance(actor, str):
            actor = EntityId.parse(actor)
        seq = len(self.state.log) + 1
        self.state.clock += 1
        tick = self.state.clock

        spec = COMMANDS.get(command)
        if spec is None:
            self._audit(seq, tick, actor, command, self._best_effort(args),
                        "error", "SchemaError")
            raise SchemaError(f"unknown command {command!r}")

        try:
            parsed, payload = parse_args(spec, args, self.parse_context)
        except DomainError as exc:
            self._audit(seq, tick, actor, command, self._best_effort(args),
                        "error", exc.code)
            raise

        decision = self.access_decision(actor, command, parsed)
        if not decision.allowed():
            self._audit(seq, tick, actor, command, payload, "denied",
                        AccessDenied.code, access=decision.as_dict)
            raise AccessDenied(decision.reason)

        txn = Txn(self.state)
        try:
            result = spec.run(self, txn, actor, parsed)
        except DomainError as exc:
            txn.rollback()
            self._audit(seq, tick, actor, command, payload, "error", exc.code,
                        access=decision.as_dict)
            raise
        record = EventRecord(seq=seq, tick=tick, actor=actor, command=command,
                             payload=payload, access=decision.as_dict,
                             outcome="ok", result=result,
                             deltas=txn.facts())
        self.state.log.append(record)
        return record

    def execute(self, actor, command: str, **args):
        """Dispatch and return the command's result value."""
        return self.dispatch(actor, command, args).result

    def _audit(self, seq, tick, actor, command, payload, outcome, error,
               access=None) -> EventRecord:
        record = EventRecord(
            seq=seq, tick=tick, actor=actor, command=command, payload=payload,
            access=access or _NOT_EVALUATED,
            outcome=outcome, error=error)
        self.state.log.append(record)
        return record

    @staticmethod
    def _best_effort(args) -> dict:
        """Args that failed to parse, as the JSON object an audit record
        holds, or their repr when they are not one."""
        try:
            payload = to_jsonable(args)
        except TypeError:  # a value or a key with no JSON form
            payload = None
        return payload if isinstance(payload, dict) else {"unparsed": repr(args)}

    # -- queries, oracle, verification -----------------------------------------

    def query(self, name: str, **args):
        return run_query(self, name, args)

    def replayed_state(self, records: list[EventRecord] | None = None) -> EngineState:
        """Rebuild state from the baseline plus event records — no business
        logic runs; this is the independent oracle for dispatch."""
        return replay(self.baseline(), self.state.log if records is None else records)

    def check_invariants(self) -> invariants_mod.InvariantReport:
        return invariants_mod.check_invariants(self)

    def write_log(self, path) -> None:
        text = "".join(record.to_json_line() + "\n" for record in self.state.log)
        Path(path).write_text(text, encoding="utf-8")


_DECODE_JSON = json.JSONDecoder().raw_decode


def read_log(path) -> list[EventRecord]:
    """The records of an ``events.jsonl`` file; ``SchemaError`` naming the
    line for a line that is not exactly one record (blank lines are skipped)."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data, end = _DECODE_JSON(line)
                if end != len(line):
                    raise SchemaError(f"text after the record at column {end + 1}")
                records.append(EventRecord.from_dict(data))
            except (ValueError, KeyError, TypeError, AttributeError, SchemaError) as exc:
                raise SchemaError(f"{path}:{line_number}: bad event record: {exc}")
    return records
