"""Engine state: one store per entity kind, serial counters, the logical
clock, and the append-only event log.

Commands mutate state only through a ``Txn``, which snapshots each entity
before its first mutation. On success the transaction emits *facts* — full
entity snapshots plus serial-counter updates — which become the event
record's deltas; on failure it restores every touched entity, so an
errored command contributes zero deltas. Replaying the facts alone (no
business logic) reproduces the live state exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

from . import catalog, invoice, order_shipment, shopping_cart, stock_manager
from .foundation import DomainError, EntityId, Quantity, Record, SchemaError, derive_codec

# store name -> (entity kind, entity class)
STORES = {
    "catalogs": ("catalog", catalog.Catalog),
    "products": ("product", catalog.Product),
    "notifications": ("notification", catalog.Notification),
    "customers": ("customer", shopping_cart.Customer),
    "carts": ("cart", shopping_cart.ShoppingCart),
    "employees": ("employee", invoice.Employee),
    "invoices": ("invoice", invoice.Invoice),
    "payments": ("payment", invoice.Payment),
    "orders": ("order", order_shipment.Order),
    "shipments": ("shipment", order_shipment.Shipment),
    "stock_items": ("stock_item", stock_manager.StockItem),
    "stockrooms": ("stockroom", stock_manager.Stockroom),
    "shop_orders": ("shop_order", stock_manager.ShopOrder),
}

KIND_TO_STORE = {kind: store for store, (kind, _) in STORES.items()}

# generate every entity's codec now: a field type the codec cannot encode
# fails at import, and no command pays the build cost
for _, entity_class in STORES.values():
    derive_codec(entity_class)


class UnknownFactKind(DomainError):
    code = "UnknownFactKind"


class GapInSequence(DomainError):
    code = "GapInSequence"


def to_jsonable(value):
    """Canonical JSON form for payloads, results, and facts.

    Only an exact ``str``, ``int`` or ``bool`` passes as it is. A str-mixin
    enum member is also a ``str``, but it becomes its value: kept as it is,
    the live record would hold another type than the record read back
    from the log.
    """
    cls = value.__class__
    if cls is str or cls is int or cls is bool or value is None:
        return value
    if isinstance(value, EntityId):
        return str(value)
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, Quantity):
        return value.value
    if isinstance(value, dict):
        return {k if k.__class__ is str else _json_key(k): to_jsonable(v)
                for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (bool, int, str)):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _json_key(key) -> str:
    """A JSON object key: a string, or an id as its text."""
    if isinstance(key, (str, EntityId)):
        return str(key)
    raise TypeError(f"cannot serialize a {type(key).__name__} object key")


# record fields kept as raw JSON -> the JSON types each may hold
_RAW_FIELD_TYPES = {"command": str, "payload": dict, "access": dict,
                    "outcome": str, "error": (str, type(None)), "deltas": list}


@dataclass
class EventRecord:
    """One dispatched command: what was attempted, decided, and changed.

    ``deltas`` is empty for denied, errored, and read-only commands; replay
    applies deltas and nothing else.
    """

    seq: int
    tick: int
    actor: EntityId
    command: str
    payload: dict
    access: dict
    outcome: str  # "ok" | "denied" | "error"
    error: str | None = None
    result: object = None
    deltas: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "tick": self.tick,
            "actor": str(self.actor),
            "command": self.command,
            "payload": self.payload,
            "access": self.access,
            "outcome": self.outcome,
            "error": self.error,
            "result": self.result,
            "deltas": self.deltas,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: dict) -> EventRecord:
        for name, expected in _RAW_FIELD_TYPES.items():
            if not isinstance(data[name], expected):
                raise SchemaError(
                    f"record field {name!r} has the wrong JSON type: {data[name]!r}")
        seq, tick = data["seq"], data["tick"]
        if seq.__class__ is not int or tick.__class__ is not int:
            raise SchemaError(f"record seq and tick must be integers: {seq!r}, {tick!r}")
        return cls(
            seq=seq,
            tick=tick,
            actor=EntityId.parse(data["actor"]),
            command=data["command"],
            payload=data["payload"],
            access=data["access"],
            outcome=data["outcome"],
            error=data["error"],
            result=data["result"],
            deltas=data["deltas"],
        )


@dataclass
class EngineState:
    stores: dict = field(default_factory=lambda: {name: {} for name in STORES})
    serials: dict = field(default_factory=dict)
    clock: int = 0
    log: list = field(default_factory=list)

    def entity(self, entity_id: EntityId):
        store = KIND_TO_STORE.get(entity_id.kind)
        if store is None:
            return None
        return self.stores[store].get(entity_id)

    def clone_without_log(self) -> EngineState:
        stores = {name: {eid: entity.clone() for eid, entity in store.items()}
                  for name, store in self.stores.items()}
        return EngineState(stores=stores, serials=dict(self.serials),
                           clock=self.clock)

    def to_dict(self) -> dict:
        """Canonical full-state snapshot (log excluded) for oracle equality."""
        return {
            "stores": {
                name: {str(eid): entity.to_dict()
                       for eid, entity in sorted(store.items())}
                for name, store in self.stores.items()
            },
            "serials": {kind: serial for kind, serial in sorted(self.serials.items())},
            "clock": self.clock,
        }


class Txn:
    """Mutation scope of one command; see the module docstring."""

    __slots__ = ("state", "_originals", "_created", "_serials_before", "_touched")

    def __init__(self, state: EngineState):
        self.state = state
        self._originals: dict = {}
        self._created: set = set()
        self._serials_before: dict = {}
        self._touched: list = []

    def next_id(self, kind: str) -> EntityId:
        if kind not in self._serials_before:
            self._serials_before[kind] = self.state.serials.get(kind, 0)
        serial = self.state.serials.get(kind, 0) + 1
        self.state.serials[kind] = serial
        return EntityId.of(kind, serial)

    def create(self, store: str, entity) -> None:
        key = (store, entity.id)
        self.state.stores[store][entity.id] = entity
        self._created.add(key)
        self._touched.append(key)

    def get_mut(self, store: str, entity_id: EntityId, missing_error):
        """Fetch an entity for mutation, snapshotting it once for rollback."""
        entity = self.state.stores[store].get(entity_id)
        if entity is None:
            raise missing_error(f"no {store[:-1].replace('_', ' ')} {entity_id}")
        key = (store, entity_id)
        if key not in self._originals and key not in self._created:
            self._originals[key] = entity.clone()
            self._touched.append(key)
        return entity

    def rollback(self) -> None:
        for store, entity_id in self._created:
            self.state.stores[store].pop(entity_id, None)
        for (store, entity_id), original in self._originals.items():
            self.state.stores[store][entity_id] = original
        for kind, serial in self._serials_before.items():
            if serial == 0:
                self.state.serials.pop(kind, None)
            else:
                self.state.serials[kind] = serial

    def facts(self) -> list:
        """Deltas in deterministic order: serial bumps, then entity puts."""
        deltas = []
        for kind in sorted(self._serials_before):
            deltas.append({"f": "serial", "kind": kind,
                           "value": self.state.serials[kind]})
        for store, entity_id in self._touched:
            entity = self.state.stores[store][entity_id]
            deltas.append({"f": "put", "store": store, "id": str(entity_id),
                           "data": entity.to_dict()})
        return deltas


def apply_fact(state: EngineState, fact: dict) -> None:
    """Replay one delta: a mechanical write, no business logic."""
    kind = fact.get("f")
    if kind == "serial":
        state.serials[fact["kind"]] = fact["value"]
    elif kind == "put":
        store = fact["store"]
        if store not in STORES:
            raise UnknownFactKind(f"no store named {store!r}")
        entity_class = STORES[store][1]
        state.stores[store][EntityId.parse(fact["id"])] = entity_class.from_dict(fact["data"])
    else:
        raise UnknownFactKind(f"unsupported fact {kind!r}")


def replay(initial: EngineState, records: list[EventRecord]) -> EngineState:
    """Rebuild state by applying each record's deltas onto the initial state.

    The initial state is the seeded baseline; the result carries the
    replayed records as its log so it compares whole against a live state.
    """
    state = initial.clone_without_log()
    expected_seq = 1
    for record in records:
        if record.seq != expected_seq:
            raise GapInSequence(
                f"expected seq {expected_seq}, found {record.seq}")
        expected_seq += 1
        try:
            for fact in record.deltas:
                apply_fact(state, fact)
        except (KeyError, TypeError, ValueError, AttributeError, DomainError) as exc:
            raise SchemaError(f"seq {record.seq}: bad fact: "
                              f"{type(exc).__name__}: {exc}") from exc
        state.clock = record.tick
        state.log.append(record)
    return state
