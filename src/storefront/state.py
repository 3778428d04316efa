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
from types import MappingProxyType

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

# store name -> (entity kind, the decoder of its entities): one lookup per put fact
_PUTS = {store: (kind, entity_class.decode) for store, (kind, entity_class) in STORES.items()}


class UnknownFactKind(DomainError):
    code = "UnknownFactKind"


class GapInSequence(DomainError):
    code = "GapInSequence"


def to_jsonable(value):
    """Canonical JSON form of a payload value (results are plain JSON already).

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
_RAW_FIELD_TYPES = {"command": (str,), "payload": (dict,), "access": (dict,),
                    "outcome": (str,), "error": (str, type(None)), "deltas": (list,)}
# the one encoder of every log line; a record holds no cycle to check for
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


@dataclass(slots=True)
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
        return _ENCODER.encode(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> EventRecord:
        command, payload, access = data["command"], data["payload"], data["access"]
        outcome, error, deltas = data["outcome"], data["error"], data["deltas"]
        if (command.__class__ is not str or payload.__class__ is not dict
                or access.__class__ is not dict or outcome.__class__ is not str
                or error is not None and error.__class__ is not str
                or deltas.__class__ is not list):
            name = next(name for name, expected in _RAW_FIELD_TYPES.items()
                        if data[name].__class__ not in expected)
            raise SchemaError(
                f"record field {name!r} has the wrong JSON type: {data[name]!r}")
        seq, tick = data["seq"], data["tick"]
        if seq.__class__ is not int or tick.__class__ is not int:
            raise SchemaError(f"record seq and tick must be integers: {seq!r}, {tick!r}")
        return cls(seq, tick, EntityId.parse(data["actor"]), command, payload, access,
                   outcome, error, data["result"], deltas)


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


_UNWRITTEN = MappingProxyType({})  # a Txn's bookkeeping until its first write


class Txn:
    """Mutation scope of one command; see the module docstring. ``_originals``
    maps each touched ``(store, id)``, in first-touch order, to its pre-image
    clone, or to None for an entity this transaction created."""

    __slots__ = ("state", "_originals", "_serials_before")

    def __init__(self, state: EngineState):
        self.state = state
        self._originals = self._serials_before = _UNWRITTEN

    def next_id(self, kind: str) -> EntityId:
        serials, before = self.state.serials, self._serials_before
        if kind not in before:
            if before is _UNWRITTEN:
                before = self._serials_before = {}
            before[kind] = serials.get(kind, 0)
        serial = serials[kind] = serials.get(kind, 0) + 1
        return EntityId(kind, serial)

    def create(self, store: str, entity) -> None:
        self.state.stores[store][entity.id] = entity
        if self._originals is _UNWRITTEN:
            self._originals = {}
        self._originals[store, entity.id] = None

    def get_mut(self, store: str, entity_id: EntityId, missing_error):
        """Fetch an entity for mutation, snapshotting it once for rollback."""
        entity = self.state.stores[store].get(entity_id)
        if entity is None:
            raise missing_error(f"no {store[:-1].replace('_', ' ')} {entity_id}")
        key = (store, entity_id)
        if key not in self._originals:
            if self._originals is _UNWRITTEN:
                self._originals = {}
            self._originals[key] = entity.clone()
        return entity

    def rollback(self) -> None:
        stores = self.state.stores
        for (store, entity_id), original in self._originals.items():
            if original is None:
                stores[store].pop(entity_id, None)
            else:
                stores[store][entity_id] = original
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
        for store, entity_id in self._originals:
            entity = self.state.stores[store][entity_id]
            deltas.append({"f": "put", "store": store, "id": entity_id._text,
                           "data": entity.to_dict()})
        return deltas


def apply_fact(state: EngineState, fact: dict, memo: dict | None = None) -> None:
    """Replay one delta: a mechanical write, no business logic.

    A fact the engine could not have written is a ``SchemaError``: a serial
    that is not an int for a stored kind, or a put whose entity has another
    id than the fact, or an id of another kind than the store's. ``memo``
    is the replay's (see ``derive_codec``); without one, the put's frozen
    values are shared with nothing.
    """
    kind = fact.get("f")
    if kind == "put":
        store = fact["store"]
        put = _PUTS.get(store)
        if put is None:
            raise UnknownFactKind(f"no store named {store!r}")
        entity_id = EntityId.parse(fact["id"])
        entity = put[1](fact["data"], {} if memo is None else memo)
        if entity.id != entity_id or entity_id.kind != put[0]:
            raise SchemaError(f"put of {entity_id} to store {store!r} holds entity {entity.id}")
        state.stores[store][entity_id] = entity
    elif kind == "serial":
        entity_kind, value = fact["kind"], fact["value"]
        if (value.__class__ is not int or entity_kind.__class__ is not str
                or entity_kind not in KIND_TO_STORE):
            raise SchemaError(f"serial fact needs an int value for a stored kind: "
                              f"{entity_kind!r}, {value!r}")
        state.serials[entity_kind] = value
    else:
        raise UnknownFactKind(f"unsupported fact {kind!r}")


def replay(initial: EngineState, records: list[EventRecord]) -> EngineState:
    """Rebuild state by applying each record's deltas onto the initial state.

    The initial state is the seeded baseline; the result carries the
    replayed records as its log so it compares whole against a live state.
    Each distinct frozen value of the facts is built once, through the
    memo of this call; the memo is dropped when the call returns.
    """
    state = initial.clone_without_log()
    memo: dict = {}
    expected_seq = 1
    for record in records:
        if record.seq != expected_seq:
            raise GapInSequence(
                f"expected seq {expected_seq}, found {record.seq}")
        expected_seq += 1
        try:
            for fact in record.deltas:
                apply_fact(state, fact, memo)
        except (KeyError, TypeError, ValueError, AttributeError, DomainError) as exc:
            raise SchemaError(f"seq {record.seq}: bad fact: "
                              f"{type(exc).__name__}: {exc}") from exc
        state.clock = record.tick
        state.log.append(record)
    return state
