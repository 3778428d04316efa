"""Engine state: one store per entity kind, serial counters, the logical
clock, and the append-only event log.

Commands mutate state only through a ``Txn``, which copies on write: the
first ``get_mut`` of an entity installs a clone in the store and keeps the
untouched original for rollback, so an entity a committed transaction left
in a store is never mutated again. On success the transaction emits
*facts* — a put carrying each created or changed entity object itself
and its pre-image, plus serial-counter updates — which become the event
record's deltas; on failure it restores every touched entity, so an
errored command contributes zero deltas. A put's JSON exists only in the
log file: a created entity whole, a changed one as the fields that differ
from its pre-image. Replaying the facts alone (no business logic)
reproduces the live state.

Each store but ``notifications`` declares in ``MISSING`` the error it
raises for an id it does not hold: ``EngineState.need`` and ``Txn.get_mut``
raise it, as ``no <noun> <id>``.

A record's ``access`` is interned as an id is: ``decision`` keeps one dict
per decision in the process.

The rule for domain code: mutate an entity only through the object
``Txn.get_mut`` returned (or ``Txn.create`` stored) in the same
transaction. Changing an entity read from a store rewrites the records
that hold it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from json.encoder import encode_basestring_ascii as _str
from sys import intern
from types import MappingProxyType

from . import catalog, invoice, order_shipment, shopping_cart, stock_manager
from .foundation import (_IDS, DomainError, EntityId, Quantity, Record, SchemaError,
                         _undeclared, derive_codec, json_text, parse_written_id)

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
# store name -> the error for an id it does not hold (see ``EngineState.need``)
MISSING = {"catalogs": catalog.UnknownCatalog, "products": catalog.UnknownProduct,
           "customers": catalog.UnknownCustomer, "carts": shopping_cart.UnknownCart,
           "employees": invoice.UnknownEmployee, "invoices": invoice.UnknownInvoice,
           "payments": invoice.UnknownPayment, "orders": order_shipment.UnknownOrder,
           "shipments": order_shipment.UnknownShipment,
           "stock_items": stock_manager.UnknownStockItem,
           "stockrooms": stock_manager.UnknownRoom, "shop_orders": stock_manager.UnknownShopOrder}
# the names a fact read back holds: store name -> (the STORES key, its kind,
# its entity class), and kind -> the KIND_TO_STORE key
_PUTS = {store: (store, kind, entity_class) for store, (kind, entity_class) in STORES.items()}
_KINDS = {kind: kind for kind in KIND_TO_STORE}

# generate every entity's codec now: a field type the codec cannot encode
# fails at import, and no command pays the build cost
for _, entity_class in STORES.values():
    derive_codec(entity_class)

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
_SCAN = json.JSONDecoder().scan_once  # the C scanner raw_decode calls: (value, end) at an index
# what reading a line the engine could not have written raises; StopIteration: no value
_BAD_LINE = (ValueError, KeyError, TypeError, AttributeError, RecursionError, StopIteration,
             DomainError)
ALLOW, DENY = "Allow", "Deny"
# (role, verdict, reason) -> the process's one dict of that decision, and
# id(that dict) -> its text; like ``_IDS``, one entry per decision seen, never dropped
_DECISIONS: dict[tuple, dict] = {}
_ACCESS_TEXT: dict[int, str] = {}


def decision(role, verdict=ALLOW, reason=None) -> dict:
    """The ``access`` of a decision: one dict per process, shared by all the
    records that hold it, live and read back, so never mutate it."""
    access = _DECISIONS.get((role, verdict, reason))
    if access is None:
        access = {"role": role, "verdict": verdict}
        if reason is not None:
            access["reason"] = reason
        _DECISIONS[role, verdict, reason] = access
        _ACCESS_TEXT[id(access)] = json_text(access)
    return access


# reason code -> reason, of a Deny (the text its AccessDenied carries) and
# (None) of a command that did not parse
DENIALS = {None: "not evaluated", "not-owner": "not owner", "no-role": "no role grants operation"}
NOT_EVALUATED = decision(None, None)
DENIED_ACCESS = {code: decision(None, DENY, code) for code in DENIALS if code}
SYSTEM_ALLOW, PERMISSIVE_ALLOW = decision("system"), decision("*")


def _shared_access(access: dict) -> dict:
    """The ``access`` that a decision's records read back share: its
    ``decision``; a form no decision writes is refused."""
    if len(access) == 2 and access.get("verdict") == ALLOW and access.get("role").__class__ is str:
        return decision(access["role"])
    for shared in (NOT_EVALUATED, *DENIED_ACCESS.values()):
        if access == shared:
            return shared
    raise SchemaError(f"access {access!r} is no decision the engine writes")


def _fact_text(fact: dict) -> str:
    if fact["f"] == "put":
        data, old = fact["data"], fact["old"]
        data = (data.changes_json(old) if old is not None else data.to_json()
                if data.__class__ is not dict else STORES[fact["store"]][1].changes_text(data))
        return (f'{{"data":{data},"f":"put","id":{_str(fact["id"])},'
                f'"store":{_str(fact["store"])}}}')
    return f'{{"f":"serial","kind":{_str(fact["kind"])},"value":{fact["value"]}}}'


def _decode_fact(fact, memo: dict) -> dict:
    """The fact read from the log, built as ``Txn.facts`` builds a live one:
    its keys, its ``f``, its store or kind name and its id text are the
    engine's own strings, so the line's copies are freed. A put's data is
    decoded through ``memo`` (see ``derive_codec``): into the entity a put
    holding ``id`` creates, else into the changed fields ``apply_fact``
    merges. A fact the engine could not have written is a ``DomainError``:
    another kind or store, a serial that is not an int for a stored kind, a
    put of an entity with another id or kind, or of a field not declared."""
    kind = fact["f"]
    if kind == "put":
        store, data = fact["store"], fact["data"]
        put = _PUTS.get(store)
        if put is None:
            raise UnknownFactKind(f"no store named {store!r}")
        store, entity_kind, entity_class = put
        text = fact["id"]
        entity_id = text.__class__ is str and _IDS.get(text) or parse_written_id(text)
        if "id" not in data:
            return {"f": "put", "store": store, "id": entity_id._text,
                    "data": entity_class.decode_changes(data, memo), "old": None}
        entity = entity_class.decode(data, memo)
        if entity.id is not entity_id or entity_id.kind != entity_kind:
            raise SchemaError(f"put of {entity_id} to store {store!r} holds entity {entity.id}")
        if len(data) != len(entity_class.__dataclass_fields__):
            _undeclared(data, entity_class.__dataclass_fields__.keys())
        return {"f": "put", "store": store, "id": entity_id._text, "data": entity, "old": None}
    if kind == "serial":
        entity_kind, value = fact["kind"], fact["value"]
        shared = entity_kind.__class__ is str and _KINDS.get(entity_kind)
        if value.__class__ is not int or not shared:
            raise SchemaError(f"serial fact needs an int value for a stored kind: "
                              f"{entity_kind!r}, {value!r}")
        return {"f": "serial", "kind": shared, "value": value}
    raise UnknownFactKind(f"unsupported fact {kind!r}")


@dataclass(slots=True)
class EventRecord:
    """One dispatched command: what was attempted, decided, and changed.

    ``deltas`` is empty for denied, errored, and read-only commands; replay
    applies deltas and nothing else. A put fact's ``data`` is the entity
    itself, live and read back alike.
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
        """The JSON form of the record, each put as its log line writes it."""
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
            "deltas": [json.loads(_fact_text(fact)) if fact["f"] == "put" else fact
                       for fact in self.deltas],
        }

    def to_json_line(self) -> str:
        """The log line: ``to_dict()`` as sorted compact JSON, each put
        written by its entity's ``to_json``, with no dict built."""
        deltas, error, result, access = self.deltas, self.error, self.result, self.access
        return (f'{{"access":{_ACCESS_TEXT.get(id(access)) or json_text(access)},'
                f'"actor":{_str(self.actor._text)},"command":{_str(self.command)},'
                f'"deltas":[{",".join([_fact_text(fact) for fact in deltas]) if deltas else ""}],'
                f'"error":{"null" if error is None else _str(error)},'
                f'"outcome":{_str(self.outcome)},"payload":{json_text(self.payload)},'
                f'"result":{"null" if result is None else json_text(result)},'
                f'"seq":{self.seq},"tick":{self.tick}}}')


def read_records(lines, source) -> list[EventRecord]:
    """The records of log ``lines``, bytes as a binary file yields them, read
    64 at a time (``_read_chunk``), each put decoded through one memo for this
    read (see ``derive_codec``). A line is accepted only as ``write_log``
    writes it: one record of ASCII JSON, then a newline; empty lines are
    skipped. A line its chunk cannot read, and the rest of the chunk, are read
    one at a time, so a fault is the ``SchemaError`` that reading its line
    alone gives, naming ``source`` and the line."""
    records, memo, read, last = [], {}, 0, b"\n"
    lines = iter(lines)
    while chunk := list(islice(lines, 64)):
        done = _read_chunk(chunk, records, memo) if len(chunk) > 1 else 0
        for number, line in enumerate(chunk[done:], read + done + 1):
            try:
                _read_chunk([line], records, memo)
            except _BAD_LINE as exc:
                raise SchemaError(f"{source}:{number}: bad event record: "
                                  f"{type(exc).__name__}: {exc}") from None
        read, last = read + len(chunk), chunk[-1]
    if last[-1:] != b"\n":
        raise SchemaError(f"{source}:{read}: bad event record: no newline at its end")
    return records


def _read_chunk(chunk: list, records: list, memo: dict) -> int:
    """Append the record of each line of ``chunk`` to ``records``, and return
    how many lines were read. The chunk is decoded from ASCII once, and the C
    scanner reads each line's object in place, which must end at the line's
    newline (or, on a last line with none, at its end). Reading stops at the
    first line that is not such a record; a chunk of one line raises its
    fault, as ``raw_decode`` of the line would."""
    single, newline = len(chunk) == 1, chunk[-1][-1:] == b"\n"
    try:
        text = b"".join(chunk).decode("ascii")
    except UnicodeDecodeError:
        if single:
            raise
        return 0
    end_of_line = 0
    for index, line in enumerate(chunk):
        start = end_of_line
        end_of_line += len(line)
        if line == b"\n":
            continue
        try:
            data, end = _SCAN(text, start)
            if end != end_of_line - newline:
                raise SchemaError(f"text after the record at column {end - start + 1}")
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
            if outcome not in ("ok", "error", "denied"):
                raise SchemaError(f"record outcome {outcome!r} is none of ok, error, denied")
            access = _shared_access(access)
            if deltas:
                for number, fact in enumerate(deltas):
                    deltas[number] = _decode_fact(fact, memo)
            actor = data["actor"]
            records.append(EventRecord(
                seq, tick, actor.__class__ is str and _IDS.get(actor) or parse_written_id(actor),
                intern(command), payload, access, intern(outcome), error and intern(error),
                data["result"], deltas))
        except _BAD_LINE as exc:
            if not single:
                return index
            if exc.__class__ is StopIteration:
                raise json.JSONDecodeError("Expecting value", text, exc.value) from None
            raise
    return len(chunk)


@dataclass
class EngineState:
    stores: dict = field(default_factory=lambda: {name: {} for name in STORES})
    serials: dict = field(default_factory=dict)
    clock: int = 0
    log: list = field(default_factory=list)

    def need(self, store: str, entity_id: EntityId):
        """The entity of ``store`` with ``entity_id``, else that store's ``MISSING`` error."""
        entity = self.stores[store].get(entity_id)
        if entity is None:
            raise _missing(store, entity_id)
        return entity

    def clone_without_log(self) -> EngineState:
        """A copy whose stores can change without touching these: the
        store dicts are copied, the entities shared, since a committed
        entity is never mutated."""
        return EngineState(stores={name: dict(store) for name, store in self.stores.items()},
                           serials=dict(self.serials), clock=self.clock)

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


def _missing(store: str, entity_id: EntityId) -> DomainError:
    return MISSING[store](f"no {store[:-1].replace('_', ' ')} {entity_id._text}")


_UNWRITTEN = MappingProxyType({})  # a Txn's bookkeeping until its first write


class Txn:
    """Mutation scope of one command; see the module docstring. ``_originals``
    maps each touched ``(store, id)``, in first-touch order, to its pre-image
    (the entity the store held before the first ``get_mut``), or to None for
    an entity this transaction created."""

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

    def get_mut(self, store: str, entity_id: EntityId):
        """The entity to mutate: on its first touch in this transaction, a
        clone that replaces it in the store, the original kept for rollback;
        the store's ``MISSING`` error for an id it does not hold."""
        entities = self.state.stores[store]
        entity = entities.get(entity_id)
        if entity is None:
            raise _missing(store, entity_id)
        key = (store, entity_id)
        if key not in self._originals:
            if self._originals is _UNWRITTEN:
                self._originals = {}
            self._originals[key] = entity
            entity = entities[entity_id] = entity.clone()
        return entity

    def rollback(self) -> None:
        if self._originals is self._serials_before:  # both _UNWRITTEN: nothing to undo
            return
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
        deltas, before, originals = [], self._serials_before, self._originals
        if before is not _UNWRITTEN:
            serials = self.state.serials
            for kind in sorted(before):
                deltas.append({"f": "serial", "kind": kind, "value": serials[kind]})
        if originals is not _UNWRITTEN:
            stores = self.state.stores
            for (store, entity_id), old in originals.items():
                deltas.append({"f": "put", "store": store, "id": entity_id._text,
                               "data": stores[store][entity_id], "old": old})
        return deltas


def apply_fact(state: EngineState, fact: dict) -> None:
    """Replay one delta, in its in-memory form (``_decode_fact`` checked it
    when it was read): install the put's entity, or set the serial. A
    mechanical write, no business logic. A put read as changed fields becomes
    a live put: its entity merged into the pre-image, which it keeps. A put
    that creates a stored entity, or changes one not stored, is refused."""
    kind = fact.get("f")
    if kind == "put":
        store = state.stores.get(fact["store"])
        if store is None:
            raise UnknownFactKind(f"no store named {fact['store']!r}")
        entity, old = fact["data"], fact["old"]
        if entity.__class__ is dict:
            text = fact["id"]
            old = fact["old"] = store.get(_IDS.get(text) or EntityId.parse(text))
            if old is None:
                raise SchemaError(f"put changes {fact['id']}, which is not stored")
            entity = fact["data"] = old.merge(old, entity)
        elif (entity.id in store) is (old is None):
            raise SchemaError(f"put {'creates stored' if old is None else 'changes unstored'} "
                              f"{fact['id']}")
        store[entity.id] = entity
    elif kind == "serial":
        state.serials[fact["kind"]] = fact["value"]
    else:
        raise UnknownFactKind(f"unsupported fact {kind!r}")


def replay(initial: EngineState, records: list[EventRecord]) -> EngineState:
    """Rebuild state by applying each record's deltas onto the initial state.

    The initial state is the seeded baseline; the result carries the
    replayed records as its log so it compares whole against a live state.
    The entities are the records' own: replay copies store dicts, no entity.
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
