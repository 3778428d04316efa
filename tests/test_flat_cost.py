"""Per-command cost stays flat as state grows: the commands of a purchase
session read derived values from the entities that own them instead of
walking whole stores; a commit builds no snapshot and clones only what it
changes; an id text is parsed once however often it recurs, a read of
the log builds each distinct frozen value once, a clean invariant check
builds no ``Money``, and a command's envelope is one generated frame,
compiled once per process. Deterministic: it counts walks, calls, parses,
constructions and compilations, not time."""

import json
import sys
from collections import Counter

from helpers import bench_engines
from storefront import SYSTEM, Engine, default_matrix, foundation, invariants, permissive_matrix
from storefront import commands as commands_module
from storefront.catalog import ProductInfo
from storefront.engine import read_log
from storefront.foundation import AccessDenied, DomainError, EntityId, Money
from storefront.invoice import InvoiceItem
from storefront.order_shipment import ShippedItem
from storefront.shopping_cart import CartItem
from storefront.state import _UNWRITTEN, STORES
from storefront.stock_manager import UnknownRoom

SESSIONS = 200
PRODUCTS = 8  # the last one is a service: no stock item
WATCHED = ("payments", "shipments", "stock_items")
# the frozen records whose clone returns the record itself
FROZEN = (Money, CartItem, InvoiceItem, ShippedItem, ProductInfo)
STORE_OF = {cls: store for store, (_, cls) in STORES.items()}


class CountingStore(dict):
    """A store that counts every walk over all of its entries."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def keys(self):
        self.walks += 1
        return super().keys()

    def values(self):
        self.walks += 1
        return super().values()

    def items(self):
        self.walks += 1
        return super().items()


def shop_engine() -> tuple[Engine, list[str]]:
    engine = Engine(rbac_matrix=permissive_matrix())
    engine.seed_catalog([{"name": f"P{i}", "price": 100 + 37 * i}
                         for i in range(PRODUCTS)])
    engine.seed_stock([{"item": f"P{i}", "kind": "Product",
                        "rooms": {"Main": 100_000, "Annex": 100_000}}
                       for i in range(PRODUCTS - 1)])
    products = {p.name: str(pid) for pid, p in engine.state.stores["products"].items()}
    return engine, [products[f"P{i}"] for i in range(PRODUCTS)]


def run_sessions(engine: Engine, products: list[str], run) -> None:
    """Drive SESSIONS purchase sessions through ``run(actor, command, **args)``,
    which dispatches one command and returns its result."""
    clerk = run(SYSTEM, "create_employee", name="Sid")["employee"]
    validator = run(SYSTEM, "create_employee", name="Vik")["employee"]
    for number in range(SESSIONS):
        customer = run(SYSTEM, "create_customer", name=f"c{number}",
                       loyalty_member=False, roles=["Shopper"])["customer"]
        run(customer, "subscribe", customer=customer,
            product=products[number % PRODUCTS])
        cart = run(customer, "create_cart", customer=customer)["cart"]
        lines = [(products[(number + k) % PRODUCTS], 1 + k) for k in range(1 + number % 3)]
        for product, qty in lines:
            run(customer, "add_item", cart=cart, product=product, qty=qty)
        checkout = run(customer, "checkout", cart=cart)
        invoice, order = checkout["invoice"], checkout["order"]
        run(validator, "validate_invoice", validator=validator, invoice=invoice,
            rules=["nonempty-items"])
        total = engine.query("invoice_total", invoice=invoice)["amount"]
        for amount in (total // 2, total - total // 2):
            payment = run(customer, "record_payment", customer=customer,
                          invoice=invoice, amount=amount, method="Card")["payment"]
            run(validator, "validate_payment", validator=validator, payment=payment,
                rules=["amount-positive"])
        # a partial shipment of the first line, then the rest
        first_product, first_qty = lines[0]
        shipments = [[{"product": first_product, "qty": 1}]]
        rest = [{"product": p, "qty": q} for p, q in lines[1:]]
        if first_qty > 1:
            rest.append({"product": first_product, "qty": first_qty - 1})
        if rest:
            shipments.append(rest)
        for items in shipments:
            shipment = run(clerk, "create_shipment", order=order, receiver=customer,
                           items=items)["shipment"]
            run(customer, "record_receipt", shipment=shipment, receiver=customer)
        assert engine.query("invoice_state", invoice=invoice) == "Paid"
        assert engine.query("order_state", order=order) == "Shipped"


def test_session_commands_walk_no_growing_store():
    engine, products = shop_engine()
    engine.baseline()  # the seeded state replays start from; watch the live stores
    for store in WATCHED:
        engine.state.stores[store] = CountingStore(engine.state.stores[store])

    def total_walks():
        return sum(engine.state.stores[store].walks for store in WATCHED)

    walks = Counter()
    subscribe_records = []

    def run(actor, command, **args):
        before = total_walks()
        record = engine.dispatch(actor, command, args)
        walks[command] += total_walks() - before
        if command == "subscribe":
            subscribe_records.append(record)
        return record.result

    run_sessions(engine, products, run)

    assert walks["validate_payment"] == 0
    assert walks["create_shipment"] == 0
    assert walks["subscribe"] == 0
    assert len(subscribe_records) == SESSIONS
    for record in subscribe_records:
        assert [(fact["f"], fact["store"]) for fact in record.deltas] == [("put", "products")]

    # the counting stores are live: the invariant oracle walks them
    before = total_walks()
    assert engine.check_invariants().ok()
    assert total_walks() > before
    assert engine.replayed_state().to_dict() == engine.state.to_dict()


def test_replay_parses_each_id_text_once(tmp_path, monkeypatch):
    engine, products = shop_engine()
    run_sessions(engine, products,
                 lambda actor, command, **args: engine.dispatch(actor, command, args).result)
    path = tmp_path / "events.jsonl"
    engine.write_log(path)

    # replay in a process that has seen no id yet
    monkeypatch.setattr(foundation, "_IDS", {})
    slow = Counter()
    parse_new = foundation._parse_new
    monkeypatch.setattr(foundation, "_parse_new",
                        lambda text: slow.update([text]) or parse_new(text))
    records = read_log(path)
    replayed = engine.replayed_state(records)

    assert replayed.to_dict() == engine.state.to_dict()
    assert max(slow.values()) == 1


def test_replay_builds_each_frozen_value_once(tmp_path, monkeypatch):
    engine, products = shop_engine()
    # every later put of the product repeats its info
    engine.dispatch(SYSTEM, "set_product_info", {"product": products[0], "description": "P0"})
    run_sessions(engine, products,
                 lambda actor, command, **args: engine.dispatch(actor, command, args).result)
    path = tmp_path / "events.jsonl"
    engine.write_log(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]

    built = Counter()
    for cls in FROZEN:
        assert foundation._SHARED[cls], cls  # its clone returns the record itself

        def counting_init(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            built[self] += 1
        monkeypatch.setattr(cls, "__init__", counting_init)

    # decoded one put at a time, with nothing shared between puts
    for line in lines:
        for fact in line["deltas"]:
            if fact["f"] == "put":  # a created entity, or its changed fields
                entity_class = STORES[fact["store"]][1]
                if "id" in fact["data"]:
                    entity_class.from_dict(fact["data"])
                else:
                    entity_class.decode_changes(fact["data"], {})
    one_by_one = sum(built.values())
    built.clear()

    # reading the log decodes its puts, through one memo
    records = read_log(path)
    first = Counter(built)
    assert {type(value) for value in first} == set(FROZEN)
    assert max(first.values()) == 1
    assert sum(first.values()) < one_by_one / 2  # the log repeats its values
    built.clear()
    assert engine.replayed_state(records).to_dict() == engine.state.to_dict()
    assert built == Counter()  # replay installs the entities read, and builds none

    # the memo does not outlive a read: the next one builds each value again
    read_log(path)
    assert built == first


def test_the_envelope_runs_no_python_frame_for_ids_errors_or_bookkeeping():
    """Three transfers, one rejected by the operation, one denied and one
    accepted, profiled call by call: ids hash and compare in C, a raised
    error runs no Python ``__init__``, and a Txn allocates its bookkeeping
    only when the command writes."""
    engine = Engine(rbac_matrix=default_matrix())
    engine.seed_stock([{"item": "bolt", "kind": "Component", "rooms": {"Main": 5, "Annex": 1}}])
    manager = engine.execute(SYSTEM, "create_employee", name="M", roles=["StockManager"])
    clerk = engine.execute(SYSTEM, "create_employee", name="C", roles=["ShippingClerk"])
    item, = engine.state.stores["stock_items"]
    main, annex = sorted(engine.state.stores["stockrooms"])
    missing = EntityId("stockroom", 99)  # built now, not while profiled
    commands = [(manager["employee"], main, missing, UnknownRoom),
                (clerk["employee"], main, annex, AccessDenied),
                (manager["employee"], main, annex, None)]
    for actor, source, target, error in commands:
        frames = []

        def profile(frame, event, arg):
            if event == "call":
                frames.append((frame.f_code.co_qualname, frame.f_locals.get("self")))
        args = {"item": item, "qty": 1, "from_room": source, "to_room": target}
        sys.setprofile(profile)
        try:
            engine.dispatch(actor, "transfer", args)
        except (UnknownRoom, AccessDenied) as exc:
            raised = exc
        else:
            raised = None
        finally:
            sys.setprofile(None)
        assert type(raised) is error if error else raised is None
        names = [name for name, _ in frames]
        assert not [name for name in names if name.startswith("EntityId.")
                    and name.split(".")[1] in ("__hash__", "__eq__", "__ne__")], names
        assert not [name for name, owner in frames if name.endswith("__init__")
                    and isinstance(owner, DomainError)], names
        txns = [owner for name, owner in frames if name == "Txn.__init__"]
        if error is AccessDenied:
            assert txns == []
        elif error is UnknownRoom:
            txn, = txns
            assert txn._originals is _UNWRITTEN and txn._serials_before is _UNWRITTEN
            assert "Txn.rollback" in names
        else:
            txn, = txns
            assert list(txn._originals) == [("stock_items", item)]
            assert txn._serials_before is _UNWRITTEN


def _profiled(engine, actor, command, args):
    """Dispatch one command under ``sys.setprofile``; its record, and the
    (code name, ``self``) of every Python call it made."""
    frames = []

    def profile(frame, event, arg):
        if event == "call":
            frames.append((frame.f_code.co_name, frame.f_locals.get("self")))
    sys.setprofile(profile)
    try:
        record = engine.dispatch(actor, command, args)
    finally:
        sys.setprofile(None)
    return record, frames


def test_a_commit_builds_no_snapshot_and_clones_each_changed_entity_once():
    """A put carries the committed entity itself: a successful command
    calls no entity's ``to_dict``, and clones each entity that existed
    before it and that it changed exactly once, when it first touches it."""
    engine, products = shop_engine()
    entity_classes = tuple(cls for _, cls in STORES.values())
    validator = engine.execute(SYSTEM, "create_employee", name="Vik")["employee"]
    customer = engine.execute(SYSTEM, "create_customer", name="c", loyalty_member=False,
                              roles=["Shopper"])["customer"]
    cart = engine.execute(customer, "create_cart", customer=customer)["cart"]
    for product in products[:4]:  # four products with a stock item each
        engine.execute(customer, "add_item", cart=cart, product=product, qty=2)
    checkout = engine.execute(customer, "checkout", cart=cart)
    engine.execute(validator, "validate_invoice", validator=validator,
                   invoice=checkout["invoice"], rules=["nonempty-items"])
    payment = engine.execute(customer, "record_payment", customer=customer,
                             invoice=checkout["invoice"], amount=1, method="Card")["payment"]
    commands = [
        (validator, "validate_payment", {"validator": validator, "payment": payment,
                                         "rules": ["amount-positive"]},
         [("payments", payment), ("invoices", checkout["invoice"])]),
        (SYSTEM, "create_shipment", {"order": checkout["order"], "receiver": customer,
                                     "items": [{"product": p, "qty": 1} for p in products[:4]]},
         [("stock_items", str(engine.state.stores["products"][EntityId.parse(p)].stock_item))
          for p in products[:4]] + [("orders", checkout["order"])]),
    ]
    for actor, command, args, changed in commands:
        before = {store: dict(entities) for store, entities in engine.state.stores.items()}
        record, frames = _profiled(engine, actor, command, args)
        assert record.outcome == "ok"
        # no to_dict call: none builds a snapshot of an entity, and the
        # payload of the shipped items is built in their input names
        encoded = [owner for name, owner in frames if name == "to_dict"]
        assert encoded == [], command
        cloned = [owner for name, owner in frames
                  if name == "clone" and isinstance(owner, entity_classes)]
        assert len(cloned) == len(changed), command
        assert [id(entity) for entity in cloned] == [
            id(before[store][EntityId.parse(entity_id)]) for store, entity_id in changed]
        puts = [fact for fact in record.deltas if fact["f"] == "put"]
        for fact in puts:
            assert fact["data"] is engine.state.stores[fact["store"]][fact["data"].id]
        # the originals stay as they were: the baseline and older records hold them
        for entity in cloned:
            assert before[STORE_OF[type(entity)]][entity.id] is entity
            assert engine.state.stores[STORE_OF[type(entity)]][entity.id] is not entity
    assert len(puts) == 7


def test_an_untampered_check_builds_no_money_and_keys_no_lines(monkeypatch):
    """The invariant checker sums in minor units and compares line lists
    before it keys them: on a clean state it builds no ``Money`` and calls
    ``_item_keys`` never."""
    engine = bench_engines()[0]  # shop-mix
    stores = engine.state.stores
    assert stores["invoices"] and stores["payments"] and stores["shipments"]
    counts = Counter()

    def counting_init(self, *args, _init=Money.__init__, **kwargs):
        _init(self, *args, **kwargs)
        counts["Money"] += 1

    def counting_keys(items, _keys=invariants._item_keys):
        counts["_item_keys"] += 1
        return _keys(items)

    monkeypatch.setattr(Money, "__init__", counting_init)
    monkeypatch.setattr(invariants, "_item_keys", counting_keys)
    Money(1, "USD")  # the wrappers count
    invariants._item_keys([])
    assert counts == {"Money": 1, "_item_keys": 1}
    counts.clear()
    assert engine.check_invariants().ok()
    assert counts == Counter()


def stock_commands(engine: Engine) -> list[tuple]:
    """Seed ``engine`` for the fixed stock sequence and return it as
    ``(actor, command, args)``: an accepted, a rejected and a denied
    ``transfer``, an ``add_to_stock``, and a ``remove_from_stock`` whose
    negative quantity fails to parse."""
    engine.seed_stock([{"item": "bolt", "kind": "Component", "rooms": {"Main": 5, "Annex": 1}}])
    manager = engine.execute(SYSTEM, "create_employee", name="M", roles=["StockManager"])
    clerk = engine.execute(SYSTEM, "create_employee", name="C", roles=["ShippingClerk"])
    manager, clerk = manager["employee"], clerk["employee"]
    item, = (str(item) for item in engine.state.stores["stock_items"])
    main, annex = (str(room) for room in sorted(engine.state.stores["stockrooms"]))
    return [(manager, "transfer", {"item": item, "qty": 1, "from_room": main, "to_room": annex}),
            (manager, "transfer", {"item": item, "qty": 1, "from_room": main,
                                   "to_room": "stockroom:99"}),
            (clerk, "transfer", {"item": item, "qty": 1, "from_room": main, "to_room": annex}),
            (manager, "add_to_stock", {"item": item, "qty": 3}),
            (manager, "remove_from_stock", {"item": item, "qty": -1})]


def dispatch_all(engine: Engine, commands: list[tuple]) -> list[str]:
    outcomes = []
    for actor, command, args in commands:
        try:
            engine.dispatch(actor, command, args)
        except DomainError:
            pass
        outcomes.append(engine.state.log[-1].outcome)
    return outcomes


def test_a_stock_command_makes_at_most_twelve_python_calls():
    """Each command's envelope is one generated frame around the domain
    call: parse, access check, transaction and record make no Python call
    but ``dispatch``, the envelope, ``Txn``'s and ``EventRecord``'s."""
    engine = Engine(rbac_matrix=default_matrix())
    commands = stock_commands(engine)
    # the first run compiles each envelope and each right's grants
    assert dispatch_all(engine, commands) == ["ok", "error", "denied", "ok", "error"]
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_qualname] += 1
    for command in commands:
        sys.setprofile(profile)
        try:
            dispatch_all(engine, [command])
        finally:
            sys.setprofile(None)
    calls.pop("dispatch_all")
    assert [record.outcome for record in engine.state.log[-5:]] == [
        "ok", "error", "denied", "ok", "error"]
    assert engine.state.log[-1].error == "NegativeQuantity"
    assert calls["Engine.dispatch"] == calls["envelope"] == len(commands)
    assert sum(calls.values()) / len(commands) <= 12, calls


def test_a_second_engine_or_matrix_compiles_no_envelope(monkeypatch):
    engine = Engine(rbac_matrix=default_matrix())
    dispatch_all(engine, stock_commands(engine))
    compiled = []
    run_generated = commands_module.run_generated
    monkeypatch.setattr(commands_module, "run_generated", lambda source, filename, names: (
        compiled.append(filename), run_generated(source, filename, names)))
    second = Engine(rbac_matrix=default_matrix())
    commands = stock_commands(second)
    assert dispatch_all(second, commands) == ["ok", "error", "denied", "ok", "error"]
    second.rbac = default_matrix()
    assert dispatch_all(second, commands) == ["ok", "error", "denied", "ok", "error"]
    assert compiled == []
