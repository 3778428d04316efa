"""Per-command cost stays flat as state grows: the commands of a purchase
session read derived values from the entities that own them instead of
walking whole stores; a commit builds no snapshot and clones only what it
changes; an id text is parsed once however often it recurs, a read of
the log builds each distinct frozen value once and shares each decision's
access, writing or reading a log holds about one line at a time beyond
the records, a clean invariant check builds no ``Money``, a command's
envelope is one generated frame, compiled once per process, and the CLI
builds what it reads from the scenario, the access config, the policy
config and the seeds once per content of those files. Deterministic: it
counts walks, calls, parses, constructions, compilations and traced
bytes, not time."""

import contextlib
import io
import json
import sys
import tracemalloc
from collections import Counter

import pytest

from conftest import fresh_engine
from helpers import bench_engines
from storefront import (SYSTEM, Engine, bundled, cli, default_matrix, foundation, invariants,
                        load_scenario, parse_scenario, permissive_matrix, rbac, run_scenario)
from storefront import commands as commands_module
from storefront import scenario as scenario_module
from storefront.catalog import ProductInfo
from storefront.engine import read_log
from storefront.foundation import AccessDenied, DomainError, EntityId, Money
from storefront.invoice import InvoiceItem, RuleBook
from storefront.order_shipment import ShippedItem
from storefront.shopping_cart import CartItem
from storefront.state import _UNWRITTEN, KIND_TO_STORE, NOT_EVALUATED, STORES
from storefront.stock_manager import UnknownRoom
from test_every_command import STEPS

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


# command -> the stores it walks, of all 33 dispatched by ``test_every_command.STEPS``.
# ROADMAP item 2 plans name indexes for the first two, which scan every room or
# item for a duplicate name (``stock_manager.create_stockroom``, ``create_stock_item``).
# ``search`` filters every product of every catalog (``catalog.search``), and
# ``add_to_stock`` with no allocation finds the lowest-id room (``first-room``)
# or sorts every room (``round-robin``).
STORE_WALKERS = {"create_stockroom": {"stockrooms"}, "create_stock_item": {"stock_items"},
                 "search": {"products"}, "add_to_stock": {"stockrooms"}}


@pytest.mark.parametrize("add_policy", ["first-room", "round-robin"])
def test_every_command_walks_only_the_stores_it_is_known_to_walk(add_policy):
    engine = fresh_engine(add_policy=add_policy)
    engine.baseline()  # the seeded state replays start from; watch the live stores
    stores = engine.state.stores
    for name in stores:
        stores[name] = CountingStore(stores[name])
    walked = {}
    for command, args in STEPS:
        before = {name: store.walks for name, store in stores.items()}
        assert engine.dispatch(SYSTEM, command, args).outcome == "ok", command
        walked.setdefault(command, set()).update(
            name for name, store in stores.items() if store.walks != before[name])
    assert len(walked) == len(commands_module.COMMANDS)
    assert {command: names for command, names in walked.items() if names} == STORE_WALKERS


def test_replay_parses_each_id_text_once(tmp_path, monkeypatch):
    engine, products = shop_engine()
    run_sessions(engine, products,
                 lambda actor, command, **args: engine.dispatch(actor, command, args).result)
    path = tmp_path / "events.jsonl"
    engine.write_log(path)

    # replay in a process that has seen no id yet: the table is emptied in
    # place, since the reader looks ids up in it by its own name
    ids = foundation._IDS
    seen = dict(ids)
    ids.clear()
    slow = Counter()
    parse_new = foundation._parse_new
    monkeypatch.setattr(foundation, "_parse_new",
                        lambda text: slow.update([text]) or parse_new(text))
    try:
        records = read_log(path)
        replayed = engine.replayed_state(records)
    finally:
        ids.update(seen)

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


def _traced(run):
    """What ``run()`` returns, and by how many bytes the traced allocations
    grew while it ran: at their peak, and kept once it returned."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value = run()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return value, peak - base, kept - base


@pytest.fixture(scope="module")
def stock_churn_log(tmp_path_factory):
    """The engine of a short stock-churn run of over 4,000 records, and its
    log written and read once, so that ids are parsed and codecs built."""
    _, engine = bench_engines(scale=0.6)
    assert len(engine.state.log) > 4000
    path = tmp_path_factory.mktemp("stock-churn") / "events.jsonl"
    engine.write_log(path)
    read_log(path)
    return engine, path


def test_writing_a_log_holds_no_more_memory_as_the_log_grows(stock_churn_log, tmp_path):
    engine, path = stock_churn_log[0], tmp_path / "events.jsonl"
    log, peaks = engine.state.log, []
    try:
        for records in (250, 4000):
            engine.state.log = log[:records]
            peaks.append(_traced(lambda: engine.write_log(path))[1])
    finally:
        engine.state.log = log
    assert peaks[1] - peaks[0] < 64 * 1024, peaks


def test_reading_a_log_holds_little_more_than_the_records_it_keeps(stock_churn_log):
    engine, path = stock_churn_log
    records, peak, kept = _traced(lambda: read_log(path))
    assert len(records) == len(engine.state.log)
    assert peak <= 1.1 * kept, (peak, kept)


def test_the_facts_read_back_hold_the_engines_own_strings(stock_churn_log, tmp_path):
    """A fact read back is built as ``Txn.facts`` builds a live one: its keys
    are interned, its store and kind are the names that key ``STORES`` and
    ``KIND_TO_STORE``, and its id is the text of the id itself. So the read
    facts reach no more distinct strings than there are ids and names."""
    stores, kinds = {name: name for name in STORES}, {kind: kind for kind in KIND_TO_STORE}
    bench_engines()[0].write_log(tmp_path / "events.jsonl")  # shop-mix
    for path in (stock_churn_log[1], tmp_path / "events.jsonl"):
        names, ids = {}, set()
        for record in read_log(path):
            for fact in record.deltas:
                assert all(key is sys.intern(key) for key in fact), fact
                assert fact["f"] is sys.intern(fact["f"])
                if fact["f"] == "put":
                    assert fact["store"] is stores[fact["store"]]
                    assert fact["id"] is EntityId.parse(fact["id"])._text
                    ids.add(fact["id"])
                    values = fact["store"], fact["id"]
                else:
                    assert fact["kind"] is kinds[fact["kind"]]
                    values = (fact["kind"],)
                names.update((id(value), value) for value in values)
        assert ids and len(names) <= len(ids) + len(stores) + len(kinds)


def test_the_records_read_of_one_decision_share_its_access_and_names(tmp_path):
    denials = fresh_engine(rbac=default_matrix())
    run_scenario(denials, load_scenario(bundled.scenario_dir() / "rbac-denials.json"))
    for _ in range(2):  # two records of a command that did not parse
        with pytest.raises(DomainError):
            denials.dispatch(SYSTEM, "no_such_command", {})
    ungranted = {id(NOT_EVALUATED), id(rbac.NOT_OWNER), id(rbac.NO_ROLE)}
    verdicts = set()
    for engine in [denials, *bench_engines()]:
        engine.write_log(tmp_path / "events.jsonl")
        shared = {}
        for record in read_log(tmp_path / "events.jsonl"):
            access = record.access
            assert shared.setdefault(tuple(sorted(access.items())), access) is access
            assert (id(access) in ungranted) is (access["verdict"] != "Allow")
            for name in (record.command, record.outcome, record.error or ""):
                assert name is sys.intern(name)
        verdicts.update(access["verdict"] for access in shared.values())
    assert verdicts == {"Allow", "Deny", None}


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


def _count_calls(monkeypatch, calls: Counter, owner, name: str, wrap=lambda f: f):
    """Count in ``calls`` each call of ``owner.name`` until the test ends."""
    original = getattr(owner, name)

    def call(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrap(call))


def test_a_second_run_and_its_verify_build_nothing_from_their_input_files(tmp_path, monkeypatch):
    """Once the scenario, the access matrix, the rule book and the seeded
    baseline are built from their files' content, another run and a verify
    build none of them, and the run writes the same bytes; a scenario or a
    seed file rewritten in place is read again by its content, and a
    scenario that fails to parse is never kept."""
    scenario = tmp_path / "cart-checkout.json"
    scenario.write_bytes((bundled.scenario_dir() / "cart-checkout.json").read_bytes())
    catalog, stock = tmp_path / "catalog.json", tmp_path / "stock.json"
    catalog.write_bytes(bundled.catalog_seed().read_bytes())
    stock.write_bytes(bundled.stock_seed().read_bytes())
    out = tmp_path / "out"
    seeds = ["--seed-catalog", str(catalog), "--seed-stock", str(stock)]
    run = ["run", str(scenario), "--rbac", str(bundled.rbac_config()),
           "--policies", str(bundled.policies_config()), *seeds, "--out", str(out)]

    def main(argv, code=0):
        """The stdout of ``argv`` and the events.jsonl and report.json it wrote."""
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(argv) == code
        return (stdout.getvalue(), *((out / name).read_bytes()
                                     for name in ("events.jsonl", "report.json")))
    first = main(run)

    calls = Counter()
    _count_calls(monkeypatch, calls, scenario_module, "parse_scenario")
    _count_calls(monkeypatch, calls, cli, "load_rbac_config")
    _count_calls(monkeypatch, calls, rbac, "load_rbac_config")
    _count_calls(monkeypatch, calls, RuleBook, "from_config",
                 lambda f: classmethod(lambda cls, data: f(data)))
    _count_calls(monkeypatch, calls, Engine, "seed_catalog")
    _count_calls(monkeypatch, calls, Engine, "seed_stock")
    assert main(run) == first
    main(["verify", str(out / "events.jsonl"), *seeds])
    assert calls == Counter()

    scenario.write_text(json.dumps(json.loads(scenario.read_text()), indent=1))
    assert main(run) == first
    assert calls == Counter(parse_scenario=1)

    nameless = [tmp_path / "nameless.json", tmp_path / "copy" / "nameless.json"]
    nameless[1].parent.mkdir()
    for path in nameless:
        path.write_text(json.dumps({"name": "", "commands": []}))
    for path in [*nameless, nameless[0]]:
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            assert cli.main(["run", str(path), "--out", str(out)]) == 2
        assert stderr.getvalue() == f"error: {path}: scenario needs a name\n"
    assert calls == Counter(parse_scenario=4)
    calls.clear()

    entries = json.loads(catalog.read_text())
    assert entries[0]["name"] == "WidgetA"
    entries[0]["price"] += 1
    catalog.write_text(json.dumps(entries))
    changed = main(run, code=1)[1]  # the scenario expects the old price
    assert calls == Counter(seed_catalog=1, seed_stock=1)
    engine = Engine(rbac_matrix=default_matrix())
    engine.seed_catalog(entries)
    engine.seed_stock(json.loads(stock.read_text()))
    assert not run_scenario(engine, load_scenario(scenario)).ok
    engine.write_log(tmp_path / "expected.jsonl")
    assert changed == (tmp_path / "expected.jsonl").read_bytes() != first[1]


def test_a_second_pass_over_the_bundled_scenarios_builds_nothing(tmp_path, monkeypatch):
    """The memo holds the 13 bundled scenarios beside the access matrix and
    the seeded baseline, so a second pass over them in one process builds
    none of them: under the least-recently-used rule, a cycle through more
    values than the memo holds would find none. No run changes the scenario
    it shares: each memoized one equals a fresh parse of its file."""
    calls = Counter()
    _count_calls(monkeypatch, calls, scenario_module, "parse_scenario")
    _count_calls(monkeypatch, calls, cli, "load_rbac_config")
    _count_calls(monkeypatch, calls, Engine, "seed_catalog")
    _count_calls(monkeypatch, calls, Engine, "seed_stock")
    paths = bundled.scenario_files()
    for _ in range(2):
        calls.clear()
        for path in paths:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["run", str(path), "--rbac", str(bundled.rbac_config()),
                                 "--out", str(tmp_path / path.stem)]) == 0
    assert calls == Counter()
    for path in paths:
        fresh = parse_scenario(json.loads(path.read_text(encoding="utf-8")), source=str(path))
        assert load_scenario(path) == fresh, path.stem
    assert calls == Counter()
