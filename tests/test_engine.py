"""Dispatch mechanics, the event log, the replay oracle, and the
invariant checker."""

import ast
import dataclasses
import json
import random
from pathlib import Path

import pytest

import log_read_oracle
from helpers import (
    assert_no_record_rewritten,
    assert_plain_json,
    bench_engines,
    catalog_id,
    new_customer,
    new_employee,
    product_id,
    stock_item_id,
    validated_invoice,
)
from storefront import (
    SYSTEM,
    AccessDenied,
    DomainError,
    EntityId,
    SchemaError,
    bundled,
    load_scenario,
    read_log,
    replay,
    run_scenario,
)
from storefront.commands import COMMANDS
from storefront.rbac import default_matrix
from storefront.state import GapInSequence, UnknownFactKind, apply_fact

from conftest import fresh_engine


def test_ok_dispatch_appends_record_with_deltas(rbac_eng):
    ana = new_customer(rbac_eng, name="Ana")
    cart = rbac_eng.execute(ana, "create_cart", customer=ana)["cart"]
    record = rbac_eng.dispatch(ana, "add_item",
                               {"cart": cart,
                                "product": product_id(rbac_eng, "WidgetA"),
                                "qty": 1})
    assert record.outcome == "ok"
    stores_touched = {f["store"] for f in record.deltas if f["f"] == "put"}
    assert stores_touched == {"carts"}
    live = rbac_eng.state.to_dict()
    assert rbac_eng.replayed_state().to_dict() == live


def test_denied_dispatch_is_audited_and_stateless(rbac_eng):
    rok = new_employee(rbac_eng, name="Rok", roles=["StockManager"])
    ana = new_customer(rbac_eng, name="Ana")
    cart = rbac_eng.execute(ana, "create_cart", customer=ana)["cart"]
    before = rbac_eng.state.to_dict()
    with pytest.raises(AccessDenied):
        rbac_eng.execute(rok, "checkout", cart=cart)
    record = rbac_eng.state.log[-1]
    assert record.outcome == "denied"
    assert record.deltas == []
    after = rbac_eng.state.to_dict()
    before.pop("clock"), after.pop("clock")
    assert after == before
    assert rbac_eng.replayed_state().to_dict() == rbac_eng.state.to_dict()


def test_malformed_args_leave_audit_record_only(eng):
    before_len = len(eng.state.log)
    with pytest.raises(SchemaError):
        eng.execute(SYSTEM, "add_item", cart="cart:1")  # missing args
    with pytest.raises(SchemaError):
        eng.execute(SYSTEM, "add_item", cart="cart:1", product="product:1",
                    qty="three")
    with pytest.raises(SchemaError):
        eng.execute(SYSTEM, "no_such_command")
    records = eng.state.log[before_len:]
    assert [r.outcome for r in records] == ["error"] * 3
    assert all(r.error == "SchemaError" and r.deltas == [] for r in records)


@pytest.mark.parametrize("matrix", [None, default_matrix()], ids=["permissive", "bundled"])
@pytest.mark.parametrize("actor", [5, None, ["customer:1"], "customer", b"customer:1"])
def test_an_actor_that_is_no_id_is_refused_before_the_clock_moves(matrix, actor):
    engine = fresh_engine(rbac=matrix)
    customer = new_customer(engine)
    clock, records = engine.state.clock, len(engine.state.log)
    with pytest.raises(SchemaError, match="malformed entity id"):
        engine.dispatch(actor, "create_cart", {"customer": customer})
    assert (engine.state.clock, len(engine.state.log)) == (clock, records)
    assert engine.replayed_state().to_dict() == engine.state.to_dict()


@pytest.mark.parametrize("command,args", [
    ("add_product", {"catalog": "catalog:1", "name": "X", "status": "Regular",
                     "price": {"amount": "abc", "currency": "USD"}}),
    ("add_product", {"catalog": "catalog:1", "name": "X", "status": "Regular",
                     "price": {"amount": [1], "currency": "USD"}}),
    ("add_product", {"catalog": "catalog:1", "name": "X", "status": "Regular",
                     "price": {"amount": 1.9, "currency": "USD"}}),
    ("add_product", {"catalog": "catalog:1", "name": "X", "status": "Regular",
                     "price": {"amount": "12", "currency": "USD"}}),
    ("add_product", {"catalog": "catalog:1", "name": "X", "status": "Regular",
                     "price": {"amount": True, "currency": "USD"}}),
    ("add_product", {"catalog": "catalog:1", "name": "X", "status": "Regular",
                     "price": {"amount": 12, "currency": None}}),
    ("create_invoice", {"creator": 5, "customer": "customer:1"}),
    ("add_item", {"cart": "cart:--1", "product": "product:1", "qty": 1}),
    ("add_item", {"cart": "cart:\u00b2", "product": "product:1", "qty": 1}),
    # arg names that are not strings, among known and unknown string names
    ("transfer", {1: 2, "x": 3, "item": "stock_item:1"}),
    ("transfer", {1: 2, "item": "stock_item:1"}),
    ("no_such_command", {1: 2, "item": "stock_item:1"}),
    ("add_to_stock", {"item": "stock_item:1", "qty": 1, "allocation": {1: 2}}),
    ("add_item", [1]),
])
def test_unparseable_args_are_schema_errors_with_one_audit_record(eng, tmp_path,
                                                                  command, args):
    new_customer(eng)
    before_len = len(eng.state.log)
    with pytest.raises(SchemaError):
        eng.dispatch(SYSTEM, command, args)
    [record] = eng.state.log[before_len:]
    assert (record.outcome, record.error, record.deltas) == ("error", "SchemaError", [])
    assert eng.replayed_state().to_dict() == eng.state.to_dict()
    eng.write_log(tmp_path / "events.jsonl")
    assert read_log(tmp_path / "events.jsonl") == eng.state.log


PAIR = "\ud800\udfff"  # two code points; the log's escapes of them read back as one


@pytest.mark.parametrize("command, args, path, payload", [
    ("create_customer", {"name": "x" + PAIR}, "name: ", None),
    ("create_customer", {"name": "é\udc00"}, "name: ", {"name": "é\udc00"}),
    ("create_customer", {"name": "Ana", "roles": ["Shopper", PAIR]}, "roles[1]: ", None),
    ("prepare_invoice", {"invoice": "invoice:1",
                         "edits": [{"delete": "ok"}, {"delete": PAIR}]}, "edits[1]: ", None),
    ("set_product_info", {"product": "product:1", "description": "d",
                          "comparison_notes": PAIR}, "comparison_notes: ", None),
    # an undeclared field is rejected first; its value still reaches the payload
    ("create_customer", {"name": "Ana", PAIR: 1}, "create_customer: unexpected args", None),
], ids=["pair", "lone", "list", "edit", "field", "key"])
def test_surrogate_args_are_schema_errors_with_one_audit_record(eng, tmp_path, command,
                                                                args, path, payload):
    """A surrogate code point is rejected where it is, and the audit record
    keeps the args only as they read back: as they are when the log's escapes
    decode to the same text (a lone surrogate), else as their repr."""
    before_len = len(eng.state.log)
    with pytest.raises(SchemaError) as exc:
        eng.dispatch(SYSTEM, command, args)
    assert str(exc.value).startswith(path)
    [record] = eng.state.log[before_len:]
    assert (record.outcome, record.error, record.deltas) == ("error", "SchemaError", [])
    assert record.payload == (payload or {"unparsed": repr(args)})
    assert eng.replayed_state() == eng.state
    eng.write_log(tmp_path / "events.jsonl")
    assert read_log(tmp_path / "events.jsonl") == eng.state.log


def test_surrogate_query_arg_is_a_schema_error(eng):
    customer = new_customer(eng)
    eng.execute(customer, "create_cart", customer=customer)
    with pytest.raises(SchemaError, match="^cart: "):
        eng.query("cart_state", cart="cart:1" + PAIR)
    with pytest.raises(SchemaError, match="^name_substring: expected text with no surrogate"):
        eng.query("search_products", catalog="catalog:1", name_substring=PAIR)


def test_currency_rejected_at_schema_level(eng):
    customer = new_customer(eng)
    cart = eng.execute(customer, "create_cart", customer=customer)["cart"]
    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "add_product", catalog="catalog:1", name="X",
                    price={"amount": 10, "currency": "EUR"}, status="Regular")
    assert exc.value.code == "CurrencyMismatch"
    assert eng.state.log[-1].error == "CurrencyMismatch"
    assert eng.query("cart_items", cart=cart) == []


def test_negative_quantity_rejected(eng):
    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "add_to_stock",
                    item=stock_item_id(eng, "widget-frame"), qty=-1)
    assert exc.value.code == "NegativeQuantity"


def test_replay_empty_log_equals_baseline(eng):
    assert replay(eng.baseline(), []).to_dict() == eng.baseline().to_dict()


def test_replay_detects_gap(eng):
    customer = new_customer(eng)
    eng.execute(customer, "create_cart", customer=customer)
    eng.execute(customer, "create_cart", customer=customer)
    broken = [eng.state.log[1]]  # seq 2 without seq 1
    with pytest.raises(GapInSequence):
        replay(eng.baseline(), broken)


def test_unknown_fact_kind_rejected(eng):
    with pytest.raises(UnknownFactKind):
        apply_fact(eng.state, {"f": "merge", "store": "carts"})
    with pytest.raises(UnknownFactKind):
        apply_fact(eng.state, {"f": "put", "store": "nowhere", "id": "x:1",
                               "data": {}})


def test_fresh_seeded_state_has_zero_violations(eng):
    report = eng.check_invariants()
    assert report.ok()
    assert report.checked >= 15


def plant(engine, store: str, entity_id, **changes):
    """Replace a stored entity with a copy carrying ``changes``, as a
    command would: the object the store held, which the log and the
    baseline may share, stays as it was."""
    entities = engine.state.stores[store]
    entities[entity_id] = dataclasses.replace(entities[entity_id], **changes)
    return entities[entity_id]


def test_planted_fault_reserved_above_on_hand(eng):
    item_id = EntityId.parse(stock_item_id(eng, "widget-frame"))
    inventory = eng.state.stores["stock_items"][item_id].inventory
    item = plant(eng, "stock_items", item_id, inventory=dataclasses.replace(
        inventory, reserved=inventory.on_hand + 5))
    report = eng.check_invariants()
    flagged = [v for v in report.violations
               if v.invariant == "stock-conservation"]
    assert flagged and str(item.id) in flagged[0].entity


def test_planted_fault_similarity_asymmetry(eng):
    a = EntityId.parse(product_id(eng, "WidgetA"))
    b = EntityId.parse(product_id(eng, "Gadget"))
    # a one-sided edit
    plant(eng, "products", a, similar=eng.state.stores["products"][a].similar | {b})
    report = eng.check_invariants()
    assert any(v.invariant == "product-similarity" for v in report.violations)


def test_planted_fault_separation_of_duty(eng):
    customer = new_customer(eng)
    clerk = new_employee(eng)
    invoice = eng.execute(clerk, "create_invoice", creator=clerk,
                          customer=customer)["invoice"]
    entity = eng.state.stores["invoices"][EntityId.parse(invoice)]
    # forbidden by construction
    plant(eng, "invoices", entity.id, validated_by=entity.created_by,
          state=entity.state.__class__("Validated"))
    report = eng.check_invariants()
    assert any(v.invariant == "invoice-separation-of-duty"
               for v in report.violations)


def test_event_records_roundtrip_json(eng):
    customer = new_customer(eng)
    eng.execute(customer, "create_cart", customer=customer)
    for record in eng.state.log:
        line = record.to_json_line()
        assert log_read_oracle.from_dict(json.loads(line)) == record


def _extra_engine():
    """Every command no bundled scenario or benchmark workload runs to an
    ``ok`` outcome, and names outside ASCII (``\u2028`` is a line separator
    in JavaScript, not in JSON)."""
    engine = fresh_engine(rbac=default_matrix())
    odd = "Zo\u00eb \u2028 \u2603 \U0001d11e \"q\" \\ \x01"
    customer = new_customer(engine, name=odd)
    engine.execute(SYSTEM, "create_catalog", name=odd)
    engine.execute(SYSTEM, "create_stockroom", name=odd)
    engine.execute(SYSTEM, "create_stock_item", name=odd, kind="Component")
    widget, gadget = product_id(engine, "WidgetA"), product_id(engine, "Gadget")
    engine.execute(SYSTEM, "set_product_info", product=widget, description=odd)
    engine.execute(SYSTEM, "link_similar", a=widget, b=gadget)
    engine.execute(SYSTEM, "search", catalog=catalog_id(engine), name_substring="W")
    invoice = validated_invoice(engine, customer)
    engine.execute(customer, "invoice_balance", invoice=invoice)
    return engine


@pytest.fixture(scope="module")
def logged_engines():
    """Engines after every bundled scenario, a short run of each benchmark
    workload, and ``_extra_engine``: between them every command ends ok."""
    engines = []
    for path in bundled.scenario_files():
        engine = fresh_engine(rbac=default_matrix())
        assert run_scenario(engine, load_scenario(path)).ok, path.stem
        engines.append(engine)
    return engines + bench_engines() + [_extra_engine()]


def test_every_command_result_is_plain_json(logged_engines):
    """Dispatch logs a runner's result as it is: each must return plain
    JSON, never an enum member, a tuple, a ``Money`` or an ``EntityId``."""
    ok = set()
    for engine in logged_engines:
        for record in engine.state.log:
            if record.outcome == "ok":
                ok.add(record.command)
                assert_plain_json(record.result, record.command)
    assert ok == set(COMMANDS)


def test_no_record_is_rewritten_by_a_later_command():
    """A short run of each dispatch workload of the benchmark: every
    record's line when it was appended is its line in the final log."""
    engines = bench_engines(keep_lines=True)
    assert len(engines) == 2
    for engine in engines:
        assert_no_record_rewritten(engine)


def test_log_line_is_the_sorted_compact_json_dump(logged_engines):
    for engine in logged_engines:
        for record in engine.state.log:
            assert record.to_json_line() == json.dumps(
                record.to_dict(), sort_keys=True, separators=(",", ":"))


def test_identical_runs_are_byte_identical():
    def run():
        engine = fresh_engine(rbac=default_matrix())
        ana = new_customer(engine, name="Ana")
        cart = engine.execute(ana, "create_cart", customer=ana)["cart"]
        engine.execute(ana, "add_item", cart=cart,
                       product=product_id(engine, "WidgetA"), qty=2)
        engine.execute(ana, "checkout", cart=cart)
        return "".join(r.to_json_line() + "\n" for r in engine.state.log)
    assert run() == run()


def test_random_mixed_scenario_replays_and_validates():
    """A long random mixed-domain session stays invariant-clean and replayable."""
    rng = random.Random(20260809)
    engine = fresh_engine()
    customers = [new_customer(engine, name=f"c{i}") for i in range(4)]
    checker = new_employee(engine, name="val", roles=["InvoiceValidator"])
    products = [product_id(engine, n)
                for n in ("WidgetA", "WidgetB", "Gadget", "TuneUpService")]
    items = [stock_item_id(engine, n)
             for n in ("WidgetA", "widget-frame", "widget-motor")]
    carts, orders, invoices = [], [], []

    for _ in range(600):
        roll = rng.random()
        actor = rng.choice(customers)
        try:
            if roll < 0.15:
                carts.append((actor, engine.execute(
                    actor, "create_cart", customer=actor)["cart"]))
            elif roll < 0.45 and carts:
                owner, cart = rng.choice(carts)
                engine.execute(owner, "add_item", cart=cart,
                               product=rng.choice(products),
                               qty=rng.randint(1, 3))
            elif roll < 0.55 and carts:
                owner, cart = rng.choice(carts)
                result = engine.execute(owner, "checkout", cart=cart)
                orders.append((owner, result["order"]))
                invoices.append(result["invoice"])
            elif roll < 0.65 and invoices:
                invoice = rng.choice(invoices)
                engine.execute(checker, "validate_invoice", validator=checker,
                               invoice=invoice, rules=["nonempty-items"])
            elif roll < 0.75 and orders:
                owner, order = rng.choice(orders)
                entity = engine.state.stores["orders"][EntityId.parse(order)]
                line = rng.choice(entity.line_items)
                engine.execute(SYSTEM, "create_shipment", order=order,
                               receiver=owner,
                               items=[{"product": str(line.product), "qty": 1}])
            elif roll < 0.9:
                engine.execute(SYSTEM, "add_to_stock", item=rng.choice(items),
                               qty=rng.randint(0, 5))
            else:
                engine.execute(SYSTEM, "remove_from_stock",
                               item=rng.choice(items), qty=rng.randint(0, 40))
        except DomainError:
            pass

    report = engine.check_invariants()
    assert report.ok(), report.violations[:5]
    assert engine.replayed_state().to_dict() == engine.state.to_dict()


def test_failed_commands_contribute_zero_deltas(eng):
    customer = new_customer(eng)
    with pytest.raises(DomainError):
        eng.execute(customer, "checkout", cart="cart:99")
    assert eng.state.log[-1].deltas == []
    assert eng.replayed_state().to_dict() == eng.state.to_dict()


def test_seeding_locked_after_first_command(eng):
    new_customer(eng)
    with pytest.raises(SchemaError):
        eng.seed_catalog([{"name": "Late", "price": 1, "status": "Regular"}])
    with pytest.raises(SchemaError):
        eng.seed_stock([{"item": "late", "kind": "Component", "rooms": {}}])


def test_store_layout_is_deduplicated(eng):
    """One shared store per entity kind; cart items double as order lines."""
    assert set(eng.state.stores) == {
        "catalogs", "products", "notifications", "customers", "carts",
        "employees", "invoices", "payments", "orders", "shipments",
        "stock_items", "stockrooms", "shop_orders"}
    customer = new_customer(eng)
    cart = eng.execute(customer, "create_cart", customer=customer)["cart"]
    eng.execute(customer, "add_item", cart=cart,
                product=product_id(eng, "WidgetA"), qty=1)
    order = eng.execute(customer, "checkout", cart=cart)["order"]
    cart_item = eng.state.stores["carts"][EntityId.parse(cart)].items[0]
    line_item = eng.state.stores["orders"][EntityId.parse(order)].line_items[0]
    assert type(cart_item) is type(line_item)


def _imported(node) -> list[str]:
    """The modules an import statement names, a relative one as ``.``; none
    for any other node."""
    if isinstance(node, ast.ImportFrom):
        return ["." if node.level else node.module]
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return []


def _function_imports(node, qualname=(), in_function=False):
    """The qualified name of each function under ``node`` that imports a
    module of the ``storefront`` package, once per such import."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _function_imports(child, (*qualname, child.name),
                                         in_function or not isinstance(child, ast.ClassDef))
            continue
        if in_function and any(name == "." or name.split(".")[0] == "storefront"
                               for name in _imported(child)):
            yield ".".join(qualname)
        yield from _function_imports(child, qualname, in_function)


def test_no_function_imports_a_sibling_module_but_the_rule_book_loader():
    """Each module imports its siblings at its top, so the module graph is
    what the tops of the files say. One cycle is left: ``commands`` imports
    ``invoice``, whose ``RuleBook.from_config`` imports ``commands.parse_input``."""
    found = set()
    for path in sorted(Path(bundled.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.update(f"{path.stem}.{name}" for name in _function_imports(tree))
    assert found == {"invoice.RuleBook.from_config"}
