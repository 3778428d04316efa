"""The invariant checker's report on tampered states and logs.

Each case builds a small engine, breaks one thing in its log or its
stores, and pins the exact (invariant, entity, detail) list the checker
reports. A correct engine never reaches these states, so only tampering
shows that the checker finds what it claims to find. Every report is also
compared with the one of the checker before its checks were cut down
(``invariants_oracle``): on each tampered state here, on the bundled
scenarios, on short benchmark runs, and on drawn corruptions of a
shop-mix state.
"""

import dataclasses
import typing
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import invariants_oracle
from helpers import (bench_engines, new_customer, new_employee, product_id, stock_item_id,
                     validated_invoice)
from storefront import (SYSTEM, EntityId, Money, Quantity, bundled, default_matrix,
                        load_scenario, run_scenario)
from storefront.foundation import Record, Ref
from storefront.invariants import _CHECKS, check_invariants
from storefront.invoice import InvoiceState
from storefront.order_shipment import OrderState
from storefront.state import STORES
from storefront.stock_manager import ShopOrderStage

from conftest import fresh_engine


def violations(engine) -> list[tuple[str, str, str]]:
    report = engine.check_invariants()
    assert report.checked == 16
    assert report.to_dict() == invariants_oracle.check_invariants(engine).to_dict()
    return [(v.invariant, v.entity, v.detail) for v in report.violations]


def record_of(engine, command: str, nth: int = 0):
    return [r for r in engine.state.log if r.command == command][nth]


def put_of(record, store: str) -> dict:
    (fact,) = [f for f in record.deltas if f["f"] == "put" and f["store"] == store]
    return fact


def restage(record, stage: str) -> None:
    """Make the record's shop-order put carry ``stage``: a new entity in
    the fact, as a tampered log line would decode to."""
    fact = put_of(record, "shop_orders")
    fact["data"] = dataclasses.replace(fact["data"], stage=ShopOrderStage(stage))


def test_sixteen_checks():
    assert len(_CHECKS) == 16


# -- the log ----------------------------------------------------------------

def shop_order_engine():
    """Seven records: a room, two items, stock, then create, cut, pick."""
    engine = fresh_engine(seed_catalog=False, seed_stock=False)
    engine.execute(SYSTEM, "create_stockroom", name="R1")
    comp = engine.execute(SYSTEM, "create_stock_item", name="c1",
                          kind="Component")["stock_item"]
    prod = engine.execute(SYSTEM, "create_stock_item", name="p1",
                          kind="Product")["stock_item"]
    engine.execute(SYSTEM, "add_to_stock", item=comp, qty=10)
    order = engine.execute(SYSTEM, "create_shop_order", product=prod, output_qty=3,
                           bill_of_materials={comp: 2})["shop_order"]
    engine.execute(SYSTEM, "cut_shop_order", order=order)
    engine.execute(SYSTEM, "pick_components", order=order)
    assert order == "shop_order:1"
    assert [r.seq for r in engine.state.log] == [1, 2, 3, 4, 5, 6, 7]
    assert [r.tick for r in engine.state.log] == [1, 2, 3, 4, 5, 6, 7]
    return engine


def test_untampered_log_is_clean():
    assert violations(shop_order_engine()) == []


def test_seq_gap():
    engine = shop_order_engine()
    del engine.state.log[3]
    assert violations(engine) == [
        ("log-structure", "seq:5", "expected seq 4"),
        ("log-structure", "seq:6", "expected seq 5"),
        ("log-structure", "seq:7", "expected seq 6"),
    ]


def test_tick_that_does_not_increase():
    engine = shop_order_engine()
    engine.state.log[4].tick = 4
    engine.state.log[6].tick = 2
    assert violations(engine) == [
        ("log-structure", "seq:5", "tick 4 not after 4"),
        ("log-structure", "seq:7", "tick 2 not after 6"),
    ]


def test_error_record_with_deltas():
    engine = shop_order_engine()
    record = record_of(engine, "add_to_stock")
    record.outcome = "error"
    assert violations(engine) == [
        ("log-structure", "seq:4", f"error record carries {len(record.deltas)} deltas"),
    ]


def test_deltas_without_allow():
    engine = shop_order_engine()
    record_of(engine, "create_stockroom").access = {
        "reason": "no-role", "role": None, "verdict": "Deny"}
    record_of(engine, "add_to_stock").access = {}
    # a denied record without deltas is what the engine writes: no finding
    record_of(engine, "pick_components").deltas = []
    record_of(engine, "pick_components").access = {"verdict": "Deny"}
    assert violations(engine) == [
        ("log-structure", "seq:1", "state deltas without an Allow decision"),
        ("log-structure", "seq:4", "state deltas without an Allow decision"),
    ]


def test_first_stage_other_than_created():
    engine = shop_order_engine()
    restage(record_of(engine, "create_shop_order"), "Cut")
    assert violations(engine) == [
        ("shop-order-stage-monotone", "shop_order:1", "first stage was Cut"),
    ]


def test_stage_jump_created_to_picked():
    engine = shop_order_engine()
    restage(record_of(engine, "cut_shop_order"), "Picked")
    assert violations(engine) == [
        ("shop-order-stage-monotone", "shop_order:1", "stage jumped Created -> Picked"),
    ]


def test_stage_moving_backwards():
    engine = shop_order_engine()
    restage(record_of(engine, "pick_components"), "Created")
    assert violations(engine) == [
        ("shop-order-stage-monotone", "shop_order:1", "stage jumped Cut -> Created"),
    ]


def test_stage_repeated_is_not_a_jump():
    engine = shop_order_engine()
    cut = put_of(record_of(engine, "cut_shop_order"), "shop_orders")
    record_of(engine, "pick_components").deltas.insert(0, cut)
    assert violations(engine) == []


def notification_engine():
    engine = fresh_engine()
    target = product_id(engine, "WidgetA")
    customer = new_customer(engine)
    engine.execute(customer, "subscribe", customer=customer, product=target)
    engine.execute(SYSTEM, "update_product", product=target, changes={"price": 999})
    engine.execute(SYSTEM, "update_product", product=target, changes={"price": 899})
    assert sorted(map(str, engine.state.stores["notifications"])) == [
        "notification:1", "notification:2"]
    return engine


def test_rewritten_notification():
    engine = notification_engine()
    first = put_of(record_of(engine, "update_product", 0), "notifications")
    last = record_of(engine, "update_product", 1)
    # the same put again is not a rewrite; a changed one is
    last.deltas.append(dict(first))
    last.deltas.append({**first, "data": dataclasses.replace(first["data"],
                                                             change_summary="nothing")})
    assert violations(engine) == [
        ("notification-append-only", "notification:1", "notification was rewritten"),
    ]


# -- invoices, checkout and shipments ------------------------------------------

def paid_invoice_engine():
    engine = fresh_engine()
    customer = new_customer(engine, loyalty=True)
    checker = new_employee(engine, name="payval", roles=["InvoiceValidator"])
    invoice = validated_invoice(engine, customer)  # total 1425
    payment = engine.execute(customer, "record_payment", customer=customer,
                             invoice=invoice, amount=1425, method="Card")["payment"]
    engine.execute(checker, "validate_payment", validator=checker, payment=payment,
                   rules=["amount-positive"])
    assert invoice == "invoice:1"
    assert violations(engine) == []
    return engine, engine.state.stores["invoices"][EntityId.parse(invoice)]


def test_invoice_stored_accepted_disagrees():
    engine, invoice = paid_invoice_engine()
    invoice.accepted += 1
    assert violations(engine) == [
        ("payment-conservation", "invoice:1",
         "stored accepted 1426, accepted payments sum to 1425"),
    ]


def test_invoice_total_disagrees():
    engine, invoice = paid_invoice_engine()
    item = invoice.items[0]
    invoice.items[0] = dataclasses.replace(item, quantity=Quantity(2))
    assert violations(engine) == [
        ("payment-conservation", "invoice:1",
         "state Paid inconsistent with accepted 1425 of 2425"),
    ]
    invoice.items.pop()
    invoice.items.pop()
    assert violations(engine) == [
        ("payment-conservation", "invoice:1", "accepted 1425 exceeds total -75"),
        ("payment-conservation", "invoice:1", "negative total -75"),
        ("payment-conservation", "invoice:1",
         "state Paid inconsistent with accepted 1425 of -75"),
    ]


def test_payment_in_another_currency():
    engine, invoice = paid_invoice_engine()
    payments = engine.state.stores["payments"]
    (payment_id, payment), = payments.items()
    payments[payment_id] = dataclasses.replace(payment, amount=Money(1425, "EUR"))
    assert violations(engine) == [
        ("payment-conservation", "invoice:1", "state Paid inconsistent with accepted 0 of 1425"),
        ("payment-conservation", "invoice:1",
         "stored accepted 1425, accepted payments sum to 0"),
        ("payment-conservation", "payment:1", "amount in EUR, not USD"),
    ]


def checkout_engine():
    engine = fresh_engine()
    customer = new_customer(engine)
    cart = engine.execute(customer, "create_cart", customer=customer)["cart"]
    engine.execute(customer, "add_item", cart=cart,
                   product=product_id(engine, "WidgetA"), qty=2)
    engine.execute(customer, "add_item", cart=cart,
                   product=product_id(engine, "Gadget"), qty=1)
    result = engine.execute(customer, "checkout", cart=cart)
    assert (cart, result["order"], result["invoice"]) == ("cart:1", "order:1", "invoice:1")
    assert violations(engine) == []
    stores = engine.state.stores
    return (engine, stores["carts"][EntityId.parse(cart)],
            stores["orders"][EntityId.parse(result["order"])],
            stores["invoices"][EntityId.parse(result["invoice"])])


def test_order_multiset_differs_from_cart():
    engine, cart, order, invoice = checkout_engine()
    line = order.line_items[0]
    order.line_items[0] = dataclasses.replace(line, quantity=Quantity(3))
    cart_total = sum(i.unit_price.amount * i.quantity.value for i in cart.items)
    assert violations(engine) == [
        ("checkout-bijection", "cart:1", "order order:1 line items differ from cart"),
        ("checkout-bijection", "cart:1",
         f"totals differ: cart {cart_total}, order {cart_total + line.unit_price.amount}, "
         f"invoice {cart_total}"),
    ]


def test_invoice_multiset_differs_from_cart():
    engine, cart, order, invoice = checkout_engine()
    item = invoice.items[1]
    invoice.items[1] = dataclasses.replace(
        item, unit_price=Money(item.unit_price.amount + 1, "USD"))
    cart_total = sum(i.unit_price.amount * i.quantity.value for i in cart.items)
    assert violations(engine) == [
        ("checkout-bijection", "cart:1", "invoice invoice:1 items differ from cart"),
        ("checkout-bijection", "cart:1",
         f"totals differ: cart {cart_total}, order {cart_total}, "
         f"invoice {cart_total + item.quantity.value}"),
    ]


def test_cart_multiset_differs_from_both():
    engine, cart, order, invoice = checkout_engine()
    cart.items.pop()
    assert violations(engine) == [
        ("checkout-bijection", "cart:1", "invoice invoice:1 items differ from cart"),
        ("checkout-bijection", "cart:1", "order order:1 line items differ from cart"),
        ("checkout-bijection", "cart:1", "totals differ: cart 2198, order 2448, invoice 2448"),
    ]


def test_shipment_invoice_items_differ():
    engine = fresh_engine()
    customer = new_customer(engine)
    widget = product_id(engine, "WidgetA")
    order = engine.execute(customer, "place_order", customer=customer,
                           lines=[{"product": widget, "qty": 2}])["order"]
    result = engine.execute(SYSTEM, "create_shipment", order=order, receiver=customer,
                            items=[{"product": widget, "qty": 2}])
    assert violations(engine) == []
    invoice = engine.state.stores["invoices"][EntityId.parse(result["invoice"])]
    invoice.items[0] = dataclasses.replace(invoice.items[0], quantity=Quantity(1))
    assert violations(engine) == [
        ("shipment-invoice", result["shipment"], "invoice items do not match shipped items"),
    ]


# -- currencies ---------------------------------------------------------------

def test_item_in_another_currency_raises():
    engine, invoice = paid_invoice_engine()
    item = invoice.items[1]
    invoice.items[1] = dataclasses.replace(item, unit_price=Money(500, "EUR"))
    # a violation naming the invoice, as a payment's is; it raised CurrencyMismatch
    assert violations(engine) == [
        ("payment-conservation", "invoice:1", "line 1 in EUR, not USD")]


def test_adjustment_in_another_currency_raises():
    engine, invoice = paid_invoice_engine()
    reason, adjustment = invoice.adjustments[0]
    invoice.adjustments[0] = (reason, Money(adjustment.amount, "EUR"))
    assert violations(engine) == [
        ("payment-conservation", "invoice:1", "adjustment loyalty-5pct in EUR, not USD")]


def test_checkout_item_in_another_currency_raises():
    engine, cart, order, invoice = checkout_engine()
    item = invoice.items[0]
    invoice.items[0] = dataclasses.replace(item, unit_price=Money(item.unit_price.amount, "EUR"))
    assert violations(engine) == [
        ("checkout-bijection", "invoice:1", "line 0 in EUR, not USD"),
        ("payment-conservation", "invoice:1", "line 0 in EUR, not USD")]


def test_checkout_cart_and_order_lines_in_another_currency_raise():
    engine, cart, order, invoice = checkout_engine()
    for lines in (cart.items, order.line_items):
        lines[0] = dataclasses.replace(
            lines[0], unit_price=Money(lines[0].unit_price.amount, "EUR"))
    assert violations(engine) == [
        ("checkout-bijection", "cart:1", "line 0 in EUR, not USD"),
        ("checkout-bijection", "order:1", "line 0 in EUR, not USD")]


def test_open_cart_line_in_another_currency_is_flagged():
    engine = fresh_engine()
    customer = new_customer(engine)
    cart = engine.execute(customer, "create_cart", customer=customer)["cart"]
    for name in ("WidgetA", "Gadget"):
        engine.execute(customer, "add_item", cart=cart, product=product_id(engine, name), qty=1)
    items = engine.state.stores["carts"][EntityId.parse(cart)].items
    items[1] = dataclasses.replace(items[1], unit_price=Money(items[1].unit_price.amount, "EUR"))
    # no check summed an open cart's lines, so this went unflagged
    assert violations(engine) == [("checkout-bijection", cart, "line 1 in EUR, not USD")]
    same_as_oracle(engine)


def test_directly_placed_order_line_in_another_currency_is_flagged():
    engine = fresh_engine()
    customer = new_customer(engine)
    order = engine.execute(customer, "place_order", customer=customer,
                           lines=[{"product": product_id(engine, "WidgetA"), "qty": 2}])["order"]
    lines = engine.state.stores["orders"][EntityId.parse(order)].line_items
    lines[0] = dataclasses.replace(lines[0], unit_price=Money(5, "EUR"))
    # an order with no source cart was never visited, so this went unflagged
    assert violations(engine) == [("checkout-bijection", order, "line 0 in EUR, not USD")]
    same_as_oracle(engine)


def test_a_reference_to_an_entity_of_another_kind_does_not_resolve():
    engine = fresh_engine()
    customer = new_customer(engine)
    cart = engine.execute(customer, "create_cart", customer=customer)["cart"]
    engine.execute(customer, "add_item", cart=cart, product=product_id(engine, "WidgetA"), qty=1)
    items = engine.state.stores["carts"][EntityId.parse(cart)].items
    # the customer is stored, but a cart item names a product
    items[0] = dataclasses.replace(items[0], product=EntityId.parse(customer))
    assert violations(engine) == [
        ("referential-integrity", cart, f"reference {customer} does not resolve")]


def test_the_source_cart_of_an_invoice_no_checkout_made_must_resolve():
    engine = fresh_engine()
    customer, clerk = new_customer(engine), new_employee(engine, roles=["InvoiceClerk"])
    invoice = engine.execute(clerk, "create_invoice", creator=clerk, customer=customer)["invoice"]
    invoices = engine.state.stores["invoices"]
    invoice_id = EntityId.parse(invoice)
    invoices[invoice_id] = dataclasses.replace(invoices[invoice_id],
                                               source_cart=EntityId("cart", 999))
    assert violations(engine) == [
        ("referential-integrity", invoice, "reference cart:999 does not resolve")]


def test_the_product_of_an_invoice_item_must_resolve():
    engine = fresh_engine()
    customer, clerk = new_customer(engine), new_employee(engine, roles=["InvoiceClerk"])
    invoice = engine.execute(clerk, "create_invoice", creator=clerk, customer=customer)["invoice"]
    engine.execute(clerk, "prepare_invoice", invoice=invoice, edits=[{"add": {
        "description": "part", "product": product_id(engine, "WidgetA"), "quantity": 1,
        "unit_price": 300}}])
    invoices = engine.state.stores["invoices"]
    invoice_id = EntityId.parse(invoice)
    item = dataclasses.replace(invoices[invoice_id].items[0], product=EntityId("product", 999))
    invoices[invoice_id] = dataclasses.replace(invoices[invoice_id], items=[item])
    assert violations(engine) == [
        ("referential-integrity", invoice, "reference product:999 does not resolve")]
    same_as_oracle(engine)


def every_reference_engine():
    """Each entity a reference below is tampered in, at the lowest id of its
    store: a product with a subscriber and a notification of its change, a
    shipped order, the shipment's invoice and a payment against it (not
    validated, so it changes no accepted sum), stock in rooms, and a shop order."""
    engine = fresh_engine()
    customer = new_customer(engine)
    widget = product_id(engine, "WidgetA")
    engine.execute(customer, "subscribe", customer=customer, product=widget)
    engine.execute(SYSTEM, "update_product", product=widget, changes={"price": 999})
    order = engine.execute(customer, "place_order", customer=customer,
                           lines=[{"product": widget, "qty": 2}])["order"]
    shipped = engine.execute(SYSTEM, "create_shipment", order=order, receiver=customer,
                             items=[{"product": widget, "qty": 2}])
    engine.execute(customer, "record_payment", customer=customer, invoice=shipped["invoice"],
                   amount=100, method="Card")
    engine.execute(SYSTEM, "create_shop_order", product=stock_item_id(engine, "WidgetA"),
                   output_qty=1, bill_of_materials={stock_item_id(engine, "widget-frame"): 2})
    assert violations(engine) == []
    return engine


def _first_room_elsewhere(item, missing):
    by_room = dict(item.inventory.by_room)
    by_room[missing] = by_room.pop(min(by_room))  # the same sum, in a room no store holds
    return {"inventory": dataclasses.replace(item.inventory, by_room=by_room)}


# (the invariant and the text a resolution was reported under before it became
# a Ref, the store of the entity that holds it, the kind of the id, the change)
MOVED = [
    ("catalog-references: catalog {} does not resolve", "products", "catalog",
     lambda product, missing: {"catalog": missing}),
    ("catalog-references: subscriber {} does not resolve", "products", "customer",
     lambda product, missing: {"subscribers": product.subscribers | {missing}}),
    ("catalog-references: customer {} does not resolve", "notifications", "customer",
     lambda note, missing: {"customer": missing}),
    ("catalog-references: product {} does not resolve", "notifications", "product",
     lambda note, missing: {"product": missing}),
    ("product-similarity: similar product {} does not resolve", "products", "product",
     lambda product, missing: {"similar": product.similar | {missing}}),
    ("payment-conservation: invoice {} does not resolve", "payments", "invoice",
     lambda payment, missing: {"invoice": missing}),
    ("shipment-coverage: order {} does not resolve", "shipments", "order",
     lambda shipment, missing: {"order": missing}),
    # was flagged on the missing shipment's id, not on the invoice
    ("shipment-invoice: invoice references a missing shipment", "invoices", "shipment",
     lambda invoice, missing: {"source_shipment": missing}),
    ("stock-conservation: room {} does not resolve", "stock_items", "stockroom",
     _first_room_elsewhere),
    ("shop-order-structure: output item {} is not a product", "shop_orders", "stock_item",
     lambda order, missing: {"product": missing}),
    ("shop-order-structure: {} is not a component", "shop_orders", "stock_item",
     lambda order, missing: {"bill_of_materials": {**order.bill_of_materials, missing: 1}}),
]


@pytest.mark.parametrize("was, store, kind, change", MOVED, ids=[was for was, *_ in MOVED])
def test_an_id_that_was_resolved_by_hand_is_a_referential_integrity_violation(
        was, store, kind, change):
    engine = every_reference_engine()
    entities, missing = engine.state.stores[store], EntityId(kind, 999_999)
    holder = min(entities)
    entities[holder] = dataclasses.replace(entities[holder], **change(entities[holder], missing))
    # the only violation that names the id, the holder's: a check that reads
    # through the reference may still flag what it no longer finds
    assert [v for v in violations(engine) if str(missing) in v[1] + v[2]] == [
        ("referential-integrity", str(holder), f"reference {missing} does not resolve")]


# -- the checker against its oracle ---------------------------------------------

def same_as_oracle(engine) -> None:
    assert check_invariants(engine).to_dict() == invariants_oracle.check_invariants(engine).to_dict()


@pytest.mark.parametrize("path", bundled.scenario_files(), ids=lambda path: path.stem)
def test_oracle_agrees_on_each_bundled_scenario(path):
    engine = fresh_engine(rbac=default_matrix())
    assert run_scenario(engine, load_scenario(path)).ok
    same_as_oracle(engine)


@pytest.mark.parametrize("seed", [3, 20261017])
def test_oracle_agrees_on_short_benchmark_runs(seed):
    for engine in bench_engines(seed=seed, scale=0.05):
        same_as_oracle(engine)


@pytest.fixture(scope="module")
def shop_mix():
    """A shop-mix state, with the notifications of a changed product and the
    shop orders that the workload does not make."""
    engine = bench_engines(seed=5, scale=0.05)[0]
    stores = engine.state.stores
    subscribed = min(pid for pid, product in stores["products"].items() if product.subscribers)
    engine.execute(SYSTEM, "update_product", product=subscribed, changes={"price": 1})
    component = engine.execute(SYSTEM, "create_stock_item", name="part",
                               kind="Component")["stock_item"]
    for item in sorted(stores["stock_items"])[:2]:
        engine.execute(SYSTEM, "create_shop_order", product=item, output_qty=1,
                       bill_of_materials={component: 2})
    assert all(stores[name] for name in ("shipments", "payments", "notifications",
                                         "shop_orders"))
    assert engine.check_invariants().ok()
    return engine


def _entity(data, stores, store):
    entity_id = data.draw(st.sampled_from(sorted(stores[store])))
    return entity_id, stores[store][entity_id]


def _lines(data, lines, products):
    """``lines`` with one line changed, dropped, or repeated (the copy with
    its own quantity and price, so only the first line of a product is the
    one an order charges)."""
    lines = list(lines)
    if not lines:
        return lines
    index = data.draw(st.integers(0, len(lines) - 1))
    change = data.draw(st.sampled_from(["quantity", "price", "product", "drop", "repeat"]))
    line = lines[index]
    if change == "quantity":
        lines[index] = dataclasses.replace(line, quantity=Quantity(data.draw(st.integers(0, 4))))
    elif change == "price":
        lines[index] = dataclasses.replace(
            line, unit_price=Money(data.draw(st.integers(-5, 3000)), "USD"))
    elif change == "product":
        lines[index] = dataclasses.replace(line, product=data.draw(st.sampled_from(products)))
    elif change == "drop":
        del lines[index]
    else:
        lines.append(dataclasses.replace(
            line, quantity=Quantity(data.draw(st.integers(1, 3))),
            unit_price=Money(line.unit_price.amount + data.draw(st.integers(1, 9)), "USD")))
    return lines


def _corrupt_invoice(data, stores, products):
    iid, inv = _entity(data, stores, "invoices")
    change = data.draw(st.sampled_from(["accepted", "state", "items"]))
    if change == "accepted":
        inv = dataclasses.replace(inv, accepted=inv.accepted + data.draw(st.integers(-900, 900)))
    elif change == "state":
        inv = dataclasses.replace(inv, state=data.draw(st.sampled_from(InvoiceState)))
    else:
        inv = dataclasses.replace(inv, items=_lines(data, inv.items, products))
    stores["invoices"][iid] = inv


def _corrupt_cart(data, stores, products):
    cid, cart = _entity(data, stores, "carts")
    stores["carts"][cid] = dataclasses.replace(cart, items=_lines(data, cart.items, products))


def _corrupt_order(data, stores, products):
    oid, order = _entity(data, stores, "orders")
    change = data.draw(st.sampled_from(["shipped", "state", "lines"]))
    if change == "shipped":
        shipped = dict(order.shipped)
        line = data.draw(st.sampled_from(products))
        if line in shipped and data.draw(st.booleans()):
            del shipped[line]
        else:
            shipped[line] = data.draw(st.integers(0, 4))
        order = dataclasses.replace(order, shipped=shipped)
    elif change == "state":
        order = dataclasses.replace(order, state=data.draw(st.sampled_from(OrderState)))
    else:
        order = dataclasses.replace(order, line_items=_lines(data, order.line_items, products))
    stores["orders"][oid] = order


def _repeat_shipped_line(data, stores, products):
    """Repeat, at another price, the order line a shipment charges: the
    shipment's invoice must still match the first line of the product."""
    _, shipment = _entity(data, stores, "shipments")
    order = stores["orders"].get(shipment.order)
    if order is None:
        return
    charged = data.draw(st.sampled_from([item.charged_line() for item in shipment.items]))
    line = order.line_for(charged)
    if line is None:
        return
    repeat = dataclasses.replace(line, unit_price=Money(line.unit_price.amount + 1, "USD"))
    stores["orders"][order.id] = dataclasses.replace(order, line_items=[*order.line_items, repeat])


def _corrupt_shipment(data, stores, products):
    sid, shipment = _entity(data, stores, "shipments")
    items = list(shipment.items)
    index = data.draw(st.integers(0, len(items) - 1))
    target = data.draw(st.none() | st.sampled_from(products))
    items[index] = dataclasses.replace(items[index], substituted_for=target)
    stores["shipments"][sid] = dataclasses.replace(shipment, items=items)


def _corrupt_payment(data, stores, products):
    pid, payment = _entity(data, stores, "payments")
    currency = data.draw(st.sampled_from(["USD", "EUR"]))
    amount = data.draw(st.sampled_from([payment.amount.amount, 0, payment.amount.amount + 1]))
    stores["payments"][pid] = dataclasses.replace(payment, amount=Money(amount, currency))


def _drop(data, stores, products):
    store = data.draw(st.sampled_from(["payments", "shipments", "orders"]))
    entity_id, _ = _entity(data, stores, store)
    del stores[store][entity_id]


# store -> its fields that hold one id
_REFERENCES = {"products": ("catalog",), "notifications": ("customer", "product"),
               "carts": ("customer",), "orders": ("customer", "source_cart"),
               "shipments": ("order", "receiver", "invoice"),
               "invoices": ("customer", "created_by", "validated_by", "source_cart",
                            "source_shipment"),
               "payments": ("invoice", "customer", "validated_by"),
               "stock_items": ("product_link",), "shop_orders": ("product",)}
# store -> its field listing records that each hold a product id
_LINES = {"carts": "items", "orders": "line_items", "shipments": "items", "invoices": "items"}


def _elsewhere(data) -> EntityId:
    """An id no store holds, an id of another kind, or the system actor."""
    kind = data.draw(st.sampled_from(["customer", "cart", "order", "invoice", "employee",
                                      "product", "stock_item", "stockroom", "ghost"]))
    return data.draw(st.sampled_from([EntityId(kind, 1), EntityId(kind, 10**6), SYSTEM]))


def _repoint(data, stores, products):
    """Point a reference elsewhere."""
    store = data.draw(st.sampled_from(sorted(_REFERENCES)))
    entity_id, entity = _entity(data, stores, store)
    name = data.draw(st.sampled_from(_REFERENCES[store]))
    stores[store][entity_id] = dataclasses.replace(entity, **{name: _elsewhere(data)})


def _repoint_line(data, stores, products):
    """Point the product of a cart item, an order line, a shipped item or an
    invoice item elsewhere."""
    store = data.draw(st.sampled_from(sorted(_LINES)))
    entity_id, entity = _entity(data, stores, store)
    lines = list(getattr(entity, _LINES[store]))
    if lines:
        index = data.draw(st.integers(0, len(lines) - 1))
        lines[index] = dataclasses.replace(lines[index], product=_elsewhere(data))
        stores[store][entity_id] = dataclasses.replace(entity, **{_LINES[store]: lines})


def _add_member(data, stores, products):
    """Add an id elsewhere to a product's similar products or subscribers, or
    as a key to a stock item's rooms or a shop order's bill of materials."""
    where = data.draw(st.sampled_from(["similar", "subscribers", "by_room", "bill"]))
    if where in ("similar", "subscribers"):
        pid, product = _entity(data, stores, "products")
        stores["products"][pid] = dataclasses.replace(
            product, **{where: getattr(product, where) | {_elsewhere(data)}})
    elif where == "by_room":
        item_id, item = _entity(data, stores, "stock_items")
        by_room = {**item.inventory.by_room, _elsewhere(data): data.draw(st.integers(0, 5))}
        stores["stock_items"][item_id] = dataclasses.replace(
            item, inventory=dataclasses.replace(item.inventory, by_room=by_room))
    else:
        oid, order = _entity(data, stores, "shop_orders")
        bill = {**order.bill_of_materials, _elsewhere(data): data.draw(st.integers(0, 3))}
        stores["shop_orders"][oid] = dataclasses.replace(order, bill_of_materials=bill)


_CORRUPTIONS = [_corrupt_invoice, _corrupt_cart, _corrupt_order, _repeat_shipped_line,
                _corrupt_shipment, _corrupt_payment, _drop, _repoint, _repoint_line,
                _add_member]


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_oracle_agrees_on_drawn_corruptions(shop_mix, data):
    """Corrupt a copy of a shop-mix state a few times over and compare the
    two checkers' reports. Entities are replaced, never changed in place."""
    state = shop_mix.state
    stores = {name: dict(entities) for name, entities in state.stores.items()}
    products = sorted(stores["products"])
    for corrupt in data.draw(st.lists(st.sampled_from(_CORRUPTIONS), min_size=1, max_size=3)):
        corrupt(data, stores, products)
    engine = SimpleNamespace(currency=shop_mix.currency, state=SimpleNamespace(
        stores=stores, serials=state.serials, log=state.log))
    same_as_oracle(engine)


# -- which check resolves each reference ----------------------------------------

# each field holding an EntityId, of a stored entity or a record nested in one,
# that is no ``Ref`` (so referential-integrity does not resolve it): the
# invariant that does, or None, and how
NOT_A_REF = {
    "Product.stock_item": ("catalog-references", "equal to the first stock item linked"),
    "Order.shipped": ("shipment-coverage", "equal to what the shipments hold"),
    "ShippedItem.substituted_for": (None, "shipment-coverage requires a line of the order, "
                                          "never a product that resolves"),
}


def _types_in(hint) -> set:
    """``hint`` and every type argument within it, at any depth."""
    return {hint}.union(*map(_types_in, typing.get_args(hint)))


def _is_ref(hint) -> bool:
    """Whether ``hint`` is a ``Ref`` or ``Ref | None``, or a ``set``, ``list``
    or ``dict`` whose element or key is a ``Ref``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    return Ref.of(hint) is not None or (origin in (set, list, dict)
                                        and Ref.of(args[0]) is not None)


def test_every_reference_field_is_a_ref_or_names_its_check():
    """A field added to the model that holds an id fails here, by name,
    until it is declared a ``Ref`` or given its entry in ``NOT_A_REF``. A
    record nested in an entity (``StockItem.inventory``) is searched too."""
    refs, others, todo, seen = set(), set(), [cls for _, cls in STORES.values()], set()
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        hints = typing.get_type_hints(cls, include_extras=True)
        for f in dataclasses.fields(cls):
            types = _types_in(hints[f.name])
            todo += [t for t in types if isinstance(t, type) and issubclass(t, Record)]
            if EntityId in types and f.name != "id":  # an entity's own id keys its store
                (refs if _is_ref(hints[f.name]) else others).add(f"{cls.__name__}.{f.name}")
    assert sorted(others - NOT_A_REF.keys()) == [], "declare a Ref, or name its check"
    assert sorted(NOT_A_REF.keys() - others) == []
    assert len(NOT_A_REF) == 3
    assert refs == {"Product.catalog", "Product.similar", "Product.subscribers",
                    "Notification.customer", "Notification.product",
                    "ShoppingCart.customer", "CartItem.product", "Order.customer",
                    "Order.source_cart", "Shipment.order", "Shipment.receiver",
                    "Shipment.invoice", "ShippedItem.product", "Invoice.customer",
                    "InvoiceItem.product", "Invoice.created_by", "Invoice.validated_by",
                    "Invoice.source_cart", "Invoice.source_shipment", "Payment.invoice",
                    "Payment.customer", "Payment.validated_by", "StockItem.product_link",
                    "Inventory.by_room", "ShopOrder.product", "ShopOrder.bill_of_materials"}
