"""The invariant checker's report on tampered states and logs.

Each case builds a small engine, breaks one thing in its log or its
stores, and pins the exact (invariant, entity, detail) list the checker
reports. A correct engine never reaches these states, so only tampering
shows that the checker finds what it claims to find.
"""

import dataclasses

import pytest

from helpers import new_customer, new_employee, product_id, validated_invoice
from storefront import SYSTEM, EntityId, Money, Quantity
from storefront.foundation import CurrencyMismatch
from storefront.invariants import _CHECKS
from storefront.stock_manager import ShopOrderStage

from conftest import fresh_engine


def violations(engine) -> list[tuple[str, str, str]]:
    report = engine.check_invariants()
    assert report.checked == 16
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
        "verdict": "Deny", "matched_role": None, "reason": "no role grants operation"}
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
    with pytest.raises(CurrencyMismatch, match="^cannot add EUR to USD$"):
        engine.check_invariants()


def test_adjustment_in_another_currency_raises():
    engine, invoice = paid_invoice_engine()
    reason, adjustment = invoice.adjustments[0]
    invoice.adjustments[0] = (reason, Money(adjustment.amount, "EUR"))
    with pytest.raises(CurrencyMismatch, match="^cannot add EUR to USD$"):
        engine.check_invariants()


def test_checkout_item_in_another_currency_raises():
    engine, cart, order, invoice = checkout_engine()
    item = invoice.items[0]
    invoice.items[0] = dataclasses.replace(item, unit_price=Money(item.unit_price.amount, "EUR"))
    with pytest.raises(CurrencyMismatch, match="^cannot add EUR to USD$"):
        engine.check_invariants()


def test_checkout_cart_and_order_lines_in_another_currency_raise():
    engine, cart, order, invoice = checkout_engine()
    for lines in (cart.items, order.line_items):
        lines[0] = dataclasses.replace(
            lines[0], unit_price=Money(lines[0].unit_price.amount, "EUR"))
    with pytest.raises(CurrencyMismatch, match="^cannot add EUR to USD$"):
        engine.check_invariants()
