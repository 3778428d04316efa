"""Order placement, cancellation, and shipment fulfillment with
substitutions, partiality, and per-shipment invoicing."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from helpers import new_customer, product_id, stock_item_id
from storefront import SYSTEM, DomainError, EntityId

from conftest import fresh_engine


def coverage_oracle(engine, order_id):
    """Brute-force recount of shipped quantities per order line."""
    order = engine.state.stores["orders"][EntityId.parse(order_id)]
    covered = {str(line.product): 0 for line in order.line_items}
    for shipment in engine.state.stores["shipments"].values():
        if str(shipment.order) != order_id:
            continue
        for item in shipment.items:
            line = str(item.substituted_for or item.product)
            covered[line] += item.quantity.value
    return covered


def test_place_order_basics(eng):
    customer = new_customer(eng)
    result = eng.execute(customer, "place_order", customer=customer,
                         lines=[{"product": product_id(eng, "WidgetA"), "qty": 2}])
    order = eng.state.stores["orders"][EntityId.parse(result["order"])]
    assert order.state.value == "Placed"
    assert str(order.customer) == customer
    assert order.source_cart is None
    assert order.line_items[0].unit_price.amount == 1099  # snapshot at placement


def test_checkout_order_carries_source_cart(eng):
    customer = new_customer(eng)
    cart = eng.execute(customer, "create_cart", customer=customer)["cart"]
    eng.execute(customer, "add_item", cart=cart,
                product=product_id(eng, "WidgetA"), qty=1)
    checked_out = eng.execute(customer, "checkout", cart=cart)
    direct = eng.execute(customer, "place_order", customer=customer,
                         lines=[{"product": product_id(eng, "WidgetA"), "qty": 1}])

    # field check against the event log's lines, not just live state
    by_id = {}
    for record in eng.state.log:
        for fact in json.loads(record.to_json_line())["deltas"]:
            if fact["f"] == "put" and fact["store"] == "orders":  # created, then changed
                by_id.setdefault(fact["id"], {}).update(fact["data"])
    assert by_id[checked_out["order"]]["source_cart"] == cart
    assert by_id[direct["order"]]["source_cart"] is None


def test_place_order_errors(eng):
    customer = new_customer(eng)
    with pytest.raises(DomainError) as exc:
        eng.execute(customer, "place_order", customer=customer, lines=[])
    assert exc.value.code == "EmptyOrder"
    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "place_order", customer="customer:99",
                    lines=[{"product": product_id(eng, "WidgetA"), "qty": 1}])
    assert exc.value.code == "UnknownCustomer"


def test_cancel_only_before_shipment(eng):
    customer = new_customer(eng)
    widget = product_id(eng, "WidgetA")
    order = eng.execute(customer, "place_order", customer=customer,
                        lines=[{"product": widget, "qty": 2}])["order"]
    eng.execute(customer, "cancel_order", order=order)
    assert eng.query("order_state", order=order) == "Cancelled"

    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "create_shipment", order=order, receiver=customer,
                    items=[{"product": widget, "qty": 1}])
    assert exc.value.code == "OrderNotShippable"
    with pytest.raises(DomainError) as exc:
        eng.execute(customer, "cancel_order", order=order)
    assert exc.value.code == "NotCancellable"

    partially = eng.execute(customer, "place_order", customer=customer,
                            lines=[{"product": widget, "qty": 2}])["order"]
    eng.execute(SYSTEM, "create_shipment", order=partially, receiver=customer,
                items=[{"product": widget, "qty": 1}])
    with pytest.raises(DomainError) as exc:
        eng.execute(customer, "cancel_order", order=partially)
    assert exc.value.code == "NotCancellable"


def test_full_shipment_in_one_go(eng):
    customer = new_customer(eng)
    widget = product_id(eng, "WidgetA")
    order = eng.execute(customer, "place_order", customer=customer,
                        lines=[{"product": widget, "qty": 2}])["order"]
    result = eng.execute(SYSTEM, "create_shipment", order=order,
                         receiver=customer, items=[{"product": widget, "qty": 2}])
    assert eng.query("order_state", order=order) == "Shipped"
    assert eng.query("invoice_total", invoice=result["invoice"])["amount"] == 2198
    replayed = eng.replayed_state()
    assert replayed.to_dict() == eng.state.to_dict()
    assert coverage_oracle(eng, order) == {widget: 2}


def test_partial_then_complete_shipment(eng):
    customer = new_customer(eng)
    widget = product_id(eng, "WidgetA")
    order = eng.execute(customer, "place_order", customer=customer,
                        lines=[{"product": widget, "qty": 2}])["order"]
    first = eng.execute(SYSTEM, "create_shipment", order=order, receiver=customer,
                        items=[{"product": widget, "qty": 1}])
    assert eng.query("order_state", order=order) == "PartiallyShipped"
    assert coverage_oracle(eng, order) == {widget: 1}
    second = eng.execute(SYSTEM, "create_shipment", order=order, receiver=customer,
                         items=[{"product": widget, "qty": 1}])
    assert eng.query("order_state", order=order) == "Shipped"
    assert coverage_oracle(eng, order) == {widget: 2}
    assert first["shipment"] != second["shipment"]
    assert first["invoice"] != second["invoice"]
    for result in (first, second):
        assert eng.query("invoice_total", invoice=result["invoice"])["amount"] == 1099


def test_substituted_shipment_covers_original_line(eng):
    """Equivalent goods may fill a line; billing stays at the ordered price."""
    customer = new_customer(eng)
    ordered = product_id(eng, "WidgetA")
    shipped = product_id(eng, "WidgetB")
    order = eng.execute(customer, "place_order", customer=customer,
                        lines=[{"product": ordered, "qty": 2}])["order"]
    result = eng.execute(SYSTEM, "create_shipment", order=order, receiver=customer,
                         items=[{"product": shipped, "qty": 2,
                                 "substituted_for": ordered}])
    assert eng.query("order_state", order=order) == "Shipped"
    assert eng.query("shipment_items", shipment=result["shipment"]) == \
        [{"product": "WidgetB", "qty": 2, "substituted_for": "WidgetA"}]
    # billed at the WidgetA snapshot price, not WidgetB's own price
    assert eng.query("invoice_total", invoice=result["invoice"])["amount"] == 2198


def test_shipment_bounds_and_substitution_targets(eng):
    customer = new_customer(eng)
    widget = product_id(eng, "WidgetA")
    gadget = product_id(eng, "Gadget")
    order = eng.execute(customer, "place_order", customer=customer,
                        lines=[{"product": widget, "qty": 2}])["order"]
    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "create_shipment", order=order, receiver=customer,
                    items=[{"product": widget, "qty": 3}])
    assert exc.value.code == "OverShipment"
    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "create_shipment", order=order, receiver=customer,
                    items=[{"product": gadget, "qty": 1}])
    assert exc.value.code == "OverShipment"
    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "create_shipment", order=order, receiver=customer,
                    items=[{"product": gadget, "qty": 1,
                            "substituted_for": gadget}])
    assert exc.value.code == "UnknownSubstitutionTarget"


def test_shipment_decrements_stock_atomically(eng):
    customer = new_customer(eng)
    widget = product_id(eng, "WidgetA")
    gadget = product_id(eng, "Gadget")
    order = eng.execute(customer, "place_order", customer=customer,
                        lines=[{"product": widget, "qty": 1},
                               {"product": gadget, "qty": 29}])["order"]
    # Gadget stock is 30; order both lines, ship gadget over the remaining
    eng.execute(SYSTEM, "remove_from_stock",
                item=stock_item_id(eng, "Gadget"), qty=5)
    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "create_shipment", order=order, receiver=customer,
                    items=[{"product": widget, "qty": 1},
                           {"product": gadget, "qty": 29}])
    assert exc.value.code == "InsufficientStock"
    # the widget decrement rolled back together with everything else
    level = eng.query("stock_level", item=stock_item_id(eng, "WidgetA"))
    assert level["on_hand"] == 60
    assert eng.query("order_state", order=order) == "Placed"
    assert len(eng.state.stores["shipments"]) == 0


def test_untracked_service_products_skip_stock(eng):
    customer = new_customer(eng)
    service = product_id(eng, "TuneUpService")
    order = eng.execute(customer, "place_order", customer=customer,
                        lines=[{"product": service, "qty": 1}])["order"]
    eng.execute(SYSTEM, "create_shipment", order=order, receiver=customer,
                items=[{"product": service, "qty": 1}])
    assert eng.query("order_state", order=order) == "Shipped"


def test_record_receipt_flow(eng):
    customer = new_customer(eng)
    other = new_customer(eng, name="Ben")
    widget = product_id(eng, "WidgetA")
    order = eng.execute(customer, "place_order", customer=customer,
                        lines=[{"product": widget, "qty": 1}])["order"]
    shipment = eng.execute(SYSTEM, "create_shipment", order=order,
                           receiver=customer,
                           items=[{"product": widget, "qty": 1}])["shipment"]
    with pytest.raises(DomainError) as exc:
        eng.execute(other, "record_receipt", shipment=shipment, receiver=other)
    assert exc.value.code == "WrongReceiver"
    eng.execute(customer, "record_receipt", shipment=shipment, receiver=customer)
    assert eng.query("shipment_state", shipment=shipment) == "Received"
    with pytest.raises(DomainError) as exc:
        eng.execute(customer, "record_receipt", shipment=shipment,
                    receiver=customer)
    assert exc.value.code == "AlreadyReceived"


def test_receiver_may_differ_from_orderer(eng):
    buyer = new_customer(eng, name="Ana")
    recipient = new_customer(eng, name="Gift")
    widget = product_id(eng, "WidgetA")
    order = eng.execute(buyer, "place_order", customer=buyer,
                        lines=[{"product": widget, "qty": 1}])["order"]
    shipment = eng.execute(SYSTEM, "create_shipment", order=order,
                           receiver=recipient,
                           items=[{"product": widget, "qty": 1}])["shipment"]
    eng.execute(recipient, "record_receipt", shipment=shipment,
                receiver=recipient)
    assert eng.query("shipment_state", shipment=shipment) == "Received"


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                          st.integers(min_value=1, max_value=3),
                          st.booleans()),
                min_size=1, max_size=12))
def test_random_shipments_respect_coverage_oracle(attempts):
    """Order state tracks the brute-force coverage count exactly."""
    engine = fresh_engine()
    customer = new_customer(engine)
    names = ["WidgetA", "WidgetB", "Gadget"]
    substitutes = {"WidgetA": "WidgetB", "WidgetB": "WidgetA", "Gadget": "WidgetA"}
    order = engine.execute(
        customer, "place_order", customer=customer,
        lines=[{"product": product_id(engine, n), "qty": 3} for n in names])["order"]

    for line_index, qty, use_substitute in attempts:
        line_name = names[line_index]
        line = product_id(engine, line_name)
        item = {"qty": qty}
        if use_substitute:
            item["product"] = product_id(engine, substitutes[line_name])
            item["substituted_for"] = line
        else:
            item["product"] = line
        covered = coverage_oracle(engine, order)
        state_before = engine.query("order_state", order=order)
        if state_before == "Shipped" or covered[line] + qty > 3:
            with pytest.raises(DomainError) as exc:
                engine.execute(SYSTEM, "create_shipment", order=order,
                               receiver=customer, items=[item])
            assert exc.value.code in ("OverShipment", "OrderNotShippable")
        else:
            engine.execute(SYSTEM, "create_shipment", order=order,
                           receiver=customer, items=[item])
        after = coverage_oracle(engine, order)
        expected_state = ("Shipped" if all(after[product_id(engine, n)] == 3
                                           for n in names)
                          else "PartiallyShipped" if any(after.values())
                          else "Placed")
        assert engine.query("order_state", order=order) == expected_state
    assert engine.check_invariants().ok()
