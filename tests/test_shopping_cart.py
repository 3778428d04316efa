"""Cart mechanics: merge semantics, price snapshots, totals, checkout."""

import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from helpers import new_customer, product_id
from storefront import SYSTEM, DomainError, EntityId

from conftest import fresh_engine


def make_cart(engine, customer=None):
    customer = customer or new_customer(engine)
    cart = engine.execute(customer, "create_cart", customer=customer)["cart"]
    return customer, cart


def test_create_cart_empty_and_open(eng):
    _, cart = make_cart(eng)
    assert eng.query("cart_items", cart=cart) == []
    assert eng.query("cart_state", cart=cart) == "Open"


def test_multiple_carts_per_customer_get_distinct_ids(eng):
    customer = new_customer(eng)
    first = eng.execute(customer, "create_cart", customer=customer)["cart"]
    second = eng.execute(customer, "create_cart", customer=customer)["cart"]
    assert first != second
    created = [record.result["cart"] for record in eng.state.log
               if record.command == "create_cart" and record.outcome == "ok"]
    assert len(created) == len(set(created)) == 2


def test_create_cart_unknown_customer(eng):
    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "create_cart", customer="customer:99")
    assert exc.value.code == "UnknownCustomer"


def test_add_item_merges_quantities(eng):
    customer, cart = make_cart(eng)
    widget = product_id(eng, "WidgetA")
    eng.execute(customer, "add_item", cart=cart, product=widget, qty=2)
    eng.execute(customer, "add_item", cart=cart, product=widget, qty=3)
    assert eng.query("cart_items", cart=cart) == \
        [{"product": "WidgetA", "qty": 5, "unit_price": 1099}]


def test_unit_price_snapshot_survives_catalog_change(eng):
    """Mid-shopping catalog updates never retro-change a cart line."""
    customer, cart = make_cart(eng)
    widget = product_id(eng, "WidgetA")
    eng.execute(customer, "add_item", cart=cart, product=widget, qty=1)
    before = eng.query("cart_total", cart=cart)
    eng.execute(SYSTEM, "update_product", product=widget, changes={"price": 50})
    assert eng.query("cart_total", cart=cart) == before

    # same flow without the catalog update lands on the same total
    control = fresh_engine()
    control_customer, control_cart = make_cart(control)
    control.execute(control_customer, "add_item", cart=control_cart,
                    product=product_id(control, "WidgetA"), qty=1)
    assert control.query("cart_total", cart=control_cart) == before


def test_add_item_errors(eng):
    customer, cart = make_cart(eng)
    widget = product_id(eng, "WidgetA")
    with pytest.raises(DomainError) as exc:
        eng.execute(customer, "add_item", cart=cart, product=widget, qty=0)
    assert exc.value.code == "ZeroQuantity"
    with pytest.raises(DomainError) as exc:
        eng.execute(customer, "add_item", cart=cart, product="product:99", qty=1)
    assert exc.value.code == "UnknownProduct"
    eng.execute(customer, "add_item", cart=cart, product=widget, qty=1)
    eng.execute(customer, "checkout", cart=cart)
    with pytest.raises(DomainError) as exc:
        eng.execute(customer, "add_item", cart=cart, product=widget, qty=1)
    assert exc.value.code == "CartClosed"


def test_remove_item(eng):
    customer, cart = make_cart(eng)
    widget = product_id(eng, "WidgetA")
    eng.execute(customer, "add_item", cart=cart, product=widget, qty=2)
    eng.execute(customer, "remove_item", cart=cart, product=widget)
    assert eng.query("cart_items", cart=cart) == []
    with pytest.raises(DomainError) as exc:
        eng.execute(customer, "remove_item", cart=cart, product=widget)
    assert exc.value.code == "ItemNotInCart"


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["add", "remove"]),
                          st.sampled_from(["WidgetA", "WidgetB", "Gadget"]),
                          st.integers(min_value=1, max_value=4)),
                max_size=25))
def test_add_remove_matches_multiset_simulation(script):
    """Cart content equals an independent Counter simulation of the script."""
    engine = fresh_engine(seed_stock=False)
    customer, cart = make_cart(engine)
    reference = Counter()
    for action, name, qty in script:
        product = product_id(engine, name)
        if action == "add":
            engine.execute(customer, "add_item", cart=cart, product=product, qty=qty)
            reference[name] += qty
        else:
            if reference[name]:
                engine.execute(customer, "remove_item", cart=cart, product=product)
                del reference[name]
            else:
                with pytest.raises(DomainError):
                    engine.execute(customer, "remove_item", cart=cart,
                                   product=product)
    got = Counter({row["product"]: row["qty"]
                   for row in engine.query("cart_items", cart=cart)})
    assert got == reference


def test_cart_total_examples(eng):
    customer, cart = make_cart(eng)
    eng.execute(customer, "add_item", cart=cart,
                product=product_id(eng, "WidgetA"), qty=2)
    eng.execute(customer, "add_item", cart=cart,
                product=product_id(eng, "Gadget"), qty=1)
    assert eng.query("cart_total", cart=cart) == {"amount": 2448, "currency": "USD"}

    _, empty = make_cart(eng)
    assert eng.query("cart_total", cart=empty) == {"amount": 0, "currency": "USD"}

    with pytest.raises(DomainError) as exc:
        eng.query("cart_total", cart="cart:99")
    assert exc.value.code == "UnknownCart"


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["WidgetA", "WidgetB", "Gadget",
                                           "TuneUpService"]),
                          st.integers(min_value=1, max_value=9)),
                min_size=1, max_size=50))
def test_cart_total_matches_left_fold(lines):
    engine = fresh_engine(seed_stock=False)
    customer, cart = make_cart(engine)
    expected = 0
    for name, qty in lines:
        product = EntityId.parse(product_id(engine, name))
        engine.execute(customer, "add_item", cart=cart, product=product, qty=qty)
        expected += engine.state.stores["products"][product].price.amount * qty
    assert engine.query("cart_total", cart=cart)["amount"] == expected


def _items_multiset(items):
    return Counter((str(i.product), i.quantity.value, i.unit_price.amount)
                   for i in items)


def test_checkout_generates_matching_order_and_invoice(eng):
    customer, cart = make_cart(eng)
    eng.execute(customer, "add_item", cart=cart,
                product=product_id(eng, "WidgetA"), qty=2)
    eng.execute(customer, "add_item", cart=cart,
                product=product_id(eng, "Gadget"), qty=1)
    result = eng.execute(customer, "checkout", cart=cart)

    # cross-check the live stores against the replayed log
    replayed = eng.replayed_state()
    for state in (eng.state, replayed):
        cart_entity = state.stores["carts"][EntityId.parse(cart)]
        order = state.stores["orders"][EntityId.parse(result["order"])]
        inv = state.stores["invoices"][EntityId.parse(result["invoice"])]
        assert cart_entity.state.value == "CheckedOut"
        assert str(order.customer) == customer
        assert str(inv.customer) == customer
        assert _items_multiset(order.line_items) == _items_multiset(cart_entity.items)
        assert _items_multiset(inv.items) == _items_multiset(cart_entity.items)
    assert eng.query("cart_total", cart=cart) == \
        eng.query("invoice_total", invoice=result["invoice"])


def test_checkout_twice_rejected_without_duplicate_order(eng):
    customer, cart = make_cart(eng)
    eng.execute(customer, "add_item", cart=cart,
                product=product_id(eng, "WidgetA"), qty=1)
    eng.execute(customer, "checkout", cart=cart)
    orders_before = len(eng.state.stores["orders"])
    with pytest.raises(DomainError) as exc:
        eng.execute(customer, "checkout", cart=cart)
    assert exc.value.code == "CartClosed"
    assert len(eng.state.stores["orders"]) == orders_before


def test_checkout_empty_cart(eng):
    customer, cart = make_cart(eng)
    with pytest.raises(DomainError) as exc:
        eng.execute(customer, "checkout", cart=cart)
    assert exc.value.code == "EmptyCart"


def test_closed_cart_commands_leave_no_deltas(eng):
    customer, cart = make_cart(eng)
    eng.execute(customer, "add_item", cart=cart,
                product=product_id(eng, "WidgetA"), qty=1)
    eng.execute(customer, "checkout", cart=cart)
    snapshot = eng.state.to_dict()
    for attempt in range(2):
        with pytest.raises(DomainError):
            eng.execute(customer, "add_item", cart=cart,
                        product=product_id(eng, "WidgetA"), qty=1)
    failed = [r for r in eng.state.log if r.outcome == "error"]
    assert failed and all(r.deltas == [] for r in failed)
    after = eng.state.to_dict()
    after["clock"] = snapshot["clock"]  # failed commands still consume ticks
    assert after == snapshot


def test_the_package_imports_in_a_fresh_interpreter():
    # shopping_cart and order_shipment import each other at module level
    subprocess.run([sys.executable, "-c", "import storefront.shopping_cart"], check=True)
