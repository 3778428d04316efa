"""Read-only queries over engine state, used by scenario expectations and
exposed through ``Engine.query``.

Queries never touch the event log or the access matrix; they are pure
reads of the current state, returning plain JSON-able values. Where a
human-readable answer exists (product, room, customer names) the query
returns names rather than ids.
"""

from __future__ import annotations

from . import catalog, invoice, order_shipment, shopping_cart
from .commands import p_enum, p_id, p_money, p_str
from .catalog import ProductStatus
from .foundation import SchemaError


def _product_name(state, product_id) -> str:
    return state.stores["products"][product_id].name


def q_cart_total(engine, args):
    return shopping_cart.cart_total(engine.state, args["cart"], engine.currency).to_dict()


def q_cart_state(engine, args):
    cart = engine.state.stores["carts"].get(args["cart"])
    if cart is None:
        raise shopping_cart.UnknownCart(f"no cart {args['cart']}")
    return cart.state.value


def q_cart_items(engine, args):
    cart = engine.state.stores["carts"].get(args["cart"])
    if cart is None:
        raise shopping_cart.UnknownCart(f"no cart {args['cart']}")
    return [{"product": _product_name(engine.state, item.product),
             "qty": item.quantity.value,
             "unit_price": item.unit_price.amount}
            for item in cart.items]


def _require_invoice(engine, args):
    inv = engine.state.stores["invoices"].get(args["invoice"])
    if inv is None:
        raise invoice.UnknownInvoice(f"no invoice {args['invoice']}")
    return inv


def q_invoice_state(engine, args):
    return _require_invoice(engine, args).state.value


def q_invoice_total(engine, args):
    return _require_invoice(engine, args).total(engine.currency).to_dict()


def q_invoice_balance(engine, args):
    return invoice.invoice_balance(engine.state, args["invoice"], engine.currency).to_dict()


def q_payment_state(engine, args):
    payment = engine.state.stores["payments"].get(args["payment"])
    if payment is None:
        raise invoice.UnknownPayment(f"no payment {args['payment']}")
    return payment.state.value


def q_order_state(engine, args):
    order = engine.state.stores["orders"].get(args["order"])
    if order is None:
        raise order_shipment.UnknownOrder(f"no order {args['order']}")
    return order.state.value


def q_order_coverage(engine, args):
    order = engine.state.stores["orders"].get(args["order"])
    if order is None:
        raise order_shipment.UnknownOrder(f"no order {args['order']}")
    covered = order_shipment.shipped_coverage(engine.state, order)
    return {_product_name(engine.state, product): qty
            for product, qty in covered.items()}


def q_shipment_state(engine, args):
    shipment = engine.state.stores["shipments"].get(args["shipment"])
    if shipment is None:
        raise order_shipment.UnknownShipment(f"no shipment {args['shipment']}")
    return shipment.state.value


def q_shipment_items(engine, args):
    shipment = engine.state.stores["shipments"].get(args["shipment"])
    if shipment is None:
        raise order_shipment.UnknownShipment(f"no shipment {args['shipment']}")
    return [{"product": _product_name(engine.state, item.product),
             "qty": item.quantity.value,
             "substituted_for": (_product_name(engine.state, item.substituted_for)
                                 if item.substituted_for else None)}
            for item in shipment.items]


def q_product_price(engine, args):
    product = engine.state.stores["products"].get(args["product"])
    if product is None:
        raise catalog.UnknownProduct(f"no product {args['product']}")
    return product.price.to_dict()


def q_product_status(engine, args):
    product = engine.state.stores["products"].get(args["product"])
    if product is None:
        raise catalog.UnknownProduct(f"no product {args['product']}")
    return product.status.value


def q_similar_products(engine, args):
    product = engine.state.stores["products"].get(args["product"])
    if product is None:
        raise catalog.UnknownProduct(f"no product {args['product']}")
    return sorted(_product_name(engine.state, p) for p in product.similar)


def q_new_products(engine, args):
    found = catalog.new_products(engine.state, args["catalog"])
    return [_product_name(engine.state, p) for p in found]


def q_search_products(engine, args):
    found = catalog.search(engine.state, args["catalog"],
                           args.get("name_substring"), args.get("status"),
                           args.get("max_price"))
    return [_product_name(engine.state, p) for p in found]


def q_notification_count(engine, args):
    count = 0
    for note in engine.state.stores["notifications"].values():
        if "product" in args and note.product != args["product"]:
            continue
        if "customer" in args and note.customer != args["customer"]:
            continue
        count += 1
    return count


def q_notified_customers(engine, args):
    customers = {note.customer for note in engine.state.stores["notifications"].values()
                 if note.product == args["product"]}
    return sorted(engine.state.stores["customers"][c].name for c in customers)


def q_stock_level(engine, args):
    item = engine.state.stores["stock_items"].get(args["item"])
    if item is None:
        raise SchemaError(f"no stock item {args['item']}")
    rooms = {engine.state.stores["stockrooms"][room].name: qty
             for room, qty in sorted(item.inventory.by_room.items())}
    return {"on_hand": item.inventory.on_hand,
            "reserved": item.inventory.reserved,
            "rooms": rooms}


def q_shop_order_stage(engine, args):
    order = engine.state.stores["shop_orders"].get(args["order"])
    if order is None:
        raise SchemaError(f"no shop order {args['order']}")
    return order.stage.value


def q_event_count(engine, args):
    return len(engine.state.log)


# name -> (schema, required arg names, fn)
QUERIES = {
    "cart_total": ({"cart": p_id("cart")}, {"cart"}, q_cart_total),
    "cart_state": ({"cart": p_id("cart")}, {"cart"}, q_cart_state),
    "cart_items": ({"cart": p_id("cart")}, {"cart"}, q_cart_items),
    "invoice_state": ({"invoice": p_id("invoice")}, {"invoice"}, q_invoice_state),
    "invoice_total": ({"invoice": p_id("invoice")}, {"invoice"}, q_invoice_total),
    "invoice_balance": ({"invoice": p_id("invoice")}, {"invoice"}, q_invoice_balance),
    "payment_state": ({"payment": p_id("payment")}, {"payment"}, q_payment_state),
    "order_state": ({"order": p_id("order")}, {"order"}, q_order_state),
    "order_coverage": ({"order": p_id("order")}, {"order"}, q_order_coverage),
    "shipment_state": ({"shipment": p_id("shipment")}, {"shipment"}, q_shipment_state),
    "shipment_items": ({"shipment": p_id("shipment")}, {"shipment"}, q_shipment_items),
    "product_price": ({"product": p_id("product")}, {"product"}, q_product_price),
    "product_status": ({"product": p_id("product")}, {"product"}, q_product_status),
    "similar_products": ({"product": p_id("product")}, {"product"}, q_similar_products),
    "new_products": ({"catalog": p_id("catalog")}, {"catalog"}, q_new_products),
    "search_products": ({"catalog": p_id("catalog"), "name_substring": p_str,
                         "status": p_enum(ProductStatus), "max_price": p_money},
                        {"catalog"}, q_search_products),
    "notification_count": ({"product": p_id("product"), "customer": p_id("customer")},
                           set(), q_notification_count),
    "notified_customers": ({"product": p_id("product")}, {"product"}, q_notified_customers),
    "stock_level": ({"item": p_id("stock_item")}, {"item"}, q_stock_level),
    "shop_order_stage": ({"order": p_id("shop_order")}, {"order"}, q_shop_order_stage),
    "event_count": ({}, set(), q_event_count),
}


def run_query(engine, name: str, raw_args: dict):
    entry = QUERIES.get(name)
    if entry is None:
        raise SchemaError(f"unknown query {name!r}")
    schema, required, fn = entry
    unknown = set(raw_args) - set(schema)
    if unknown:
        raise SchemaError(f"{name}: unexpected args {sorted(unknown)}")
    missing = required - set(raw_args)
    if missing:
        raise SchemaError(f"{name}: missing args {sorted(missing)}")
    from .commands import ParseContext
    ctx = ParseContext(currency=engine.currency)
    args = {key: schema[key](value, ctx) for key, value in raw_args.items()}
    return fn(engine, args)
