"""Read-only queries over engine state, used by scenario expectations and
exposed through ``Engine.query``.

Queries never touch the event log or the access matrix; they are pure
reads of the current state, returning plain JSON-able values. Where a
human-readable answer exists (product, room, customer names) the query
returns names rather than ids.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import catalog, invoice, order_shipment, shopping_cart, stock_manager
from .commands import COMMANDS, Fields, Id, compile_parser
from .foundation import SchemaError


def _product_name(state, product_id) -> str:
    return state.stores["products"][product_id].name


def _names(engine, product_ids) -> list[str]:
    return [_product_name(engine.state, p) for p in product_ids]


def _read(store: str, error: type, noun: str, answer):
    """A query that answers from the entity of ``store`` that its one arg
    names, or raises ``error`` when there is none."""
    def query(engine, args):
        (entity_id,) = args.values()
        entity = engine.state.stores[store].get(entity_id)
        if entity is None:
            raise error(f"no {noun} {entity_id}")
        return answer(engine, entity)
    return query


def q_cart_items(engine, cart):
    return [{"product": _product_name(engine.state, item.product),
             "qty": item.quantity.value,
             "unit_price": item.unit_price.amount}
            for item in cart.items]


def q_order_coverage(engine, order):
    covered = order_shipment.shipped_coverage(engine.state, order)
    return {_product_name(engine.state, product): qty for product, qty in covered.items()}


def q_shipment_items(engine, shipment):
    return [{"product": _product_name(engine.state, item.product),
             "qty": item.quantity.value,
             "substituted_for": (_product_name(engine.state, item.substituted_for)
                                 if item.substituted_for else None)}
            for item in shipment.items]


def q_stock_level(engine, item):
    rooms = {engine.state.stores["stockrooms"][room].name: qty
             for room, qty in sorted(item.inventory.by_room.items())}
    return {"on_hand": item.inventory.on_hand,
            "reserved": item.inventory.reserved,
            "rooms": rooms}


def q_search_products(engine, args):
    return _names(engine, catalog.search(engine.state, args["catalog"],
                                         args.get("name_substring"), args.get("status"),
                                         args.get("max_price")))


def q_notification_count(engine, args):
    count = 0
    for note in engine.state.stores["notifications"].values():
        if "product" in args and note.product != args["product"]:
            continue
        if "customer" in args and note.customer != args["customer"]:
            continue
        count += 1
    return count


def q_notified_customers(engine, product):
    customers = {note.customer for note in engine.state.stores["notifications"].values()
                 if note.product == product.id}
    return sorted(engine.state.stores["customers"][c].name for c in customers)


@dataclass(frozen=True)
class Query:
    name: str
    schema: Fields  # the args, as a command's
    fn: object  # callable(engine, args) -> jsonable answer

    @functools.cached_property
    def parse(self):
        """``parse(raw, ctx) -> (parsed, payload)``, generated on first use."""
        return compile_parser(self.name, self.schema, f"<query parser {self.name}>")


def _by_id(name: str, arg: str, kind: str, fn) -> Query:
    return Query(name, Fields({arg: Id(kind)}), fn)


_cart = functools.partial(_read, "carts", shopping_cart.UnknownCart, "cart")
_invoice = functools.partial(_read, "invoices", invoice.UnknownInvoice, "invoice")
_order = functools.partial(_read, "orders", order_shipment.UnknownOrder, "order")
_shipment = functools.partial(_read, "shipments", order_shipment.UnknownShipment, "shipment")
_product = functools.partial(_read, "products", catalog.UnknownProduct, "product")

QUERIES = {query.name: query for query in [
    # cart_total, invoice_balance and search_products take the schema of their command
    Query("cart_total", COMMANDS["cart_total"].schema,
          lambda engine, args: shopping_cart.cart_total(
              engine.state, args["cart"], engine.currency).to_dict()),
    _by_id("cart_state", "cart", "cart", _cart(lambda engine, cart: cart.state.value)),
    _by_id("cart_items", "cart", "cart", _cart(q_cart_items)),
    _by_id("invoice_state", "invoice", "invoice",
           _invoice(lambda engine, inv: inv.state.value)),
    _by_id("invoice_total", "invoice", "invoice",
           _invoice(lambda engine, inv: inv.total(engine.currency).to_dict())),
    Query("invoice_balance", COMMANDS["invoice_balance"].schema,
          lambda engine, args: invoice.invoice_balance(
              engine.state, args["invoice"], engine.currency).to_dict()),
    _by_id("payment_state", "payment", "payment",
           _read("payments", invoice.UnknownPayment, "payment",
                 lambda engine, payment: payment.state.value)),
    _by_id("order_state", "order", "order", _order(lambda engine, order: order.state.value)),
    _by_id("order_coverage", "order", "order", _order(q_order_coverage)),
    _by_id("shipment_state", "shipment", "shipment",
           _shipment(lambda engine, shipment: shipment.state.value)),
    _by_id("shipment_items", "shipment", "shipment", _shipment(q_shipment_items)),
    _by_id("product_price", "product", "product",
           _product(lambda engine, product: product.price.to_dict())),
    _by_id("product_status", "product", "product",
           _product(lambda engine, product: product.status.value)),
    _by_id("similar_products", "product", "product",
           _product(lambda engine, product: sorted(_names(engine, product.similar)))),
    _by_id("new_products", "catalog", "catalog", lambda engine, args: _names(
        engine, catalog.new_products(engine.state, args["catalog"]))),
    Query("search_products", COMMANDS["search"].schema, q_search_products),
    Query("notification_count",
          Fields({"product": Id("product"), "customer": Id("customer")},
                 {"product", "customer"}),
          q_notification_count),
    _by_id("notified_customers", "product", "product", _product(q_notified_customers)),
    _by_id("stock_level", "item", "stock_item",
           _read("stock_items", stock_manager.UnknownStockItem, "stock item", q_stock_level)),
    _by_id("shop_order_stage", "order", "shop_order",
           _read("shop_orders", stock_manager.UnknownShopOrder, "shop order",
                 lambda engine, order: order.stage.value)),
    Query("event_count", Fields({}), lambda engine, args: len(engine.state.log)),
]}


def run_query(engine, name: str, raw_args: dict):
    query = QUERIES.get(name)
    if query is None:
        raise SchemaError(f"unknown query {name!r}")
    args, _ = query.parse(raw_args, engine.parse_context)
    return query.fn(engine, args)
