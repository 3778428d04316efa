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

from . import catalog, invoice, order_shipment, shopping_cart
from .commands import COMMANDS, Fields, compile_parser
from .foundation import Ref, SchemaError
from .state import KIND_TO_STORE


def _product_name(state, product_id) -> str:
    return state.stores["products"][product_id].name


def _names(engine, product_ids) -> list[str]:
    return [_product_name(engine.state, p) for p in product_ids]


def _value(attribute: str):
    """The answer of a query that returns an enum field of its entity."""
    return lambda engine, entity: getattr(entity, attribute).value


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
        """``parse(raw, currency) -> (parsed, payload)``, a command's form, generated on
        first use; a query logs nothing, so ``run_query`` drops the payload."""
        return compile_parser(self.name, self.schema, f"<query parser {self.name}>")


def _by_id(name: str, arg: str, kind: str, answer) -> Query:
    """A query that answers ``answer(engine, entity)`` from the entity its
    one arg names, or raises its store's ``MISSING`` error."""
    store = KIND_TO_STORE[kind]
    return Query(name, Fields({arg: Ref(kind)}),
                 lambda engine, args: answer(engine, engine.state.need(store, args[arg])))


QUERIES = {query.name: query for query in [
    # cart_total, invoice_balance and search_products take the schema of their command
    Query("cart_total", COMMANDS["cart_total"].schema,
          lambda engine, args: shopping_cart.cart_total(
              engine.state, args["cart"], engine.currency).to_dict()),
    _by_id("cart_state", "cart", "cart", _value("state")),
    _by_id("cart_items", "cart", "cart", q_cart_items),
    _by_id("invoice_state", "invoice", "invoice", _value("state")),
    _by_id("invoice_total", "invoice", "invoice",
           lambda engine, inv: inv.total(engine.currency).to_dict()),
    Query("invoice_balance", COMMANDS["invoice_balance"].schema,
          lambda engine, args: invoice.invoice_balance(
              engine.state, args["invoice"], engine.currency).to_dict()),
    _by_id("payment_state", "payment", "payment", _value("state")),
    _by_id("order_state", "order", "order", _value("state")),
    _by_id("order_coverage", "order", "order", q_order_coverage),
    _by_id("shipment_state", "shipment", "shipment", _value("state")),
    _by_id("shipment_items", "shipment", "shipment", q_shipment_items),
    _by_id("product_price", "product", "product",
           lambda engine, product: product.price.to_dict()),
    _by_id("product_status", "product", "product", _value("status")),
    _by_id("similar_products", "product", "product",
           lambda engine, product: sorted(_names(engine, product.similar))),
    _by_id("new_products", "catalog", "catalog", lambda engine, cat: _names(
        engine, catalog.new_products(engine.state, cat.id))),
    Query("search_products", COMMANDS["search"].schema, q_search_products),
    Query("notification_count",
          Fields({"product": Ref("product"), "customer": Ref("customer")},
                 {"product", "customer"}),
          q_notification_count),
    _by_id("notified_customers", "product", "product", q_notified_customers),
    _by_id("stock_level", "item", "stock_item", q_stock_level),
    _by_id("shop_order_stage", "order", "shop_order", _value("stage")),
    Query("event_count", Fields({}), lambda engine, args: len(engine.state.log)),
]}


def run_query(engine, name: str, raw_args: dict):
    query = QUERIES.get(name)
    if query is None:
        raise SchemaError(f"unknown query {name!r}")
    args, _ = query.parse(raw_args, engine.currency)
    return query.fn(engine, args)
