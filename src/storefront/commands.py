"""The finite command vocabulary: argument schemas, rights metadata,
ownership resolution, and handler glue for every engine operation.

Scenario files and the Python API meet here: argument values may arrive as
JSON primitives (ids as ``kind:serial`` strings, money as minor-unit ints)
or as the rich value types; parsing normalizes both to one canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import catalog, invoice, order_shipment, shopping_cart, stock_manager
from .catalog import ProductStatus
from .foundation import CurrencyMismatch, EntityId, Money, Quantity, SchemaError
from .invoice import InvoiceItem, PaymentMethod
from .order_shipment import ShippedItem
from .state import to_jsonable
from .stock_manager import StockKind


@dataclass(frozen=True)
class ParseContext:
    currency: str


# --- argument parsers ---------------------------------------------------------

def p_str(value, ctx):
    if not isinstance(value, str):
        raise SchemaError(f"expected string, got {value!r}")
    return value


def p_bool(value, ctx):
    if not isinstance(value, bool):
        raise SchemaError(f"expected boolean, got {value!r}")
    return value


def p_int(value, ctx):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"expected integer, got {value!r}")
    return value


def p_id(kind):
    def parse(value, ctx):
        if isinstance(value, EntityId):
            entity_id = value
        elif isinstance(value, str):
            entity_id = EntityId.parse(value)
        else:
            raise SchemaError(f"expected {kind} id, got {value!r}")
        if entity_id.kind != kind:
            raise SchemaError(f"expected {kind} id, got {entity_id}")
        return entity_id
    return parse


def p_actor_id(value, ctx):
    """Ids of either people kind, for creator/validator provenance fields."""
    entity_id = value if isinstance(value, EntityId) else EntityId.parse(value)
    if entity_id.kind not in ("employee", "system"):
        raise SchemaError(f"expected employee or system id, got {entity_id}")
    return entity_id


def p_money(value, ctx):
    """Minor-unit int in the engine currency, or an {amount, currency} object."""
    if isinstance(value, Money):
        money = value
    elif isinstance(value, bool):
        raise SchemaError(f"expected money, got {value!r}")
    elif isinstance(value, int):
        money = Money(value, ctx.currency)
    elif (isinstance(value, dict) and set(value) == {"amount", "currency"}
          and type(value["amount"]) is int and isinstance(value["currency"], str)):
        money = Money(value["amount"], value["currency"])
    else:
        raise SchemaError(f"expected money, got {value!r}")
    if money.currency != ctx.currency:
        raise CurrencyMismatch(
            f"engine currency is {ctx.currency}, got {money.currency}")
    return money


def p_qty(value, ctx):
    if isinstance(value, Quantity):
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"expected quantity, got {value!r}")
    return Quantity(value)


def p_enum(enum_class):
    def parse(value, ctx):
        if isinstance(value, enum_class):
            return value
        try:
            return enum_class(value)
        except ValueError:
            raise SchemaError(
                f"expected one of {[e.value for e in enum_class]}, got {value!r}") from None
    return parse


def p_list(item_parser):
    def parse(value, ctx):
        if not isinstance(value, (list, tuple)):
            raise SchemaError(f"expected list, got {value!r}")
        return [item_parser(item, ctx) for item in value]
    return parse


def p_id_map(key_kind, value_parser):
    """JSON object keyed by id strings -> {EntityId: parsed value}."""
    key_parser = p_id(key_kind)
    def parse(value, ctx):
        if not isinstance(value, dict):
            raise SchemaError(f"expected object, got {value!r}")
        return {key_parser(k, ctx): value_parser(v, ctx) for k, v in value.items()}
    return parse


def p_obj(fields: dict, optional: set | None = None):
    optional = optional or set()
    def parse(value, ctx):
        if not isinstance(value, dict):
            raise SchemaError(f"expected object, got {value!r}")
        unknown = set(value) - set(fields)
        if unknown:
            raise SchemaError(f"unexpected fields: {sorted(unknown)}")
        missing = set(fields) - optional - set(value)
        if missing:
            raise SchemaError(f"missing fields: {sorted(missing)}")
        return {name: fields[name](value[name], ctx)
                for name in fields if name in value}
    return parse


def p_changes(value, ctx):
    parsed = p_obj({"name": p_str, "price": p_money,
                    "status": p_enum(ProductStatus)},
                   optional={"name", "price", "status"})(value, ctx)
    return parsed


def p_edit(value, ctx):
    if not isinstance(value, dict) or len(value) != 1:
        raise SchemaError(f"each edit is one add/delete object, got {value!r}")
    action, body = next(iter(value.items()))
    if action == "add":
        fields = p_obj({"description": p_str, "product": p_id("product"),
                        "quantity": p_qty, "unit_price": p_money},
                       optional={"product"})(body, ctx)
        if fields["quantity"].value < 1:
            raise SchemaError("invoice item quantity must be at least 1")
        return {"add": InvoiceItem(description=fields["description"],
                                   product=fields.get("product"),
                                   quantity=fields["quantity"],
                                   unit_price=fields["unit_price"])}
    if action == "delete":
        return {"delete": p_str(body, ctx)}
    raise SchemaError(f"unknown edit action {action!r}")


def p_order_line(value, ctx):
    fields = p_obj({"product": p_id("product"), "qty": p_qty})(value, ctx)
    return (fields["product"], fields["qty"])


def p_shipped_item(value, ctx):
    fields = p_obj({"product": p_id("product"), "qty": p_qty,
                    "substituted_for": p_id("product")},
                   optional={"substituted_for"})(value, ctx)
    return ShippedItem(product=fields["product"], quantity=fields["qty"],
                       substituted_for=fields.get("substituted_for"))


# --- owner resolution ---------------------------------------------------------

def _owner_none(state, args):
    return None, False


def _owner_arg(key):
    def resolve(state, args):
        return args[key], False
    return resolve


def _owner_via(store, key, attr):
    def resolve(state, args):
        entity = state.stores[store].get(args[key])
        if entity is None:
            return None, True
        return getattr(entity, attr), False
    return resolve


# --- command specs ------------------------------------------------------------

@dataclass(frozen=True)
class CommandSpec:
    name: str
    kind: str  # target entity kind, the first element of the required right
    schema: dict  # arg name -> (parser, required)
    owner: object  # callable(state, args) -> (owner id | None, target_missing)
    run: object  # callable(engine, txn, actor, args) -> jsonable result


def _spec(name, kind, schema, run, owner=_owner_none):
    return CommandSpec(name=name, kind=kind, schema=schema, owner=owner, run=run)


def _run_create_customer(engine, txn, actor, args):
    customer = shopping_cart.create_customer(
        txn, args["name"], args.get("loyalty_member", False),
        set(args.get("roles", ())))
    return {"customer": str(customer)}


def _run_create_employee(engine, txn, actor, args):
    employee = invoice.create_employee(txn, args["name"], set(args.get("roles", ())))
    return {"employee": str(employee)}


def _run_create_catalog(engine, txn, actor, args):
    return {"catalog": str(catalog.create_catalog(txn, args["name"]))}


def _run_add_product(engine, txn, actor, args):
    product = catalog.add_product(txn, args["catalog"], args["name"],
                                  args["price"], args["status"])
    return {"product": str(product)}


def _run_set_product_info(engine, txn, actor, args):
    catalog.set_product_info(txn, args["product"], args["description"],
                             args.get("comparison_notes", ""))
    return {}


def _run_update_product(engine, txn, actor, args):
    notifications = catalog.update_product(txn, args["product"], args["changes"])
    return {"notifications": [str(n) for n in notifications]}


def _run_link_similar(engine, txn, actor, args):
    catalog.link_similar(txn, args["a"], args["b"])
    return {}


def _run_subscribe(engine, txn, actor, args):
    catalog.subscribe(txn, args["customer"], args["product"])
    return {}


def _run_search(engine, txn, actor, args):
    found = catalog.search(txn.state, args["catalog"],
                           args.get("name_substring"), args.get("status"),
                           args.get("max_price"))
    return {"products": [str(p) for p in found]}


def _run_create_cart(engine, txn, actor, args):
    return {"cart": str(shopping_cart.create_cart(txn, args["customer"]))}


def _run_add_item(engine, txn, actor, args):
    shopping_cart.add_item(txn, args["cart"], args["product"], args["qty"])
    return {}


def _run_remove_item(engine, txn, actor, args):
    shopping_cart.remove_item(txn, args["cart"], args["product"])
    return {}


def _run_cart_total(engine, txn, actor, args):
    total = shopping_cart.cart_total(txn.state, args["cart"], engine.currency)
    return {"total": total.to_dict()}


def _run_checkout(engine, txn, actor, args):
    order, inv = shopping_cart.checkout(txn, args["cart"])
    return {"order": str(order), "invoice": str(inv)}


def _run_create_invoice(engine, txn, actor, args):
    inv = invoice.create_invoice(txn, args["creator"], args["customer"])
    return {"invoice": str(inv)}


def _run_prepare_invoice(engine, txn, actor, args):
    total = invoice.prepare_invoice(txn, engine.rulebook, args["invoice"],
                                    args.get("edits", []), args.get("policies", []),
                                    engine.currency)
    return {"total": total.to_dict()}


def _run_validate_invoice(engine, txn, actor, args):
    verdict, reasons = invoice.validate_invoice(
        txn, engine.rulebook, args["validator"], args["invoice"],
        args.get("rules", []), engine.currency)
    return {"verdict": verdict, "reasons": reasons}


def _run_record_payment(engine, txn, actor, args):
    payment = invoice.record_payment(txn, args["customer"], args["invoice"],
                                     args["amount"], args["method"],
                                     engine.currency)
    return {"payment": str(payment)}


def _run_validate_payment(engine, txn, actor, args):
    verdict, reasons = invoice.validate_payment(
        txn, engine.rulebook, args["validator"], args["payment"],
        args.get("rules", []), engine.currency)
    return {"verdict": verdict, "reasons": reasons}


def _run_invoice_balance(engine, txn, actor, args):
    balance = invoice.invoice_balance(txn.state, args["invoice"], engine.currency)
    return {"balance": balance.to_dict()}


def _run_place_order(engine, txn, actor, args):
    order = order_shipment.place_order(txn, args["customer"], args["lines"])
    return {"order": str(order)}


def _run_cancel_order(engine, txn, actor, args):
    order_shipment.cancel_order(txn, args["order"])
    return {}


def _run_create_shipment(engine, txn, actor, args):
    shipment, inv = order_shipment.create_shipment(
        txn, args["order"], args["items"], args["receiver"], engine.currency)
    return {"shipment": str(shipment), "invoice": str(inv)}


def _run_record_receipt(engine, txn, actor, args):
    order_shipment.record_receipt(txn, args["shipment"], args["receiver"])
    return {}


def _run_create_stockroom(engine, txn, actor, args):
    return {"stockroom": str(stock_manager.create_stockroom(txn, args["name"]))}


def _run_create_stock_item(engine, txn, actor, args):
    item = stock_manager.create_stock_item(txn, args["name"], args["kind"],
                                           args.get("product_link"))
    return {"stock_item": str(item)}


def _run_add_to_stock(engine, txn, actor, args):
    stock_manager.add_to_stock(txn, args["item"], args["qty"],
                               args.get("allocation"), engine.add_policy)
    return {"policy": None if "allocation" in args else engine.add_policy}


def _run_remove_from_stock(engine, txn, actor, args):
    stock_manager.remove_from_stock(txn, args["item"], args["qty"], args.get("room"))
    return {}


def _run_transfer(engine, txn, actor, args):
    stock_manager.transfer(txn, args["item"], args["qty"], args["from_room"],
                           args["to_room"])
    return {}


def _run_create_shop_order(engine, txn, actor, args):
    order = stock_manager.create_shop_order(
        txn, args["product"], args["output_qty"],
        {item: qty.value for item, qty in args["bill_of_materials"].items()})
    return {"shop_order": str(order)}


def _run_cut_shop_order(engine, txn, actor, args):
    stock_manager.cut_shop_order(txn, args["order"])
    return {}


def _run_pick_components(engine, txn, actor, args):
    drains = args.get("room_drains")
    if drains is not None:
        drains = {item: {room: qty.value for room, qty in rooms.items()}
                  for item, rooms in drains.items()}
    stock_manager.pick_components(txn, args["order"], drains)
    return {}


def _run_finish_fabrication(engine, txn, actor, args):
    stock_manager.finish_fabrication(txn, args["order"], args["room"])
    return {}


def _req(parser):
    return (parser, True)


def _opt(parser):
    return (parser, False)


COMMANDS = {spec.name: spec for spec in [
    # bootstrap / registry plumbing
    _spec("create_customer", "customer",
          {"name": _req(p_str), "loyalty_member": _opt(p_bool),
           "roles": _opt(p_list(p_str))},
          _run_create_customer),
    _spec("create_employee", "employee",
          {"name": _req(p_str), "roles": _opt(p_list(p_str))},
          _run_create_employee),
    _spec("create_catalog", "catalog", {"name": _req(p_str)}, _run_create_catalog),

    # catalog
    _spec("add_product", "product",
          {"catalog": _req(p_id("catalog")), "name": _req(p_str),
           "price": _req(p_money), "status": _req(p_enum(ProductStatus))},
          _run_add_product),
    _spec("set_product_info", "product",
          {"product": _req(p_id("product")), "description": _req(p_str),
           "comparison_notes": _opt(p_str)},
          _run_set_product_info),
    _spec("update_product", "product",
          {"product": _req(p_id("product")), "changes": _req(p_changes)},
          _run_update_product),
    _spec("link_similar", "product",
          {"a": _req(p_id("product")), "b": _req(p_id("product"))},
          _run_link_similar),
    _spec("subscribe", "product",
          {"customer": _req(p_id("customer")), "product": _req(p_id("product"))},
          _run_subscribe, owner=_owner_arg("customer")),
    _spec("search", "catalog",
          {"catalog": _req(p_id("catalog")), "name_substring": _opt(p_str),
           "status": _opt(p_enum(ProductStatus)), "max_price": _opt(p_money)},
          _run_search),

    # shopping cart
    _spec("create_cart", "cart", {"customer": _req(p_id("customer"))},
          _run_create_cart, owner=_owner_arg("customer")),
    _spec("add_item", "cart",
          {"cart": _req(p_id("cart")), "product": _req(p_id("product")),
           "qty": _req(p_qty)},
          _run_add_item, owner=_owner_via("carts", "cart", "customer")),
    _spec("remove_item", "cart",
          {"cart": _req(p_id("cart")), "product": _req(p_id("product"))},
          _run_remove_item, owner=_owner_via("carts", "cart", "customer")),
    _spec("cart_total", "cart", {"cart": _req(p_id("cart"))},
          _run_cart_total, owner=_owner_via("carts", "cart", "customer")),
    _spec("checkout", "cart", {"cart": _req(p_id("cart"))},
          _run_checkout, owner=_owner_via("carts", "cart", "customer")),

    # invoice
    _spec("create_invoice", "invoice",
          {"creator": _req(p_actor_id), "customer": _req(p_id("customer"))},
          _run_create_invoice),
    _spec("prepare_invoice", "invoice",
          {"invoice": _req(p_id("invoice")), "edits": _opt(p_list(p_edit)),
           "policies": _opt(p_list(p_str))},
          _run_prepare_invoice),
    _spec("validate_invoice", "invoice",
          {"validator": _req(p_id("employee")), "invoice": _req(p_id("invoice")),
           "rules": _opt(p_list(p_str))},
          _run_validate_invoice),
    _spec("record_payment", "payment",
          {"customer": _req(p_id("customer")), "invoice": _req(p_id("invoice")),
           "amount": _req(p_money), "method": _req(p_enum(PaymentMethod))},
          _run_record_payment, owner=_owner_via("invoices", "invoice", "customer")),
    _spec("validate_payment", "payment",
          {"validator": _req(p_id("employee")), "payment": _req(p_id("payment")),
           "rules": _opt(p_list(p_str))},
          _run_validate_payment),
    _spec("invoice_balance", "invoice", {"invoice": _req(p_id("invoice"))},
          _run_invoice_balance, owner=_owner_via("invoices", "invoice", "customer")),

    # order and shipment
    _spec("place_order", "order",
          {"customer": _req(p_id("customer")), "lines": _req(p_list(p_order_line))},
          _run_place_order, owner=_owner_arg("customer")),
    _spec("cancel_order", "order", {"order": _req(p_id("order"))},
          _run_cancel_order, owner=_owner_via("orders", "order", "customer")),
    _spec("create_shipment", "shipment",
          {"order": _req(p_id("order")), "items": _req(p_list(p_shipped_item)),
           "receiver": _req(p_id("customer"))},
          _run_create_shipment),
    _spec("record_receipt", "shipment",
          {"shipment": _req(p_id("shipment")), "receiver": _req(p_id("customer"))},
          _run_record_receipt, owner=_owner_via("shipments", "shipment", "receiver")),

    # stock manager
    _spec("create_stockroom", "stockroom", {"name": _req(p_str)},
          _run_create_stockroom),
    _spec("create_stock_item", "stock_item",
          {"name": _req(p_str), "kind": _req(p_enum(StockKind)),
           "product_link": _opt(p_id("product"))},
          _run_create_stock_item),
    _spec("add_to_stock", "stock_item",
          {"item": _req(p_id("stock_item")), "qty": _req(p_qty),
           "allocation": _opt(p_id_map("stockroom", p_int))},
          _run_add_to_stock),
    _spec("remove_from_stock", "stock_item",
          {"item": _req(p_id("stock_item")), "qty": _req(p_qty),
           "room": _opt(p_id("stockroom"))},
          _run_remove_from_stock),
    _spec("transfer", "stock_item",
          {"item": _req(p_id("stock_item")), "qty": _req(p_qty),
           "from_room": _req(p_id("stockroom")), "to_room": _req(p_id("stockroom"))},
          _run_transfer),
    _spec("create_shop_order", "shop_order",
          {"product": _req(p_id("stock_item")), "output_qty": _req(p_int),
           "bill_of_materials": _req(p_id_map("stock_item", p_qty))},
          _run_create_shop_order),
    _spec("cut_shop_order", "shop_order", {"order": _req(p_id("shop_order"))},
          _run_cut_shop_order),
    _spec("pick_components", "shop_order",
          {"order": _req(p_id("shop_order")),
           "room_drains": _opt(p_id_map("stock_item", p_id_map("stockroom", p_qty)))},
          _run_pick_components),
    _spec("finish_fabrication", "shop_order",
          {"order": _req(p_id("shop_order")), "room": _req(p_id("stockroom"))},
          _run_finish_fabrication),
]}


def parse_args(spec: CommandSpec, raw_args: dict,
               ctx: ParseContext) -> tuple[dict, dict]:
    """Parse ``raw_args`` against the spec's schema in one pass.

    Returns the parsed values and the payload recorded in the event log:
    each parsed value's canonical JSON form, built in the same loop.
    """
    if not isinstance(raw_args, dict):
        raise SchemaError(f"command args must be an object, got {raw_args!r}")
    unknown = raw_args.keys() - spec.schema.keys()
    if unknown:
        # a schema names only strings, so every non-string key lands here
        if not all(isinstance(name, str) for name in unknown):
            raise SchemaError(f"{spec.name}: arg names must be strings, "
                              f"got {sorted(map(repr, unknown))}")
        raise SchemaError(f"{spec.name}: unexpected args {sorted(unknown)}")
    parsed, payload = {}, {}
    for name, (parser, required) in spec.schema.items():
        if name not in raw_args:
            if required:
                raise SchemaError(f"{spec.name}: missing required arg {name!r}")
            continue
        value = parsed[name] = parser(raw_args[name], ctx)
        cls = value.__class__
        if cls is str or cls is int or cls is bool:
            payload[name] = value
        elif cls is EntityId:
            payload[name] = value._text
        elif cls is Quantity:
            payload[name] = value.value
        else:
            payload[name] = to_jsonable(value)
    return parsed, payload


def canonical_payload(args: dict) -> dict:
    """Parsed args rendered to the JSON form recorded in the event log.

    The reference definition of the payload: ``parse_args`` builds the same
    value in its parse pass, so dispatch does not call this.
    """
    return {name: to_jsonable(value) for name, value in sorted(args.items())}
