"""The finite command vocabulary: argument schemas, rights metadata,
ownership resolution, and handler glue for every engine operation.

Scenario files and the Python API meet here: argument values may arrive as
JSON primitives (ids as ``kind:serial`` strings, money as minor-unit ints)
or as the rich value types; parsing normalizes both to one canonical form.
"""

from __future__ import annotations

import functools
import typing
from dataclasses import dataclass
from enum import Enum

from . import catalog, invoice, order_shipment, shopping_cart, stock_manager
from .catalog import ProductStatus
from .foundation import (
    _IDS,
    CurrencyMismatch,
    EntityId,
    Money,
    Quantity,
    SchemaError,
    run_generated,
)
from .invoice import InvoiceItem, PaymentMethod
from .order_shipment import ShippedItem
from .state import to_jsonable
from .stock_manager import StockKind


@dataclass(frozen=True)
class ParseContext:
    currency: str


# --- argument declarations ----------------------------------------------------
# The args of a command or a query are the ``Fields`` of one object. A field
# is declared as ``str``, ``bool``, ``int``, ``Money``, ``Quantity``, an enum
# class, ``Id``, ``list[X]``, ``dict[Id(kind), X]``, ``Fields`` or ``EDIT``.


class Id:
    """An entity id of one of ``kinds``: an ``EntityId`` or its text."""

    def __init__(self, *kinds: str):
        self.kinds = kinds


@dataclass(eq=False)
class Fields:
    """An object of the declared fields, each required unless ``optional``,
    parsed to a dict of those present or to ``into(*fields)`` (None for an
    absent one); a tuple's payload is a list, a record's its ``to_dict()``."""

    fields: dict
    optional: set | frozenset = frozenset()
    into: type | None = None


ORDER_LINE = Fields({"product": Id("product"), "qty": Quantity}, into=tuple)
SHIPPED_ITEM = Fields({"product": Id("product"), "qty": Quantity,
                       "substituted_for": Id("product")}, {"substituted_for"}, ShippedItem)
INVOICE_ITEM = Fields({"description": str, "product": Id("product"), "quantity": Quantity,
                       "unit_price": Money}, {"product"}, InvoiceItem)
EDIT = "edit"  # {"add": INVOICE_ITEM, quantity at least 1} or {"delete": description}

# Each scalar kind's code template: lines that parse the raw value in local
# ``{v}`` into ``{v}``, and the expression of its payload (its canonical JSON
# form). A value of the exact JSON class passes the first test; any other is
# accepted as an isinstance check accepts it, or rejected.
_TEMPLATES = {
    str: ("if not isinstance({v}, str): _wrong({v}, 'string')",
          "{v} if {v}.__class__ is str else to_jsonable({v})"),
    int: ("if {v}.__class__ is not int and ({v}.__class__ is bool or not isinstance({v}, int)):"
          " _wrong({v}, 'integer')", "{v} if {v}.__class__ is int else to_jsonable({v})"),
    bool: ("if {v}.__class__ is not bool: _wrong({v}, 'boolean')", "{v}"),
    Money: ("{v} = Money({v}, currency) if {v}.__class__ is int else _money({v}, currency)",
            "{{'amount': {v}.amount, 'currency': {v}.currency}}"),
    Quantity: ("if {v}.__class__ is not Quantity: "
               "{v} = Quantity({v}) if {v}.__class__ is int else _qty({v})", "{v}.value"),
    Id: ("if {v}.__class__ is not EntityId: {v} = ({v}.__class__ is str and ids_get({v})) "
         "or ({v} if isinstance({v}, EntityId) else parse_id({v}))\n"
         "if {v}.kind not in {kinds!r}: _wrong({v}._text, {expected!r})", "{v}._text"),
    Enum: ("if {v}.__class__ is not {cls}: {v} = {get}({v}) or _enum({cls}, {v}) "
           "if {v}.__class__ is str else _enum({cls}, {v})", "{v}._value_"),
}


def _wrong(value, expected: str):
    raise SchemaError(f"expected {expected}, got {value!r}")


def _names(what: str, names, others):
    """Reject ``names`` not among ``others``, listed in repr order."""
    raise SchemaError(f"{what} {sorted(names - others, key=repr)}")


def _money(value, currency: str) -> Money:
    """Minor units in the engine currency, or an {amount, currency} object."""
    if value.__class__ is not bool and isinstance(value, int):
        value = Money(value, currency)
    elif (isinstance(value, dict) and value.keys() == {"amount", "currency"}
          and value["amount"].__class__ is int and isinstance(value["currency"], str)):
        value = Money(value["amount"], value["currency"])
    elif not isinstance(value, Money):
        _wrong(value, "money")
    if value.currency != currency:
        raise CurrencyMismatch(f"engine currency is {currency}, got {value.currency}")
    return value


def _qty(value) -> Quantity:
    if isinstance(value, Quantity):
        return value
    if value.__class__ is bool or not isinstance(value, int):
        _wrong(value, "quantity")
    return Quantity(value)


def _enum(enum_class, value):
    if isinstance(value, enum_class):
        return value
    try:
        return enum_class(value)
    except ValueError:
        _wrong(value, f"one of {[e.value for e in enum_class]}")


def _indent(lines: list[str]) -> list[str]:
    return [f"    {line}" for line in lines]


class _ParserSource:
    """The lines of one generated parser, and the names those lines use."""

    def __init__(self):
        self.names = {"EntityId": EntityId, "Money": Money, "Quantity": Quantity,
                      "SchemaError": SchemaError, "ids_get": _IDS.get, "parse_id": EntityId.parse,
                      "to_jsonable": to_jsonable, "_wrong": _wrong, "_names": _names,
                      "_money": _money, "_qty": _qty, "_enum": _enum}
        self._count = 0

    def name(self, value, label: str) -> str:
        name = f"{label}_{len(self.names)}"
        self.names[name] = value
        return name

    def var(self) -> str:
        self._count += 1
        return f"v{self._count}"

    def lines(self, decl, v: str) -> tuple[list[str], str]:
        """Lines that parse the raw value in local ``v`` as ``decl`` into
        ``v``, and the expression of its payload."""
        if isinstance(decl, Fields):
            return self.fields(decl, v)
        if isinstance(decl, type) and issubclass(decl, Enum):
            template, fill = _TEMPLATES[Enum], {
                "cls": self.name(decl, decl.__name__),
                "get": self.name({member.value: member for member in decl}.get, "values")}
        elif isinstance(decl, Id):
            template = _TEMPLATES[Id]
            fill = {"kinds": decl.kinds, "expected": f"{' or '.join(decl.kinds)} id"}
        elif decl in _TEMPLATES:
            template, fill = _TEMPLATES[decl], {}
        else:
            return self.structure(decl, v)
        lines, payload = (part.format(v=v, **fill) for part in template)
        return lines.split("\n"), payload

    def structure(self, decl, v: str) -> tuple[list[str], str]:
        """The lines of a list, an id map or an edit."""
        origin, args = typing.get_origin(decl), typing.get_args(decl)
        parsed, payload, k, w = self.var(), self.var(), self.var(), self.var()
        if origin is list:
            item, item_payload = self.lines(args[0], w)
            return ([f"if not isinstance({v}, (list, tuple)): _wrong({v}, 'list')",
                     f"{parsed}, {payload} = [], []", f"for {w} in {v}:", *_indent(item),
                     f"    {parsed}.append({w})", f"    {payload}.append({item_payload})",
                     f"{v} = {parsed}"], payload)
        if origin is dict and isinstance(args[0], Id):
            key, key_payload = self.lines(args[0], k)
            value, value_payload = self.lines(args[1], w)
            return ([f"if not isinstance({v}, dict): _wrong({v}, 'object')",
                     f"{parsed}, {payload} = {{}}, {{}}", f"for {k}, {w} in {v}.items():",
                     *_indent(key + value), f"    {parsed}[{k}] = {w}",
                     f"    {payload}[{key_payload}] = {value_payload}", f"{v} = {parsed}"],
                    payload)
        if decl != EDIT:
            raise TypeError(decl)
        add, add_payload = self.fields(INVOICE_ITEM, w)
        delete, delete_payload = self.lines(str, w)
        return ([f"if not isinstance({v}, dict) or len({v}) != 1: "
                 f"_wrong({v}, 'one add or delete object per edit')",
                 f"(({k}, {w}),) = {v}.items()", f"if {k} == 'add':", *_indent(add),
                 f"    if {w}.quantity.value < 1: "
                 f"raise SchemaError('invoice item quantity must be at least 1')",
                 f"    {v}, {payload} = {{'add': {w}}}, {{'add': {add_payload}}}",
                 f"elif {k} == 'delete':", *_indent(delete),
                 f"    {v}, {payload} = {{'delete': {w}}}, {{'delete': {delete_payload}}}",
                 "else:", f"    _wrong({k}, 'edit action add or delete')"], payload)

    def fields(self, decl: Fields, v: str, label: str = "") -> tuple[list[str], str]:
        """The lines of ``Fields``: reject a non-object, an undeclared field,
        a missing one (under a schema's ``label``, when its turn comes), then
        parse each field present in declaration order."""
        if decl.into is tuple and decl.optional:  # a list payload has no absent items
            raise TypeError(decl)
        names = self.name(frozenset(decl.fields), "names")
        unexpected = f"{label}: unexpected args" if label else "unexpected fields:"
        lines = [f"if {v}.__class__ is not dict: "
                 f"{v} = dict({v}) if isinstance({v}, dict) else _wrong({v}, 'object')",
                 f"if not {v}.keys() <= {names}: _names({unexpected!r}, {v}.keys(), {names})"]
        if decl.optional < decl.fields.keys() and not label:
            required = self.name(frozenset(decl.fields) - decl.optional, "required")
            lines.append(f"if not {v}.keys() >= {required}: "
                         f"_names('missing fields:', {required}, {v}.keys())")
        parsed, payload = self.var(), self.var()
        if decl.into is None:
            lines.append(f"{parsed}, {payload} = {{}}, {{}}")
        fields, payloads = [], []
        for name, field_decl in decl.fields.items():
            f = self.var()
            try:  # the outermost arg is the one named
                field, field_payload = self.lines(field_decl, f)
            except TypeError:
                raise TypeError(f"{label}: arg {name!r}: no kind parses {field_decl!r}") from None
            fields.append(f)
            payloads.append(field_payload)
            if decl.into is None:
                field.append(f"{parsed}[{name!r}], {payload}[{name!r}] = {f}, {field_payload}")
            if name in decl.optional:
                lines += ([f"{f} = None"] if decl.into else []) + [
                    f"if {name!r} in {v}:", f"    {f} = {v}[{name!r}]", *_indent(field)]
            elif label:
                lines += ["try:", f"    {f} = {v}[{name!r}]", "except KeyError:",
                          f"    raise SchemaError({f'{label}: missing required arg {name!r}'!r})"
                          " from None", *field]
            else:
                lines += [f"{f} = {v}[{name!r}]", *field]
        if decl.into is None:
            return lines + [f"{v} = {parsed}"], payload
        if decl.into is tuple:
            return lines + [f"{v} = ({', '.join(fields)},)"], f"[{', '.join(payloads)}]"
        into = self.name(decl.into, decl.into.__name__)
        return lines + [f"{v} = {into}({', '.join(fields)})"], f"{v}.to_dict()"


@functools.cache
def compile_parser(name: str, schema: Fields, filename: str):
    """Generate ``parse(raw, ctx) -> (parsed, payload)`` for the args of
    ``schema``: it takes them in declaration order and builds the payload
    the event log records in the same pass. An undeclared kind raises
    ``TypeError`` naming the arg. Cached, so a copy of a spec reuses its
    parser."""
    source = _ParserSource()
    lines, payload = source.fields(schema, "raw", name)
    body = ["currency = ctx.currency", *lines, f"return raw, {payload}"]
    run_generated("def parse(raw, ctx):\n" + "".join(f"    {line}\n" for line in body),
                  filename, source.names)
    return source.names["parse"]


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
    schema: Fields  # the args, declared as the fields of an object
    owner: object  # callable(state, args) -> (owner id | None, target_missing)
    run: object  # callable(engine, txn, actor, args) -> its result, as plain JSON

    @functools.cached_property
    def parse(self):
        """``parse(raw, ctx) -> (parsed, payload)``, generated on first use."""
        return compile_parser(self.name, self.schema, f"<parser {self.name}>")


def _spec(name, kind, args, run, owner=_owner_none, optional=frozenset()):
    return CommandSpec(name=name, kind=kind, schema=Fields(args, optional), owner=owner, run=run)


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


COMMANDS = {spec.name: spec for spec in [
    # bootstrap / registry plumbing
    _spec("create_customer", "customer",
          {"name": str, "loyalty_member": bool, "roles": list[str]},
          _run_create_customer, optional={"loyalty_member", "roles"}),
    _spec("create_employee", "employee", {"name": str, "roles": list[str]},
          _run_create_employee, optional={"roles"}),
    _spec("create_catalog", "catalog", {"name": str}, _run_create_catalog),

    # catalog
    _spec("add_product", "product",
          {"catalog": Id("catalog"), "name": str, "price": Money, "status": ProductStatus},
          _run_add_product),
    _spec("set_product_info", "product",
          {"product": Id("product"), "description": str, "comparison_notes": str},
          _run_set_product_info, optional={"comparison_notes"}),
    _spec("update_product", "product",
          {"product": Id("product"),
           "changes": Fields({"name": str, "price": Money, "status": ProductStatus},
                             {"name", "price", "status"})},
          _run_update_product),
    _spec("link_similar", "product", {"a": Id("product"), "b": Id("product")},
          _run_link_similar),
    _spec("subscribe", "product", {"customer": Id("customer"), "product": Id("product")},
          _run_subscribe, owner=_owner_arg("customer")),
    _spec("search", "catalog",
          {"catalog": Id("catalog"), "name_substring": str, "status": ProductStatus,
           "max_price": Money},
          _run_search, optional={"name_substring", "status", "max_price"}),

    # shopping cart
    _spec("create_cart", "cart", {"customer": Id("customer")},
          _run_create_cart, owner=_owner_arg("customer")),
    _spec("add_item", "cart", {"cart": Id("cart"), "product": Id("product"), "qty": Quantity},
          _run_add_item, owner=_owner_via("carts", "cart", "customer")),
    _spec("remove_item", "cart", {"cart": Id("cart"), "product": Id("product")},
          _run_remove_item, owner=_owner_via("carts", "cart", "customer")),
    _spec("cart_total", "cart", {"cart": Id("cart")},
          _run_cart_total, owner=_owner_via("carts", "cart", "customer")),
    _spec("checkout", "cart", {"cart": Id("cart")},
          _run_checkout, owner=_owner_via("carts", "cart", "customer")),

    # invoice
    _spec("create_invoice", "invoice",
          {"creator": Id("employee", "system"), "customer": Id("customer")},
          _run_create_invoice),
    _spec("prepare_invoice", "invoice",
          {"invoice": Id("invoice"), "edits": list[EDIT], "policies": list[str]},
          _run_prepare_invoice, optional={"edits", "policies"}),
    _spec("validate_invoice", "invoice",
          {"validator": Id("employee"), "invoice": Id("invoice"), "rules": list[str]},
          _run_validate_invoice, optional={"rules"}),
    _spec("record_payment", "payment",
          {"customer": Id("customer"), "invoice": Id("invoice"), "amount": Money,
           "method": PaymentMethod},
          _run_record_payment, owner=_owner_via("invoices", "invoice", "customer")),
    _spec("validate_payment", "payment",
          {"validator": Id("employee"), "payment": Id("payment"), "rules": list[str]},
          _run_validate_payment, optional={"rules"}),
    _spec("invoice_balance", "invoice", {"invoice": Id("invoice")},
          _run_invoice_balance, owner=_owner_via("invoices", "invoice", "customer")),

    # order and shipment
    _spec("place_order", "order", {"customer": Id("customer"), "lines": list[ORDER_LINE]},
          _run_place_order, owner=_owner_arg("customer")),
    _spec("cancel_order", "order", {"order": Id("order")},
          _run_cancel_order, owner=_owner_via("orders", "order", "customer")),
    _spec("create_shipment", "shipment",
          {"order": Id("order"), "items": list[SHIPPED_ITEM], "receiver": Id("customer")},
          _run_create_shipment),
    _spec("record_receipt", "shipment",
          {"shipment": Id("shipment"), "receiver": Id("customer")},
          _run_record_receipt, owner=_owner_via("shipments", "shipment", "receiver")),

    # stock manager
    _spec("create_stockroom", "stockroom", {"name": str}, _run_create_stockroom),
    _spec("create_stock_item", "stock_item",
          {"name": str, "kind": StockKind, "product_link": Id("product")},
          _run_create_stock_item, optional={"product_link"}),
    _spec("add_to_stock", "stock_item",
          {"item": Id("stock_item"), "qty": Quantity,
           "allocation": dict[Id("stockroom"), int]},
          _run_add_to_stock, optional={"allocation"}),
    _spec("remove_from_stock", "stock_item",
          {"item": Id("stock_item"), "qty": Quantity, "room": Id("stockroom")},
          _run_remove_from_stock, optional={"room"}),
    _spec("transfer", "stock_item",
          {"item": Id("stock_item"), "qty": Quantity, "from_room": Id("stockroom"),
           "to_room": Id("stockroom")},
          _run_transfer),
    _spec("create_shop_order", "shop_order",
          {"product": Id("stock_item"), "output_qty": int,
           "bill_of_materials": dict[Id("stock_item"), Quantity]},
          _run_create_shop_order),
    _spec("cut_shop_order", "shop_order", {"order": Id("shop_order")}, _run_cut_shop_order),
    _spec("pick_components", "shop_order",
          {"order": Id("shop_order"),
           "room_drains": dict[Id("stock_item"), dict[Id("stockroom"), Quantity]]},
          _run_pick_components, optional={"room_drains"}),
    _spec("finish_fabrication", "shop_order",
          {"order": Id("shop_order"), "room": Id("stockroom")},
          _run_finish_fabrication),
]}


def parse_args(spec: CommandSpec, raw_args: dict,
               ctx: ParseContext) -> tuple[dict, dict]:
    """Parse ``raw_args`` against the spec's schema in one pass.

    Returns the parsed values and the payload recorded in the event log:
    each parsed value's canonical JSON form, built by the spec's generated
    parser in the same pass.
    """
    return spec.parse(raw_args, ctx)


def canonical_payload(args: dict) -> dict:
    """The reference definition of the payload, which ``parse_args`` builds
    in its parse pass; dispatch does not call this."""
    return {name: to_jsonable(value) for name, value in sorted(args.items())}
