"""The parsers as they were before each schema compiled to one generated
function: a closure per argument kind, a generic loop over a command's
schema and the validation loop of ``run_query``; and the hand-written
loaders of the input files, before each file's shape was declared. Kept
only as the oracle of the differential tests in ``test_parsers.py``."""

from storefront import catalog as catalog_mod
from storefront import stock_manager
from storefront.catalog import ProductStatus
from storefront.commands import COMMANDS
from storefront.foundation import CurrencyMismatch, EntityId, Money, Quantity, SchemaError
from storefront.invoice import (
    BillingPolicy,
    InvoiceItem,
    PaymentMethod,
    RuleBook,
    ValidationRule,
)
from storefront.order_shipment import ShippedItem
from storefront.rbac import (
    DECLARED_RIGHTS,
    DuplicateRole,
    RbacMatrix,
    RoleDef,
    UnknownRoleInAssignment,
)
from storefront.scenario import Expectation, ParseError, Scenario, ScenarioStep
from storefront.state import to_jsonable
from storefront.stock_manager import StockKind


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


def req(parser):
    return (parser, True)


def opt(parser):
    return (parser, False)


COMMAND_SCHEMAS = {name: schema for name, schema in [
    # bootstrap / registry plumbing
    ("create_customer",
     {"name": req(p_str), "loyalty_member": opt(p_bool),
      "roles": opt(p_list(p_str))}),
    ("create_employee",
     {"name": req(p_str), "roles": opt(p_list(p_str))}),
    ("create_catalog", {"name": req(p_str)}),

    # catalog
    ("add_product",
     {"catalog": req(p_id("catalog")), "name": req(p_str),
      "price": req(p_money), "status": req(p_enum(ProductStatus))}),
    ("set_product_info",
     {"product": req(p_id("product")), "description": req(p_str),
      "comparison_notes": opt(p_str)}),
    ("update_product",
     {"product": req(p_id("product")), "changes": req(p_changes)}),
    ("link_similar",
     {"a": req(p_id("product")), "b": req(p_id("product"))}),
    ("subscribe",
     {"customer": req(p_id("customer")), "product": req(p_id("product"))}),
    ("search",
     {"catalog": req(p_id("catalog")), "name_substring": opt(p_str),
      "status": opt(p_enum(ProductStatus)), "max_price": opt(p_money)}),

    # shopping cart
    ("create_cart", {"customer": req(p_id("customer"))}),
    ("add_item",
     {"cart": req(p_id("cart")), "product": req(p_id("product")),
      "qty": req(p_qty)}),
    ("remove_item",
     {"cart": req(p_id("cart")), "product": req(p_id("product"))}),
    ("cart_total", {"cart": req(p_id("cart"))}),
    ("checkout", {"cart": req(p_id("cart"))}),

    # invoice
    ("create_invoice",
     {"creator": req(p_actor_id), "customer": req(p_id("customer"))}),
    ("prepare_invoice",
     {"invoice": req(p_id("invoice")), "edits": opt(p_list(p_edit)),
      "policies": opt(p_list(p_str))}),
    ("validate_invoice",
     {"validator": req(p_id("employee")), "invoice": req(p_id("invoice")),
      "rules": opt(p_list(p_str))}),
    ("record_payment",
     {"customer": req(p_id("customer")), "invoice": req(p_id("invoice")),
      "amount": req(p_money), "method": req(p_enum(PaymentMethod))}),
    ("validate_payment",
     {"validator": req(p_id("employee")), "payment": req(p_id("payment")),
      "rules": opt(p_list(p_str))}),
    ("invoice_balance", {"invoice": req(p_id("invoice"))}),

    # order and shipment
    ("place_order",
     {"customer": req(p_id("customer")), "lines": req(p_list(p_order_line))}),
    ("cancel_order", {"order": req(p_id("order"))}),
    ("create_shipment",
     {"order": req(p_id("order")), "items": req(p_list(p_shipped_item)),
      "receiver": req(p_id("customer"))}),
    ("record_receipt",
     {"shipment": req(p_id("shipment")), "receiver": req(p_id("customer"))}),

    # stock manager
    ("create_stockroom", {"name": req(p_str)}),
    ("create_stock_item",
     {"name": req(p_str), "kind": req(p_enum(StockKind)),
      "product_link": opt(p_id("product"))}),
    ("add_to_stock",
     {"item": req(p_id("stock_item")), "qty": req(p_qty),
      "allocation": opt(p_id_map("stockroom", p_int))}),
    ("remove_from_stock",
     {"item": req(p_id("stock_item")), "qty": req(p_qty),
      "room": opt(p_id("stockroom"))}),
    ("transfer",
     {"item": req(p_id("stock_item")), "qty": req(p_qty),
      "from_room": req(p_id("stockroom")), "to_room": req(p_id("stockroom"))}),
    ("create_shop_order",
     {"product": req(p_id("stock_item")), "output_qty": req(p_int),
      "bill_of_materials": req(p_id_map("stock_item", p_qty))}),
    ("cut_shop_order", {"order": req(p_id("shop_order"))}),
    ("pick_components",
     {"order": req(p_id("shop_order")),
      "room_drains": opt(p_id_map("stock_item", p_id_map("stockroom", p_qty)))}),
    ("finish_fabrication",
     {"order": req(p_id("shop_order")), "room": req(p_id("stockroom"))}),
]}


def parse_args(command: str, raw_args: dict, ctx) -> tuple[dict, dict]:
    """Parse ``raw_args`` against the command's schema in one pass.

    Returns the parsed values and the payload recorded in the event log:
    each parsed value's canonical JSON form, built in the same loop.
    """
    if not isinstance(raw_args, dict):
        raise SchemaError(f"command args must be an object, got {raw_args!r}")
    unknown = raw_args.keys() - COMMAND_SCHEMAS[command].keys()
    if unknown:
        # a schema names only strings, so every non-string key lands here
        if not all(isinstance(name, str) for name in unknown):
            raise SchemaError(f"{command}: arg names must be strings, "
                              f"got {sorted(map(repr, unknown))}")
        raise SchemaError(f"{command}: unexpected args {sorted(unknown)}")
    parsed, payload = {}, {}
    for name, (parser, required) in COMMAND_SCHEMAS[command].items():
        if name not in raw_args:
            if required:
                raise SchemaError(f"{command}: missing required arg {name!r}")
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


QUERY_SCHEMAS = {
    "cart_total": ({"cart": p_id("cart")}, {"cart"}),
    "cart_state": ({"cart": p_id("cart")}, {"cart"}),
    "cart_items": ({"cart": p_id("cart")}, {"cart"}),
    "invoice_state": ({"invoice": p_id("invoice")}, {"invoice"}),
    "invoice_total": ({"invoice": p_id("invoice")}, {"invoice"}),
    "invoice_balance": ({"invoice": p_id("invoice")}, {"invoice"}),
    "payment_state": ({"payment": p_id("payment")}, {"payment"}),
    "order_state": ({"order": p_id("order")}, {"order"}),
    "order_coverage": ({"order": p_id("order")}, {"order"}),
    "shipment_state": ({"shipment": p_id("shipment")}, {"shipment"}),
    "shipment_items": ({"shipment": p_id("shipment")}, {"shipment"}),
    "product_price": ({"product": p_id("product")}, {"product"}),
    "product_status": ({"product": p_id("product")}, {"product"}),
    "similar_products": ({"product": p_id("product")}, {"product"}),
    "new_products": ({"catalog": p_id("catalog")}, {"catalog"}),
    "search_products": ({"catalog": p_id("catalog"), "name_substring": p_str,
                         "status": p_enum(ProductStatus), "max_price": p_money},
                        {"catalog"}),
    "notification_count": ({"product": p_id("product"), "customer": p_id("customer")},
                           set()),
    "notified_customers": ({"product": p_id("product")}, {"product"}),
    "stock_level": ({"item": p_id("stock_item")}, {"item"}),
    "shop_order_stage": ({"order": p_id("shop_order")}, {"order"}),
    "event_count": ({}, set()),
}


def query_args(name: str, raw_args: dict, ctx) -> dict:
    schema, required = QUERY_SCHEMAS[name]
    unknown = set(raw_args) - set(schema)
    if unknown:
        raise SchemaError(f"{name}: unexpected args {sorted(unknown)}")
    missing = required - set(raw_args)
    if missing:
        raise SchemaError(f"{name}: missing args {sorted(missing)}")
    return {key: schema[key](value, ctx) for key, value in raw_args.items()}


# --- input files -------------------------------------------------------------

def _right(role: str, raw) -> tuple[str, str]:
    """One declared right, which must name a declared command on its kind."""
    if not (isinstance(raw, (list, tuple)) and len(raw) == 2
            and all(isinstance(part, str) for part in raw)):
        raise SchemaError(f"role {role!r}: a right is a [kind, command] pair of "
                          f"strings, got {raw!r}")
    right = (raw[0], raw[1])
    if right not in DECLARED_RIGHTS:
        raise SchemaError(f"role {role!r}: right {list(right)} names no declared command")
    return right


def load_rbac_config(config: dict) -> RbacMatrix:
    roles: dict[str, RoleDef] = {}
    for raw in config.get("roles", []):
        name = raw["name"]
        if name in roles:
            raise DuplicateRole(f"role {name!r} declared twice")
        rights = frozenset(_right(name, right) for right in raw.get("rights", []))
        roles[name] = RoleDef(name=name, rights=rights,
                              owner_only=bool(raw.get("owner_only", False)))

    assignments: dict[EntityId, frozenset[str]] = {}
    for raw in config.get("assignments", []):
        user = EntityId.parse(raw["user"])
        for role_name in raw["roles"]:
            if role_name not in roles:
                raise UnknownRoleInAssignment(
                    f"assignment for {user} names undeclared role {role_name!r}")
        assignments[user] = frozenset(raw["roles"])
    return RbacMatrix(roles=roles, assignments=assignments)


BILLING_POLICY_KINDS = ("percentage-discount", "flat-fee")
INVOICE_RULE_KINDS = ("nonempty-items", "nonnegative-total")
PAYMENT_RULE_KINDS = ("amount-positive", "method-allowed", "overpayment-guard")


def rulebook_from_config(data: dict) -> RuleBook:
    policies: dict[str, BillingPolicy] = {}
    for raw in data.get("billing_policies", []):
        name, kind = raw.get("name"), raw.get("kind")
        if not name or kind not in BILLING_POLICY_KINDS:
            raise SchemaError(f"bad billing policy entry: {raw}")
        if name in policies:
            raise SchemaError(f"duplicate billing policy: {name}")
        percent = int(raw.get("percent", 0))
        fee = int(raw.get("amount", 0))
        if kind == "percentage-discount" and not 0 <= percent <= 100:
            raise SchemaError(f"percent must be 0..100 in policy {name}")
        if kind == "flat-fee" and fee < 0:
            raise SchemaError(f"fee must be >= 0 in policy {name}")
        policies[name] = BillingPolicy(
            name=name, kind=kind, percent=percent, fee=fee,
            loyalty_only=bool(raw.get("loyalty_only", False)))

    rules: dict[str, ValidationRule] = {}
    for raw in data.get("validation_rules", []):
        name, target, kind = raw.get("name"), raw.get("target"), raw.get("kind")
        if not name or target not in ("Invoice", "Payment"):
            raise SchemaError(f"bad validation rule entry: {raw}")
        if name in rules:
            raise SchemaError(f"duplicate validation rule: {name}")
        expected = INVOICE_RULE_KINDS if target == "Invoice" else PAYMENT_RULE_KINDS
        if kind not in expected:
            raise SchemaError(f"rule kind {kind!r} invalid for target {target}")
        methods = tuple(raw.get("methods", ()))
        for method in methods:
            PaymentMethod(method)
        rules[name] = ValidationRule(name=name, target=target, kind=kind,
                                     methods=methods)
    return RuleBook(policies=policies, rules=rules)


def parse_scenario(data: dict, source: str = "<memory>") -> Scenario:
    if not isinstance(data, dict) or not isinstance(data.get("commands"), list):
        raise ParseError(f"{source}: scenario must be an object with a commands list")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise ParseError(f"{source}: scenario needs a name")
    unknown = set(data) - {"name", "commands", "expectations"}
    if unknown:
        raise ParseError(f"{source}: unexpected keys {sorted(unknown)}")

    steps = []
    for index, raw in enumerate(data["commands"]):
        if not isinstance(raw, dict) or "op" not in raw:
            raise ParseError(f"{source}: command #{index} needs an op")
        unknown = set(raw) - {"op", "actor", "args", "as", "expect_error"}
        if unknown:
            raise ParseError(f"{source}: command #{index} unexpected keys {sorted(unknown)}")
        args = raw.get("args", {})
        if not isinstance(args, dict):
            raise ParseError(f"{source}: command #{index} args must be an object")
        steps.append(ScenarioStep(op=raw["op"], actor=raw.get("actor", "system"),
                                  args=args, bind=raw.get("as"),
                                  expect_error=raw.get("expect_error")))

    expectations = []
    for index, raw in enumerate(data.get("expectations", [])):
        if not isinstance(raw, dict) or "query" not in raw or "expect" not in raw:
            raise ParseError(f"{source}: expectation #{index} needs query and expect")
        unknown = set(raw) - {"query", "args", "expect"}
        if unknown:
            raise ParseError(f"{source}: expectation #{index} unexpected keys {sorted(unknown)}")
        expectations.append(Expectation(query=raw["query"], args=raw.get("args", {}),
                                        expect=raw["expect"]))
    return Scenario(name=name, steps=tuple(steps), expectations=tuple(expectations))


def _seed_args(engine, what: str, command: str, raw) -> dict:
    """Seed values parsed as the args of ``command``, by its parser."""
    try:
        return COMMANDS[command].parse(raw, engine.parse_context)[0]
    except SchemaError as exc:
        raise SchemaError(f"{what}: {exc}") from None


def _seed_entries(what: str, entries) -> list[dict]:
    """``entries`` if it is a list of JSON objects, else ``SchemaError``."""
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise SchemaError(f"{what}: expected a list of objects, got {entries!r}")
    return entries


def seed_catalog(engine, entries: list[dict], catalog_name: str = "main") -> EntityId:
    txn = engine._seed_txn()
    catalog_id = catalog_mod.create_catalog(txn, catalog_name)
    by_name: dict[str, EntityId] = {}
    links: list[tuple[str, str]] = []
    for entry in _seed_entries("catalog seed", entries):
        unknown = set(entry) - {"name", "price", "status", "info", "similar"}
        if unknown:
            raise SchemaError(f"catalog seed: unexpected keys {sorted(unknown)}")
        similar = entry.get("similar", [])
        if not isinstance(similar, list) or not all(isinstance(n, str) for n in similar):
            raise SchemaError(f"catalog seed: expected a list of product names for "
                              f"'similar', got {similar!r}")
        args = _seed_args(engine, "catalog seed", "add_product", {
            "catalog": catalog_id, "status": "Regular",
            **{key: entry[key] for key in ("name", "price", "status") if key in entry}})
        name = args["name"]
        if name in by_name:
            raise SchemaError(f"catalog seed: duplicate product {name!r}")
        product_id = catalog_mod.add_product(txn, catalog_id, name, args["price"],
                                             args["status"])
        by_name[name] = product_id
        info = entry.get("info")
        if info:
            info = _seed_args(engine, "catalog seed", "set_product_info", {
                "product": product_id, "description": "", **info}
                if isinstance(info, dict) else info)
            catalog_mod.set_product_info(txn, product_id, info["description"],
                                         info.get("comparison_notes", ""))
        for other in similar:
            links.append((name, other))
    for name, other in links:
        if other not in by_name:
            raise SchemaError(f"catalog seed: similar link to unknown {other!r}")
        if by_name[other] not in engine.state.stores["products"][by_name[name]].similar:
            catalog_mod.link_similar(txn, by_name[name], by_name[other])
    return catalog_id


def seed_stock(engine, entries: list[dict]) -> None:
    txn = engine._seed_txn()
    rooms: dict[str, EntityId] = {
        room.name: rid for rid, room in engine.state.stores["stockrooms"].items()}
    products_by_name = {product.name: pid for pid, product
                        in engine.state.stores["products"].items()}
    for entry in _seed_entries("stock seed", entries):
        unknown = set(entry) - {"item", "kind", "rooms"}
        if unknown:
            raise SchemaError(f"stock seed: unexpected keys {sorted(unknown)}")
        item = _seed_args(engine, "stock seed", "create_stock_item",
                          {"name": entry.get("item"), "kind": entry.get("kind")})
        link = (products_by_name.get(item["name"])
                if item["kind"] is stock_manager.StockKind.PRODUCT else None)
        item_id = stock_manager.create_stock_item(txn, item["name"], item["kind"], link)
        placed = entry.get("rooms", {})
        if not isinstance(placed, dict) or not all(isinstance(n, str) for n in placed):
            raise SchemaError(f"stock seed: expected an object of room quantities for "
                              f"'rooms', got {placed!r}")
        for room_name in placed:
            if room_name not in rooms:
                rooms[room_name] = stock_manager.create_stockroom(txn, room_name)
        # a value that is not an int fails the parse of the allocation
        stock = _seed_args(engine, "stock seed", "add_to_stock", {
            "item": item_id, "qty": sum(q for q in placed.values() if q.__class__ is int),
            "allocation": {rooms[room_name]: qty for room_name, qty in placed.items()}})
        if stock["qty"].value:
            stock_manager.add_to_stock(txn, item_id, stock["qty"], stock["allocation"])
