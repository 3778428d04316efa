"""The three benchmark workloads: inputs made from a seed, and one closed-loop
client per workload that sends each command after the previous one returns.

A dispatch workload is a ``setup`` that builds and seeds an engine and draws
every random choice from the seed, plus a ``client`` generator. The client
yields ``(actor, command, args, expect)`` and is sent back ``(code, result)``,
where ``code`` is ``"ok"`` or the ``DomainError`` code. ``expect`` is the code
the client's own model predicts, or a frozenset of the codes it allows. The
client checks results against its model and reports a wrong one through
``fail``; checks that need the final state run after the load phase.

Only public engine entry points are driven: ``Engine``, ``seed_catalog``,
``seed_stock``, ``dispatch`` and the CLI's ``main``. Reading
``engine.state.stores`` is confined to set-up and to the final checks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from storefront import Engine, bundled, load_rbac_config, load_scenario

SYSTEM = "system:0"


def bundled_matrix():
    return load_rbac_config(json.loads(bundled.rbac_config().read_text(encoding="utf-8")))


def mix(rng: random.Random, count: int, shares: dict) -> list:
    """``count`` labels in exactly the given shares, in a seeded order.

    Fixing the shares and leaving only the order and the values to the seed
    keeps the per-command cost of one seed close to that of another.
    """
    labels = []
    for label, share in shares.items():
        labels += [label] * round(count * share)
    labels = (labels + [next(iter(shares))] * count)[:count]
    rng.shuffle(labels)
    return labels


@dataclass
class Prepared:
    """A seeded engine and the inputs drawn for one repetition."""

    engine: Engine
    plan: object
    final_checks: list = field(default_factory=list)


# --- shop-mix -------------------------------------------------------------

@dataclass(frozen=True)
class Session:
    loyalty: bool
    subscribe: int | None          # product index, or no subscription
    lines: tuple                   # ((product index, qty), ...), repeats merge
    cross: str | None              # "cart" / "invoice": an attempt on another customer's
    payments: str                  # "one" | "two" | "overpay"
    split: float
    method: str
    update: tuple | None           # (product index, new price) after the session


SHOP_PRODUCTS = 40
SHOP_SERVICES = 4                  # the last products have no stock item
SHOP_STOCK = 1_000_000


def shop_setup(seed: int, scale: float) -> Prepared:
    rng = random.Random(seed)
    sessions = max(4, round(250 * scale))
    prices = [rng.randint(100, 5000) for _ in range(SHOP_PRODUCTS)]
    entries = [{"name": f"P{i:03d}", "price": prices[i],
                "status": rng.choice(["Regular", "New"])}
               for i in range(SHOP_PRODUCTS)]
    stock = [{"item": f"P{i:03d}", "kind": "Product",
              "rooms": {"Main": SHOP_STOCK, "Annex": SHOP_STOCK}}
             for i in range(SHOP_PRODUCTS - SHOP_SERVICES)]
    payments = mix(rng, sessions, {"one": 0.60, "two": 0.35, "overpay": 0.05})
    crosses = mix(rng, sessions, {None: 0.97, "cart": 0.015, "invoice": 0.015})
    subscribes = mix(rng, sessions, {False: 0.5, True: 0.5})
    line_counts = mix(rng, sessions, {1: 0.25, 2: 0.25, 3: 0.25, 4: 0.25})
    plan = []
    for index in range(sessions):
        update = None
        if index % 20 == 19:
            update = (rng.randrange(SHOP_PRODUCTS), rng.randint(100, 5000))
        plan.append(Session(
            loyalty=rng.random() < 0.3,
            subscribe=rng.randrange(SHOP_PRODUCTS) if subscribes[index] else None,
            lines=tuple((rng.randrange(SHOP_PRODUCTS), rng.randint(1, 3))
                        for _ in range(line_counts[index])),
            cross=crosses[index] if index else None, payments=payments[index],
            split=rng.uniform(0.2, 0.8), method=rng.choice(["Card", "Transfer"]),
            update=update))
    engine = Engine(rbac_matrix=bundled_matrix())
    engine.seed_catalog(entries)
    engine.seed_stock(stock)
    products = {p.name: str(pid) for pid, p in engine.state.stores["products"].items()}
    ids = [products[f"P{i:03d}"] for i in range(SHOP_PRODUCTS)]
    return Prepared(engine, {"sessions": plan, "ids": ids, "prices": prices})


INVOICE_RULES = ["nonempty-items", "nonnegative-total"]
PAYMENT_RULES = ["amount-positive", "method-allowed", "overpayment-guard"]


def shop_client(prepared: Prepared, fail):
    plan = prepared.plan
    ids, prices = plan["ids"], list(plan["prices"])
    subscribers = {pid: set() for pid in ids}
    _, res = yield (SYSTEM, "create_employee",
                    {"name": "Vik", "roles": ["InvoiceValidator"]}, "ok")
    validator = res["employee"]
    _, res = yield (SYSTEM, "create_employee",
                    {"name": "Sid", "roles": ["ShippingClerk"]}, "ok")
    clerk = res["employee"]
    _, res = yield (SYSTEM, "create_employee",
                    {"name": "Mara", "roles": ["CatalogManager"]}, "ok")
    manager = res["employee"]
    paid = 0
    previous = None  # (cart, invoice) of the previous session's customer
    for number, session in enumerate(plan["sessions"]):
        _, res = yield (SYSTEM, "create_customer",
                        {"name": f"shopper-{number}", "loyalty_member": session.loyalty,
                         "roles": ["Shopper"]}, "ok")
        customer = res["customer"]
        if session.subscribe is not None:
            product = ids[session.subscribe]
            yield (customer, "subscribe", {"customer": customer, "product": product}, "ok")
            subscribers[product].add(customer)
        _, res = yield (customer, "create_cart", {"customer": customer}, "ok")
        cart = res["cart"]
        total = 0
        quantities: dict[str, int] = {}
        for index, qty in session.lines:
            product = ids[index]
            yield (customer, "add_item", {"cart": cart, "product": product, "qty": qty}, "ok")
            quantities[product] = quantities.get(product, 0) + qty
            total += prices[index] * qty
        if session.cross == "cart" and previous:
            yield (customer, "add_item",
                   {"cart": previous[0], "product": ids[0], "qty": 1}, "AccessDenied")
        _, res = yield (customer, "checkout", {"cart": cart}, "ok")
        order, invoice = res["order"], res["invoice"]
        if session.cross == "invoice" and previous:
            yield (customer, "record_payment",
                   {"customer": customer, "invoice": previous[1], "amount": 1,
                    "method": session.method}, "AccessDenied")
        _, res = yield (validator, "validate_invoice",
                        {"validator": validator, "invoice": invoice,
                         "rules": INVOICE_RULES}, "ok")
        if res["verdict"] != "Validated":
            fail(f"{invoice}: verdict {res['verdict']}")
        if session.payments == "overpay":
            amounts = [(total + 1 + total // 10, "Rejected"), (total, "Accepted")]
        elif session.payments == "two" and total >= 2:
            first = min(total - 1, max(1, int(total * session.split)))
            amounts = [(first, "Accepted"), (total - first, "Accepted")]
        else:
            amounts = [(total, "Accepted")]
        for amount, verdict in amounts:
            _, res = yield (customer, "record_payment",
                            {"customer": customer, "invoice": invoice, "amount": amount,
                             "method": session.method}, "ok")
            _, res = yield (validator, "validate_payment",
                            {"validator": validator, "payment": res["payment"],
                             "rules": PAYMENT_RULES}, "ok")
            if res["verdict"] != verdict:
                fail(f"{invoice}: payment of {amount} of {total} was {res['verdict']}")
        paid += 1
        items = [{"product": p, "qty": q} for p, q in quantities.items()]
        _, res = yield (clerk, "create_shipment",
                        {"order": order, "receiver": customer, "items": items}, "ok")
        yield (customer, "record_receipt",
               {"shipment": res["shipment"], "receiver": customer}, "ok")
        if session.update is not None:
            index, price = session.update
            product = ids[index]
            _, res = yield (manager, "update_product",
                            {"product": product, "changes": {"price": price}}, "ok")
            if len(res["notifications"]) != len(subscribers[product]):
                fail(f"{product}: {len(res['notifications'])} notifications "
                     f"for {len(subscribers[product])} subscribers")
            prices[index] = price
        previous = (cart, invoice)

    def check_paid(engine):
        states = [inv.state.value for inv in engine.state.stores["invoices"].values()
                  if inv.source_cart is not None]
        if states.count("Paid") != paid or len(states) != paid:
            return [f"{states.count('Paid')} of {len(states)} checkout invoices paid, "
                    f"expected {paid}"]
        return []
    prepared.final_checks.append(check_paid)


# --- stock-churn ---------------------------------------------------------------

STOCK_SEED = [
    {"item": "comp-a", "kind": "Component", "rooms": {"R1": 40, "R2": 20}},
    {"item": "comp-b", "kind": "Component", "rooms": {"R1": 30}},
    {"item": "prod-x", "kind": "Product", "rooms": {"R2": 5}},
]
ITEMS = ["stock_item:1", "stock_item:2", "stock_item:3"]
COMPONENTS = ITEMS[:2]
ROOMS = ["stockroom:1", "stockroom:2", "stockroom:3"]  # the third never exists
PARSE_REJECTS = {"NegativeQuantity"}

# codes each operation may end in besides "ok"; the quantity model below
# checks what the successful ones did
ALLOWED = {
    "add_to_stock": {"UnknownRoom", "AllocationMismatch"},
    "remove_from_stock": {"InsufficientStock", "UnknownRoom", "InsufficientLocalStock"},
    "transfer": {"SameRoom", "UnknownRoom", "InsufficientLocalStock"},
    "create_shop_order": {"AllocationMismatch"},
    "cut_shop_order": {"WrongStage", "InsufficientStock"},
    "pick_components": {"WrongStage"},
    "finish_fabrication": {"WrongStage", "UnknownRoom"},
}
EXPECT = {command: frozenset(codes | PARSE_REJECTS | {"ok"})
          for command, codes in ALLOWED.items()}


def stock_setup(seed: int, scale: float) -> Prepared:
    rng = random.Random(seed)
    commands = max(50, round(7000 * scale))
    ops = []
    rolls = mix(rng, commands, {roll: 1 / 8 for roll in range(8)})
    intruders = mix(rng, commands, {False: 0.95, True: 0.05})
    for roll, intruder in zip(rolls, intruders):
        pick = None  # where in the list of created shop orders the command aims
        if roll == 0:
            command = "add_to_stock"
            args = {"item": rng.choice(ITEMS), "qty": rng.randint(-2, 25)}
            if rng.random() < 0.3:
                args["allocation"] = {rng.choice(ROOMS): rng.randint(0, 10),
                                      rng.choice(ROOMS): rng.randint(0, 10)}
        elif roll == 1:
            command = "remove_from_stock"
            args = {"item": rng.choice(ITEMS), "qty": rng.randint(-2, 50)}
            if rng.random() < 0.4:
                args["room"] = rng.choice(ROOMS)
        elif roll in (2, 7):
            command = "transfer"
            args = {"item": rng.choice(ITEMS), "qty": rng.randint(0, 40 if roll == 2 else 10),
                    "from_room": rng.choice(ROOMS), "to_room": rng.choice(ROOMS)}
        elif roll == 3:
            command = "create_shop_order"
            args = {"product": ITEMS[2], "output_qty": rng.randint(0, 4),
                    "bill_of_materials": {rng.choice(COMPONENTS): rng.randint(1, 3)}}
        else:
            command = {4: "cut_shop_order", 5: "pick_components",
                       6: "finish_fabrication"}[roll]
            args = {"room": rng.choice(ROOMS)} if roll == 6 else {}
            pick = rng.random()
        if intruder and "qty" in args:
            args["qty"] = max(1, args["qty"])  # valid arguments, so access decides
        ops.append((command, args, pick, intruder))
    engine = Engine(rbac_matrix=bundled_matrix())
    engine.seed_stock(STOCK_SEED)
    model = {str(item_id): [item.inventory.on_hand, item.inventory.reserved,
                            {str(r): q for r, q in item.inventory.by_room.items()}]
             for item_id, item in engine.state.stores["stock_items"].items()}
    return Prepared(engine, {"ops": ops, "model": model})


def _drain(rooms: dict, amount: int) -> None:
    for room in sorted(rooms, key=lambda r: int(r.partition(":")[2])):
        take = min(rooms[room], amount)
        rooms[room] -= take
        amount -= take


def stock_client(prepared: Prepared, fail):
    plan = prepared.plan
    model = {item: [on_hand, reserved, dict(rooms)]
             for item, (on_hand, reserved, rooms) in plan["model"].items()}
    orders: list[tuple] = []   # (id, {component: need}, output quantity)
    _, res = yield (SYSTEM, "create_employee",
                    {"name": "Sam", "roles": ["StockManager"]}, "ok")
    manager = res["employee"]
    _, res = yield (SYSTEM, "create_employee",
                    {"name": "Ivo", "roles": ["InvoiceClerk"]}, "ok")
    intruder = res["employee"]
    for command, args, pick, intruder_sends in plan["ops"]:
        order = None
        if pick is not None:
            if not orders:
                continue
            order = orders[int(pick * len(orders))]
            args = {**args, "order": order[0]}
        if intruder_sends:
            yield (intruder, command, args, "AccessDenied")
            continue
        code, res = yield (manager, command, args, EXPECT[command])
        if code != "ok":
            continue
        if command == "add_to_stock":
            item = model[args["item"]]
            item[0] += args["qty"]
            # no allocation: the engine's default policy fills the lowest room id
            placement = args.get("allocation") or {ROOMS[0]: args["qty"]}
            for room, qty in placement.items():
                item[2][room] = item[2].get(room, 0) + qty
        elif command == "remove_from_stock":
            item = model[args["item"]]
            item[0] -= args["qty"]
            if "room" in args:
                item[2][args["room"]] = item[2].get(args["room"], 0) - args["qty"]
            else:
                _drain(item[2], args["qty"])
        elif command == "transfer":
            rooms = model[args["item"]][2]
            rooms[args["from_room"]] = rooms.get(args["from_room"], 0) - args["qty"]
            rooms[args["to_room"]] = rooms.get(args["to_room"], 0) + args["qty"]
        elif command == "create_shop_order":
            (component, per_unit), = args["bill_of_materials"].items()
            orders.append((res["shop_order"],
                           {component: per_unit * args["output_qty"]},
                           args["output_qty"]))
        elif command == "cut_shop_order":
            for component, need in order[1].items():
                model[component][1] += need
        elif command == "pick_components":
            for component, need in order[1].items():
                item = model[component]
                item[0] -= need
                item[1] -= need
                _drain(item[2], need)
        else:
            item = model[ITEMS[2]]
            item[0] += order[2]
            item[2][args["room"]] = item[2].get(args["room"], 0) + order[2]

    def check_model(engine):
        problems = []
        for item_id, item in engine.state.stores["stock_items"].items():
            on_hand, reserved, rooms = model[str(item_id)]
            live = {str(r): q for r, q in item.inventory.by_room.items() if q}
            if (item.inventory.on_hand, item.inventory.reserved) != (on_hand, reserved) \
                    or live != {r: q for r, q in rooms.items() if q}:
                problems.append(f"{item_id}: live {item.inventory.to_dict()} differs "
                                f"from model {on_hand}/{reserved}/{rooms}")
        return problems
    prepared.final_checks.append(check_model)


# --- scenario-corpus -----------------------------------------------------------

@dataclass(frozen=True)
class Corpus:
    scenarios: tuple          # (stem, path) pairs
    rbac: str
    passes: int


def corpus_setup(seed: int, scale: float) -> Corpus:
    """Check that every bundled scenario parses and fix the pass order.

    The seed rotates the order the scenarios run in; the CLI sees only the
    bundled files.
    """
    paths = list(bundled.scenario_files())
    for path in paths:
        load_scenario(path)
    offset = seed % len(paths)
    paths = paths[offset:] + paths[:offset]
    return Corpus(scenarios=tuple((p.stem, str(p)) for p in paths),
                  rbac=str(bundled.rbac_config()), passes=max(1, round(6 * scale)))


DISPATCH_WORKLOADS = {
    "shop-mix": (shop_setup, shop_client),
    "stock-churn": (stock_setup, stock_client),
}
