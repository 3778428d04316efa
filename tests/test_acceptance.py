"""Acceptance suite: the engine's exit criteria, one test per criterion.

Each test prints a single PASS/FAIL line. Randomized criteria use fixed
seeds so failures reproduce; every tolerance is exact integer equality.
"""

import contextlib
import io
import json
import random
import time
from collections import Counter

from helpers import (
    assert_no_record_rewritten,
    keep_lines_at_append,
    new_customer,
    new_employee,
    product_id,
)
from storefront import (
    SYSTEM,
    DomainError,
    Engine,
    EntityId,
    bundled,
    load_scenario,
    permissive_matrix,
    run_scenario,
)
from storefront.cli import main as cli_main
from storefront.commands import COMMANDS
from storefront.rbac import default_matrix

from conftest import fresh_engine


BUNDLED_RBAC_CONFIG = json.loads(bundled.rbac_config().read_text(encoding="utf-8"))


def _verdict(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number}: {label}{suffix}"


def _quiet_cli(*argv) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli_main(list(argv))


def test_c1_bundled_scenario_suite(tmp_path):
    """Every bundled scenario runs to exit 0 in under one second total,
    and verify accepts each emitted log."""
    scenarios = bundled.scenario_files()
    assert len(scenarios) == 13
    rbac = str(bundled.rbac_config())

    started = time.perf_counter()
    run_codes = [_quiet_cli("run", str(path), "--rbac", rbac,
                            "--out", str(tmp_path / path.stem))
                 for path in scenarios]
    elapsed = time.perf_counter() - started

    verify_codes = [_quiet_cli("verify", str(tmp_path / path.stem / "events.jsonl"))
                    for path in scenarios]
    ok = (run_codes == [0] * len(scenarios)
          and verify_codes == [0] * len(scenarios)
          and elapsed < 1.0)
    _verdict(1, "bundled scenario suite + verify", ok,
             f"{len(scenarios)} scenarios in {elapsed:.3f}s")


def test_c2_separation_of_duty(tmp_path):
    """Creator-validates is rejected with the invoice still Draft, and no
    reachable state in 10,000 random commands violates provenance."""
    # dedicated scenario: the creator's attempt fails, invoice stays Draft
    code = _quiet_cli("run", str(bundled.scenario_dir() / "separation-of-duty.json"),
                      "--rbac", str(bundled.rbac_config()),
                      "--out", str(tmp_path / "sod"))
    report = json.loads((tmp_path / "sod" / "report.json").read_text())
    scenario_ok = code == 0 and report["ok"]

    # randomized churn over the invoice domain
    rng = random.Random(424242)
    engine = fresh_engine(seed_stock=False)
    customers = [new_customer(engine, name=f"c{i}", loyalty=bool(i % 2))
                 for i in range(3)]
    employees = [new_employee(engine, name=f"e{i}") for i in range(4)]
    invoices, payments = [], []

    base = len(engine.state.log)
    while len(engine.state.log) - base < 10_000:
        roll = rng.random()
        try:
            if roll < 0.2:
                creator = rng.choice(employees)
                invoices.append((creator, engine.execute(
                    creator, "create_invoice", creator=creator,
                    customer=rng.choice(customers))["invoice"]))
            elif roll < 0.4 and invoices:
                creator, invoice = rng.choice(invoices)
                engine.execute(creator, "prepare_invoice", invoice=invoice,
                               edits=[{"add": {"description": "L",
                                               "quantity": rng.randint(1, 3),
                                               "unit_price": rng.randint(1, 900)}}],
                               policies=rng.choice([[], ["loyalty-5pct"]]))
            elif roll < 0.6 and invoices:
                creator, invoice = rng.choice(invoices)
                validator = rng.choice(employees)  # sometimes the creator
                engine.execute(validator, "validate_invoice", validator=validator,
                               invoice=invoice, rules=["nonempty-items"])
            elif roll < 0.8 and invoices:
                _, invoice = rng.choice(invoices)
                owner = engine.state.stores["invoices"][
                    EntityId.parse(invoice)].customer
                payments.append(engine.execute(
                    str(owner), "record_payment", customer=str(owner),
                    invoice=invoice, amount=rng.randint(1, 1200),
                    method=rng.choice(["Card", "Transfer", "Cash"]))["payment"])
            elif payments:
                validator = rng.choice(employees)
                engine.execute(validator, "validate_payment", validator=validator,
                               payment=rng.choice(payments),
                               rules=["amount-positive"])
        except DomainError:
            pass

    violations = []
    for invoice in engine.state.stores["invoices"].values():
        if (invoice.created_by.kind == "employee"
                and invoice.validated_by == invoice.created_by):
            violations.append(str(invoice.id))
        if invoice.state.value != "Draft" and invoice.validated_by is None:
            violations.append(f"{invoice.id}: missing validator")
    for payment in engine.state.stores["payments"].values():
        if payment.state.value != "Received" and payment.validated_by is None:
            violations.append(f"{payment.id}: missing validator")
    report_ok = engine.check_invariants().ok()
    _verdict(2, "separation of duty and provenance", scenario_ok
             and not violations and report_ok,
             f"{len(engine.state.log) - base} commands, {len(violations)} violations")


def _minimal_stock_engine() -> Engine:
    engine = Engine(rbac_matrix=permissive_matrix())
    engine.seed_stock([
        {"item": "comp-a", "kind": "Component", "rooms": {"R1": 40, "R2": 20}},
        {"item": "comp-b", "kind": "Component", "rooms": {"R1": 30}},
        {"item": "prod-x", "kind": "Product", "rooms": {"R2": 5}},
    ])
    return engine


def test_c3_inventory_conservation():
    """1,000 random 200-command stock sequences end conserved, with zero
    deltas from every errored command, in under 10 seconds."""
    rng = random.Random(90125)
    items = ["stock_item:1", "stock_item:2", "stock_item:3"]
    components = items[:2]
    rooms = ["stockroom:1", "stockroom:2", "stockroom:3"]  # one never exists
    bad = 0
    started = time.perf_counter()

    for sequence in range(1_000):
        engine = _minimal_stock_engine()
        shop_orders = []
        for _ in range(200):
            roll = rng.randrange(8)
            try:
                if roll == 0:
                    allocation = None
                    if rng.random() < 0.3:
                        allocation = {rng.choice(rooms): rng.randint(0, 10),
                                      rng.choice(rooms): rng.randint(0, 10)}
                    engine.execute(SYSTEM, "add_to_stock",
                                   item=rng.choice(items),
                                   qty=rng.randint(-2, 25),
                                   **({"allocation": allocation}
                                      if allocation else {}))
                elif roll == 1:
                    kwargs = {}
                    if rng.random() < 0.4:
                        kwargs["room"] = rng.choice(rooms)
                    engine.execute(SYSTEM, "remove_from_stock",
                                   item=rng.choice(items),
                                   qty=rng.randint(-2, 50), **kwargs)
                elif roll == 2:
                    engine.execute(SYSTEM, "transfer", item=rng.choice(items),
                                   qty=rng.randint(0, 40),
                                   from_room=rng.choice(rooms),
                                   to_room=rng.choice(rooms))
                elif roll == 3:
                    shop_orders.append(engine.execute(
                        SYSTEM, "create_shop_order", product="stock_item:3",
                        output_qty=rng.randint(0, 4),
                        bill_of_materials={rng.choice(components):
                                           rng.randint(1, 3)})["shop_order"])
                elif roll == 4 and shop_orders:
                    engine.execute(SYSTEM, "cut_shop_order",
                                   order=rng.choice(shop_orders))
                elif roll == 5 and shop_orders:
                    engine.execute(SYSTEM, "pick_components",
                                   order=rng.choice(shop_orders))
                elif roll == 6 and shop_orders:
                    engine.execute(SYSTEM, "finish_fabrication",
                                   order=rng.choice(shop_orders),
                                   room=rng.choice(rooms))
                else:
                    engine.execute(SYSTEM, "transfer", item=rng.choice(items),
                                   qty=rng.randint(0, 10),
                                   from_room=rng.choice(rooms),
                                   to_room=rng.choice(rooms))
            except DomainError:
                pass

        for item in engine.state.stores["stock_items"].values():
            inv = item.inventory
            if sum(inv.by_room.values()) != inv.on_hand:
                bad += 1
            if not 0 <= inv.reserved <= inv.on_hand:
                bad += 1
        if any(r.outcome != "ok" and r.deltas for r in engine.state.log):
            bad += 1
        if sequence % 100 == 0:  # bind the log to the state periodically
            if engine.replayed_state().to_dict() != engine.state.to_dict():
                bad += 1

    elapsed = time.perf_counter() - started
    _verdict(3, "inventory conservation over 200,000 commands",
             bad == 0 and elapsed < 10.0,
             f"{elapsed:.1f}s, {bad} violations")


def test_c4_checkout_bijection():
    """500 random cart sessions each yield exactly one order and invoice
    whose line multisets and totals equal the cart's, exactly."""
    rng = random.Random(1999)
    engine = fresh_engine(seed_stock=False)
    names = ["WidgetA", "WidgetB", "Gadget", "TuneUpService"]
    bad = 0

    for session in range(500):
        customer = new_customer(engine, name=f"s{session}")
        cart = engine.execute(customer, "create_cart", customer=customer)["cart"]
        for _ in range(rng.randint(1, 6)):
            engine.execute(customer, "add_item", cart=cart,
                           product=product_id(engine, rng.choice(names)),
                           qty=rng.randint(1, 5))
        if rng.random() < 0.3:
            entity = engine.state.stores["carts"][EntityId.parse(cart)]
            victim = rng.choice(entity.items).product
            engine.execute(customer, "remove_item", cart=cart,
                           product=str(victim))
        entity = engine.state.stores["carts"][EntityId.parse(cart)]
        if not entity.items:
            continue
        result = engine.execute(customer, "checkout", cart=cart)

        cart_id = EntityId.parse(cart)
        orders = [o for o in engine.state.stores["orders"].values()
                  if o.source_cart == cart_id]
        invoices = [i for i in engine.state.stores["invoices"].values()
                    if i.source_cart == cart_id]
        if len(orders) != 1 or len(invoices) != 1:
            bad += 1
            continue
        if (str(orders[0].id) != result["order"]
                or str(invoices[0].id) != result["invoice"]):
            bad += 1
        reference = Counter((str(i.product), i.quantity.value,
                             i.unit_price.amount) for i in entity.items)
        if Counter((str(i.product), i.quantity.value, i.unit_price.amount)
                   for i in orders[0].line_items) != reference:
            bad += 1
        if Counter((str(i.product), i.quantity.value, i.unit_price.amount)
                   for i in invoices[0].items) != reference:
            bad += 1
        cart_total = engine.query("cart_total", cart=cart)["amount"]
        order_total = sum(i.unit_price.amount * i.quantity.value
                          for i in orders[0].line_items)
        invoice_subtotal = invoices[0].subtotal("USD").amount
        if not cart_total == order_total == invoice_subtotal:
            bad += 1

    ok = bad == 0 and engine.check_invariants().ok()
    _verdict(4, "checkout bijection over 500 sessions", ok, f"{bad} mismatches")


def test_c5_shipment_coverage():
    """Randomized partial and substituted shipments never exceed ordered
    quantities; Shipped state appears exactly at full coverage."""
    rng = random.Random(5150)
    engine = fresh_engine()
    names = ["WidgetA", "WidgetB", "Gadget"]
    # deep stock so only coverage rules can reject
    for name in names:
        for item_id, item in engine.state.stores["stock_items"].items():
            if item.name == name:
                engine.execute(SYSTEM, "add_to_stock", item=str(item_id),
                               qty=100_000)
    bad = 0

    for round_number in range(120):
        customer = new_customer(engine, name=f"r{round_number}")
        line_names = rng.sample(names, rng.randint(1, 3))
        ordered = {product_id(engine, n): rng.randint(1, 4) for n in line_names}
        order = engine.execute(
            customer, "place_order", customer=customer,
            lines=[{"product": p, "qty": q} for p, q in ordered.items()])["order"]

        covered = {p: 0 for p in ordered}  # brute-force oracle
        for _ in range(rng.randint(1, 7)):
            line = rng.choice(list(ordered))
            qty = rng.randint(1, 4)
            item = {"qty": qty}
            if rng.random() < 0.35:
                substitute = product_id(engine, rng.choice(names))
                item.update(product=substitute, substituted_for=line)
            else:
                item["product"] = line
            fully_covered = all(covered[p] == ordered[p] for p in ordered)
            legal = not fully_covered and covered[line] + qty <= ordered[line]
            try:
                engine.execute(SYSTEM, "create_shipment", order=order,
                               receiver=customer, items=[item])
                if not legal:
                    bad += 1
                covered[line] += qty
            except DomainError as exc:
                if legal:
                    bad += 1
                if exc.code not in ("OverShipment", "OrderNotShippable"):
                    bad += 1
            if any(covered[p] > ordered[p] for p in ordered):
                bad += 1
            expected = ("Shipped"
                        if all(covered[p] == ordered[p] for p in ordered)
                        else "PartiallyShipped" if any(covered.values())
                        else "Placed")
            if engine.query("order_state", order=order) != expected:
                bad += 1

    ok = bad == 0 and engine.check_invariants().ok()
    _verdict(5, "shipment coverage vs brute-force counter", ok, f"{bad} mismatches")


def test_c6_observer_completeness():
    """For random subscription sets, every update notifies exactly the
    subscriber set."""
    rng = random.Random(31337)
    engine = fresh_engine(seed_stock=False)
    customers = [new_customer(engine, name=f"c{i}") for i in range(8)]
    products = [product_id(engine, n) for n in ("WidgetA", "WidgetB", "Gadget")]
    subscribed = {p: set() for p in products}
    bad = 0

    for _ in range(200):
        if rng.random() < 0.5:
            customer = rng.choice(customers)
            product = rng.choice(products)
            engine.execute(customer, "subscribe", customer=customer,
                           product=product)
            subscribed[product].add(customer)
        else:
            product = rng.choice(products)
            before = set(engine.state.stores["notifications"])
            result = engine.execute(SYSTEM, "update_product", product=product,
                                    changes={"price": rng.randint(1, 5000)})
            fresh = [n for nid, n in engine.state.stores["notifications"].items()
                     if nid not in before]
            if len(result["notifications"]) != len(subscribed[product]):
                bad += 1
            if {str(n.customer) for n in fresh} != subscribed[product]:
                bad += 1
            if len(fresh) != len(subscribed[product]):
                bad += 1

    ok = bad == 0 and engine.check_invariants().ok()
    _verdict(6, "observer completeness", ok, f"{bad} mismatches")


def test_c7_rbac_need_to_know():
    """Exhaustive role x command matrix: Allow exactly per the declared
    config, with owner and non-owner targets both exercised."""
    engine = fresh_engine(rbac=default_matrix())
    declared = {role["name"]: {tuple(r) for r in role["rights"]}
                for role in BUNDLED_RBAC_CONFIG["roles"]}
    owner_only = {role["name"]: role.get("owner_only", False)
                  for role in BUNDLED_RBAC_CONFIG["roles"]}

    # fixed "other" targets owned by an unrelated customer
    stranger = new_customer(engine, name="stranger")
    widget = product_id(engine, "WidgetA")
    stranger_cart = engine.execute(stranger, "create_cart",
                                   customer=stranger)["cart"]
    stranger_order = engine.execute(
        stranger, "place_order", customer=stranger,
        lines=[{"product": widget, "qty": 2}])["order"]
    stranger_shipped = engine.execute(
        SYSTEM, "create_shipment", order=stranger_order, receiver=stranger,
        items=[{"product": widget, "qty": 1}])

    stranger_targets = {
        "customer": EntityId.parse(stranger),
        "cart": EntityId.parse(stranger_cart),
        "order": EntityId.parse(stranger_order),
        "invoice": EntityId.parse(stranger_shipped["invoice"]),
        "shipment": EntityId.parse(stranger_shipped["shipment"]),
    }

    def own_targets_for(actor):
        cart = engine.execute(str(actor), "create_cart",
                              customer=str(actor))["cart"]
        order = engine.execute(str(actor), "place_order", customer=str(actor),
                               lines=[{"product": widget, "qty": 2}])["order"]
        shipped = engine.execute(SYSTEM, "create_shipment", order=order,
                                 receiver=str(actor),
                                 items=[{"product": widget, "qty": 1}])
        return {"customer": actor, "cart": EntityId.parse(cart),
                "order": EntityId.parse(order),
                "invoice": EntityId.parse(shipped["invoice"]),
                "shipment": EntityId.parse(shipped["shipment"])}

    owner_arg_keys = {
        "subscribe": "customer", "create_cart": "customer",
        "place_order": "customer", "add_item": "cart", "remove_item": "cart",
        "cart_total": "cart", "checkout": "cart", "cancel_order": "order",
        "record_payment": "invoice", "invoice_balance": "invoice",
        "record_receipt": "shipment",
    }

    checked, bad = 0, []
    for role_name in sorted(declared):
        if role_name == "Shopper":
            actor = EntityId.parse(new_customer(engine, name=f"probe-{role_name}",
                                                roles=[role_name]))
        else:
            actor = EntityId.parse(new_employee(engine, name=f"probe-{role_name}",
                                                roles=[role_name]))
        own_targets = own_targets_for(actor) if owner_only[role_name] else None

        for command, spec in sorted(COMMANDS.items()):
            has_right = (spec.kind, command) in declared[role_name]
            if command in owner_arg_keys:
                key = owner_arg_keys[command]
                if owner_only[role_name]:
                    # own target honors the right; a non-owner target never does
                    variants = [({key: own_targets[key]}, has_right),
                                ({key: stranger_targets[key]}, False)]
                else:
                    variants = [({key: stranger_targets[key]}, has_right)]
            else:
                variants = [({}, has_right)]
            for args, expected in variants:
                decision = engine.access_decision(actor, command, args)
                checked += 1
                if (decision["verdict"] == "Allow") != expected:
                    bad.append((role_name, command, args))

    _verdict(7, "need-to-know matrix (exhaustive)", not bad,
             f"{checked} checks, {len(bad)} mismatches")


def test_c8_oracle_equivalence_and_determinism():
    """Replay equals live state field-for-field for every scenario, and
    identical inputs produce byte-identical logs."""
    mismatches = []
    for path in bundled.scenario_files():
        logs = []
        for _ in range(2):
            engine = keep_lines_at_append(fresh_engine(rbac=default_matrix()))
            report = run_scenario(engine, load_scenario(path))
            if not report.ok:
                mismatches.append(f"{path.stem}: scenario failed")
            if engine.replayed_state().to_dict() != engine.state.to_dict():
                mismatches.append(f"{path.stem}: replay differs")
            assert_no_record_rewritten(engine)
            logs.append("".join(r.to_json_line() + "\n"
                                for r in engine.state.log).encode())
        if logs[0] != logs[1]:
            mismatches.append(f"{path.stem}: logs not byte-identical")
    _verdict(8, "oracle equivalence and determinism", not mismatches,
             "; ".join(mismatches[:3]))


def test_c9_payment_conservation():
    """Random accepted/rejected payment mixes keep accepted + balance ==
    total with balance >= 0, in exact integers."""
    rng = random.Random(777)
    engine = fresh_engine(seed_stock=False)
    checker = new_employee(engine, name="payval", roles=["InvoiceValidator"])
    clerk = new_employee(engine, name="clerk", roles=["InvoiceClerk"])
    bad = 0

    for round_number in range(60):
        customer = new_customer(engine, name=f"p{round_number}",
                                loyalty=bool(round_number % 2))
        invoice = engine.execute(clerk, "create_invoice", creator=clerk,
                                 customer=customer)["invoice"]
        engine.execute(clerk, "prepare_invoice", invoice=invoice,
                       edits=[{"add": {"description": "goods",
                                       "quantity": rng.randint(1, 3),
                                       "unit_price": rng.randint(100, 2000)}}],
                       policies=["loyalty-5pct"] if round_number % 2 else [])
        engine.execute(checker, "validate_invoice", validator=checker,
                       invoice=invoice, rules=["nonempty-items"])
        total = engine.query("invoice_total", invoice=invoice)["amount"]

        accepted = 0
        for _ in range(rng.randint(1, 8)):
            if engine.query("invoice_state", invoice=invoice) == "Paid":
                break
            amount = rng.randint(1, max(total, 1))
            payment = engine.execute(customer, "record_payment",
                                     customer=customer, invoice=invoice,
                                     amount=amount, method="Card")["payment"]
            result = engine.execute(checker, "validate_payment",
                                    validator=checker, payment=payment,
                                    rules=["amount-positive",
                                           "overpayment-guard"])
            if result["verdict"] == "Accepted":
                accepted += amount
            elif accepted + amount <= total:
                bad += 1  # rejected a payment that fit
            balance = engine.query("invoice_balance", invoice=invoice)["amount"]
            if balance < 0 or accepted + balance != total:
                bad += 1

    ok = bad == 0 and engine.check_invariants().ok()
    _verdict(9, "payment conservation", ok, f"{bad} mismatches")
