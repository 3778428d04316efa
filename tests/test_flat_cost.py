"""Per-command cost stays flat as state grows: the commands of a purchase
session read derived values from the entities that own them instead of
walking whole stores. Deterministic: it counts walks, not time."""

from collections import Counter

from storefront import SYSTEM, Engine, permissive_matrix

SESSIONS = 200
PRODUCTS = 8  # the last one is a service: no stock item
WATCHED = ("payments", "shipments", "stock_items")


class CountingStore(dict):
    """A store that counts every walk over all of its entries."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def keys(self):
        self.walks += 1
        return super().keys()

    def values(self):
        self.walks += 1
        return super().values()

    def items(self):
        self.walks += 1
        return super().items()


def shop_engine() -> tuple[Engine, list[str]]:
    engine = Engine(rbac_matrix=permissive_matrix())
    engine.seed_catalog([{"name": f"P{i}", "price": 100 + 37 * i}
                         for i in range(PRODUCTS)])
    engine.seed_stock([{"item": f"P{i}", "kind": "Product",
                        "rooms": {"Main": 100_000, "Annex": 100_000}}
                       for i in range(PRODUCTS - 1)])
    products = {p.name: str(pid) for pid, p in engine.state.stores["products"].items()}
    return engine, [products[f"P{i}"] for i in range(PRODUCTS)]


def test_session_commands_walk_no_growing_store():
    engine, products = shop_engine()
    clerk = engine.execute(SYSTEM, "create_employee", name="Sid")["employee"]
    validator = engine.execute(SYSTEM, "create_employee", name="Vik")["employee"]
    # the first dispatch clones the seeded baseline; watch the live stores after it
    for store in WATCHED:
        engine.state.stores[store] = CountingStore(engine.state.stores[store])

    def total_walks():
        return sum(engine.state.stores[store].walks for store in WATCHED)

    walks = Counter()
    subscribe_records = []

    def run(actor, command, **args):
        before = total_walks()
        record = engine.dispatch(actor, command, args)
        walks[command] += total_walks() - before
        if command == "subscribe":
            subscribe_records.append(record)
        return record.result

    for number in range(SESSIONS):
        customer = run(SYSTEM, "create_customer", name=f"c{number}",
                       loyalty_member=False, roles=["Shopper"])["customer"]
        run(customer, "subscribe", customer=customer,
            product=products[number % PRODUCTS])
        cart = run(customer, "create_cart", customer=customer)["cart"]
        lines = [(products[(number + k) % PRODUCTS], 1 + k) for k in range(1 + number % 3)]
        for product, qty in lines:
            run(customer, "add_item", cart=cart, product=product, qty=qty)
        checkout = run(customer, "checkout", cart=cart)
        invoice, order = checkout["invoice"], checkout["order"]
        run(validator, "validate_invoice", validator=validator, invoice=invoice,
            rules=["nonempty-items"])
        total = engine.query("invoice_total", invoice=invoice)["amount"]
        for amount in (total // 2, total - total // 2):
            payment = run(customer, "record_payment", customer=customer,
                          invoice=invoice, amount=amount, method="Card")["payment"]
            run(validator, "validate_payment", validator=validator, payment=payment,
                rules=["amount-positive"])
        # a partial shipment of the first line, then the rest
        first_product, first_qty = lines[0]
        shipments = [[{"product": first_product, "qty": 1}]]
        rest = [{"product": p, "qty": q} for p, q in lines[1:]]
        if first_qty > 1:
            rest.append({"product": first_product, "qty": first_qty - 1})
        if rest:
            shipments.append(rest)
        for items in shipments:
            shipment = run(clerk, "create_shipment", order=order, receiver=customer,
                           items=items)["shipment"]
            run(customer, "record_receipt", shipment=shipment, receiver=customer)
        assert engine.query("invoice_state", invoice=invoice) == "Paid"
        assert engine.query("order_state", order=order) == "Shipped"

    assert walks["validate_payment"] == 0
    assert walks["create_shipment"] == 0
    assert walks["subscribe"] == 0
    assert len(subscribe_records) == SESSIONS
    for record in subscribe_records:
        assert [(fact["f"], fact["store"]) for fact in record.deltas] == [("put", "products")]

    # the counting stores are live: the invariant oracle walks them
    before = total_walks()
    assert engine.check_invariants().ok()
    assert total_walks() > before
    assert engine.replayed_state().to_dict() == engine.state.to_dict()
