"""Cross-subsystem invariant checks over a full engine state and its log.

Every module's declared invariants are evaluated here as data: the report
lists violations instead of raising, so a verifier can show everything
wrong at once. Checks run in invariant-name order and report entities in
id order, keeping the report a pure function of the state.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .invoice import InvoiceState, PaymentState
from .order_shipment import OrderState
from .shopping_cart import CartState
from .state import KIND_TO_STORE, STORES
from .stock_manager import ShopOrderStage, StockKind

_STAGE_ORDER = [stage.value for stage in ShopOrderStage]


@dataclass(frozen=True)
class Violation:
    invariant: str
    entity: str
    detail: str

    def to_dict(self) -> dict:
        return {"invariant": self.invariant, "entity": self.entity,
                "detail": self.detail}


@dataclass
class InvariantReport:
    checked: int = 0
    violations: list[Violation] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"checked": self.checked,
                "violations": [v.to_dict() for v in self.violations]}


def _items_multiset(items) -> Counter:
    return Counter((i.product, i.quantity.value, i.unit_price.amount) for i in items)


def _per_line(quantities: dict) -> str:
    return ", ".join(f"{line} x{qty}" for line, qty in sorted(quantities.items())) or "nothing"


def _resolve(state, entity_id) -> bool:
    store = KIND_TO_STORE.get(entity_id.kind)
    return store is not None and entity_id in state.stores[store]


class _Checker:
    def __init__(self, engine):
        self.engine = engine
        self.state = engine.state
        self.currency = engine.currency
        self.violations: list[Violation] = []

    def flag(self, invariant: str, entity, detail: str) -> None:
        self.violations.append(Violation(invariant, str(entity), detail))

    # -- catalog ---------------------------------------------------------

    def check_catalog_references(self):
        name = "catalog-references"
        # the lowest-id stock item linked to each product, recomputed
        first_item: dict = {}
        for item_id, item in self.state.stores["stock_items"].items():
            link = item.product_link
            if link is not None and (link not in first_item or item_id < first_item[link]):
                first_item[link] = item_id
        for pid, product in self.state.stores["products"].items():
            if product.catalog not in self.state.stores["catalogs"]:
                self.flag(name, pid, f"catalog {product.catalog} does not resolve")
            for customer in product.subscribers:
                if customer not in self.state.stores["customers"]:
                    self.flag(name, pid, f"subscriber {customer} does not resolve")
            if product.stock_item != first_item.get(pid):
                self.flag(name, pid, f"stored stock item {product.stock_item}, "
                                     f"first linked item {first_item.get(pid)}")
        for nid, note in self.state.stores["notifications"].items():
            if note.customer not in self.state.stores["customers"]:
                self.flag(name, nid, f"customer {note.customer} does not resolve")
            if note.product not in self.state.stores["products"]:
                self.flag(name, nid, f"product {note.product} does not resolve")

    def check_product_similarity(self):
        name = "product-similarity"
        products = self.state.stores["products"]
        for pid, product in products.items():
            if pid in product.similar:
                self.flag(name, pid, "product is similar to itself")
            if product.price.amount < 0:
                self.flag(name, pid, f"negative price {product.price.amount}")
            for other_id in product.similar:
                other = products.get(other_id)
                if other is None:
                    self.flag(name, pid, f"similar product {other_id} does not resolve")
                elif pid not in other.similar:
                    self.flag(name, pid, f"link to {other_id} is not symmetric")

    # -- carts and checkout ----------------------------------------------

    def check_cart_items(self):
        name = "cart-items-merged"
        holders = list(self.state.stores["carts"].items()) + \
            list(self.state.stores["orders"].items())
        for hid, holder in holders:
            items = holder.line_items if hasattr(holder, "line_items") else holder.items
            seen = set()
            for item in items:
                if item.product in seen:
                    self.flag(name, hid, f"duplicate line for {item.product}")
                seen.add(item.product)
                if item.quantity.value < 1:
                    self.flag(name, hid, f"line quantity {item.quantity.value} < 1")

    def check_checkout_bijection(self):
        name = "checkout-bijection"
        orders_by_cart: dict = {}
        for oid, order in self.state.stores["orders"].items():
            if order.source_cart is not None:
                orders_by_cart.setdefault(order.source_cart, []).append(order)
        invoices_by_cart: dict = {}
        for iid, inv in self.state.stores["invoices"].items():
            if inv.source_cart is not None:
                invoices_by_cart.setdefault(inv.source_cart, []).append(inv)

        for cart_id, cart in self.state.stores["carts"].items():
            orders = orders_by_cart.get(cart_id, [])
            invoices = invoices_by_cart.get(cart_id, [])
            if cart.state is CartState.OPEN:
                if orders or invoices:
                    self.flag(name, cart_id, "open cart has checkout artifacts")
                continue
            if len(orders) != 1 or len(invoices) != 1:
                self.flag(name, cart_id,
                          f"{len(orders)} orders and {len(invoices)} invoices for one checkout")
                continue
            order, inv = orders[0], invoices[0]
            cart_items = _items_multiset(cart.items)
            if _items_multiset(order.line_items) != cart_items:
                self.flag(name, cart_id, f"order {order.id} line items differ from cart")
            if _items_multiset(inv.items) != cart_items:
                self.flag(name, cart_id, f"invoice {inv.id} items differ from cart")
            cart_total = sum(i.unit_price.amount * i.quantity.value for i in cart.items)
            order_total = sum(i.unit_price.amount * i.quantity.value for i in order.line_items)
            inv_subtotal = inv.subtotal(self.currency).amount
            if not cart_total == order_total == inv_subtotal:
                self.flag(name, cart_id,
                          f"totals differ: cart {cart_total}, order {order_total}, "
                          f"invoice {inv_subtotal}")

    # -- invoices and payments ---------------------------------------------

    def check_separation_of_duty(self):
        name = "invoice-separation-of-duty"
        for iid, inv in self.state.stores["invoices"].items():
            if (inv.validated_by is not None
                    and inv.created_by.kind == "employee"
                    and inv.validated_by == inv.created_by):
                self.flag(name, iid, f"{inv.created_by} both created and validated")

    def check_invoice_provenance(self):
        name = "invoice-provenance"
        decided = (InvoiceState.VALIDATED, InvoiceState.REJECTED,
                   InvoiceState.PARTIALLY_PAID, InvoiceState.PAID)
        for iid, inv in self.state.stores["invoices"].items():
            if inv.state in decided and inv.validated_by is None:
                self.flag(name, iid, f"{inv.state.value} invoice lacks validated_by")
        for pid, payment in self.state.stores["payments"].items():
            if payment.state is not PaymentState.RECEIVED and payment.validated_by is None:
                self.flag(name, pid, f"{payment.state.value} payment lacks validated_by")

    def check_payment_conservation(self):
        name = "payment-conservation"
        accepted: dict = {}
        for pid, payment in self.state.stores["payments"].items():
            if payment.amount.amount <= 0:
                self.flag(name, pid, f"non-positive amount {payment.amount.amount}")
            if payment.invoice not in self.state.stores["invoices"]:
                self.flag(name, pid, f"invoice {payment.invoice} does not resolve")
                continue
            if payment.state is PaymentState.ACCEPTED:
                accepted[payment.invoice] = accepted.get(payment.invoice, 0) + \
                    payment.amount.amount
        for iid, inv in self.state.stores["invoices"].items():
            total = inv.total(self.currency).amount
            if total < 0:
                self.flag(name, iid, f"negative total {total}")
            paid = accepted.get(iid, 0)
            if inv.accepted != paid:
                self.flag(name, iid, f"stored accepted {inv.accepted}, "
                                     f"accepted payments sum to {paid}")
            if paid > total:
                self.flag(name, iid, f"accepted {paid} exceeds total {total}")
            expected_state = {
                InvoiceState.PAID: paid == total,
                InvoiceState.PARTIALLY_PAID: 0 < paid < total,
            }.get(inv.state, paid == 0)
            if not expected_state:
                self.flag(name, iid,
                          f"state {inv.state.value} inconsistent with accepted {paid} of {total}")

    # -- orders and shipments ----------------------------------------------

    def check_shipment_coverage(self):
        name = "shipment-coverage"
        shipped: dict = {}  # order -> line -> quantity, recomputed from shipments
        for sid, shipment in self.state.stores["shipments"].items():
            order = self.state.stores["orders"].get(shipment.order)
            if order is None:
                self.flag(name, sid, f"order {shipment.order} does not resolve")
                continue
            if order.state is OrderState.CANCELLED:
                self.flag(name, sid, "shipment against a cancelled order")
            lines = {line.product for line in order.line_items}
            covered = shipped.setdefault(order.id, {})
            for item in shipment.items:
                line = item.charged_line()
                if line not in lines:
                    self.flag(name, sid, f"{line} is not an order line")
                covered[line] = covered.get(line, 0) + item.quantity.value
        for oid, order in self.state.stores["orders"].items():
            covered = shipped.get(oid, {})
            if order.shipped != covered:
                self.flag(name, oid, f"stored shipped {_per_line(order.shipped)}, "
                                     f"shipments hold {_per_line(covered)}")
            full = True
            any_covered = False
            for line in order.line_items:
                got = covered.get(line.product, 0)
                if got > line.quantity.value:
                    self.flag(name, oid,
                              f"line {line.product} shipped {got} of {line.quantity.value}")
                if got:
                    any_covered = True
                if got != line.quantity.value:
                    full = False
            expected = {
                OrderState.SHIPPED: full,
                OrderState.PARTIALLY_SHIPPED: any_covered and not full,
            }.get(order.state, not any_covered)
            if not expected:
                self.flag(name, oid, f"state {order.state.value} inconsistent with coverage")

    def check_shipment_invoice(self):
        name = "shipment-invoice"
        by_shipment: dict = {}
        for iid, inv in self.state.stores["invoices"].items():
            if inv.source_shipment is not None:
                by_shipment.setdefault(inv.source_shipment, []).append(inv)
        for sid, shipment in self.state.stores["shipments"].items():
            invoices = by_shipment.pop(sid, [])
            if len(invoices) != 1:
                self.flag(name, sid, f"{len(invoices)} invoices for one shipment")
                continue
            inv = invoices[0]
            if inv.id != shipment.invoice:
                self.flag(name, sid, f"shipment points at {shipment.invoice}, not {inv.id}")
            if inv.state not in (InvoiceState.VALIDATED, InvoiceState.PARTIALLY_PAID,
                                 InvoiceState.PAID):
                self.flag(name, sid, f"shipment invoice is {inv.state.value}")
            order = self.state.stores["orders"].get(shipment.order)
            if order is None:
                continue
            expected = Counter()
            for item in shipment.items:
                line = order.line_for(item.charged_line())
                price = line.unit_price.amount if line else -1
                expected[(item.product, item.quantity.value, price)] += 1
            if _items_multiset(inv.items) != expected:
                self.flag(name, sid, "invoice items do not match shipped items")
        for sid, invoices in sorted(by_shipment.items()):
            self.flag(name, sid, "invoice references a missing shipment")

    # -- stock ---------------------------------------------------------------

    def check_stock_conservation(self):
        name = "stock-conservation"
        for item_id, item in self.state.stores["stock_items"].items():
            inv = item.inventory
            local_sum = sum(inv.by_room.values())
            if local_sum != inv.on_hand:
                self.flag(name, item_id,
                          f"rooms hold {local_sum}, on_hand says {inv.on_hand}")
            if not 0 <= inv.reserved <= inv.on_hand:
                self.flag(name, item_id,
                          f"reserved {inv.reserved} outside 0..{inv.on_hand}")
            for room_id, qty in inv.by_room.items():
                if qty < 0:
                    self.flag(name, item_id, f"room {room_id} holds {qty}")
                if room_id not in self.state.stores["stockrooms"]:
                    self.flag(name, item_id, f"room {room_id} does not resolve")

    def check_shop_orders(self):
        name = "shop-order-structure"
        for oid, order in self.state.stores["shop_orders"].items():
            product = self.state.stores["stock_items"].get(order.product)
            if product is None or product.kind is not StockKind.PRODUCT:
                self.flag(name, oid, f"output item {order.product} is not a product")
            if order.output_qty < 1:
                self.flag(name, oid, f"output quantity {order.output_qty} < 1")
            if not order.bill_of_materials:
                self.flag(name, oid, "empty bill of materials")
            for component_id, qty in order.bill_of_materials.items():
                component = self.state.stores["stock_items"].get(component_id)
                if component is None or component.kind is not StockKind.COMPONENT:
                    self.flag(name, oid, f"{component_id} is not a component")
                if qty < 1:
                    self.flag(name, oid, f"bill quantity {qty} < 1 for {component_id}")

    # -- referential integrity ------------------------------------------------

    def check_referential_integrity(self):
        name = "referential-integrity"
        refs = []
        for cid, cart in self.state.stores["carts"].items():
            refs.append((cid, cart.customer))
            refs.extend((cid, item.product) for item in cart.items)
        for oid, order in self.state.stores["orders"].items():
            refs.append((oid, order.customer))
            refs.extend((oid, line.product) for line in order.line_items)
            if order.source_cart is not None:
                refs.append((oid, order.source_cart))
        for sid, shipment in self.state.stores["shipments"].items():
            refs.extend([(sid, shipment.receiver), (sid, shipment.invoice)])
            refs.extend((sid, item.product) for item in shipment.items)
        for iid, inv in self.state.stores["invoices"].items():
            refs.append((iid, inv.customer))
            if inv.created_by.kind != "system":
                refs.append((iid, inv.created_by))
            if inv.validated_by is not None and inv.validated_by.kind != "system":
                refs.append((iid, inv.validated_by))
        for pid, payment in self.state.stores["payments"].items():
            refs.append((pid, payment.customer))
            if payment.validated_by is not None and payment.validated_by.kind != "system":
                refs.append((pid, payment.validated_by))
        for item_id, item in self.state.stores["stock_items"].items():
            if item.product_link is not None:
                refs.append((item_id, item.product_link))
        for holder, target in refs:
            if not _resolve(self.state, target):
                self.flag(name, holder, f"reference {target} does not resolve")

    def check_serial_bounds(self):
        name = "serial-bounds"
        for store_name, (kind, _) in STORES.items():
            top = self.state.serials.get(kind, 0)
            for entity_id in self.state.stores[store_name]:
                if entity_id.serial > top or entity_id.serial < 1:
                    self.flag(name, entity_id,
                              f"serial outside allocated range 1..{top}")

    # -- event log -------------------------------------------------------------

    def check_log_structure(self):
        name = "log-structure"
        previous_tick = 0
        for index, record in enumerate(self.state.log, start=1):
            if record.seq != index:
                self.flag(name, f"seq:{record.seq}", f"expected seq {index}")
            if record.tick <= previous_tick:
                self.flag(name, f"seq:{record.seq}",
                          f"tick {record.tick} not after {previous_tick}")
            previous_tick = record.tick
            if record.outcome != "ok" and record.deltas:
                self.flag(name, f"seq:{record.seq}",
                          f"{record.outcome} record carries {len(record.deltas)} deltas")
            if record.deltas and record.access.get("verdict") != "Allow":
                self.flag(name, f"seq:{record.seq}",
                          "state deltas without an Allow decision")

    def check_log_stage_monotone(self):
        name = "shop-order-stage-monotone"
        stages: dict = {}
        for record in self.state.log:
            for fact in record.deltas:
                if fact.get("f") != "put" or fact.get("store") != "shop_orders":
                    continue
                stage = fact["data"]["stage"]
                previous = stages.get(fact["id"])
                if previous is None:
                    if stage != ShopOrderStage.CREATED.value:
                        self.flag(name, fact["id"], f"first stage was {stage}")
                else:
                    step = _STAGE_ORDER.index(stage) - _STAGE_ORDER.index(previous)
                    if step not in (0, 1):
                        self.flag(name, fact["id"], f"stage jumped {previous} -> {stage}")
                stages[fact["id"]] = stage

    def check_notifications_append_only(self):
        name = "notification-append-only"
        seen: dict = {}
        for record in self.state.log:
            for fact in record.deltas:
                if fact.get("f") != "put" or fact.get("store") != "notifications":
                    continue
                if fact["id"] in seen and seen[fact["id"]] != fact["data"]:
                    self.flag(name, fact["id"], "notification was rewritten")
                seen[fact["id"]] = fact["data"]


_CHECKS = sorted(name for name in vars(_Checker) if name.startswith("check_"))


def check_invariants(engine) -> InvariantReport:
    """Evaluate every declared invariant; violations are data, not errors."""
    checker = _Checker(engine)
    for check_name in _CHECKS:
        getattr(checker, check_name)()
    ordered = sorted(checker.violations,
                     key=lambda v: (v.invariant, v.entity, v.detail))
    return InvariantReport(checked=len(_CHECKS), violations=ordered)
