"""The invariant checker as it was before its checks were cut down to
what they compare: every total a ``Money``, every reference a
``(holder, target)`` pair, every line list keyed before it is compared.
Its changes are the currency checks: a payment, and a priced line or an
adjustment a check sums, in another currency is a violation naming the
entity that holds it; so is a line of an open cart or of an order placed
without a cart, which no check sums. A reference resolves only in the
store of its declared kind. Kept only as the oracle of the
differential tests in ``test_invariants.py``."""

from collections import Counter
from functools import cached_property

from storefront.foundation import priced_sum
from storefront.invariants import InvariantReport, Violation
from storefront.invoice import InvoiceState, PaymentState
from storefront.order_shipment import OrderState
from storefront.shopping_cart import CartState
from storefront.state import STORES
from storefront.stock_manager import ShopOrderStage, StockKind

# stage -> its position in the shop-order workflow
_STAGE_RANK = {stage: rank for rank, stage in enumerate(ShopOrderStage)}
_CREATED = ShopOrderStage.CREATED


def _item_keys(items) -> list:
    """Each priced line as (product, quantity, unit price amount)."""
    return [(i.product, i.quantity.value, i.unit_price.amount) for i in items]


def _same_multiset(keys: list, others: list) -> bool:
    """Whether two key lists hold the same multiset; lists in the same
    order, as checkout and shipping write them, need no counting."""
    return keys == others or Counter(keys) == Counter(others)


def _per_line(quantities: dict) -> str:
    return ", ".join(f"{line} x{qty}" for line, qty in sorted(quantities.items())) or "nothing"


class _Checker:
    def __init__(self, engine):
        self.engine = engine
        self.state = engine.state
        self.currency = engine.currency
        self.violations: list[Violation] = []

    def flag(self, invariant: str, entity, detail: str) -> None:
        self.violations.append(Violation(invariant, str(entity), detail))

    def foreign(self, name: str, entity, lines, adjustments=()) -> bool:
        """Flag each priced line and adjustment of ``entity`` in another
        currency; whether there was one."""
        found = [(f"line {index}", line.unit_price.currency) for index, line in enumerate(lines)
                 if line.unit_price.currency != self.currency]
        found += [(f"adjustment {reason}", adjustment.currency)
                  for reason, adjustment in adjustments if adjustment.currency != self.currency]
        for what, currency in found:
            self.flag(name, entity, f"{what} in {currency}, not {self.currency}")
        return bool(found)

    def priced(self, name: str, entity, lines):
        """The total of the priced ``lines``, or None when one is foreign."""
        if self.foreign(name, entity, lines):
            return None
        return priced_sum(lines, self.currency).amount

    # -- catalog ---------------------------------------------------------

    def check_catalog_references(self):
        name = "catalog-references"
        stores = self.state.stores
        products, customers = stores["products"], stores["customers"]
        catalogs = stores["catalogs"]
        # the lowest-id stock item linked to each product, recomputed
        first_item: dict = {}
        for item_id, item in stores["stock_items"].items():
            link = item.product_link
            if link is not None and (link not in first_item or item_id < first_item[link]):
                first_item[link] = item_id
        for pid, product in products.items():
            if product.catalog not in catalogs:
                self.flag(name, pid, f"catalog {product.catalog} does not resolve")
            for customer in product.subscribers:
                if customer not in customers:
                    self.flag(name, pid, f"subscriber {customer} does not resolve")
            if product.stock_item != first_item.get(pid):
                self.flag(name, pid, f"stored stock item {product.stock_item}, "
                                     f"first linked item {first_item.get(pid)}")
        for nid, note in stores["notifications"].items():
            if note.customer not in customers:
                self.flag(name, nid, f"customer {note.customer} does not resolve")
            if note.product not in products:
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
        holders = [(cid, cart.items) for cid, cart in self.state.stores["carts"].items()]
        holders += [(oid, order.line_items)
                    for oid, order in self.state.stores["orders"].items()]
        for hid, items in holders:
            seen = set()
            for item in items:
                if item.product in seen:
                    self.flag(name, hid, f"duplicate line for {item.product}")
                seen.add(item.product)
                if item.quantity.value < 1:
                    self.flag(name, hid, f"line quantity {item.quantity.value} < 1")

    def check_checkout_bijection(self):
        name = "checkout-bijection"
        stores, currency, open_state = self.state.stores, self.currency, CartState.OPEN
        orders_by_cart: dict = {}
        for order in stores["orders"].values():
            if order.source_cart is not None:
                orders_by_cart.setdefault(order.source_cart, []).append(order)
            else:
                self.foreign(name, order.id, order.line_items)
        invoices_by_cart: dict = {}
        for inv in stores["invoices"].values():
            if inv.source_cart is not None:
                invoices_by_cart.setdefault(inv.source_cart, []).append(inv)

        for cart_id, cart in stores["carts"].items():
            orders = orders_by_cart.get(cart_id, [])
            invoices = invoices_by_cart.get(cart_id, [])
            if cart.state is open_state:
                if orders or invoices:
                    self.flag(name, cart_id, "open cart has checkout artifacts")
                self.foreign(name, cart_id, cart.items)
                continue
            if len(orders) != 1 or len(invoices) != 1:
                self.flag(name, cart_id,
                          f"{len(orders)} orders and {len(invoices)} invoices for one checkout")
                continue
            order, inv = orders[0], invoices[0]
            cart_items = _item_keys(cart.items)
            if not _same_multiset(_item_keys(order.line_items), cart_items):
                self.flag(name, cart_id, f"order {order.id} line items differ from cart")
            if not _same_multiset(_item_keys(inv.items), cart_items):
                self.flag(name, cart_id, f"invoice {inv.id} items differ from cart")
            totals = [self.priced(name, cart_id, cart.items),
                      self.priced(name, order.id, order.line_items),
                      self.priced(name, inv.id, inv.items)]
            if None in totals:
                continue
            cart_total, order_total, inv_subtotal = totals
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
        received = PaymentState.RECEIVED
        for iid, inv in self.state.stores["invoices"].items():
            if inv.state in decided and inv.validated_by is None:
                self.flag(name, iid, f"{inv.state.value} invoice lacks validated_by")
        for pid, payment in self.state.stores["payments"].items():
            if payment.state is not received and payment.validated_by is None:
                self.flag(name, pid, f"{payment.state.value} payment lacks validated_by")

    def check_payment_conservation(self):
        name = "payment-conservation"
        invoices, currency = self.state.stores["invoices"], self.currency
        accepted_state = PaymentState.ACCEPTED
        paid_state, partly_paid_state = InvoiceState.PAID, InvoiceState.PARTIALLY_PAID
        accepted: dict = {}
        for pid, payment in self.state.stores["payments"].items():
            amount = payment.amount.amount
            if amount <= 0:
                self.flag(name, pid, f"non-positive amount {amount}")
            foreign = payment.amount.currency != currency
            if foreign:
                self.flag(name, pid, f"amount in {payment.amount.currency}, not {currency}")
            if payment.invoice not in invoices:
                self.flag(name, pid, f"invoice {payment.invoice} does not resolve")
                continue
            if payment.state is accepted_state and not foreign:
                accepted[payment.invoice] = accepted.get(payment.invoice, 0) + amount
        for iid, inv in invoices.items():
            paid = accepted.get(iid, 0)
            if inv.accepted != paid:
                self.flag(name, iid, f"stored accepted {inv.accepted}, "
                                     f"accepted payments sum to {paid}")
            foreign = self.foreign(name, iid, inv.items, inv.adjustments)
            if foreign:
                continue
            total = inv.total(currency).amount
            if total < 0:
                self.flag(name, iid, f"negative total {total}")
            if paid > total:
                self.flag(name, iid, f"accepted {paid} exceeds total {total}")
            if inv.state == paid_state:
                expected_state = paid == total
            elif inv.state == partly_paid_state:
                expected_state = 0 < paid < total
            else:
                expected_state = paid == 0
            if not expected_state:
                self.flag(name, iid,
                          f"state {inv.state.value} inconsistent with accepted {paid} of {total}")

    # -- orders and shipments ----------------------------------------------

    def check_shipment_coverage(self):
        name = "shipment-coverage"
        orders = self.state.stores["orders"]
        cancelled = OrderState.CANCELLED
        shipped_state, partly_shipped_state = OrderState.SHIPPED, OrderState.PARTIALLY_SHIPPED
        shipped: dict = {}  # order -> line -> quantity, recomputed from shipments
        for sid, shipment in self.state.stores["shipments"].items():
            order = orders.get(shipment.order)
            if order is None:
                self.flag(name, sid, f"order {shipment.order} does not resolve")
                continue
            if order.state is cancelled:
                self.flag(name, sid, "shipment against a cancelled order")
            lines = {line.product for line in order.line_items}
            covered = shipped.setdefault(order.id, {})
            for item in shipment.items:
                line = item.charged_line()
                if line not in lines:
                    self.flag(name, sid, f"{line} is not an order line")
                covered[line] = covered.get(line, 0) + item.quantity.value
        for oid, order in orders.items():
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
            if order.state == shipped_state:
                expected = full
            elif order.state == partly_shipped_state:
                expected = any_covered and not full
            else:
                expected = not any_covered
            if not expected:
                self.flag(name, oid, f"state {order.state.value} inconsistent with coverage")

    def check_shipment_invoice(self):
        name = "shipment-invoice"
        orders = self.state.stores["orders"]
        payable = (InvoiceState.VALIDATED, InvoiceState.PARTIALLY_PAID, InvoiceState.PAID)
        by_shipment: dict = {}
        for inv in self.state.stores["invoices"].values():
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
            if inv.state not in payable:
                self.flag(name, sid, f"shipment invoice is {inv.state.value}")
            order = orders.get(shipment.order)
            if order is None:
                continue
            expected = []
            for item in shipment.items:
                line = order.line_for(item.charged_line())
                price = line.unit_price.amount if line else -1
                expected.append((item.product, item.quantity.value, price))
            if not _same_multiset(_item_keys(inv.items), expected):
                self.flag(name, sid, "invoice items do not match shipped items")
        for sid, invoices in sorted(by_shipment.items()):
            self.flag(name, sid, "invoice references a missing shipment")

    # -- stock ---------------------------------------------------------------

    def check_stock_conservation(self):
        name = "stock-conservation"
        stockrooms = self.state.stores["stockrooms"]
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
                if room_id not in stockrooms:
                    self.flag(name, item_id, f"room {room_id} does not resolve")

    def check_shop_orders(self):
        name = "shop-order-structure"
        stock_items = self.state.stores["stock_items"]
        product_kind, component_kind = StockKind.PRODUCT, StockKind.COMPONENT
        for oid, order in self.state.stores["shop_orders"].items():
            product = stock_items.get(order.product)
            if product is None or product.kind is not product_kind:
                self.flag(name, oid, f"output item {order.product} is not a product")
            if order.output_qty < 1:
                self.flag(name, oid, f"output quantity {order.output_qty} < 1")
            bill = order.bill_of_materials
            if not bill:
                self.flag(name, oid, "empty bill of materials")
            for component_id, qty in bill.items():
                component = stock_items.get(component_id)
                if component is None or component.kind is not component_kind:
                    self.flag(name, oid, f"{component_id} is not a component")
                if qty < 1:
                    self.flag(name, oid, f"bill quantity {qty} < 1 for {component_id}")

    # -- referential integrity ------------------------------------------------

    def check_referential_integrity(self):
        """Each reference must name an entity of its declared kind: an id of
        another kind does not resolve, even where its own kind's store holds it."""
        name = "referential-integrity"
        stores = self.state.stores
        refs = []  # (holder, target, the store of the declared kind)
        for cid, cart in stores["carts"].items():
            refs.append((cid, cart.customer, "customers"))
            refs.extend((cid, item.product, "products") for item in cart.items)
        for oid, order in stores["orders"].items():
            refs.append((oid, order.customer, "customers"))
            refs.extend((oid, line.product, "products") for line in order.line_items)
            if order.source_cart is not None:
                refs.append((oid, order.source_cart, "carts"))
        for sid, shipment in stores["shipments"].items():
            refs.extend([(sid, shipment.receiver, "customers"),
                         (sid, shipment.invoice, "invoices")])
            refs.extend((sid, item.product, "products") for item in shipment.items)
        for iid, inv in stores["invoices"].items():
            refs.append((iid, inv.customer, "customers"))
            if inv.created_by.kind != "system":
                refs.append((iid, inv.created_by, "employees"))
            if inv.validated_by is not None and inv.validated_by.kind != "system":
                refs.append((iid, inv.validated_by, "employees"))
            if inv.source_cart is not None:
                refs.append((iid, inv.source_cart, "carts"))
        for pid, payment in stores["payments"].items():
            refs.append((pid, payment.customer, "customers"))
            if payment.validated_by is not None and payment.validated_by.kind != "system":
                refs.append((pid, payment.validated_by, "employees"))
        for item_id, item in stores["stock_items"].items():
            if item.product_link is not None:
                refs.append((item_id, item.product_link, "products"))
        for holder, target, store in refs:
            if target not in stores[store]:
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
    # One walk of the log finds the violations of all three log invariants;
    # the first of their checks to run takes it, the other two reuse it.

    def check_log_structure(self):
        self.violations += self.log_findings["log-structure"]

    def check_log_stage_monotone(self):
        self.violations += self.log_findings["shop-order-stage-monotone"]

    def check_notifications_append_only(self):
        self.violations += self.log_findings["notification-append-only"]

    @cached_property
    def log_findings(self) -> dict[str, list[Violation]]:
        """Invariant name -> its violations, for the three log invariants."""
        structure: list[Violation] = []
        stage_jumps: list[Violation] = []
        rewrites: list[Violation] = []
        stages: dict = {}  # shop order id -> its last stage
        notes: dict = {}   # notification id -> the entity of its last put
        previous_tick = 0
        for index, record in enumerate(self.state.log, start=1):
            seq, tick = record.seq, record.tick
            if seq != index:
                structure.append(Violation("log-structure", f"seq:{seq}",
                                           f"expected seq {index}"))
            if tick <= previous_tick:
                structure.append(Violation("log-structure", f"seq:{seq}",
                                           f"tick {tick} not after {previous_tick}"))
            previous_tick = tick
            deltas = record.deltas
            if not deltas:
                continue
            if record.outcome != "ok":
                structure.append(Violation(
                    "log-structure", f"seq:{seq}",
                    f"{record.outcome} record carries {len(deltas)} deltas"))
            if record.access.get("verdict") != "Allow":
                structure.append(Violation("log-structure", f"seq:{seq}",
                                           "state deltas without an Allow decision"))
            for fact in deltas:
                store = fact.get("store")
                if store == "shop_orders":
                    if fact.get("f") != "put":
                        continue
                    entity, stage = fact["id"], fact["data"].stage
                    previous = stages.get(entity)
                    if previous is None:
                        if stage is not _CREATED:
                            stage_jumps.append(Violation(
                                "shop-order-stage-monotone", str(entity),
                                f"first stage was {stage.value}"))
                    elif _STAGE_RANK[stage] - _STAGE_RANK[previous] not in (0, 1):
                        stage_jumps.append(Violation(
                            "shop-order-stage-monotone", str(entity),
                            f"stage jumped {previous.value} -> {stage.value}"))
                    stages[entity] = stage
                elif store == "notifications":
                    if fact.get("f") != "put":
                        continue
                    entity, data = fact["id"], fact["data"]
                    if entity in notes and notes[entity] != data:
                        rewrites.append(Violation("notification-append-only", str(entity),
                                                  "notification was rewritten"))
                    notes[entity] = data
        return {"log-structure": structure,
                "shop-order-stage-monotone": stage_jumps,
                "notification-append-only": rewrites}


_CHECKS = sorted(name for name in vars(_Checker) if name.startswith("check_"))


def check_invariants(engine) -> InvariantReport:
    checker = _Checker(engine)
    for check_name in _CHECKS:
        getattr(checker, check_name)()
    ordered = sorted(checker.violations,
                     key=lambda v: (v.invariant, v.entity, v.detail))
    return InvariantReport(checked=len(_CHECKS), violations=ordered)
