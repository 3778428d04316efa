"""Order placement, cancellation, and fulfillment by possibly-partial,
possibly-substituted shipments, each billed by its own validated invoice.

A shipment always references one order; an order may have any number of
shipments (zero while awaiting fulfillment, or forever if cancelled).
Substituted goods are charged against the order line they replace, at that
line's snapshot price.
"""

from dataclasses import dataclass, field
from enum import Enum

from . import invoice as invoice_mod
from . import stock_manager
from .foundation import DomainError, EntityId, Fields, Quantity, Record, Ref
from .invoice import InvoiceItem
from .shopping_cart import CartItem, ZeroQuantity


class UnknownOrder(DomainError):
    code = "UnknownOrder"


class UnknownShipment(DomainError):
    code = "UnknownShipment"


class EmptyOrder(DomainError):
    code = "EmptyOrder"


class NotCancellable(DomainError):
    code = "NotCancellable"


class OrderNotShippable(DomainError):
    code = "OrderNotShippable"


class OverShipment(DomainError):
    code = "OverShipment"


class UnknownSubstitutionTarget(DomainError):
    code = "UnknownSubstitutionTarget"


class WrongReceiver(DomainError):
    code = "WrongReceiver"


class AlreadyReceived(DomainError):
    code = "AlreadyReceived"


class OrderState(str, Enum):
    PLACED = "Placed"
    CANCELLED = "Cancelled"
    PARTIALLY_SHIPPED = "PartiallyShipped"
    SHIPPED = "Shipped"


class ShipmentState(str, Enum):
    DISPATCHED = "Dispatched"
    RECEIVED = "Received"


@dataclass
class Order(Record):
    id: EntityId
    customer: Ref("customer")
    line_items: list[CartItem] = field(default_factory=list)
    state: OrderState = OrderState.PLACED
    source_cart: Ref("cart") | None = None
    # cumulative shipped quantity per order line, substitutes included
    shipped: dict[EntityId, int] = field(default_factory=dict)

    def line_for(self, product_id: EntityId) -> CartItem | None:
        for line in self.line_items:
            if line.product == product_id:
                return line
        return None


@dataclass(frozen=True)
class ShippedItem(Record):
    """One dispatched line; substituted goods name the order line they fill."""

    product: Ref("product")
    quantity: Quantity
    substituted_for: EntityId | None = None

    def charged_line(self) -> EntityId:
        return self.substituted_for or self.product


SHIPPED_ITEM = Fields({"product": Ref("product"), "qty": Quantity,
                       "substituted_for": Ref("product")}, {"substituted_for"}, ShippedItem)
ORDER_LINE = Fields({"product": Ref("product"), "qty": Quantity}, into=tuple)  # place_order's


@dataclass
class Shipment(Record):
    id: EntityId
    order: Ref("order")
    items: list[ShippedItem]
    receiver: Ref("customer")
    invoice: Ref("invoice")
    state: ShipmentState = ShipmentState.DISPATCHED


def place_order_items(txn, customer_id: EntityId, items: list[CartItem],
                      source_cart: EntityId | None = None) -> EntityId:
    """Place an order from already-priced line items (checkout path)."""
    txn.state.need("customers", customer_id)
    if not items:
        raise EmptyOrder("an order needs at least one line item")
    order_id = txn.next_id("order")
    txn.create("orders", Order(id=order_id, customer=customer_id,
                               line_items=items, source_cart=source_cart))
    return order_id


def place_order(txn, customer_id: Ref("customer"), lines: list[ORDER_LINE]) -> EntityId:
    """Place an order directly, pricing each line at the current catalog price."""
    txn.state.need("customers", customer_id)
    if not lines:
        raise EmptyOrder("an order needs at least one line item")
    items: list[CartItem] = []
    for product_id, qty in lines:
        if qty.value < 1:
            raise ZeroQuantity("order line quantities must be at least 1")
        product = txn.state.need("products", product_id)
        existing = next((i for i in items if i.product == product_id), None)
        if existing is None:
            items.append(CartItem(product_id, qty, product.price))
        else:
            items[items.index(existing)] = CartItem(
                product_id, existing.quantity.add(qty), existing.unit_price)
    return place_order_items(txn, customer_id, items)


def cancel_order(txn, order_id: Ref("order")) -> None:
    order = txn.state.need("orders", order_id)
    if order.state is not OrderState.PLACED:
        raise NotCancellable(f"order {order_id} is {order.state.value}")
    order = txn.get_mut("orders", order_id)
    order.state = OrderState.CANCELLED


def shipped_coverage(state, order: Order) -> dict[EntityId, int]:
    """Cumulative shipped quantity per order line, substitutes included."""
    return {line.product: order.shipped.get(line.product, 0)
            for line in order.line_items}


def create_shipment(txn, order_id: Ref("order"), items: list[SHIPPED_ITEM],
                    receiver_id: Ref("customer"), currency: str) -> tuple[EntityId, EntityId]:
    """Dispatch goods against an order and bill them on a fresh invoice.

    Validates line membership, substitution targets, remaining-quantity
    bounds, and stock before any state changes; tracked goods are drained
    from stock in the same atomic command.
    """
    order = txn.state.need("orders", order_id)
    if order.state not in (OrderState.PLACED, OrderState.PARTIALLY_SHIPPED):
        raise OrderNotShippable(f"order {order_id} is {order.state.value}")
    txn.state.need("customers", receiver_id)
    if not items:
        raise OverShipment("a shipment needs at least one item")

    ordered = {line.product: line.quantity.value for line in order.line_items}
    for item in items:
        if item.quantity.value < 1:
            raise ZeroQuantity("shipped quantities must be at least 1")
        txn.state.need("products", item.product)
        if item.substituted_for is not None:
            if item.substituted_for not in ordered:
                raise UnknownSubstitutionTarget(
                    f"order {order_id} has no line for {item.substituted_for}")
        elif item.product not in ordered:
            raise OverShipment(
                f"product {item.product} is not on order {order_id}")

    covered = shipped_coverage(txn.state, order)
    adding: dict[EntityId, int] = {}
    for item in items:
        line = item.charged_line()
        adding[line] = adding.get(line, 0) + item.quantity.value
    for line, extra in adding.items():
        if covered[line] + extra > ordered[line]:
            raise OverShipment(
                f"line {line}: shipping {covered[line] + extra} of {ordered[line]} ordered")

    # physical goods leave stock now; service products have no stock item
    for item in items:
        stock_item = stock_manager.item_for_product(txn.state, item.product)
        if stock_item is not None:
            stock_manager.remove_from_stock(txn, stock_item.id, item.quantity)

    shipment_id = txn.next_id("shipment")
    invoice_items = []
    for item in items:
        product = txn.state.stores["products"][item.product]
        charged = order.line_for(item.charged_line())
        invoice_items.append(InvoiceItem(
            description=product.name, product=item.product,
            quantity=item.quantity, unit_price=charged.unit_price))
    invoice_id = invoice_mod.create_invoice_for_shipment(
        txn, order.customer, invoice_items, shipment_id)
    txn.create("shipments", Shipment(id=shipment_id, order=order_id,
                                     items=list(items), receiver=receiver_id,
                                     invoice=invoice_id))

    order = txn.get_mut("orders", order_id)
    for line, extra in adding.items():
        order.shipped[line] = covered[line] + extra
    fully_covered = all(order.shipped.get(line.product, 0) == line.quantity.value
                        for line in order.line_items)
    order.state = OrderState.SHIPPED if fully_covered else OrderState.PARTIALLY_SHIPPED
    return shipment_id, invoice_id


def record_receipt(txn, shipment_id: Ref("shipment"), receiver_id: Ref("customer")) -> None:
    shipment = txn.state.need("shipments", shipment_id)
    if shipment.state is ShipmentState.RECEIVED:
        raise AlreadyReceived(f"shipment {shipment_id} was already received")
    if receiver_id != shipment.receiver:
        raise WrongReceiver(
            f"shipment {shipment_id} is addressed to {shipment.receiver}")
    shipment = txn.get_mut("shipments", shipment_id)
    shipment.state = ShipmentState.RECEIVED
