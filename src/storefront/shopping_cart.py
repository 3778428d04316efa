"""Cart lifecycle: select items, merge quantities, total, and check out.

Checkout is the cross-subsystem seam: it closes the cart and generates one
order plus one draft invoice whose line items mirror the cart exactly.
``CartItem`` doubles as the order line item, so no separate line-item type
exists anywhere.
"""

from dataclasses import dataclass, field
from enum import Enum

# order_shipment takes CartItem from this module, so the package loads
# order_shipment first; it may still be loading here, and checkout only
# reads it at call time
from . import invoice as invoice_mod
from . import order_shipment
from .foundation import DomainError, EntityId, Money, Quantity, Record, Ref, priced_sum


class CartClosed(DomainError):
    code = "CartClosed"


class ZeroQuantity(DomainError):
    code = "ZeroQuantity"


class ItemNotInCart(DomainError):
    code = "ItemNotInCart"


class UnknownCart(DomainError):
    code = "UnknownCart"


class EmptyCart(DomainError):
    code = "EmptyCart"


class CartState(str, Enum):
    OPEN = "Open"
    CHECKED_OUT = "CheckedOut"


@dataclass
class Customer(Record):
    id: EntityId
    name: str
    loyalty_member: bool = False
    # role names granted at creation; read by the access check
    roles: set[str] = field(default_factory=set)


@dataclass(frozen=True)
class CartItem(Record):
    """One product line: quantity plus the unit price captured at add time.

    The price snapshot never changes when the catalog price does; that keeps
    totals stable between selection and checkout.
    """

    product: Ref("product")
    quantity: Quantity
    unit_price: Money


@dataclass
class ShoppingCart(Record):
    id: EntityId
    customer: Ref("customer")
    items: list[CartItem] = field(default_factory=list)
    state: CartState = CartState.OPEN

    def item_for(self, product_id: EntityId) -> CartItem | None:
        for item in self.items:
            if item.product == product_id:
                return item
        return None


def create_customer(txn, name: str, loyalty_member: bool = False,
                    roles: list[str] | None = None) -> EntityId:
    customer_id = txn.next_id("customer")
    txn.create("customers", Customer(id=customer_id, name=name,
                                     loyalty_member=loyalty_member,
                                     roles=set(roles or ())))
    return customer_id


def create_cart(txn, customer_id: Ref("customer")) -> EntityId:
    txn.state.need("customers", customer_id)
    cart_id = txn.next_id("cart")
    txn.create("carts", ShoppingCart(id=cart_id, customer=customer_id))
    return cart_id


def _open_cart(txn, cart_id: EntityId) -> ShoppingCart:
    if txn.state.need("carts", cart_id).state is not CartState.OPEN:
        raise CartClosed(f"cart {cart_id} is already checked out")
    return txn.get_mut("carts", cart_id)


def add_item(txn, cart_id: Ref("cart"), product_id: Ref("product"), qty: Quantity) -> None:
    """Add qty of a product; repeated adds of one product merge quantities."""
    if qty.value < 1:
        raise ZeroQuantity("quantity must be at least 1")
    product = txn.state.need("products", product_id)
    cart = _open_cart(txn, cart_id)
    existing = cart.item_for(product_id)
    if existing is None:
        cart.items.append(CartItem(product_id, qty, product.price))
    else:
        # keep the original price snapshot; only the quantity grows
        merged = CartItem(product_id, existing.quantity.add(qty),
                          existing.unit_price)
        cart.items[cart.items.index(existing)] = merged


def remove_item(txn, cart_id: Ref("cart"), product_id: Ref("product")) -> None:
    cart = _open_cart(txn, cart_id)
    existing = cart.item_for(product_id)
    if existing is None:
        raise ItemNotInCart(f"product {product_id} not in cart {cart_id}")
    cart.items.remove(existing)


def cart_total(state, cart_id: Ref("cart"), currency: str) -> Money:
    return priced_sum(state.need("carts", cart_id).items, currency)


def checkout(txn, cart_id: Ref("cart")) -> tuple[EntityId, EntityId]:
    """Close the cart and generate its order and draft invoice.

    The order's line items are the cart's items verbatim; the invoice gets
    one item per cart line, described by the product's current name. Runs
    as one atomic command: either all three state changes land or none do.
    """
    cart = _open_cart(txn, cart_id)
    if not cart.items:
        raise EmptyCart(f"cart {cart_id} has no items")
    cart.state = CartState.CHECKED_OUT

    order_id = order_shipment.place_order_items(
        txn, cart.customer, list(cart.items), source_cart=cart_id)
    invoice_id = invoice_mod.create_invoice_for_cart(txn, cart)
    return order_id, invoice_id
