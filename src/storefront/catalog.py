"""Product registry: catalogs, detail records, similar-product links, and
per-subscriber change notifications.

Products model sellable *types*; unit-level identity lives in the stock
modules. Notifications are append-only records — the observable stand-in
for outbound customer messaging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .foundation import DomainError, EntityId, Money, Record


class UnknownCatalog(DomainError):
    code = "UnknownCatalog"


class UnknownProduct(DomainError):
    code = "UnknownProduct"


class UnknownCustomer(DomainError):
    code = "UnknownCustomer"


class NegativePrice(DomainError):
    code = "NegativePrice"


class EmptyChange(DomainError):
    code = "EmptyChange"


class SelfLink(DomainError):
    code = "SelfLink"


class ProductStatus(str, Enum):
    REGULAR = "Regular"
    NEW = "New"
    DISCONTINUED = "Discontinued"


@dataclass(frozen=True)
class ProductInfo(Record):
    """Optional detail record; at most one per product by construction."""

    description: str
    comparison_notes: str


@dataclass
class Product(Record):
    id: EntityId
    catalog: EntityId
    name: str
    price: Money
    status: ProductStatus
    similar: set[EntityId] = field(default_factory=set)
    info: ProductInfo | None = None
    # customers notified of each change to this product
    subscribers: set[EntityId] = field(default_factory=set)
    # the lowest-id stock item tracking this product; None for services
    stock_item: EntityId | None = None



@dataclass
class Catalog(Record):
    id: EntityId
    name: str


@dataclass
class Notification(Record):
    """One recorded product-change message to one subscriber. Append-only."""

    id: EntityId
    customer: EntityId
    product: EntityId
    change_summary: str
    at: int


def create_catalog(txn, name: str) -> EntityId:
    catalog_id = txn.next_id("catalog")
    txn.create("catalogs", Catalog(id=catalog_id, name=name))
    return catalog_id


def add_product(txn, catalog_id: EntityId, name: str, price: Money,
                status: ProductStatus) -> EntityId:
    if catalog_id not in txn.state.stores["catalogs"]:
        raise UnknownCatalog(f"no catalog {catalog_id}")
    if price.amount < 0:
        raise NegativePrice(f"price must be >= 0, got {price.amount}")
    product_id = txn.next_id("product")
    txn.create("products", Product(id=product_id, catalog=catalog_id, name=name,
                                   price=price, status=status))
    return product_id


def set_product_info(txn, product_id: EntityId, description: str,
                     comparison_notes: str) -> None:
    product = txn.get_mut("products", product_id, UnknownProduct)
    product.info = ProductInfo(description, comparison_notes)


def update_product(txn, product_id: EntityId, changes: dict) -> list[EntityId]:
    """Apply field changes and record one Notification per subscriber.

    ``changes`` may set ``name``, ``price``, or ``status``. Returns the ids
    of the notifications recorded for this update, in subscriber-id order.
    """
    if not changes:
        raise EmptyChange("update requires at least one field change")
    unknown = set(changes) - {"name", "price", "status"}
    if unknown:
        raise EmptyChange(f"unknown product fields: {sorted(unknown)}")
    if "price" in changes and changes["price"].amount < 0:
        raise NegativePrice(f"price must be >= 0, got {changes['price'].amount}")

    product = txn.get_mut("products", product_id, UnknownProduct)

    summary_parts = []
    for field_name in sorted(changes):
        new_value = changes[field_name]
        old_value = getattr(product, field_name)
        old_text = _field_text(old_value)
        setattr(product, field_name, new_value)
        summary_parts.append(f"{field_name}: {old_text} -> {_field_text(new_value)}")
    summary = f"{product.name}: " + "; ".join(summary_parts)

    notification_ids = []
    for customer_id in sorted(product.subscribers):
        notification_id = txn.next_id("notification")
        txn.create("notifications", Notification(
            id=notification_id,
            customer=customer_id,
            product=product_id,
            change_summary=summary,
            at=txn.state.clock,
        ))
        notification_ids.append(notification_id)
    return notification_ids


def _field_text(value) -> str:
    if isinstance(value, Money):
        return f"{value.amount} {value.currency}"
    if isinstance(value, ProductStatus):
        return value.value
    return str(value)


def link_similar(txn, a: EntityId, b: EntityId) -> None:
    if a == b:
        raise SelfLink(f"product {a} cannot be similar to itself")
    product_a = txn.get_mut("products", a, UnknownProduct)
    product_b = txn.get_mut("products", b, UnknownProduct)
    product_a.similar.add(b)
    product_b.similar.add(a)


def subscribe(txn, customer_id: EntityId, product_id: EntityId) -> None:
    if customer_id not in txn.state.stores["customers"]:
        raise UnknownCustomer(f"no customer {customer_id}")
    product = txn.get_mut("products", product_id, UnknownProduct)
    product.subscribers.add(customer_id)


def search(state, catalog_id: EntityId, name_substring: str | None = None,
           status: ProductStatus | None = None,
           max_price: Money | None = None) -> list[EntityId]:
    """Products matching every given criterion, ordered by (name, id).

    A read whose cost grows with the catalog: it filters every product in
    the store. No command that changes state calls it.

    Name matching is a case-insensitive substring test; empty criteria
    return the whole catalog.
    """
    if catalog_id not in state.stores["catalogs"]:
        raise UnknownCatalog(f"no catalog {catalog_id}")
    needle = name_substring.lower() if name_substring is not None else None
    matches = []
    for product in state.stores["products"].values():
        if product.catalog != catalog_id:
            continue
        if needle is not None and needle not in product.name.lower():
            continue
        if status is not None and product.status != status:
            continue
        if max_price is not None and product.price.amount > max_price.amount:
            continue
        matches.append(product)
    matches.sort(key=lambda p: (p.name, p.id))
    return [p.id for p in matches]


def new_products(state, catalog_id: EntityId) -> list[EntityId]:
    """The dedicated feed of products still flagged as new."""
    return search(state, catalog_id, status=ProductStatus.NEW)
