"""Inventory over aggregate stock and local stockrooms, plus the shop-order
manufacturing workflow (reserve components, withdraw them, book products).

Every item's quantities obey two conservation rules in every state: the sum
of room-local quantities equals the aggregate on-hand, and the reserved
count never exceeds on-hand. Reservations are aggregate-only; rooms track
physical placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .foundation import DomainError, EntityId, NegativeQuantity, Quantity, Record


class UnknownStockItem(DomainError):
    code = "UnknownItem"


class UnknownRoom(DomainError):
    code = "UnknownRoom"


class UnknownShopOrder(DomainError):
    code = "UnknownShopOrder"


class AllocationMismatch(DomainError):
    code = "AllocationMismatch"


class InsufficientStock(DomainError):
    code = "InsufficientStock"


class InsufficientLocalStock(DomainError):
    code = "InsufficientLocalStock"


class SameRoom(DomainError):
    code = "SameRoom"


class WrongStage(DomainError):
    code = "WrongStage"


class WrongItemKind(DomainError):
    code = "WrongItemKind"


class DuplicateName(DomainError):
    code = "DuplicateName"


class StockKind(str, Enum):
    COMPONENT = "Component"
    PRODUCT = "Product"


class ShopOrderStage(str, Enum):
    CREATED = "Created"
    CUT = "Cut"
    PICKED = "Picked"
    FABRICATED = "Fabricated"


ADD_POLICIES = ("first-room", "round-robin")


@dataclass
class Inventory(Record):
    """Quantity triple for one item: aggregate, earmarked, and per-room.

    ``by_room`` holds only rooms with goods in them: ``shift`` is its one
    writer and drops a room whose quantity reaches zero.
    """

    on_hand: int = 0
    reserved: int = 0
    by_room: dict[EntityId, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.on_hand < 0 or self.reserved < 0 or any(q < 0 for q in self.by_room.values()):
            raise NegativeQuantity("inventory quantities cannot be negative")

    def shift(self, room_id: EntityId, delta: int) -> None:
        """Add ``delta`` (negative to take) to one room's quantity."""
        quantity = self.by_room.get(room_id, 0) + delta
        if quantity:
            self.by_room[room_id] = quantity
        else:
            self.by_room.pop(room_id, None)

    def available(self) -> int:
        return self.on_hand - self.reserved

    def local(self, room_id: EntityId) -> int:
        return self.by_room.get(room_id, 0)


@dataclass
class StockItem(Record):
    id: EntityId
    name: str
    kind: StockKind
    product_link: EntityId | None = None
    inventory: Inventory = field(default_factory=Inventory)


@dataclass
class Stockroom(Record):
    id: EntityId
    name: str


@dataclass
class ShopOrder(Record):
    """A work order: which components, in what amounts, make how many units."""

    id: EntityId
    product: EntityId
    output_qty: int
    bill_of_materials: dict[EntityId, int]
    stage: ShopOrderStage = ShopOrderStage.CREATED

    def need(self, component_id: EntityId) -> int:
        return self.bill_of_materials[component_id] * self.output_qty


def create_stockroom(txn, name: str) -> EntityId:
    for room in txn.state.stores["stockrooms"].values():
        if room.name == name:
            raise DuplicateName(f"stockroom {name!r} already exists")
    room_id = txn.next_id("stockroom")
    txn.create("stockrooms", Stockroom(id=room_id, name=name))
    return room_id


def create_stock_item(txn, name: str, kind: StockKind,
                      product_link: EntityId | None = None) -> EntityId:
    for item in txn.state.stores["stock_items"].values():
        if item.name == name:
            raise DuplicateName(f"stock item {name!r} already exists")
    if product_link is not None:
        if kind is not StockKind.PRODUCT:
            raise WrongItemKind("only product items can link to catalog products")
        if product_link not in txn.state.stores["products"]:
            raise UnknownStockItem(f"no catalog product {product_link}")
    item_id = txn.next_id("stock_item")
    txn.create("stock_items", StockItem(id=item_id, name=name, kind=kind,
                                        product_link=product_link))
    # ids only grow, so the first item linked to a product is its lowest-id one
    if product_link is not None and txn.state.stores["products"][product_link].stock_item is None:
        product = txn.get_mut("products", product_link, UnknownStockItem)
        product.stock_item = item_id
    return item_id


def item_for_product(state, product_id: EntityId):
    """The stock item tracking a catalog product, or None for services."""
    product = state.stores["products"].get(product_id)
    if product is None or product.stock_item is None:
        return None
    return state.stores["stock_items"][product.stock_item]


def _require_item(state, item_id: EntityId) -> StockItem:
    item = state.stores["stock_items"].get(item_id)
    if item is None:
        raise UnknownStockItem(f"no stock item {item_id}")
    return item


def _rooms_ascending(state) -> list[EntityId]:
    return sorted(state.stores["stockrooms"])


def add_to_stock(txn, item_id: EntityId, qty: Quantity,
                 allocation: dict[EntityId, int] | None = None,
                 policy: str = "first-room") -> None:
    """Raise aggregate on-hand and place the goods into rooms.

    With no explicit allocation the named distribution policy decides:
    ``first-room`` puts everything in the lowest-id room, ``round-robin``
    splits evenly with the remainder going to the earliest rooms.
    """
    _require_item(txn.state, item_id)
    amount = qty.value
    if allocation is not None:
        for room_id in allocation:
            if room_id not in txn.state.stores["stockrooms"]:
                raise UnknownRoom(f"no stockroom {room_id}")
            if allocation[room_id] < 0:
                raise AllocationMismatch("allocations must be non-negative")
        if sum(allocation.values()) != amount:
            raise AllocationMismatch(
                f"allocation sums to {sum(allocation.values())}, expected {amount}")
        placement = allocation
    else:
        rooms = _rooms_ascending(txn.state)
        if not rooms:
            raise UnknownRoom("no stockrooms exist to receive stock")
        if policy == "first-room":
            placement = {rooms[0]: amount}
        else:
            base, remainder = divmod(amount, len(rooms))
            placement = {room: base + (1 if index < remainder else 0)
                         for index, room in enumerate(rooms)}

    item = txn.get_mut("stock_items", item_id, UnknownStockItem)
    item.inventory.on_hand += amount
    for room_id, quantity in placement.items():
        item.inventory.shift(room_id, quantity)


def _drain_default(inventory: Inventory, amount: int) -> None:
    # rooms are drained in ascending id order; total locals always cover
    # the amount because locals sum to on_hand
    remaining = amount
    for room_id in sorted(inventory.by_room):
        if remaining == 0:
            break
        take = min(inventory.by_room[room_id], remaining)
        inventory.shift(room_id, -take)
        remaining -= take


def remove_from_stock(txn, item_id: EntityId, qty: Quantity,
                      room_id: EntityId | None = None) -> None:
    """Take unreserved goods out of stock, from one room or by default drain."""
    item = _require_item(txn.state, item_id)
    amount = qty.value
    if amount > item.inventory.available():
        raise InsufficientStock(
            f"{item.name}: {item.inventory.available()} unreserved, need {amount}")
    if room_id is not None:
        if room_id not in txn.state.stores["stockrooms"]:
            raise UnknownRoom(f"no stockroom {room_id}")
        if amount > item.inventory.local(room_id):
            raise InsufficientLocalStock(
                f"{item.name}: room {room_id} holds {item.inventory.local(room_id)}, need {amount}")

    item = txn.get_mut("stock_items", item_id, UnknownStockItem)
    item.inventory.on_hand -= amount
    if room_id is not None:
        item.inventory.shift(room_id, -amount)
    else:
        _drain_default(item.inventory, amount)


def transfer(txn, item_id: EntityId, qty: Quantity,
             from_room: EntityId, to_room: EntityId) -> None:
    """Move goods between rooms; aggregate quantities never change."""
    if from_room == to_room:
        raise SameRoom(f"transfer within room {from_room} is meaningless")
    item = _require_item(txn.state, item_id)
    for room_id in (from_room, to_room):
        if room_id not in txn.state.stores["stockrooms"]:
            raise UnknownRoom(f"no stockroom {room_id}")
    amount = qty.value
    if amount > item.inventory.local(from_room):
        raise InsufficientLocalStock(
            f"{item.name}: room {from_room} holds {item.inventory.local(from_room)}, need {amount}")
    item = txn.get_mut("stock_items", item_id, UnknownStockItem)
    item.inventory.shift(from_room, -amount)
    item.inventory.shift(to_room, amount)


def create_shop_order(txn, product_item: EntityId, output_qty: int,
                      bill_of_materials: dict[EntityId, int]) -> EntityId:
    product = _require_item(txn.state, product_item)
    if product.kind is not StockKind.PRODUCT:
        raise WrongItemKind(f"{product.name} is a component, not a product")
    if output_qty < 1:
        raise AllocationMismatch("output quantity must be at least 1")
    if not bill_of_materials:
        raise AllocationMismatch("bill of materials cannot be empty")
    for component_id, quantity in bill_of_materials.items():
        component = _require_item(txn.state, component_id)
        if component.kind is not StockKind.COMPONENT:
            raise WrongItemKind(f"{component.name} is not a component")
        if quantity < 1:
            raise AllocationMismatch("bill-of-materials quantities must be >= 1")
    order_id = txn.next_id("shop_order")
    txn.create("shop_orders", ShopOrder(id=order_id, product=product_item,
                                        output_qty=output_qty,
                                        bill_of_materials=dict(bill_of_materials)))
    return order_id


def _require_shop_order(state, order_id: EntityId) -> ShopOrder:
    order = state.stores["shop_orders"].get(order_id)
    if order is None:
        raise UnknownShopOrder(f"no shop order {order_id}")
    return order


def cut_shop_order(txn, order_id: EntityId) -> None:
    """Earmark every component the order needs; all lines or none."""
    order = _require_shop_order(txn.state, order_id)
    if order.stage is not ShopOrderStage.CREATED:
        raise WrongStage(f"shop order {order_id} is {order.stage.value}")
    short = []
    for component_id in sorted(order.bill_of_materials):
        component = _require_item(txn.state, component_id)
        if component.inventory.reserved + order.need(component_id) > component.inventory.on_hand:
            short.append(component.name)
    if short:
        raise InsufficientStock(f"short components: {', '.join(short)}")

    for component_id in sorted(order.bill_of_materials):
        component = txn.get_mut("stock_items", component_id, UnknownStockItem)
        component.inventory.reserved += order.need(component_id)
    order = txn.get_mut("shop_orders", order_id, UnknownShopOrder)
    order.stage = ShopOrderStage.CUT


def pick_components(txn, order_id: EntityId,
                    room_drains: dict[EntityId, dict[EntityId, int]] | None = None) -> None:
    """Withdraw the reserved components from their rooms.

    ``room_drains`` maps component item to per-room amounts; omitted
    components fall back to the ascending-room default drain.
    """
    order = _require_shop_order(txn.state, order_id)
    if order.stage is not ShopOrderStage.CUT:
        raise WrongStage(f"shop order {order_id} is {order.stage.value}")
    drains = room_drains or {}
    for component_id, rooms in drains.items():
        if component_id not in order.bill_of_materials:
            raise UnknownStockItem(f"{component_id} is not on the bill of materials")
        component = _require_item(txn.state, component_id)
        if sum(rooms.values()) != order.need(component_id):
            raise AllocationMismatch(
                f"drain for {component.name} must total {order.need(component_id)}")
        for room_id, quantity in rooms.items():
            if room_id not in txn.state.stores["stockrooms"]:
                raise UnknownRoom(f"no stockroom {room_id}")
            if quantity < 0:
                raise AllocationMismatch("drain amounts must be non-negative")
            if quantity > component.inventory.local(room_id):
                raise InsufficientLocalStock(
                    f"{component.name}: room {room_id} holds "
                    f"{component.inventory.local(room_id)}, need {quantity}")

    for component_id in sorted(order.bill_of_materials):
        need = order.need(component_id)
        component = txn.get_mut("stock_items", component_id, UnknownStockItem)
        component.inventory.reserved -= need
        component.inventory.on_hand -= need
        if component_id in drains:
            for room_id, quantity in drains[component_id].items():
                component.inventory.shift(room_id, -quantity)
        else:
            _drain_default(component.inventory, need)
    order = txn.get_mut("shop_orders", order_id, UnknownShopOrder)
    order.stage = ShopOrderStage.PICKED


def finish_fabrication(txn, order_id: EntityId, product_room: EntityId) -> None:
    """Book the finished units into stock, localized in one room."""
    order = _require_shop_order(txn.state, order_id)
    if order.stage is not ShopOrderStage.PICKED:
        raise WrongStage(f"shop order {order_id} is {order.stage.value}")
    if product_room not in txn.state.stores["stockrooms"]:
        raise UnknownRoom(f"no stockroom {product_room}")
    product = txn.get_mut("stock_items", order.product, UnknownStockItem)
    product.inventory.on_hand += order.output_qty
    product.inventory.shift(product_room, order.output_qty)
    order = txn.get_mut("shop_orders", order_id, UnknownShopOrder)
    order.stage = ShopOrderStage.FABRICATED
