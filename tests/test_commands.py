"""The one-pass payload: ``parse_args`` returns the parsed args and the
payload recorded in the event log, and that payload must equal the
canonical rendering of the parsed args for every parser kind and every
input form, the Python API's rich values included."""

import json

import pytest

from storefront import SYSTEM, EntityId, Money, Quantity
from storefront.catalog import ProductStatus
from storefront.commands import COMMANDS, ParseContext, canonical_payload, parse_args
from storefront.invoice import PaymentMethod
from storefront.stock_manager import StockKind

CTX = ParseContext(currency="USD")

# (command, args): every command at least once, every parser kind in each of
# its input forms; no bundled scenario reaches most of these forms
CASES = [
    ("create_customer", {"name": "Ana", "loyalty_member": True, "roles": ["Shopper"]}),
    ("create_customer", {"name": "Ben", "roles": ()}),
    ("create_employee", {"name": "Eve", "roles": ["InvoiceClerk", "StockManager"]}),
    ("create_catalog", {"name": "main"}),
    ("add_product", {"catalog": "catalog:1", "name": "X", "price": 1299,
                     "status": "Regular"}),
    ("add_product", {"catalog": EntityId.parse("catalog:1"), "name": "Y",
                     "price": {"amount": 5, "currency": "USD"},
                     "status": ProductStatus.NEW}),
    ("add_product", {"catalog": "catalog:01", "name": "Z", "price": Money(7, "USD"),
                     "status": "Discontinued"}),
    ("set_product_info", {"product": "product:2", "description": "d",
                          "comparison_notes": "n"}),
    ("update_product", {"product": "product:1", "changes": {}}),
    ("update_product", {"product": "product:1",
                        "changes": {"name": "W", "price": Money(3, "USD"),
                                    "status": ProductStatus.DISCONTINUED}}),
    ("link_similar", {"a": "product:1", "b": EntityId.parse("product:3")}),
    ("subscribe", {"customer": "customer:007", "product": "product:1"}),
    ("search", {"catalog": "catalog:1"}),
    ("search", {"catalog": "catalog:1", "name_substring": "Wid", "status": "New",
                "max_price": 500}),
    ("create_cart", {"customer": EntityId("customer", 4)}),
    ("add_item", {"cart": "cart:1", "product": "product:1", "qty": 0}),
    ("add_item", {"cart": "cart:1", "product": "product:1", "qty": Quantity(3)}),
    ("remove_item", {"cart": "cart:1", "product": "product:1"}),
    ("cart_total", {"cart": "cart:1"}),
    ("checkout", {"cart": "cart:1"}),
    ("create_invoice", {"creator": "employee:1", "customer": "customer:1"}),
    ("create_invoice", {"creator": SYSTEM, "customer": "customer:1"}),
    ("prepare_invoice", {"invoice": "invoice:1"}),
    ("prepare_invoice", {"invoice": "invoice:1", "policies": ["loyalty-5"],
                         "edits": [
                             {"add": {"description": "fee", "quantity": 1,
                                      "unit_price": 250}},
                             {"add": {"description": "part", "product": "product:03",
                                      "quantity": Quantity(2),
                                      "unit_price": {"amount": 10, "currency": "USD"}}},
                             {"delete": "fee"}]}),
    ("validate_invoice", {"validator": "employee:2", "invoice": "invoice:1",
                          "rules": ["nonempty-items"]}),
    ("record_payment", {"customer": "customer:1", "invoice": "invoice:1",
                        "amount": 100, "method": "Card"}),
    ("record_payment", {"customer": "customer:1", "invoice": "invoice:1",
                        "amount": Money(0, "USD"), "method": PaymentMethod.CASH}),
    ("validate_payment", {"validator": "employee:2", "payment": "payment:1"}),
    ("invoice_balance", {"invoice": "invoice:1"}),
    ("place_order", {"customer": "customer:1", "lines": []}),
    ("place_order", {"customer": "customer:1",
                     "lines": [{"product": "product:1", "qty": 2},
                               {"product": EntityId.parse("product:2"),
                                "qty": Quantity(1)}]}),
    ("cancel_order", {"order": "order:1"}),
    ("create_shipment", {"order": "order:1", "receiver": "customer:1",
                         "items": [{"product": "product:1", "qty": 1},
                                   {"product": "product:2", "qty": Quantity(1),
                                    "substituted_for": "product:1"}]}),
    ("record_receipt", {"shipment": "shipment:1", "receiver": "customer:1"}),
    ("create_stockroom", {"name": "back"}),
    ("create_stock_item", {"name": "frame", "kind": "Component"}),
    ("create_stock_item", {"name": "WidgetA", "kind": StockKind.PRODUCT,
                           "product_link": "product:1"}),
    ("add_to_stock", {"item": "stock_item:07", "qty": 4}),
    ("add_to_stock", {"item": EntityId.parse("stock_item:2"), "qty": Quantity(4),
                      "allocation": {"stockroom:1": 3, EntityId.parse("stockroom:2"): 1}}),
    ("remove_from_stock", {"item": "stock_item:1", "qty": 2, "room": "stockroom:1"}),
    ("transfer", {"item": "stock_item:1", "qty": 1, "from_room": "stockroom:1",
                  "to_room": "stockroom:02"}),
    ("create_shop_order", {"product": "stock_item:3", "output_qty": 2,
                           "bill_of_materials": {"stock_item:1": 2,
                                                 "stock_item:02": Quantity(1)}}),
    ("cut_shop_order", {"order": "shop_order:1"}),
    ("pick_components", {"order": "shop_order:1"}),
    ("pick_components", {"order": "shop_order:1",
                         "room_drains": {"stock_item:1": {"stockroom:1": 2,
                                                          "stockroom:02": Quantity(1)},
                                         EntityId.parse("stock_item:2"): {}}}),
    ("finish_fabrication", {"order": "shop_order:1", "room": "stockroom:1"}),
]


def test_cases_cover_every_command():
    assert {command for command, _ in CASES} == set(COMMANDS)


@pytest.mark.parametrize("command, args", CASES)
def test_one_pass_payload_equals_the_canonical_form(command, args):
    parsed, payload = parse_args(COMMANDS[command], args, CTX)
    assert payload == canonical_payload(parsed)
    assert json.loads(json.dumps(payload, sort_keys=True)) == payload


@pytest.mark.parametrize("command, args, key, expected", [
    ("add_to_stock", {"item": "stock_item:07", "qty": 4}, "item", "stock_item:7"),
    ("add_to_stock", {"item": "stock_item:1", "qty": Quantity(4)}, "qty", 4),
    ("add_product", {"catalog": "catalog:1", "name": "X", "price": Money(7, "USD"),
                     "status": ProductStatus.NEW}, "price",
     {"amount": 7, "currency": "USD"}),
    ("add_product", {"catalog": "catalog:1", "name": "X", "price": 7,
                     "status": ProductStatus.NEW}, "status", "New"),
    ("create_shop_order", {"product": "stock_item:3", "output_qty": 2,
                           "bill_of_materials": {"stock_item:01": Quantity(2)}},
     "bill_of_materials", {"stock_item:1": 2}),
    ("place_order", {"customer": "customer:1",
                     "lines": [{"product": "product:1", "qty": 2}]},
     "lines", [["product:1", 2]]),
    ("prepare_invoice", {"invoice": "invoice:1", "edits": [{"delete": "fee"}]},
     "edits", [{"delete": "fee"}]),
])
def test_payload_values_are_json(command, args, key, expected):
    _, payload = parse_args(COMMANDS[command], args, CTX)
    assert payload[key] == expected

