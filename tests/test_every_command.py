"""Every command, dispatched to an ``ok`` outcome once with its optional
args omitted and once with them given, writes one pinned log: its sha256
fixes each command's parameter defaults and result encoding on paths that
no bundled scenario takes. Each id arg of a command or a query, naming an
entity no store holds, gives its pinned error code."""

import hashlib

import pytest

import log_v2_oracle
from storefront import SYSTEM, DomainError, read_log
from storefront.commands import COMMANDS
from storefront.foundation import Ref
from storefront.queries import QUERIES

from conftest import fresh_engine

# ids the bundled seeds assign: catalog:1; products WidgetA, WidgetB, Gadget,
# TuneUpService = product:1..4; stock items WidgetA, WidgetB, Gadget,
# widget-frame, widget-motor = stock_item:1..5; rooms Main, Annex = stockroom:1, 2
STEPS = [
    ("create_customer", {"name": "Ana"}),
    ("create_customer", {"name": "Bo", "loyalty_member": True, "roles": ["Shopper"]}),
    ("create_employee", {"name": "Clerk"}),
    ("create_employee", {"name": "Checker", "roles": ["InvoiceValidator"]}),
    ("create_catalog", {"name": "second"}),
    ("add_product", {"catalog": "catalog:2", "name": "Gizmo", "price": 700,
                     "status": "New"}),
    ("set_product_info", {"product": "product:5", "description": "plain"}),
    ("set_product_info", {"product": "product:5", "description": "noted",
                          "comparison_notes": "lighter than Gadget"}),
    ("subscribe", {"customer": "customer:2", "product": "product:5"}),
    ("update_product", {"product": "product:5", "changes": {"price": 650}}),
    ("update_product", {"product": "product:5",
                        "changes": {"name": "Gizmo II", "status": "Regular"}}),
    ("link_similar", {"a": "product:5", "b": "product:3"}),
    ("search", {"catalog": "catalog:1"}),
    ("search", {"catalog": "catalog:1", "name_substring": "widget", "status": "Regular",
                "max_price": 1000}),
    ("create_cart", {"customer": "customer:2"}),
    ("add_item", {"cart": "cart:1", "product": "product:1", "qty": 2}),
    ("add_item", {"cart": "cart:1", "product": "product:3", "qty": 1}),
    ("remove_item", {"cart": "cart:1", "product": "product:3"}),
    ("add_item", {"cart": "cart:1", "product": "product:2", "qty": 1}),
    ("cart_total", {"cart": "cart:1"}),
    ("checkout", {"cart": "cart:1"}),  # order:1, invoice:1
    ("create_invoice", {"creator": "employee:1", "customer": "customer:2"}),  # invoice:2
    ("prepare_invoice", {"invoice": "invoice:2"}),
    ("prepare_invoice", {"invoice": "invoice:2",
                         "edits": [{"add": {"description": "fee", "quantity": 1,
                                            "unit_price": 1000}},
                                   {"add": {"description": "part", "product": "product:1",
                                            "quantity": 2, "unit_price": 300}},
                                   {"delete": "fee"}],
                         "policies": ["loyalty-5pct", "handling-fee"]}),
    ("validate_invoice", {"validator": "employee:2", "invoice": "invoice:2"}),
    ("create_invoice", {"creator": SYSTEM, "customer": "customer:1"}),  # invoice:3
    ("prepare_invoice", {"invoice": "invoice:3",
                         "edits": [{"add": {"description": "x", "quantity": 1,
                                            "unit_price": 10}}]}),
    ("validate_invoice", {"validator": "employee:2", "invoice": "invoice:3",
                          "rules": ["nonempty-items", "nonnegative-total"]}),
    ("invoice_balance", {"invoice": "invoice:2"}),
    ("record_payment", {"customer": "customer:2", "invoice": "invoice:2", "amount": 100,
                        "method": "Card"}),
    ("validate_payment", {"validator": "employee:2", "payment": "payment:1"}),
    ("record_payment", {"customer": "customer:2", "invoice": "invoice:2", "amount": 50,
                        "method": "Transfer"}),
    ("validate_payment", {"validator": "employee:2", "payment": "payment:2",
                          "rules": ["amount-positive", "method-allowed",
                                    "overpayment-guard"]}),
    ("record_payment", {"customer": "customer:2", "invoice": "invoice:2", "amount": 20,
                        "method": "Cash"}),
    ("validate_payment", {"validator": "employee:2", "payment": "payment:3",
                          "rules": ["method-allowed"]}),
    ("place_order", {"customer": "customer:1", "lines": [{"product": "product:2", "qty": 3}]}),
    ("cancel_order", {"order": "order:2"}),
    ("create_shipment", {"order": "order:1", "items": [{"product": "product:1", "qty": 1}],
                         "receiver": "customer:2"}),
    ("create_shipment", {"order": "order:1",
                         "items": [{"product": "product:2", "qty": 1,
                                    "substituted_for": "product:1"}],
                         "receiver": "customer:2"}),
    ("record_receipt", {"shipment": "shipment:1", "receiver": "customer:2"}),
    ("create_stockroom", {"name": "Back"}),  # stockroom:3
    ("create_stock_item", {"name": "bolt", "kind": "Component"}),  # stock_item:6
    ("create_stock_item", {"name": "Gizmo II", "kind": "Product",
                           "product_link": "product:5"}),  # stock_item:7
    ("add_to_stock", {"item": "stock_item:6", "qty": 10}),
    ("add_to_stock", {"item": "stock_item:6", "qty": 5,
                      "allocation": {"stockroom:3": 5}}),
    ("remove_from_stock", {"item": "stock_item:6", "qty": 2}),
    ("remove_from_stock", {"item": "stock_item:6", "qty": 1, "room": "stockroom:3"}),
    ("transfer", {"item": "stock_item:6", "qty": 1, "from_room": "stockroom:3",
                  "to_room": "stockroom:1"}),
    ("create_shop_order", {"product": "stock_item:7", "output_qty": 2,
                           "bill_of_materials": {"stock_item:4": 1, "stock_item:6": 2}}),
    ("cut_shop_order", {"order": "shop_order:1"}),
    ("pick_components", {"order": "shop_order:1"}),
    ("finish_fabrication", {"order": "shop_order:1", "room": "stockroom:3"}),
    ("create_shop_order", {"product": "stock_item:7", "output_qty": 1,
                           "bill_of_materials": {"stock_item:4": 1, "stock_item:6": 2}}),
    ("cut_shop_order", {"order": "shop_order:2"}),
    ("pick_components", {"order": "shop_order:2",
                         "room_drains": {"stock_item:4": {"stockroom:1": 1},
                                         "stock_item:6": {"stockroom:3": 2}}}),
    ("finish_fabrication", {"order": "shop_order:2", "room": "stockroom:2"}),
]

# sha256 of the log that STEPS write, under each stock distribution policy
DIGESTS = {"first-room": "f03676e56dce0422621ccc65144f824163ddcd052b8ad3743aa170c59a1c3b27",
           "round-robin": "513d04c6e93c29246475eeb8d55945e0d8979655bacbebc628533db12a4d1b32"}
# the same logs in log format 2, as ``log_v2_oracle`` writes them back
FORMAT2_DIGESTS = {
    "first-room": "38a6470422d3da428d30b1e11a38c54f26ac88861c4eeb669faf1236131492fd",
    "round-robin": "24f330bfeef0d87efb582dd79a15545746edeeb10e089618c4aea3c1abe2a065"}


def test_steps_omit_and_give_every_optional_arg_of_every_command():
    omitted, given = set(), set()
    for command, args in STEPS:
        optional = COMMANDS[command].schema.optional
        omitted.update((command, name) for name in optional - args.keys())
        given.update((command, name) for name in optional & args.keys())
    every = {(spec.name, name) for spec in COMMANDS.values() for name in spec.schema.optional}
    assert omitted == given == every
    assert {command for command, _ in STEPS} == set(COMMANDS)


@pytest.mark.parametrize("add_policy", sorted(DIGESTS))
def test_every_command_writes_the_pinned_log(tmp_path, add_policy):
    engine = fresh_engine(add_policy=add_policy)
    for command, args in STEPS:
        assert engine.dispatch(SYSTEM, command, args).outcome == "ok", command
    assert engine.check_invariants().violations == []
    engine.write_log(tmp_path / "events.jsonl")
    digest = hashlib.sha256((tmp_path / "events.jsonl").read_bytes()).hexdigest()
    assert digest == DIGESTS[add_policy]
    records = read_log(tmp_path / "events.jsonl")
    format2 = log_v2_oracle.format2_text(fresh_engine(add_policy=add_policy), records)
    assert hashlib.sha256(format2.encode()).hexdigest() == FORMAT2_DIGESTS[add_policy]


# the code of an id of each stored kind that no store holds
UNKNOWN = {"catalog": "UnknownCatalog", "product": "UnknownProduct",
           "customer": "UnknownCustomer", "cart": "UnknownCart", "employee": "UnknownEmployee",
           "invoice": "UnknownInvoice", "payment": "UnknownPayment", "order": "UnknownOrder",
           "shipment": "UnknownShipment", "stock_item": "UnknownItem",
           "stockroom": "UnknownRoom", "shop_order": "UnknownShopOrder"}
# the args whose unheld id gives another code: each is compared with the id
# another entity holds
OTHER_CODE = {("record_payment", "customer"): "WrongCustomer",
              ("record_receipt", "receiver"): "WrongReceiver",
              ("remove_item", "product"): "ItemNotInCart"}
# (command, the index in STEPS of its first step that gives the arg, arg, kind)
ID_ARGS = sorted({(command, min(index for index, (name, args) in enumerate(STEPS)
                                if name == command and arg in args), arg, Ref.of(decl).kinds[0])
                  for command, spec in COMMANDS.items()
                  for arg, decl in spec.schema.fields.items() if Ref.of(decl)})


@pytest.mark.parametrize("command, step, arg, kind", ID_ARGS,
                         ids=[f"{command}.{arg}" for command, _, arg, _ in ID_ARGS])
def test_a_command_arg_naming_no_stored_entity_gives_its_code(command, step, arg, kind):
    engine = fresh_engine()
    for name, args in STEPS[:step]:
        engine.dispatch(SYSTEM, name, args)
    records = len(engine.state.log)
    with pytest.raises(DomainError) as exc:
        engine.dispatch(SYSTEM, command, {**STEPS[step][1], arg: f"{kind}:999"})
    code = OTHER_CODE.get((command, arg), UNKNOWN[kind])
    assert exc.value.code == code
    if (command, arg) not in OTHER_CODE:
        assert str(exc.value) == f"no {kind.replace('_', ' ')} {kind}:999"
    (record,) = engine.state.log[records:]
    assert (record.outcome, record.error, record.deltas) == ("error", code, [])


QUERY_ID_ARGS = [(name, arg, Ref.of(decl).kinds[0]) for name, query in sorted(QUERIES.items())
                 for arg, decl in query.schema.fields.items()
                 if Ref.of(decl) and arg not in query.schema.optional]


@pytest.mark.parametrize("query, arg, kind", QUERY_ID_ARGS,
                         ids=[f"{query}.{arg}" for query, arg, _ in QUERY_ID_ARGS])
def test_a_query_arg_naming_no_stored_entity_gives_its_code(query, arg, kind):
    engine = fresh_engine()
    with pytest.raises(DomainError) as exc:
        engine.query(query, **{arg: f"{kind}:999"})
    assert (exc.value.code, str(exc.value)) == (UNKNOWN[kind],
                                                f"no {kind.replace('_', ' ')} {kind}:999")
    assert engine.state.log == []
