"""Access matrix behavior: config loading, role lookup, ownership, and the
need-to-know guarantee over the whole command vocabulary."""

import json
import re

import pytest

from helpers import catalog_id, new_customer, new_employee, product_id, stock_item_id
from storefront import SYSTEM, AccessDenied, DomainError, EntityId, SchemaError, bundled
from storefront.cli import main
from storefront.commands import COMMANDS
from storefront.rbac import (
    DECLARED_RIGHTS,
    DuplicateRole,
    UnknownRoleInAssignment,
    default_matrix,
    load_rbac_config,
    permissive_matrix,
    reason_text,
)
from storefront.state import KIND_TO_STORE

from conftest import fresh_engine


BUNDLED_RBAC_CONFIG = json.loads(bundled.rbac_config().read_text(encoding="utf-8"))


def test_default_matrix_declares_six_roles():
    matrix = default_matrix()
    assert len(matrix.roles) == len(BUNDLED_RBAC_CONFIG["roles"]) == 6
    assert sorted(matrix.roles) == ["CatalogManager", "InvoiceClerk",
                                    "InvoiceValidator", "ShippingClerk",
                                    "Shopper", "StockManager"]


def test_duplicate_role_rejected():
    config = {"roles": [{"name": "A", "rights": []}, {"name": "A", "rights": []}]}
    with pytest.raises(DuplicateRole):
        load_rbac_config(config)


@pytest.mark.parametrize("name", ["system", "*"])
def test_role_named_as_an_early_allow_rejected(name):
    """A record's access holds the role, not the reason: a grant by a role
    named ``system`` or ``*`` would read back as the system actor's or the
    permissive engine's."""
    with pytest.raises(SchemaError, match="is reserved"):
        load_rbac_config({"roles": [{"name": name, "rights": []}]})


def test_assignment_to_undeclared_role_rejected():
    config = {"roles": [{"name": "A", "rights": []}],
              "assignments": [{"user": "customer:1", "roles": ["B"]}]}
    with pytest.raises(UnknownRoleInAssignment):
        load_rbac_config(config)


@pytest.mark.parametrize("second", ["customer:1", "customer:01"])
def test_second_assignment_for_one_user_rejected(second):
    # the second assignment used to replace the first, however it spelled the id
    config = {"roles": [{"name": "A", "rights": []}],
              "assignments": [{"user": "customer:1", "roles": ["A"]},
                              {"user": second, "roles": []}]}
    with pytest.raises(SchemaError, match="user customer:1 assigned twice"):
        load_rbac_config(config)


def _with_shopper_right(right) -> dict:
    config = json.loads(json.dumps(BUNDLED_RBAC_CONFIG))
    shopper = next(role for role in config["roles"] if role["name"] == "Shopper")
    shopper["rights"].append(right)
    return config


@pytest.mark.parametrize("right, message", [
    (["cart", "chekout"], "right ['cart', 'chekout'] names no declared command"),
    (["order", "checkout"], "right ['order', 'checkout'] names no declared command"),
    (["cart", "checkout", "extra"], "right ['cart', 'checkout', 'extra'] names no declared"),
    (["cart"], "right ['cart'] names no declared command"),
    # not a list of strings: rejected by the access config's declared shape, at
    # the path of the appended right
    ("cart", "access config: {at}: expected list, got 'cart'"),
    (["cart", 7], "access config: {at}[1]: expected string, got 7"),
    ([None, "checkout"], "access config: {at}[0]: expected string, got None"),
], ids=["misspelled", "wrong-kind", "three-elements", "one-element", "string",
        "int-command", "null-kind"])
def test_right_naming_no_command_rejected(right, message):
    config = _with_shopper_right(right)
    role = next(i for i, role in enumerate(config["roles"]) if role["name"] == "Shopper")
    at = f"roles[{role}].rights[{len(config['roles'][role]['rights']) - 1}]"
    with pytest.raises(SchemaError, match=f"^{re.escape(message.format(at=at))}$"
                       if "{at}" in message else re.escape(message)):
        load_rbac_config(config)


@pytest.mark.parametrize("config, message", [
    ({"roles": [{"name": "x", "rights": [["cart", 7]]}]}, "roles[0].rights[0][1]: expected "
     "string, got 7"),
    ({"roles": [{"name": "x"}, {"name": "y", "owner_only": "no"}]},
     "roles[1].owner_only: expected boolean, got 'no'"),
    ({"roles": [{"rights": []}]}, "roles[0]: missing fields: ['name']"),
    ({"assignments": [{"user": "customer:1", "roles": ["x", None]}]},
     "assignments[0].roles[1]: expected string, got None"),
], ids=["right", "owner-only", "no-name", "assigned-role"])
def test_access_config_error_names_the_path(config, message):
    with pytest.raises(SchemaError, match=f"^{re.escape('access config: ' + message)}$"):
        load_rbac_config(config)


@pytest.mark.parametrize("right", [["cart", "chekout"], ["cart", "checkout", "extra"]],
                         ids=["misspelled", "three-elements"])
def test_cli_rejects_bad_right_with_exit_two(tmp_path, capsys, right):
    config = tmp_path / "rbac.json"
    config.write_text(json.dumps(_with_shopper_right(right)), encoding="utf-8")
    scenario = bundled.scenario_dir() / "cart-checkout.json"
    code = main(["run", str(scenario), "--rbac", str(config), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_bundled_config_loads_unchanged():
    matrix = default_matrix()
    for raw in BUNDLED_RBAC_CONFIG["roles"]:
        role = matrix.roles[raw["name"]]
        assert role.rights == {tuple(right) for right in raw["rights"]}
        assert role.rights <= DECLARED_RIGHTS
        assert role.owner_only == raw.get("owner_only", False)
    assert DECLARED_RIGHTS == {(spec.kind, name) for name, spec in COMMANDS.items()}


def test_config_assignments_grant_roles(rbac_eng):
    """Static assignments work alongside creation-time roles."""
    matrix = load_rbac_config({
        "roles": BUNDLED_RBAC_CONFIG["roles"],
        "assignments": [{"user": "customer:1", "roles": ["Shopper"]}],
    })
    engine = fresh_engine(rbac=matrix)
    customer = new_customer(engine, roles=())  # no creation-time roles
    assert customer == "customer:1"
    engine.execute(customer, "create_cart", customer=customer)


def test_owner_allowed_other_denied(rbac_eng):
    ana = new_customer(rbac_eng, name="Ana")
    ben = new_customer(rbac_eng, name="Ben")
    cart = rbac_eng.execute(ana, "create_cart", customer=ana)["cart"]
    widget = product_id(rbac_eng, "WidgetA")

    decision = rbac_eng.access_decision(
        EntityId.parse(ana), "add_item",
        {"cart": EntityId.parse(cart), "product": EntityId.parse(widget)})
    assert decision["verdict"] == "Allow" and decision["role"] == "Shopper"

    with pytest.raises(AccessDenied) as exc:
        rbac_eng.execute(ben, "add_item", cart=cart, product=widget, qty=1)
    assert "not owner" in str(exc.value)


def test_user_without_roles_denied(rbac_eng):
    nia = new_customer(rbac_eng, name="Nia", roles=())
    with pytest.raises(AccessDenied) as exc:
        rbac_eng.execute(nia, "create_cart", customer=nia)
    assert "no role grants operation" in str(exc.value)


def test_system_actor_bypasses_matrix(rbac_eng):
    record = rbac_eng.dispatch(SYSTEM, "create_customer",
                               {"name": "X", "roles": []})
    assert record.access == {"verdict": "Allow", "role": "system"}
    assert reason_text(record.access, "create_customer") == "system actor"


def test_permissive_mode_allows_everything(eng):
    stranger = EntityId.parse("customer:77")  # does not even exist
    for command in COMMANDS:
        decision = eng.access_decision(stranger, command, {})
        assert decision["verdict"] == "Allow" and decision["role"] == "*", command


def test_decision_recorded_in_log(rbac_eng):
    ana = new_customer(rbac_eng, name="Ana")
    rbac_eng.execute(ana, "create_cart", customer=ana)
    record = rbac_eng.state.log[-1]
    assert record.access["verdict"] == "Allow"
    assert record.access["role"] == "Shopper"
    ben = new_customer(rbac_eng, name="Ben", roles=())
    with pytest.raises(AccessDenied):
        rbac_eng.execute(ben, "create_cart", customer=ben)
    record = rbac_eng.state.log[-1]
    assert record.outcome == "denied"
    assert record.access["verdict"] == "Deny"
    assert record.deltas == []


def test_decision_determinism(rbac_eng):
    ana = new_customer(rbac_eng, name="Ana")
    args = {"customer": EntityId.parse(ana)}
    decisions = {id(rbac_eng.access_decision(EntityId.parse(ana), "create_cart", args))
                 for _ in range(25)}
    assert len(decisions) == 1


def test_a_decision_is_the_access_its_record_holds(rbac_eng, eng):
    """``access_decision`` returns the very dict that the record of a
    dispatch of the same command and args holds, for each kind of decision."""
    ana, ben, nia = (EntityId.parse(new_customer(rbac_eng, name=name, roles=roles))
                     for name, roles in [("Ana", ("Shopper",)), ("Ben", ("Shopper",)),
                                         ("Nia", ())])
    cart = EntityId.parse(rbac_eng.execute(ana, "create_cart", customer=ana)["cart"])
    add_item = {"cart": cart, "product": EntityId.parse(product_id(rbac_eng, "WidgetA")),
                "qty": 1}
    cases = [(rbac_eng, ana, "add_item", add_item, ("Allow", "Shopper", None)),
             (rbac_eng, ben, "add_item", add_item, ("Deny", None, "not-owner")),
             (rbac_eng, nia, "create_cart", {"customer": nia}, ("Deny", None, "no-role")),
             (rbac_eng, SYSTEM, "create_catalog", {"name": "Spare"}, ("Allow", "system", None)),
             (eng, EntityId.parse("customer:77"), "create_catalog", {"name": "Any"},
              ("Allow", "*", None))]
    for engine, actor, command, args, expected in cases:
        decision = engine.access_decision(actor, command, args)
        try:
            record = engine.dispatch(actor, command, args)
        except AccessDenied:
            record = engine.state.log[-1]
        assert decision is record.access, (command, expected)
        assert (decision["verdict"], decision["role"], decision.get("reason")) == expected


def test_a_decision_reads_text_ids_as_dispatch_does(rbac_eng):
    """Given a text actor and text id args, the forms ``dispatch`` takes,
    ``access_decision`` decides as the envelope does: for Ana's own cart it
    returns the ``Shopper`` Allow that her record holds, the same object,
    and for Ben, given only the owner arg, the ``not-owner`` Deny."""
    ana, ben = (new_customer(rbac_eng, name=name) for name in ("Ana", "Ben"))
    cart = rbac_eng.execute(ana, "create_cart", customer=ana)["cart"]
    args = {"cart": cart, "product": product_id(rbac_eng, "WidgetA"), "qty": 1}
    assert all(value.__class__ is not EntityId for value in [ana, *args.values()])
    decision = rbac_eng.access_decision(ana, "add_item", args)
    assert decision is rbac_eng.dispatch(ana, "add_item", args).access
    assert (decision["verdict"], decision["role"]) == ("Allow", "Shopper")
    denied = rbac_eng.access_decision(ben, "add_item", {"cart": cart})
    with pytest.raises(AccessDenied):
        rbac_eng.dispatch(ben, "add_item", args)
    assert denied is rbac_eng.state.log[-1].access
    assert denied["reason"] == "not-owner"


def _args_for(engine, command, own, actor):
    """Minimal args for each command's ownership resolver.

    ``own`` picks targets owned by ``actor`` where ownership exists.
    """
    fixtures = engine.rbac_fixtures
    suffix = "own" if own else "other"
    mapping = {
        "subscribe": {"customer": fixtures[f"customer_{suffix}"]},
        "create_cart": {"customer": fixtures[f"customer_{suffix}"]},
        "add_item": {"cart": fixtures[f"cart_{suffix}"]},
        "remove_item": {"cart": fixtures[f"cart_{suffix}"]},
        "cart_total": {"cart": fixtures[f"cart_{suffix}"]},
        "checkout": {"cart": fixtures[f"cart_{suffix}"]},
        "place_order": {"customer": fixtures[f"customer_{suffix}"]},
        "cancel_order": {"order": fixtures[f"order_{suffix}"]},
        "record_payment": {"invoice": fixtures[f"invoice_{suffix}"]},
        "invoice_balance": {"invoice": fixtures[f"invoice_{suffix}"]},
        "record_receipt": {"shipment": fixtures[f"shipment_{suffix}"]},
    }
    return mapping.get(command, {})


def _build_ownership_fixtures(engine):
    """One customer pair with parallel carts/orders/invoices/shipments."""
    fixtures = {}
    for tag, name in (("own", "Owner"), ("other", "Other")):
        customer = new_customer(engine, name=name)
        cart = engine.execute(customer, "create_cart", customer=customer)["cart"]
        widget = product_id(engine, "WidgetA")
        order = engine.execute(customer, "place_order", customer=customer,
                               lines=[{"product": widget, "qty": 2}])["order"]
        shipped = engine.execute(SYSTEM, "create_shipment", order=order,
                                 receiver=customer,
                                 items=[{"product": widget, "qty": 1}])
        fixtures[f"customer_{tag}"] = EntityId.parse(customer)
        fixtures[f"cart_{tag}"] = EntityId.parse(cart)
        fixtures[f"order_{tag}"] = EntityId.parse(order)
        fixtures[f"invoice_{tag}"] = EntityId.parse(shipped["invoice"])
        fixtures[f"shipment_{tag}"] = EntityId.parse(shipped["shipment"])
    return fixtures


def test_need_to_know_exhaustive():
    """For every role and every command: Allow exactly per declared config,
    with ownership exercised from both sides."""
    engine = fresh_engine(rbac=default_matrix())
    engine.rbac_fixtures = _build_ownership_fixtures(engine)
    declared = {role["name"]: {tuple(r) for r in role["rights"]}
                for role in BUNDLED_RBAC_CONFIG["roles"]}
    owner_only = {role["name"]: role.get("owner_only", False)
                  for role in BUNDLED_RBAC_CONFIG["roles"]}

    checked = 0
    for role_name in sorted(declared):
        if role_name == "Shopper":
            actor = EntityId.parse(new_customer(engine, name=f"probe-{role_name}",
                                                roles=[role_name]))
        else:
            actor = EntityId.parse(new_employee(engine, name=f"probe-{role_name}",
                                                roles=[role_name]))
        if owner_only[role_name]:
            # probe's own entities, built fresh so ownership really is theirs
            cart = engine.execute(str(actor), "create_cart",
                                  customer=str(actor))["cart"]
            widget = product_id(engine, "WidgetA")
            order = engine.execute(str(actor), "place_order", customer=str(actor),
                                   lines=[{"product": widget, "qty": 2}])["order"]
            shipped = engine.execute(SYSTEM, "create_shipment", order=order,
                                     receiver=str(actor),
                                     items=[{"product": widget, "qty": 1}])
            engine.rbac_fixtures.update({
                "customer_own": actor,
                "cart_own": EntityId.parse(cart),
                "order_own": EntityId.parse(order),
                "invoice_own": EntityId.parse(shipped["invoice"]),
                "shipment_own": EntityId.parse(shipped["shipment"]),
            })

        for command, spec in sorted(COMMANDS.items()):
            has_right = (spec.kind, command) in declared[role_name]
            own_args = _args_for(engine, command, own=True, actor=actor)
            decision = engine.access_decision(actor, command, own_args)
            assert (decision["verdict"] == "Allow") == has_right, \
                f"{role_name} x {command} (own): expected {has_right}"
            checked += 1

            if has_right and owner_only[role_name] and \
                    _args_for(engine, command, own=False, actor=actor):
                other_args = _args_for(engine, command, own=False, actor=actor)
                owner, missing = _reference_owner(
                    engine, command, {key: str(value) for key, value in other_args.items()})
                decision = engine.access_decision(actor, command, other_args)
                expect_deny = owner is not None or missing
                assert (decision["verdict"] == "Allow") == (not expect_deny), \
                    f"{role_name} x {command} (other): unexpected verdict"
                checked += 1
    assert checked >= 6 * len(COMMANDS)


def test_shipping_clerk_may_ship_anyone(rbac_eng):
    ana = new_customer(rbac_eng, name="Ana")
    sid = new_employee(rbac_eng, name="Sid", roles=["ShippingClerk"])
    widget = product_id(rbac_eng, "WidgetA")
    order = rbac_eng.execute(ana, "place_order", customer=ana,
                             lines=[{"product": widget, "qty": 1}])["order"]
    result = rbac_eng.execute(sid, "create_shipment", order=order, receiver=ana,
                              items=[{"product": widget, "qty": 1}])
    # the clerk also records receipts on behalf of the named receiver
    rbac_eng.execute(sid, "record_receipt", shipment=result["shipment"],
                     receiver=ana)


def test_stock_manager_cannot_shop(rbac_eng):
    rok = new_employee(rbac_eng, name="Rok", roles=["StockManager"])
    ana = new_customer(rbac_eng, name="Ana")
    cart = rbac_eng.execute(ana, "create_cart", customer=ana)["cart"]
    with pytest.raises(AccessDenied):
        rbac_eng.execute(rok, "checkout", cart=cart)
    rbac_eng.execute(rok, "add_to_stock",
                     item=stock_item_id(rbac_eng, "widget-frame"), qty=5)


def _reference_decision(matrix, user, roles, kind, operation, owner, target_missing):
    """Brute force over the declared roles: the first held role by name
    that grants the right and, when owner-constrained, owns the target."""
    right = (kind, operation)
    saw_ownership_failure = False
    for name in sorted(roles):
        role = matrix.roles.get(name)
        if role is None or right not in role.rights:
            continue
        if role.owner_only and (target_missing or (owner is not None and owner != user)):
            saw_ownership_failure = True
            continue
        return ("Allow", name, f"role {name} grants {operation} on {kind}")
    return ("Deny", None, "not owner" if saw_ownership_failure else "no role grants operation")


# each owned command's arg that names its target, and each target kind's
# attribute that names the owning customer: the reference for ownership
OWNING_ARG = {"subscribe": "customer", "create_cart": "customer", "place_order": "customer",
              "add_item": "cart", "remove_item": "cart", "cart_total": "cart",
              "checkout": "cart", "record_payment": "invoice", "invoice_balance": "invoice",
              "cancel_order": "order", "record_receipt": "shipment"}
OWNER_ATTRIBUTE = {"cart": "customer", "invoice": "customer", "order": "customer",
                   "shipment": "receiver"}
# args every command parses; "$x" is the id named x of the case's targets
DISPATCH_ARGS = {
    "create_customer": {"name": "n"},
    "create_employee": {"name": "n"},
    "create_catalog": {"name": "n"},
    "add_product": {"catalog": "$catalog", "name": "n", "price": 1, "status": "Regular"},
    "set_product_info": {"product": "$product", "description": "d"},
    "update_product": {"product": "$product", "changes": {}},
    "link_similar": {"a": "$product", "b": "$product"},
    "subscribe": {"customer": "$customer", "product": "$product"},
    "search": {"catalog": "$catalog"},
    "create_cart": {"customer": "$customer"},
    "add_item": {"cart": "$cart", "product": "$product", "qty": 0},
    "remove_item": {"cart": "$cart", "product": "$product"},
    "cart_total": {"cart": "$cart"},
    "checkout": {"cart": "$cart"},
    "create_invoice": {"creator": "$employee", "customer": "$customer"},
    "prepare_invoice": {"invoice": "$invoice"},
    "validate_invoice": {"validator": "$employee", "invoice": "$invoice"},
    "record_payment": {"customer": "$customer", "invoice": "$invoice", "amount": 0,
                       "method": "Card"},
    "validate_payment": {"validator": "$employee", "payment": "payment:9999"},
    "invoice_balance": {"invoice": "$invoice"},
    "place_order": {"customer": "$customer", "lines": []},
    "cancel_order": {"order": "$order"},
    "create_shipment": {"order": "$order", "items": [], "receiver": "$customer"},
    "record_receipt": {"shipment": "$shipment", "receiver": "$customer"},
    "create_stockroom": {"name": "n"},
    "create_stock_item": {"name": "n", "kind": "Component"},
    "add_to_stock": {"item": "$stock_item", "qty": 0},
    "remove_from_stock": {"item": "$stock_item", "qty": 0},
    "transfer": {"item": "$stock_item", "qty": 0, "from_room": "stockroom:1",
                 "to_room": "stockroom:2"},
    "create_shop_order": {"product": "$stock_item", "output_qty": 1, "bill_of_materials": {}},
    "cut_shop_order": {"order": "shop_order:9999"},
    "pick_components": {"order": "shop_order:9999"},
    "finish_fabrication": {"order": "shop_order:9999", "room": "stockroom:1"},
}


def _targets(engine, customer: str) -> dict:
    """A cart, an order, an invoice and a shipment of ``customer``, made
    by the system actor, with the ids every command's args share."""
    cart = engine.execute(SYSTEM, "create_cart", customer=customer)["cart"]
    widget = product_id(engine, "WidgetA")
    engine.execute(SYSTEM, "add_to_stock", item=stock_item_id(engine, "WidgetA"), qty=1)
    order = engine.execute(SYSTEM, "place_order", customer=customer,
                           lines=[{"product": widget, "qty": 2}])["order"]
    shipped = engine.execute(SYSTEM, "create_shipment", order=order, receiver=customer,
                             items=[{"product": widget, "qty": 1}])
    return {"customer": customer, "cart": cart, "order": order, "invoice": shipped["invoice"],
            "shipment": shipped["shipment"], "product": widget,
            "catalog": catalog_id(engine), "employee": "employee:1",
            "stock_item": stock_item_id(engine, "widget-frame")}


def _ownership_cases(command: str, own: dict, other: dict) -> dict:
    """The args of ``command`` for each ownership case it has: a target of
    the actor's own, another customer's, and one that does not exist;
    ``no owner`` alone for a command whose target has no owner."""
    def fill(ids):
        return {key: ids[value[1:]] if isinstance(value, str) and value.startswith("$")
                else value for key, value in DISPATCH_ARGS[command].items()}
    if command not in OWNING_ARG:
        return {"no owner": fill(own)}
    missing = {kind: f"{kind}:9999" for kind in ("customer", *OWNER_ATTRIBUTE)}
    return {"own": fill(own), "other's": fill({**own, **{
                key: other[key] for key in ("customer", *OWNER_ATTRIBUTE)}}),
            "target missing": fill({**own, **missing})}


def _reference_owner(engine, command: str, args: dict) -> tuple:
    """(owner, target missing) of the target ``args`` name, read from the
    stores as the declaration says, independently of the generated code."""
    if command not in OWNING_ARG:
        return None, False
    target = EntityId.parse(args[OWNING_ARG[command]])
    if target.kind == "customer":
        return target, False
    entity = engine.state.stores[KIND_TO_STORE[target.kind]].get(target)
    return (None, True) if entity is None else (getattr(entity, OWNER_ATTRIBUTE[target.kind]),
                                                False)


def _access(verdict: str, role, reason: str) -> dict:
    """A record's ``access`` for a decision: the role and the verdict, and
    a Deny's reason code."""
    codes = {"not owner": "not-owner", "no role grants operation": "no-role"}
    return {"role": role, "verdict": verdict,
            **({"reason": codes[reason]} if verdict == "Deny" else {})}


def _dispatched(engine, actor, command: str, args: dict):
    """The record ``dispatch`` appends, whatever the command's outcome."""
    try:
        engine.dispatch(actor, command, args)
    except AccessDenied:
        assert engine.state.log[-1].outcome == "denied"
    except DomainError:
        assert engine.state.log[-1].outcome == "error"
    return engine.state.log[-1]


def test_dispatch_decides_like_the_declared_matrix():
    """The access check each envelope inlines, through ``Engine.dispatch``:
    every subset of the bundled roles, held through the actor's entity and
    through an assignment, x every command x each ownership case, against
    the brute-force reference; the record's access is the reference's, and
    the command is denied exactly when the reference denies."""
    names = sorted(role["name"] for role in BUNDLED_RBAC_CONFIG["roles"])
    entity_matrix = default_matrix()
    engine = fresh_engine(rbac=entity_matrix)
    other = _targets(engine, new_customer(engine, name="Other"))
    checked, reasons = 0, set()
    for mask in range(1 << len(names)):
        held = sorted(name for bit, name in enumerate(names) if mask >> bit & 1)
        by_entity = new_customer(engine, name=f"e{mask}", roles=[*held, "Undeclared"])
        by_assignment = new_customer(engine, name=f"a{mask}", roles=())
        assigned_matrix = load_rbac_config({"roles": BUNDLED_RBAC_CONFIG["roles"],
                                            "assignments": [{"user": by_assignment,
                                                             "roles": held}]})
        for actor, matrix in ((by_entity, entity_matrix), (by_assignment, assigned_matrix)):
            engine.rbac = matrix
            own = _targets(engine, actor)
            for command, spec in COMMANDS.items():
                for case, args in _ownership_cases(command, own, other).items():
                    owner, missing = _reference_owner(engine, command, args)
                    verdict, role, reason = _reference_decision(
                        entity_matrix, EntityId.parse(actor), held, spec.kind, command,
                        owner, missing)
                    record = _dispatched(engine, actor, command, args)
                    assert record.access == _access(verdict, role, reason), (
                        held, command, case, actor)
                    assert reason_text(record.access, command) == reason
                    assert (record.outcome == "denied") == (verdict == "Deny")
                    reasons.add(reason)
                    checked += 1
    assert checked == (1 << len(names)) * 2 * sum(
        len(_ownership_cases(command, own, other)) for command in COMMANDS)
    assert {"not owner", "no role grants operation"} <= reasons


def test_dispatch_access_of_the_system_actor_a_permissive_engine_and_an_actor_with_no_entity():
    """The envelope's early allows, and an actor whose roles come from an
    assignment alone, over every command and ownership case."""
    engine = fresh_engine(rbac=default_matrix())
    own = _targets(engine, new_customer(engine, name="Own"))
    other = _targets(engine, new_customer(engine, name="Other"))
    ghost = "customer:9999"  # assigned roles, but no entity
    ghost_matrix = load_rbac_config({"roles": BUNDLED_RBAC_CONFIG["roles"], "assignments": [
        {"user": ghost, "roles": ["Shopper", "StockManager"]}]})
    system = _access("Allow", "system", "system actor")
    permissive = _access("Allow", "*", "permissive mode, no matrix loaded")
    refused_missing, checked = set(), 0
    for command, spec in COMMANDS.items():
        for case, args in _ownership_cases(command, own, other).items():
            engine.rbac = default_matrix()
            assert _dispatched(engine, SYSTEM, command, args).access == system
            engine.rbac = permissive_matrix()
            assert _dispatched(engine, ghost, command, args).access == permissive
            assert _dispatched(engine, "employee:9999", command, args).access == permissive
            engine.rbac = ghost_matrix
            owner, missing = _reference_owner(engine, command, args)
            verdict, role, reason = _reference_decision(
                ghost_matrix, EntityId.parse(ghost), {"Shopper", "StockManager"}, spec.kind,
                command, owner, missing)
            record = _dispatched(engine, ghost, command, args)
            assert record.access == _access(verdict, role, reason), (command, case)
            assert reason_text(record.access, command) == reason
            assert (record.outcome == "denied") == (verdict == "Deny")
            if case == "target missing":
                refused_missing.add(reason)
            checked += 1
    # an owner-only role is refused a target that does not exist
    assert "not owner" in refused_missing
    assert checked == 11 * 3 + 22


def test_two_matrices_parsed_apart_log_one_allow_object():
    """A role's Allow is one dict in the process, whichever matrix grants it:
    engines over two separately parsed copies of the bundled matrix (no
    memo between them) log the same ``Shopper`` Allow object."""
    text = bundled.rbac_config().read_text(encoding="utf-8")
    matrices = [load_rbac_config(json.loads(text)) for _ in range(2)]
    assert matrices[0] is not matrices[1]
    records = []
    for matrix in matrices:
        engine = fresh_engine(rbac=matrix)
        ana = new_customer(engine, name="Ana")
        records.append(engine.dispatch(ana, "create_cart", {"customer": ana}))
    first, second = records
    assert first.access is second.access
    assert (first.access["verdict"], first.access["role"]) == ("Allow", "Shopper")


def test_a_decision_on_an_unknown_command_is_the_error_dispatch_raises(rbac_eng):
    with pytest.raises(SchemaError) as decided:
        rbac_eng.access_decision(SYSTEM, "no_such_command", {})
    with pytest.raises(SchemaError) as dispatched:
        rbac_eng.dispatch(SYSTEM, "no_such_command", {})
    assert str(decided.value) == str(dispatched.value) == "unknown command 'no_such_command'"


def test_a_record_whose_access_is_no_decision_writes_that_dict(rbac_eng):
    """``to_json_line`` looks a decision's text up by the dict's ``id``; a dict
    that replaces a record's ``access``, as a tampering test does, is written
    from its own JSON."""
    ana = new_customer(rbac_eng, name="Ana")
    record = rbac_eng.dispatch(ana, "create_cart", {"customer": ana})
    record.access = tampered = {"role": "Shopper", "verdict": "Deny", "reason": "tampered"}
    assert json.loads(record.to_json_line())["access"] == tampered
