"""Access matrix behavior: config loading, role lookup, ownership, and the
need-to-know guarantee over the whole command vocabulary."""

import json
import re

import pytest

from helpers import new_customer, new_employee, product_id, stock_item_id
from storefront import SYSTEM, AccessDenied, EntityId, SchemaError, bundled
from storefront.cli import main
from storefront.commands import COMMANDS
from storefront.rbac import (
    DECLARED_RIGHTS,
    DuplicateRole,
    UnknownRoleInAssignment,
    check_access,
    default_matrix,
    load_rbac_config,
    permissive_matrix,
)

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
    # not a list of strings: rejected by the access config's declared shape
    ("cart", "access config: expected list, got 'cart'"),
    (["cart", 7], "access config: expected string, got 7"),
    ([None, "checkout"], "access config: expected string, got None"),
], ids=["misspelled", "wrong-kind", "three-elements", "one-element", "string",
        "int-command", "null-kind"])
def test_right_naming_no_command_rejected(right, message):
    with pytest.raises(SchemaError, match=re.escape(message)):
        load_rbac_config(_with_shopper_right(right))


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
    assert decision.verdict == "Allow" and decision.matched_role == "Shopper"

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
    assert record.access == {"verdict": "Allow", "matched_role": "system",
                             "reason": "system actor"}


def test_permissive_mode_allows_everything(eng):
    stranger = "customer:77"  # does not even exist
    decision = check_access(permissive_matrix(), EntityId.parse(stranger), set(),
                            "cart", "checkout", None)
    assert decision.verdict == "Allow" and decision.matched_role == "*"


def test_decision_recorded_in_log(rbac_eng):
    ana = new_customer(rbac_eng, name="Ana")
    rbac_eng.execute(ana, "create_cart", customer=ana)
    record = rbac_eng.state.log[-1]
    assert record.access["verdict"] == "Allow"
    assert record.access["matched_role"] == "Shopper"
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
    decisions = {rbac_eng.access_decision(EntityId.parse(ana), "create_cart", args)
                 for _ in range(25)}
    assert len(decisions) == 1


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
            assert decision.allowed() == has_right, \
                f"{role_name} x {command} (own): expected {has_right}"
            checked += 1

            if has_right and owner_only[role_name] and \
                    _args_for(engine, command, own=False, actor=actor):
                other_args = _args_for(engine, command, own=False, actor=actor)
                owner, missing = spec.owner(engine.state, other_args)
                decision = engine.access_decision(actor, command, other_args)
                expect_deny = owner is not None or missing
                assert decision.allowed() == (not expect_deny), \
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


def test_grant_table_decides_like_the_declared_matrix():
    """Every subset of the bundled roles x every command x every ownership
    case, with the roles held through an assignment and through the user's
    own entity, against a reference computed from ``RbacMatrix.roles``."""
    user, other = EntityId.parse("customer:1"), EntityId.parse("customer:2")
    ownership = {"own": (user, False), "other's": (other, False),
                 "no owner": (None, False), "target missing": (None, True)}
    names = sorted(role["name"] for role in BUNDLED_RBAC_CONFIG["roles"])
    entity_matrix = default_matrix()
    checked = 0
    for mask in range(1 << len(names)):
        held = {name for bit, name in enumerate(names) if mask >> bit & 1}
        assigned_matrix = load_rbac_config({
            "roles": BUNDLED_RBAC_CONFIG["roles"],
            "assignments": [{"user": str(user), "roles": sorted(held)}]})
        for command, spec in COMMANDS.items():
            for case, (owner, missing) in ownership.items():
                expected = _reference_decision(entity_matrix, user, held, spec.kind,
                                               command, owner, missing)
                for source, matrix, entity_roles in (
                        ("assignment", assigned_matrix, frozenset()),
                        ("entity", entity_matrix, frozenset(held) | {"Undeclared"})):
                    decision = check_access(matrix, user, entity_roles, spec.kind,
                                            command, owner, missing)
                    got = (decision.verdict, decision.matched_role, decision.reason)
                    assert got == expected, (sorted(held), command, case, source)
                    checked += 1
    assert checked == (1 << len(names)) * len(COMMANDS) * len(ownership) * 2
