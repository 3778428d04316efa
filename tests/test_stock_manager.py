"""Stock quantities: intake distribution, removal bounds, transfers, and
the cut/pick/fab manufacturing workflow."""

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from helpers import room_id, stock_item_id
from storefront import SYSTEM, DomainError, Engine, EntityId, permissive_matrix
from storefront.stock_manager import Inventory

from conftest import fresh_engine


FRAME = "widget-frame"
MOTOR = "widget-motor"


def level(engine, name):
    return engine.query("stock_level", item=stock_item_id(engine, name))


def test_stock_item_snapshot_runs_no_post_init(eng, monkeypatch):
    """``Txn.get_mut`` snapshots a valid item; checking it again is waste."""
    calls = []
    check = Inventory.__post_init__
    monkeypatch.setattr(Inventory, "__post_init__",
                        lambda self: calls.append(self) or check(self))
    frame = stock_item_id(eng, FRAME)
    item = eng.state.stores["stock_items"][EntityId.parse(frame)]
    copy = item.clone()
    assert copy == item and copy.inventory.by_room is not item.inventory.by_room
    eng.execute(SYSTEM, "add_to_stock", item=frame, qty=1)
    assert calls == []


def test_add_with_explicit_allocation(eng):
    frame = stock_item_id(eng, FRAME)
    eng.execute(SYSTEM, "add_to_stock", item=frame, qty=10,
                allocation={room_id(eng, "Main"): 6, room_id(eng, "Annex"): 4})
    assert level(eng, FRAME) == {"on_hand": 210, "reserved": 0,
                                 "rooms": {"Main": 206, "Annex": 4}}


def test_add_default_policy_first_room(eng):
    motor = stock_item_id(eng, MOTOR)
    result = eng.execute(SYSTEM, "add_to_stock", item=motor, qty=10)
    assert result["policy"] == "first-room"
    # oracle: the lowest-id room takes everything under first-room
    assert level(eng, MOTOR)["rooms"] == {"Main": 130}


def test_add_round_robin_policy():
    engine = fresh_engine(add_policy="round-robin")
    motor = stock_item_id(engine, MOTOR)
    engine.execute(SYSTEM, "add_to_stock", item=motor, qty=7)
    # 7 over rooms (Main, Annex): 4 to the earlier room, 3 to the later
    assert level(engine, MOTOR)["rooms"] == {"Main": 124, "Annex": 3}


def test_add_allocation_mismatch(eng):
    frame = stock_item_id(eng, FRAME)
    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "add_to_stock", item=frame, qty=10,
                    allocation={room_id(eng, "Main"): 6, room_id(eng, "Annex"): 5})
    assert exc.value.code == "AllocationMismatch"
    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "add_to_stock", item="stock_item:99", qty=1)
    assert exc.value.code == "UnknownItem"


def test_add_requires_a_room():
    engine = fresh_engine(seed_catalog=False, seed_stock=False)
    item = engine.execute(SYSTEM, "create_stock_item", name="lonely",
                          kind="Component")["stock_item"]
    with pytest.raises(DomainError) as exc:
        engine.execute(SYSTEM, "add_to_stock", item=item, qty=5)
    assert exc.value.code == "UnknownRoom"


def test_remove_respects_reservation_bound(eng):
    """Only unreserved stock may leave: on_hand 10, reserved 4 allows 6."""
    engine = fresh_engine(seed_catalog=False, seed_stock=False)
    engine.execute(SYSTEM, "create_stockroom", name="R1")
    comp = engine.execute(SYSTEM, "create_stock_item", name="c1",
                          kind="Component")["stock_item"]
    prod = engine.execute(SYSTEM, "create_stock_item", name="p1",
                          kind="Product")["stock_item"]
    engine.execute(SYSTEM, "add_to_stock", item=comp, qty=10)
    order = engine.execute(SYSTEM, "create_shop_order", product=prod,
                           output_qty=4, bill_of_materials={comp: 1})["shop_order"]
    engine.execute(SYSTEM, "cut_shop_order", order=order)
    assert engine.query("stock_level", item=comp)["reserved"] == 4

    with pytest.raises(DomainError) as exc:
        engine.execute(SYSTEM, "remove_from_stock", item=comp, qty=7)
    assert exc.value.code == "InsufficientStock"
    engine.execute(SYSTEM, "remove_from_stock", item=comp, qty=6)
    assert engine.query("stock_level", item=comp) == \
        {"on_hand": 4, "reserved": 4, "rooms": {"R1": 4}}


def test_remove_local_bound(eng):
    gadget = stock_item_id(eng, "Gadget")  # Main 25, Annex 5
    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "remove_from_stock", item=gadget, qty=6,
                    room=room_id(eng, "Annex"))
    assert exc.value.code == "InsufficientLocalStock"
    eng.execute(SYSTEM, "remove_from_stock", item=gadget, qty=5,
                room=room_id(eng, "Annex"))
    assert level(eng, "Gadget") == {"on_hand": 25, "reserved": 0,
                                    "rooms": {"Main": 25}}


def test_remove_default_drain_ascending(eng):
    widget = stock_item_id(eng, "WidgetA")  # Main 50, Annex 10
    eng.execute(SYSTEM, "remove_from_stock", item=widget, qty=55)
    assert level(eng, "WidgetA") == {"on_hand": 5, "reserved": 0,
                                     "rooms": {"Annex": 5}}


def test_transfer_conserves_aggregate(eng):
    widget = stock_item_id(eng, "WidgetA")
    eng.execute(SYSTEM, "transfer", item=widget, qty=4,
                from_room=room_id(eng, "Main"), to_room=room_id(eng, "Annex"))
    assert level(eng, "WidgetA") == {"on_hand": 60, "reserved": 0,
                                     "rooms": {"Main": 46, "Annex": 14}}
    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "transfer", item=widget, qty=1,
                    from_room=room_id(eng, "Main"), to_room=room_id(eng, "Main"))
    assert exc.value.code == "SameRoom"
    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "transfer", item=widget, qty=100,
                    from_room=room_id(eng, "Main"), to_room=room_id(eng, "Annex"))
    assert exc.value.code == "InsufficientLocalStock"


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(min_value=0, max_value=80)),
                max_size=20))
def test_random_transfers_conserve_locals(moves):
    engine = fresh_engine()
    widget = stock_item_id(engine, "WidgetA")
    main, annex = room_id(engine, "Main"), room_id(engine, "Annex")
    for main_to_annex, qty in moves:
        source, target = (main, annex) if main_to_annex else (annex, main)
        rooms = level(engine, "WidgetA")["rooms"]
        source_name = "Main" if main_to_annex else "Annex"
        if qty <= rooms.get(source_name, 0):
            engine.execute(SYSTEM, "transfer", item=widget, qty=qty,
                           from_room=source, to_room=target)
        else:
            with pytest.raises(DomainError):
                engine.execute(SYSTEM, "transfer", item=widget, qty=qty,
                               from_room=source, to_room=target)
        snapshot = level(engine, "WidgetA")
        assert sum(snapshot["rooms"].values()) == snapshot["on_hand"] == 60


def test_cut_reserves_bom_times_output(eng):
    widget = stock_item_id(eng, "WidgetA")
    frame = stock_item_id(eng, FRAME)
    motor = stock_item_id(eng, MOTOR)
    order = eng.execute(SYSTEM, "create_shop_order", product=widget, output_qty=3,
                        bill_of_materials={frame: 2, motor: 1})["shop_order"]
    eng.execute(SYSTEM, "cut_shop_order", order=order)
    # oracle: need = bom * output
    assert level(eng, FRAME)["reserved"] == 2 * 3
    assert level(eng, MOTOR)["reserved"] == 1 * 3
    assert eng.query("shop_order_stage", order=order) == "Cut"
    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "cut_shop_order", order=order)
    assert exc.value.code == "WrongStage"


def test_cut_shortage_is_atomic(eng):
    widget = stock_item_id(eng, "WidgetA")
    frame = stock_item_id(eng, FRAME)   # 200 on hand
    motor = stock_item_id(eng, MOTOR)   # 120 on hand
    order = eng.execute(SYSTEM, "create_shop_order", product=widget,
                        output_qty=150,
                        bill_of_materials={frame: 1, motor: 1})["shop_order"]
    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "cut_shop_order", order=order)
    assert exc.value.code == "InsufficientStock"
    assert MOTOR in str(exc.value)
    # no partial reservation of the satisfiable component
    assert level(eng, FRAME)["reserved"] == 0
    assert level(eng, MOTOR)["reserved"] == 0
    assert eng.query("shop_order_stage", order=order) == "Created"


def test_pick_reduces_reserved_and_on_hand(eng):
    engine = fresh_engine(seed_catalog=False, seed_stock=False)
    engine.execute(SYSTEM, "create_stockroom", name="R1")
    comp = engine.execute(SYSTEM, "create_stock_item", name="c1",
                          kind="Component")["stock_item"]
    prod = engine.execute(SYSTEM, "create_stock_item", name="p1",
                          kind="Product")["stock_item"]
    engine.execute(SYSTEM, "add_to_stock", item=comp, qty=10)
    order = engine.execute(SYSTEM, "create_shop_order", product=prod,
                           output_qty=3, bill_of_materials={comp: 2})["shop_order"]
    with pytest.raises(DomainError) as exc:
        engine.execute(SYSTEM, "pick_components", order=order)
    assert exc.value.code == "WrongStage"
    engine.execute(SYSTEM, "cut_shop_order", order=order)
    engine.execute(SYSTEM, "pick_components", order=order)
    snapshot = engine.query("stock_level", item=comp)
    assert snapshot == {"on_hand": 4, "reserved": 0, "rooms": {"R1": 4}}
    assert sum(snapshot["rooms"].values()) == snapshot["on_hand"]


def test_full_manufacturing_run_conserves(eng):
    """cut -> pick -> fab: components drop by need, product rises by output."""
    widget = stock_item_id(eng, "WidgetA")
    frame = stock_item_id(eng, FRAME)
    motor = stock_item_id(eng, MOTOR)
    frames_before = level(eng, FRAME)["on_hand"]
    motors_before = level(eng, MOTOR)["on_hand"]
    widgets_before = level(eng, "WidgetA")["on_hand"]

    order = eng.execute(SYSTEM, "create_shop_order", product=widget, output_qty=3,
                        bill_of_materials={frame: 2, motor: 1})["shop_order"]
    eng.execute(SYSTEM, "cut_shop_order", order=order)
    eng.execute(SYSTEM, "pick_components", order=order)
    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "finish_fabrication", order=order, room="stockroom:99")
    assert exc.value.code == "UnknownRoom"
    eng.execute(SYSTEM, "finish_fabrication", order=order,
                room=room_id(eng, "Annex"))

    assert level(eng, FRAME)["on_hand"] == frames_before - 6
    assert level(eng, MOTOR)["on_hand"] == motors_before - 3
    widget_level = level(eng, "WidgetA")
    assert widget_level["on_hand"] == widgets_before + 3
    assert widget_level["rooms"]["Annex"] == 13
    assert eng.query("shop_order_stage", order=order) == "Fabricated"
    assert eng.check_invariants().ok()


def test_pick_with_explicit_room_drains(eng):
    widget = stock_item_id(eng, "WidgetA")
    frame = stock_item_id(eng, FRAME)
    eng.execute(SYSTEM, "add_to_stock", item=frame, qty=50,
                allocation={room_id(eng, "Annex"): 50})  # frame: Main 200, Annex 50
    order = eng.execute(SYSTEM, "create_shop_order", product=widget, output_qty=5,
                        bill_of_materials={frame: 2})["shop_order"]
    eng.execute(SYSTEM, "cut_shop_order", order=order)
    eng.execute(SYSTEM, "pick_components", order=order,
                room_drains={frame: {room_id(eng, "Annex"): 10}})
    assert level(eng, FRAME) == {"on_hand": 240, "reserved": 0,
                                 "rooms": {"Main": 200, "Annex": 40}}


def test_pick_drain_validation(eng):
    widget = stock_item_id(eng, "WidgetA")
    frame = stock_item_id(eng, FRAME)
    order = eng.execute(SYSTEM, "create_shop_order", product=widget, output_qty=5,
                        bill_of_materials={frame: 2})["shop_order"]
    eng.execute(SYSTEM, "cut_shop_order", order=order)
    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "pick_components", order=order,
                    room_drains={frame: {room_id(eng, "Annex"): 10}})
    assert exc.value.code == "InsufficientLocalStock"
    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "pick_components", order=order,
                    room_drains={frame: {room_id(eng, "Main"): 3}})
    assert exc.value.code == "AllocationMismatch"


def test_pick_zero_drain_from_room_the_component_is_not_in(eng):
    """A zero drain from an empty room is a no-op, not a crash mid-command."""
    widget = stock_item_id(eng, "WidgetA")
    frame = stock_item_id(eng, FRAME)  # seeded in Main only
    order = eng.execute(SYSTEM, "create_shop_order", product=widget, output_qty=2,
                        bill_of_materials={frame: 2})["shop_order"]
    eng.execute(SYSTEM, "cut_shop_order", order=order)
    records_before = len(eng.state.log)
    record = eng.dispatch(SYSTEM, "pick_components", {
        "order": order,
        "room_drains": {frame: {room_id(eng, "Main"): 4, room_id(eng, "Annex"): 0}}})
    assert record.outcome == "ok"
    assert len(eng.state.log) == records_before + 1
    assert level(eng, FRAME) == {"on_hand": 196, "reserved": 0, "rooms": {"Main": 196}}
    assert eng.replayed_state().to_dict() == eng.state.to_dict()


def test_shop_order_creation_validation(eng):
    widget = stock_item_id(eng, "WidgetA")
    frame = stock_item_id(eng, FRAME)
    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "create_shop_order", product=frame, output_qty=1,
                    bill_of_materials={frame: 1})
    assert exc.value.code == "WrongItemKind"
    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "create_shop_order", product=widget, output_qty=1,
                    bill_of_materials={widget: 1})
    assert exc.value.code == "WrongItemKind"
    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "create_shop_order", product=widget, output_qty=0,
                    bill_of_materials={frame: 1})
    assert exc.value.code == "AllocationMismatch"
    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "create_shop_order", product=widget, output_qty=1,
                    bill_of_materials={})
    assert exc.value.code == "AllocationMismatch"


def test_zero_quantity_moves_from_empty_rooms(eng):
    """qty 0 against a room the item has never occupied stays a clean no-op."""
    motor = stock_item_id(eng, MOTOR)  # seeded in Main only
    eng.execute(SYSTEM, "transfer", item=motor, qty=0,
                from_room=room_id(eng, "Annex"), to_room=room_id(eng, "Main"))
    eng.execute(SYSTEM, "remove_from_stock", item=motor, qty=0,
                room=room_id(eng, "Annex"))
    assert level(eng, MOTOR) == {"on_hand": 120, "reserved": 0,
                                 "rooms": {"Main": 120}}
    assert eng.check_invariants().ok()


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=5),
                          st.integers(min_value=0, max_value=2),
                          st.integers(min_value=0, max_value=60)),
                max_size=40))
def test_random_stock_commands_conserve(script):
    """Random legal/illegal add/remove/transfer keeps both conservation laws."""
    engine = fresh_engine()
    items = [stock_item_id(engine, n) for n in ("WidgetA", FRAME, MOTOR)]
    rooms = [room_id(engine, "Main"), room_id(engine, "Annex")]
    for action, which, qty in script:
        item = items[which % len(items)]
        try:
            if action in (0, 1):
                engine.execute(SYSTEM, "add_to_stock", item=item, qty=qty)
            elif action in (2, 3):
                engine.execute(SYSTEM, "remove_from_stock", item=item, qty=qty)
            else:
                engine.execute(SYSTEM, "transfer", item=item, qty=qty,
                               from_room=rooms[action % 2],
                               to_room=rooms[(action + 1) % 2])
        except DomainError:
            pass
        for name in ("WidgetA", FRAME, MOTOR):
            snapshot = level(engine, name)
            assert sum(snapshot["rooms"].values()) == snapshot["on_hand"]
            assert 0 <= snapshot["reserved"] <= snapshot["on_hand"]
    assert engine.check_invariants().ok()


class StockMachine(RuleBasedStateMachine):
    """Random interleavings of all six stock operations; conservation and
    reservation bounds must hold after every single step."""

    ITEMS = ["stock_item:1", "stock_item:2", "stock_item:3"]
    ROOMS = ["stockroom:1", "stockroom:2"]

    def __init__(self):
        super().__init__()
        self.engine = Engine(rbac_matrix=permissive_matrix())
        self.engine.seed_stock([
            {"item": "c1", "kind": "Component", "rooms": {"R1": 25, "R2": 5}},
            {"item": "c2", "kind": "Component", "rooms": {"R1": 10}},
            {"item": "p1", "kind": "Product", "rooms": {"R2": 2}},
        ])
        self.shop_orders = []

    def _attempt(self, op, **args):
        try:
            return self.engine.execute(SYSTEM, op, **args)
        except DomainError:
            return None

    @rule(item=st.sampled_from(ITEMS), qty=st.integers(0, 15))
    def add(self, item, qty):
        self._attempt("add_to_stock", item=item, qty=qty)

    @rule(item=st.sampled_from(ITEMS), qty=st.integers(0, 30),
          use_room=st.booleans(), room=st.sampled_from(ROOMS))
    def remove(self, item, qty, use_room, room):
        extra = {"room": room} if use_room else {}
        self._attempt("remove_from_stock", item=item, qty=qty, **extra)

    @rule(item=st.sampled_from(ITEMS), qty=st.integers(0, 20),
          source=st.sampled_from(ROOMS), destination=st.sampled_from(ROOMS))
    def move(self, item, qty, source, destination):
        self._attempt("transfer", item=item, qty=qty, from_room=source,
                      to_room=destination)

    @rule(output=st.integers(1, 3), per_unit=st.integers(1, 2),
          component=st.sampled_from(ITEMS[:2]))
    def open_shop_order(self, output, per_unit, component):
        result = self._attempt("create_shop_order", product="stock_item:3",
                               output_qty=output,
                               bill_of_materials={component: per_unit})
        if result:
            self.shop_orders.append(result["shop_order"])

    @rule(pick=st.randoms())
    def advance_shop_order(self, pick):
        if not self.shop_orders:
            return
        order = pick.choice(self.shop_orders)
        stage = self.engine.query("shop_order_stage", order=order)
        op = {"Created": "cut_shop_order", "Cut": "pick_components",
              "Picked": "finish_fabrication"}.get(stage)
        if op is None:
            return
        extra = {"room": "stockroom:1"} if op == "finish_fabrication" else {}
        self._attempt(op, order=order, **extra)

    @invariant()
    def conserved(self):
        for item in self.engine.state.stores["stock_items"].values():
            inv = item.inventory
            assert sum(inv.by_room.values()) == inv.on_hand
            assert 0 <= inv.reserved <= inv.on_hand

    def teardown(self):
        assert self.engine.check_invariants().ok()
        live = self.engine.state.to_dict()
        assert self.engine.replayed_state().to_dict() == live


StockMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None)
TestStockMachine = StockMachine.TestCase
