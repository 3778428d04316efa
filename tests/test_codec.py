"""The Record codec: every entity round-trips through its JSON form, a clone
shares no mutable container with its original, and a field type the codec
cannot encode is refused when the codec is derived."""

from dataclasses import dataclass, field, fields

import pytest

from storefront import EntityId, Money, Quantity, bundled, default_matrix, load_scenario, run_scenario
from storefront.foundation import NegativeQuantity, Record, derive_codec
from storefront.state import STORES

from conftest import fresh_engine


@pytest.fixture(scope="module")
def entities():
    """(store, entity) for every entity left by every bundled scenario."""
    found = []
    for path in bundled.scenario_files():
        engine = fresh_engine(rbac=default_matrix())
        assert run_scenario(engine, load_scenario(path)).ok, path.stem
        for store, entries in engine.state.stores.items():
            found.extend((store, entity) for entity in entries.values())
    return found


def _records_in(value):
    """Every Record nested in a value, the value itself included."""
    if isinstance(value, Record):
        yield value
        for f in fields(value):
            yield from _records_in(getattr(value, f.name))
    elif isinstance(value, (list, tuple, set)):
        for item in value:
            yield from _records_in(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _records_in(item)


def test_scenarios_cover_every_record_class(entities):
    assert {store for store, _ in entities} == set(STORES)
    classes = {type(r).__name__ for _, entity in entities for r in _records_in(entity)}
    assert {"Money", "ProductInfo", "CartItem", "InvoiceItem", "ShippedItem",
            "Inventory"} <= classes


def test_every_entity_round_trips(entities):
    for store, entity in entities:
        assert STORES[store][1].from_dict(entity.to_dict()) == entity, store


def _containers(record):
    """Every set, list and dict the record holds, in nested mutable records
    too (``StockItem.inventory.by_room``)."""
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, (set, list, dict)):
            yield value
        elif isinstance(value, Record) and not type(value).__dataclass_params__.frozen:
            yield from _containers(value)


def test_clone_shares_no_mutable_container(entities):
    """Txn.get_mut rolls back by restoring the clone it took first."""
    for store, entity in entities:
        before = entity.to_dict()
        copy = entity.clone()
        assert copy == entity and copy is not entity
        originals = {id(c) for c in _containers(entity)}
        for container in _containers(copy):
            assert id(container) not in originals, store
            container.clear()
        assert entity.to_dict() == before, store


@derive_codec
@dataclass
class _Sample(Record):
    pairs: list[tuple[EntityId, Quantity]]
    members: set[EntityId]
    groups: dict[str, list[EntityId]] = field(default_factory=dict)
    price: Money | None = None


def test_encoding_rules_on_a_sample_record():
    sample = _Sample([(EntityId("product", 2), Quantity(3))],
                     {EntityId("customer", 9), EntityId("customer", 10)},
                     {"a": [EntityId("customer", 1)]})
    encoded = sample.to_dict()
    assert encoded == {"pairs": [["product:2", 3]],
                       "members": ["customer:10", "customer:9"],  # by encoded string
                       "groups": {"a": ["customer:1"]}, "price": None}
    assert _Sample.from_dict(encoded) == sample
    copy = sample.clone()
    copy.groups["a"].append(EntityId("customer", 2))
    assert sample.groups == {"a": [EntityId("customer", 1)]}
    with pytest.raises(ValueError):
        _Sample.from_dict({**encoded, "pairs": [["product:2", 3, 4]]})
    with pytest.raises(NegativeQuantity):
        _Sample.from_dict({**encoded, "pairs": [["product:2", -1]]})


def test_unsupported_field_type_is_refused():
    @dataclass
    class Opaque(Record):
        id: EntityId
        blob: object

    with pytest.raises(TypeError, match="Opaque.blob"):
        derive_codec(Opaque)
