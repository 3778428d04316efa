"""The Record codec: every entity round-trips through its JSON form, which
the flat generated encoder builds as a reference nested encoder does, the
generated writer writes that form's sorted compact JSON text byte for
byte, a clone shares no mutable container with its original, a decode
shares each frozen value through its memo, a field type the codec
cannot encode is refused when the codec is derived, and the generators
read the declarations as written, resolving no string annotation."""

import functools
import json
import os
import subprocess
import sys
import types
import typing
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import assert_plain_json, bench_engines
from storefront import EntityId, Money, Quantity, bundled, default_matrix, load_scenario, run_scenario
from storefront.foundation import NegativeQuantity, Record, SchemaError, derive_codec
from storefront.shopping_cart import CartItem
from storefront.stock_manager import Inventory
from storefront.state import STORES

from conftest import fresh_engine


@pytest.fixture(scope="module")
def entities():
    """(store, entity) for every entity left by every bundled scenario and by
    a short run of each dispatch workload of the benchmark."""
    engines = []
    for path in bundled.scenario_files():
        engine = fresh_engine(rbac=default_matrix())
        assert run_scenario(engine, load_scenario(path)).ok, path.stem
        engines.append(engine)
    found = []
    for engine in engines + bench_engines():
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


def _reference(value, hint):
    """The README's encoding of ``value``, declared as ``hint``, one nested
    call per value."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        (hint,) = [arg for arg in args if arg is not type(None)]
        return None if value is None else _reference(value, hint)
    if hint is EntityId:
        return f"{value.kind}:{value.serial}"
    if hint is Quantity:
        return value.value
    if isinstance(hint, type) and issubclass(hint, Enum):
        return value.value
    if isinstance(hint, type) and issubclass(hint, Record):
        hints = typing.get_type_hints(hint)
        return {f.name: _reference(getattr(value, f.name), hints[f.name])
                for f in fields(value)}
    if origin is set:
        return sorted(_reference(item, args[0]) for item in value)
    if origin is list:
        return [_reference(item, args[0]) for item in value]
    if origin is tuple:
        return [_reference(item, arg) for item, arg in zip(value, args, strict=True)]
    if origin is dict:
        return {_reference(key, args[0]): _reference(item, args[1])
                for key, item in value.items()}
    assert hint in (int, str, bool), hint
    return value


def test_flat_encoder_matches_the_reference_encoder(entities):
    for store, entity in entities:
        encoded = entity.to_dict()
        assert encoded == _reference(entity, STORES[store][1]), store
        assert_plain_json(encoded, store)


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def test_writer_writes_the_sorted_compact_dump(entities):
    for store, entity in entities:
        assert entity.to_json() == _dumps(entity.to_dict()), store


# strings that need escapes, including lone surrogates, which JSON writes as
# \u escapes; ids whose text order differs from serial order
_TEXT = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=6),
    st.lists(st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028",
                              "\ud800", "\udfff", "\U0001d11e", "a", ":"]),
             max_size=6).map("".join))
_INTS = st.one_of(st.integers(), st.sampled_from([-1, -(2 ** 63), 2 ** 64, 10 ** 30]))
_IDS = st.builds(EntityId, st.sampled_from(["stockroom", "customer", "product", "stock_item"]),
                 st.one_of(st.sampled_from([1, 2, 9, 10, 11, 20, 100]),
                           st.integers(-5, 10 ** 12)))


def _values(hint, counts=_INTS):
    """A strategy for every value of ``hint``; a record is built with no
    ``__init__``, so the writer meets values no domain check would let
    through. ``counts`` draws each int of an ``Inventory``, which must not
    be negative to decode."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    values = functools.partial(_values, counts=counts)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [arg for arg in args if arg is not type(None)]
        return st.none() | values(inner)
    if hint is int:
        return _INTS
    if hint is str:
        return _TEXT
    if hint is bool:
        return st.booleans()
    if hint is EntityId:
        return _IDS
    if hint is Quantity:
        return st.integers(0, 10 ** 20).map(Quantity)
    if isinstance(hint, type) and issubclass(hint, Enum):
        return st.sampled_from(list(hint))
    if isinstance(hint, type) and issubclass(hint, Record):
        hints = typing.get_type_hints(hint)
        if hint is Inventory:
            hints = {name: counts if value is int else dict[EntityId, counts]
                     for name, value in hints.items()}
        return st.fixed_dictionaries({f.name: values(hints[f.name]) for f in fields(hint)}).map(
            lambda drawn: _bare(hint, drawn))
    if isinstance(hint, st.SearchStrategy):
        return hint
    if origin is list:
        return st.lists(values(args[0]), max_size=4)
    if origin is set:
        return st.sets(values(args[0]), max_size=4)
    if origin is dict:
        return st.dictionaries(values(args[0]), values(args[1]), max_size=4)
    if origin is tuple:
        return st.tuples(*map(values, args))
    raise AssertionError(hint)


def _bare(cls, values):
    record = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(record, name, value)
    return record


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_writer_matches_the_dump_of_every_drawn_entity(data):
    for store, (_, cls) in sorted(STORES.items()):
        entity = data.draw(_values(cls), label=store)
        assert entity.to_json() == _dumps(entity.to_dict()), store


def _round_trip(cls, value):
    """``value``, which must decode back from its JSON form to itself, as a
    string holding a surrogate pair does not."""
    assume(cls.from_dict(json.loads(value.to_json())) == value)
    return value


_COUNTS = st.integers(0, 2 ** 64)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_put_writes_exactly_the_changed_fields_and_merges_back(data):
    """For each stored class and a drawn pair (old, new) of one entity, the
    put writes exactly the fields but ``id`` that differ, and merging what
    it decodes to into ``old`` gives ``new``, leaving ``old`` as it was."""
    for store, (_, cls) in sorted(STORES.items()):
        old = _round_trip(cls, data.draw(_values(cls, _COUNTS), label=store))
        hints = typing.get_type_hints(cls)
        names = [f.name for f in fields(cls) if f.name != "id"]
        changed = data.draw(st.sets(st.sampled_from(names)), label=f"{store} changed")
        new = _round_trip(cls, _bare(cls, {**vars(old), **{
            name: data.draw(_values(hints[name], _COUNTS), label=name)
            for name in sorted(changed)}}))
        before = old.to_json()
        written = new.changes_json(old)
        assert set(json.loads(written)) == {
            name for name in names if getattr(new, name) != getattr(old, name)}, store
        changes = cls.decode_changes(json.loads(written), {})
        assert cls.changes_text(changes) == written, store
        assert cls.merge(old, changes) == new, store
        assert old.to_json() == before, store


def test_a_put_of_changed_fields_refuses_an_undeclared_one_and_id():
    for store, (_, cls) in STORES.items():
        for field_name in ("id", "no_such_field"):
            with pytest.raises(SchemaError, match=f"undeclared fields: \\['{field_name}'\\]"):
                cls.decode_changes({field_name: None}, {})


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
    assert sample.to_json() == _dumps(encoded)
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


@dataclass
class _Tree(Record):
    label: str
    owner: EntityId
    children: list["_Tree"] = field(default_factory=list)
    parent: "_Tree | None" = None
    price: Money | None = None


def test_a_record_nested_in_itself_is_refused_naming_the_field():
    """A record can nest itself only through a string annotation, which the
    codec does not resolve: it refuses the first such field by name, and
    derives nothing, so a second call refuses it again."""
    for _ in range(2):
        with pytest.raises(TypeError, match=r"^_Tree\.children: the record codec cannot encode"):
            derive_codec(_Tree)
    assert not hasattr(_Tree, "to_dict")


def test_an_import_of_the_cli_resolves_no_string_annotation():
    """A fresh ``import storefront.cli`` calls no ``typing.get_type_hints``
    and evaluates no ``ForwardRef``: every generator reads the evaluated
    field types and signatures of the model modules. It compiles at most 54
    generated sources; the others are compiled on first use."""
    tests = Path(__file__).parent
    env = {**os.environ, "PYTHONPATH": str(tests.parent / "src")}
    out = subprocess.run([sys.executable, str(tests / "import_counts.py")], env=env,
                         capture_output=True, text=True, check=True).stdout
    counts = json.loads(out)
    assert (counts["get_type_hints"], counts["forward_ref_evaluations"]) == (0, 0), counts
    assert counts["generated_compiles"] <= 54, counts


def test_decode_shares_each_frozen_value_through_one_memo():
    data = {"product": "product:1", "quantity": 2, "unit_price": {"amount": 5, "currency": "USD"}}
    memo = {}
    item = CartItem.decode(data, memo)
    assert CartItem.decode(dict(data), memo) is item
    assert Money.decode({"amount": 5, "currency": "USD"}, memo) is item.unit_price
    assert CartItem.from_dict(data) == item and CartItem.from_dict(data) is not item
    # a leaf that fails its check, hashable or not, never enters the memo
    for bad, error in [({**data, "quantity": True}, SchemaError),
                       ({**data, "quantity": 2.0}, SchemaError),
                       ({**data, "quantity": -2}, NegativeQuantity),
                       ({**data, "product": ["product:1"]}, SchemaError),
                       ({**data, "unit_price": {"amount": 5.0, "currency": "USD"}}, SchemaError)]:
        with pytest.raises(error):
            CartItem.decode(bad, memo)
    assert len(memo) == 2  # the item and its unit price
