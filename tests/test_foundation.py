"""Value-type behavior: money arithmetic, quantities, ids, rounding."""

import copy
import dataclasses
import decimal
import json
import math
import os
import pickle
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from storefront import foundation
from storefront.foundation import (
    CurrencyMismatch,
    EntityId,
    Money,
    NegativeQuantity,
    Quantity,
    Record,
    SchemaError,
    derive_codec,
    money_amount,
    priced_sum,
    round_half_away,
)


def usd(amount):
    return Money(amount, "USD")


def test_money_add():
    assert usd(1000).add(usd(250)) == usd(1250)
    assert usd(0).add(usd(0)) == usd(0)


def test_money_add_currency_mismatch():
    with pytest.raises(CurrencyMismatch):
        usd(500).add(Money(500, "EUR"))


def test_priced_sum():
    def line(amount, qty, currency="USD"):
        return SimpleNamespace(unit_price=Money(amount, currency), quantity=Quantity(qty))

    assert priced_sum([line(1099, 3)], "USD") == usd(3297)
    assert priced_sum([line(1099, 0), line(0, 7)], "USD") == usd(0)
    assert priced_sum([line(1099, 3), line(250, 2)], "USD") == usd(3797)
    assert priced_sum([], "USD") == usd(0)
    with pytest.raises(CurrencyMismatch, match="^cannot add EUR to USD$"):
        priced_sum([line(1, 1), line(1, 1, "EUR")], "USD")
    with pytest.raises(CurrencyMismatch, match="^cannot add EUR to USD$"):
        money_amount([usd(1), Money(1, "EUR")], "USD")


def test_money_sub():
    assert usd(1425).sub(usd(1000)) == usd(425)
    with pytest.raises(CurrencyMismatch):
        usd(1).sub(Money(1, "EUR"))


@given(st.lists(st.integers(min_value=-10**9, max_value=10**9), min_size=1,
                max_size=30), st.randoms())
def test_money_amount_order_independent(amounts, rng):
    """Same-currency addition commutes and associates: any fold order agrees."""
    base = money_amount((usd(a) for a in amounts), "USD")
    shuffled = list(amounts)
    rng.shuffle(shuffled)
    assert money_amount((usd(a) for a in shuffled), "USD") == base
    assert base == sum(amounts)


def test_quantity_domain():
    assert Quantity(2).add(Quantity(3)) == Quantity(5)
    with pytest.raises(NegativeQuantity):
        Quantity(-1)


def test_entity_id_roundtrip():
    eid = EntityId("product", 42)
    assert str(eid) == "product:42"
    assert EntityId.parse("product:42") == eid
    for bad in ("product", "product:", ":42", "product:x", "product:--4",
                "product:\u00b2", "product:\u0664", "product: 4", "product:4_0"):
        with pytest.raises(SchemaError):
            EntityId.parse(bad)


@given(st.one_of(st.text(max_size=12),
                 st.builds("{}:{}".format, st.text(max_size=4), st.text(max_size=4))))
def test_entity_id_parse_returns_an_id_or_raises_schema_error(text):
    try:
        eid = EntityId.parse(text)
    except SchemaError:
        return
    assert EntityId.parse(str(eid)) is eid
    assert str(eid) == f"{eid.kind}:{eid.serial}"


@pytest.mark.parametrize("bad", [None, 42, 4.2, b"product:42", ["product:42"],
                                 {"product": 42}, EntityId("product", 42)])
def test_entity_id_parse_of_a_non_string_is_a_schema_error(bad):
    with pytest.raises(SchemaError):
        EntityId.parse(bad)


def test_entity_id_parse_shares_one_instance_per_text():
    eid = EntityId.parse("product:42")
    assert EntityId.parse("product:42") is eid
    assert EntityId.parse("product:042") is eid
    assert EntityId.of("product", 42) is eid
    assert str(EntityId.parse("product:-0")) == "product:0"


def test_shared_and_constructed_ids_are_one_value():
    shared, built = EntityId.parse("cart:7"), EntityId("cart", 7)
    assert shared is built
    assert shared == built and not shared != built
    assert hash(shared) == hash(built)
    assert {built: 1}[shared] == 1 and {shared: 1}[built] == 1
    assert str(built) == str(shared) == "cart:7"
    assert shared != EntityId("cart", 8) and shared != EntityId("carts", 7)
    assert shared != "cart:7" and shared != ("cart", 7)


@pytest.mark.parametrize("kind,serial", [
    ("a:b", 1), ("cart:", 1), ("", 1), (None, 1), (7, 1), (b"cart", 1),
    ("cart", True), ("cart", False), ("cart", 1.0), ("cart", "1"), ("cart", None),
])
def test_entity_id_refuses_a_kind_or_serial_that_would_not_round_trip(kind, serial):
    EntityId("cart", 1)  # the id an equal serial would collide with exists
    with pytest.raises(SchemaError):
        EntityId(kind, serial)
    with pytest.raises(SchemaError):
        EntityId.of(kind, serial)
    assert EntityId.parse("cart:1").serial.__class__ is int


def test_every_id_table_entry_round_trips_through_parse():
    with pytest.raises(SchemaError):
        EntityId.of("a:b", 1)
    with pytest.raises(SchemaError):
        EntityId.parse("a:b:1")
    for text, eid in list(foundation._IDS.items()):
        assert EntityId.parse(text) is eid
        assert EntityId.parse(str(eid)) is eid is EntityId(eid.kind, eid.serial)
        assert eid.kind.__class__ is str and eid.serial.__class__ is int


def test_entity_id_is_a_two_field_frozen_dataclass():
    assert [f.name for f in dataclasses.fields(EntityId)] == ["kind", "serial"]
    eid = EntityId.parse("product:3")
    with pytest.raises(dataclasses.FrozenInstanceError):
        eid.serial = 4
    assert repr(eid) == "EntityId(kind='product', serial=3)"


@pytest.mark.parametrize("rebuild,expected", [
    (lambda eid: pickle.loads(pickle.dumps(eid)), ("invoice", 5)),
    (copy.deepcopy, ("invoice", 5)),
    (copy.copy, ("invoice", 5)),
    (dataclasses.replace, ("invoice", 5)),
    (lambda eid: dataclasses.replace(eid, serial=6), ("invoice", 6)),
])
def test_entity_id_copies_stay_equal_dict_keys(rebuild, expected):
    for eid in (EntityId.parse("invoice:5"), EntityId("invoice", 5)):
        again = rebuild(eid)
        assert again is EntityId(*expected) is EntityId.parse("%s:%d" % expected)
        assert (again.kind, again.serial) == expected
        assert hash(again) == hash(EntityId(*expected))
        assert str(again) == "%s:%d" % expected
        assert {again: "x"}[EntityId(*expected)] == "x"
        assert {EntityId.parse(str(again)): "y"}[again] == "y"


def test_id_pickled_in_another_process_hashes_in_this_one():
    """A str hash is randomized per process, so a pickle must not carry it."""
    written = subprocess.run(
        [sys.executable, "-c", "import pickle, sys; from storefront import EntityId; "
         "sys.stdout.write(pickle.dumps(EntityId.parse('product:9')).hex())"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONHASHSEED": "12345",
             "PYTHONPATH": os.pathsep.join(sys.path)})
    again = pickle.loads(bytes.fromhex(written.stdout))
    assert {EntityId("product", 9): "x"}[again] == "x"
    assert again is EntityId.parse("product:9")


_KINDS = st.sampled_from(["product", "cart", "customer", "invoice", "a", "b"])


@given(st.lists(st.tuples(_KINDS, st.integers(min_value=-5, max_value=5_000),
                          st.booleans()), max_size=30))
def test_mixed_ids_sort_like_their_tuples(entries):
    ids = [EntityId.parse(f"{kind}:{serial}") if shared else EntityId(kind, serial)
           for kind, serial, shared in entries]
    assert [(e.kind, e.serial) for e in sorted(ids)] == \
        sorted((kind, serial) for kind, serial, _ in entries)
    assert len(set(ids)) == len({(kind, serial) for kind, serial, _ in entries})


def _round_oracle(numerator, denominator):
    # independent half-away-from-zero via decimal
    with decimal.localcontext() as ctx:
        ctx.rounding = decimal.ROUND_HALF_UP
        quotient = decimal.Decimal(abs(numerator)) / decimal.Decimal(denominator)
        magnitude = int(quotient.to_integral_value(rounding=decimal.ROUND_HALF_UP))
    return -magnitude if numerator < 0 else magnitude


@pytest.mark.parametrize("numerator,denominator,expected", [
    (7500, 100, 75),
    (750, 100, 8),      # exactly half rounds away from zero
    (-750, 100, -8),
    (749, 100, 7),
    (0, 100, 0),
    (1, 2, 1),
    (-1, 2, -1),
])
def test_round_half_away_cases(numerator, denominator, expected):
    assert round_half_away(numerator, denominator) == expected
    assert _round_oracle(numerator, denominator) == expected


@given(st.integers(min_value=-10**12, max_value=10**12),
       st.integers(min_value=1, max_value=10**6))
def test_round_half_away_matches_decimal(numerator, denominator):
    assert round_half_away(numerator, denominator) == \
        _round_oracle(numerator, denominator)


def test_money_serialization_roundtrip():
    money = usd(1099)
    assert Money.from_dict(money.to_dict()) == money
    assert money.to_dict() == {"amount": 1099, "currency": "USD"}


@derive_codec
@dataclasses.dataclass(frozen=True)
class _FrozenBag(Record):
    owner: EntityId
    items: list[int]
    checks = 0  # not a field: no annotation

    def __post_init__(self):
        _FrozenBag.checks += 1


def test_clone_of_a_frozen_record_copies_its_containers_without_post_init():
    _FrozenBag.checks = 0
    bag = _FrozenBag(EntityId.parse("customer:1"), [1, 2])
    copy_ = bag.clone()
    assert _FrozenBag.checks == 1
    assert copy_ == bag and copy_ is not bag and copy_.items is not bag.items
    with pytest.raises(dataclasses.FrozenInstanceError):
        copy_.items = []


# what json.dumps takes: every code point (surrogates and control characters
# too), bools, ints, the floats it writes by name, tuples, empty containers,
# and dicts keyed by str, int, float, bool or None
_TEXT = st.text(st.characters(exclude_categories=()), max_size=6)
_SCALARS = (st.none() | st.booleans() | st.integers() | _TEXT
            | st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf]))
_KEYS = st.sampled_from([_TEXT, st.integers(), st.floats(allow_nan=False), st.booleans(),
                         st.none()])
_JSON = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | _KEYS.flatmap(lambda keys: st.dictionaries(keys, inner, max_size=4))),
    max_leaves=25)


@settings(max_examples=600)
@given(_JSON)
def test_writers_equal_json_dumps(value):
    assert foundation.json_indented(value) == json.dumps(value, indent=2, sort_keys=True)
    assert foundation.json_spaced(value) == json.dumps(value, sort_keys=True)


@pytest.mark.parametrize("value", [{"a": {1, 2}}, [object()], {(1, 2): 1}, {1: 1, "a": 2}],
                         ids=["set", "object", "tuple-key", "mixed-keys"])
def test_indented_writer_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError) as dumps_error:
        json.dumps(value, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as writer_error:
        foundation.json_indented(value)
    assert str(writer_error.value) == str(dumps_error.value)
