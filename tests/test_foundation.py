"""Value-type behavior: money arithmetic, quantities, ids, rounding."""

import decimal

import pytest
from hypothesis import given, strategies as st

from storefront.foundation import (
    CurrencyMismatch,
    EntityId,
    Money,
    NegativeQuantity,
    Quantity,
    SchemaError,
    money_sum,
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


def test_money_scale():
    assert usd(1099).scale(Quantity(3)) == usd(3297)
    assert usd(1099).scale(Quantity(0)) == usd(0)
    assert usd(0).scale(Quantity(7)) == usd(0)


def test_money_sub_and_negate():
    assert usd(1425).sub(usd(1000)) == usd(425)
    assert usd(75).negate() == usd(-75)
    with pytest.raises(CurrencyMismatch):
        usd(1).sub(Money(1, "EUR"))


@given(st.lists(st.integers(min_value=-10**9, max_value=10**9), min_size=1,
                max_size=30), st.randoms())
def test_money_sum_order_independent(amounts, rng):
    """Same-currency addition commutes and associates: any fold order agrees."""
    base = money_sum((usd(a) for a in amounts), "USD")
    shuffled = list(amounts)
    rng.shuffle(shuffled)
    assert money_sum((usd(a) for a in shuffled), "USD") == base
    assert base.amount == sum(amounts)


def test_quantity_domain():
    assert Quantity(0).is_zero()
    assert Quantity(2).add(Quantity(3)) == Quantity(5)
    assert Quantity(5).sub(Quantity(5)) == Quantity(0)
    with pytest.raises(NegativeQuantity):
        Quantity(-1)
    with pytest.raises(NegativeQuantity):
        Quantity(3).sub(Quantity(4))


def test_entity_id_roundtrip():
    eid = EntityId("product", 42)
    assert str(eid) == "product:42"
    assert EntityId.parse("product:42") == eid
    for bad in ("product", "product:", ":42", "product:x"):
        with pytest.raises(SchemaError):
            EntityId.parse(bad)


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
