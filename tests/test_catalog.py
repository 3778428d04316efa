"""Catalog behavior: registry, similar links, search, and notifications."""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import catalog_id, new_customer, product_id
from storefront import SYSTEM, DomainError, EntityId

from conftest import fresh_engine


def err_code(excinfo):
    return excinfo.value.code


def test_add_product_constructor_echo(eng):
    result = eng.execute(SYSTEM, "add_product", catalog=catalog_id(eng),
                         name="WidgetX", price=1099, status="New")
    product = eng.state.stores["products"][EntityId.parse(result["product"])]
    assert product.name == "WidgetX"
    assert product.price.amount == 1099
    assert product.status.value == "New"


def test_new_products_are_separated(eng):
    """Products flagged new appear in the dedicated new-product feed."""
    result = eng.execute(SYSTEM, "add_product", catalog=catalog_id(eng),
                         name="Fresh", price=10, status="New")
    feed = eng.query("new_products", catalog=catalog_id(eng))
    assert "Fresh" in feed
    assert "Gadget" not in feed  # Regular in the seed


def test_add_product_errors(eng):
    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "add_product", catalog="catalog:99", name="X",
                    price=1, status="Regular")
    assert err_code(exc) == "UnknownCatalog"
    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "add_product", catalog=catalog_id(eng), name="X",
                    price={"amount": -5, "currency": "USD"}, status="Regular")
    assert err_code(exc) == "NegativePrice"


def test_update_notifies_each_subscriber_exactly_once(eng):
    target = product_id(eng, "WidgetA")
    subscribers = set()
    for name in ("Ana", "Ben"):
        customer = new_customer(eng, name=name)
        eng.execute(customer, "subscribe", customer=customer, product=target)
        subscribers.add(customer)

    result = eng.execute(SYSTEM, "update_product", product=target,
                         changes={"price": 999})
    assert len(result["notifications"]) == 2
    notified = {str(n.customer) for n in eng.state.stores["notifications"].values()
                if str(n.product) == target}
    assert notified == subscribers
    assert eng.query("product_price", product=target)["amount"] == 999


def test_update_with_no_subscribers_still_applies(eng):
    target = product_id(eng, "Gadget")
    result = eng.execute(SYSTEM, "update_product", product=target,
                         changes={"status": "Discontinued"})
    assert result["notifications"] == []
    assert eng.query("product_status", product=target) == "Discontinued"


def test_repeated_update_produces_separate_batches(eng):
    """Notifications are per-event: the log shows one batch per update."""
    target = product_id(eng, "WidgetA")
    customer = new_customer(eng)
    eng.execute(customer, "subscribe", customer=customer, product=target)
    eng.execute(SYSTEM, "update_product", product=target, changes={"price": 999})
    eng.execute(SYSTEM, "update_product", product=target, changes={"price": 999})

    batches = []
    for record in eng.state.log:
        if record.command == "update_product" and record.outcome == "ok":
            puts = [f for f in record.deltas
                    if f["f"] == "put" and f["store"] == "notifications"]
            batches.append(len(puts))
    assert batches == [1, 1]
    assert eng.query("notification_count", product=target) == 2


def test_update_errors(eng):
    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "update_product", product=product_id(eng, "WidgetA"),
                    changes={})
    assert err_code(exc) == "EmptyChange"
    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "update_product", product="product:99",
                    changes={"price": 1})
    assert err_code(exc) == "UnknownProduct"


def test_a_change_of_an_undeclared_field_is_refused_before_access(eng):
    records = len(eng.state.log)
    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "update_product", product=product_id(eng, "WidgetA"),
                    changes={"color": 1})
    assert err_code(exc) == "SchemaError"
    (record,) = eng.state.log[records:]
    assert (record.error, record.access, record.deltas) == (
        "SchemaError", {"role": None, "verdict": None}, [])


def test_link_similar_symmetry_and_idempotence(eng):
    a = product_id(eng, "WidgetA")
    b = product_id(eng, "Gadget")
    eng.execute(SYSTEM, "link_similar", a=a, b=b)
    eng.execute(SYSTEM, "link_similar", a=a, b=b)  # set semantics
    # seed already links WidgetA <-> WidgetB
    assert eng.query("similar_products", product=a) == ["Gadget", "WidgetB"]
    assert eng.query("similar_products", product=b) == ["WidgetA"]


def test_link_similar_rejects_self(eng):
    a = product_id(eng, "WidgetA")
    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "link_similar", a=a, b=a)
    assert err_code(exc) == "SelfLink"


def test_search_filters(eng):
    cat = catalog_id(eng)
    assert eng.query("search_products", catalog=cat, status="New") == ["WidgetA"]
    everything = eng.query("search_products", catalog=cat)
    assert everything == ["Gadget", "TuneUpService", "WidgetA", "WidgetB"]
    assert eng.query("search_products", catalog=cat, max_price=500) == ["Gadget"]
    assert eng.query("search_products", catalog=cat, name_substring="widget") == \
        ["WidgetA", "WidgetB"]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["Alpha", "Beta", "Gamma", "Delta"]),
                          st.integers(min_value=0, max_value=2000),
                          st.sampled_from(["Regular", "New", "Discontinued"])),
                min_size=0, max_size=12),
       st.one_of(st.none(), st.sampled_from(["al", "ta", "Z"])),
       st.one_of(st.none(), st.sampled_from(["Regular", "New", "Discontinued"])),
       st.one_of(st.none(), st.integers(min_value=0, max_value=2000)))
def test_search_matches_brute_force(entries, needle, status, max_price):
    """Engine search equals a linear scan over the same product list."""
    engine = fresh_engine(seed_stock=False)
    cat = catalog_id(engine)
    rows = []
    for index, (stem, price, st_name) in enumerate(entries):
        name = f"{stem}-{index}"
        result = engine.execute(SYSTEM, "add_product", catalog=cat, name=name,
                                price=price, status=st_name)
        rows.append((name, price, st_name, result["product"]))

    expected = sorted(
        (name, pid) for name, price, st_name, pid in rows
        if (needle is None or needle.lower() in name.lower())
        and (status is None or st_name == status)
        and (max_price is None or price <= max_price))
    seeded = {"WidgetA": "New", "WidgetB": "Regular", "Gadget": "Regular",
              "TuneUpService": "Regular"}
    seed_prices = {"WidgetA": 1099, "WidgetB": 999, "Gadget": 250,
                   "TuneUpService": 4500}
    for name, st_name in seeded.items():
        if ((needle is None or needle.lower() in name.lower())
                and (status is None or st_name == status)
                and (max_price is None or seed_prices[name] <= max_price)):
            expected.append((name, product_id(engine, name)))
    expected = [name for name, _ in sorted(expected)]

    criteria = {}
    if needle is not None:
        criteria["name_substring"] = needle
    if status is not None:
        criteria["status"] = status
    if max_price is not None:
        criteria["max_price"] = max_price
    assert engine.query("search_products", catalog=cat, **criteria) == expected


def test_search_as_dispatched_command(eng):
    """search runs through dispatch too: read-only, logged, no deltas."""
    result = eng.execute(SYSTEM, "search", catalog=catalog_id(eng), status="New")
    assert result["products"] == [product_id(eng, "WidgetA")]
    record = eng.state.log[-1]
    assert record.command == "search"
    assert record.outcome == "ok"
    assert record.deltas == []


def test_subscribe_then_update_notifies(eng):
    target = product_id(eng, "WidgetB")
    customer = new_customer(eng)
    eng.execute(customer, "subscribe", customer=customer, product=target)
    eng.execute(SYSTEM, "update_product", product=target, changes={"price": 899})
    notified = {str(n.customer) for n in eng.state.stores["notifications"].values()}
    assert notified == {customer}


def test_double_subscribe_yields_one_notification(eng):
    target = product_id(eng, "WidgetB")
    customer = new_customer(eng)
    eng.execute(customer, "subscribe", customer=customer, product=target)
    eng.execute(customer, "subscribe", customer=customer, product=target)
    eng.execute(SYSTEM, "update_product", product=target, changes={"price": 899})
    assert eng.query("notification_count", product=target) == 1


def test_subscribe_errors(eng):
    customer = new_customer(eng)
    with pytest.raises(DomainError) as exc:
        eng.execute(customer, "subscribe", customer=customer, product="product:99")
    assert err_code(exc) == "UnknownProduct"
    with pytest.raises(DomainError) as exc:
        eng.execute(SYSTEM, "subscribe", customer="customer:99",
                    product=product_id(eng, "WidgetA"))
    assert err_code(exc) == "UnknownCustomer"


@pytest.mark.parametrize("query", ["notified_customers", "similar_products",
                                   "product_status"])
def test_product_query_of_an_unknown_product_raises(eng, query):
    with pytest.raises(DomainError) as exc:
        eng.query(query, product="product:99")
    assert err_code(exc) == "UnknownProduct"


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=5),
                          st.integers(min_value=0, max_value=3)),
                min_size=1, max_size=20))
def test_observer_completeness_random(subscription_plan):
    """After every update, notified customers equal the subscriber set."""
    engine = fresh_engine(seed_stock=False)
    customers = [new_customer(engine, name=f"c{i}") for i in range(6)]
    products = [product_id(engine, n) for n in ("WidgetA", "WidgetB", "Gadget")]
    subscribed = {p: set() for p in products}

    for customer_index, product_index in subscription_plan:
        customer = customers[customer_index]
        product = products[product_index % len(products)]
        engine.execute(customer, "subscribe", customer=customer, product=product)
        subscribed[product].add(customer)

    for product in products:
        before = {str(n.id) for n in engine.state.stores["notifications"].values()}
        engine.execute(SYSTEM, "update_product", product=product,
                       changes={"price": 123})
        fresh = [n for n in engine.state.stores["notifications"].values()
                 if str(n.id) not in before]
        assert len(fresh) == len(subscribed[product])
        assert {str(n.customer) for n in fresh} == subscribed[product]
