"""The generated parsers against the closure parsers they replaced
(``parse_oracle``), on inputs drawn from each command's and query's own
declarations: JSON forms and Python API values, right and wrong; and the
loader of each input file against the hand-written loader it replaced."""

import dataclasses
import sys
import typing
from enum import Enum

import pytest
from hypothesis import example, given, settings, strategies as st

import parse_oracle
from conftest import fresh_engine
from storefront import (
    SYSTEM, Engine, EntityId, Money, Quantity, load_rbac_config, parse_scenario,
)
from storefront.catalog import ProductStatus
from storefront.commands import (
    COMMANDS, EDIT, INVOICE_ITEM, Fields, ParseContext, best_effort, compile_parser,
)
from storefront.foundation import DomainError, NegativeQuantity, Ref, SchemaError
from storefront.invoice import RULE_KINDS, Invoice, InvoiceItem, PaymentMethod, RuleBook
from storefront.order_shipment import ShippedItem
from storefront.queries import QUERIES
from storefront.rbac import DECLARED_RIGHTS
from storefront.stock_manager import StockKind

CTX = ParseContext(currency="USD")

WRONG = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False), st.integers(-2, 3),
    st.text(max_size=3), st.sampled_from(["product:1", "cart:x", ":1", "New"]),
    st.just([]), st.just(()), st.just({}), st.just({1: "x"}),
    st.sampled_from([ProductStatus.NEW, StockKind.PRODUCT, PaymentMethod.CARD]),
    st.just(Quantity(1)), st.sampled_from([Money(1, "USD"), Money(1, "EUR")]),
    st.just(EntityId.parse("product:1")))
"""Values of the wrong kind for most declarations, and the right one for some."""

CURRENCY = st.sampled_from(["USD", "USD", "EUR"])
AMOUNT = st.integers(-5, 500)


def rarely(wrong: st.SearchStrategy, usual: st.SearchStrategy) -> st.SearchStrategy:
    """``wrong`` one time in ten, else ``usual``."""
    return st.integers(0, 9).flatmap(lambda n: wrong if n == 0 else usual)


def ids(kinds) -> st.SearchStrategy:
    """Ids of the declared kinds (now and then of another), as text (canonical
    or with a leading zero), as the shared instance, and as a directly built
    one."""
    kind = rarely(st.sampled_from(["product", "stockroom", "system"]), st.sampled_from(kinds))
    serial = st.integers(0, 12)
    return st.one_of(
        st.builds(lambda k, n: f"{k}:{n}", kind, serial),
        st.builds(lambda k, n: f"{k}:0{n}", kind, serial),
        st.builds(EntityId.of, kind, serial),
        st.builds(EntityId, kind, serial))


def objects(required: dict, optional: dict | None = None) -> st.SearchStrategy:
    """Objects of the given fields' values: now and then one short or one over."""
    drawn = st.fixed_dictionaries(required, optional=optional or {})
    return drawn.flatmap(lambda obj: rarely(
        st.sampled_from([dict(list(obj.items())[1:]), {**obj, "extra": 1}, {**obj, 7: 1}]),
        st.just(obj)))


def fields(decl: Fields) -> st.SearchStrategy:
    """Objects of the declared fields: now and then one short or one over."""
    return objects(
        {name: value(field) for name, field in decl.fields.items() if name not in decl.optional},
        {name: value(decl.fields[name]) for name in decl.optional})


def right(decl) -> st.SearchStrategy:
    """Inputs of the declared kind, in every form the kind accepts."""
    if decl is str:
        return st.one_of(st.text(max_size=4), st.sampled_from(list(ProductStatus)))
    if decl is bool:
        return st.booleans()
    if decl is int:
        return st.integers(-3, 50)
    if decl is Money:
        return st.one_of(AMOUNT, st.builds(Money, AMOUNT, CURRENCY),
                         st.builds(lambda a, c: {"amount": a, "currency": c}, AMOUNT, CURRENCY),
                         st.just({"amount": 1.0, "currency": "USD"}),
                         st.just({"amount": 1, "currency": "USD", "x": 1}))
    if decl is Quantity:
        return st.one_of(st.integers(-2, 9), st.builds(Quantity, st.integers(0, 9)))
    if isinstance(decl, type) and issubclass(decl, Enum):
        return st.one_of(st.sampled_from(list(decl)),
                         st.sampled_from([member.value for member in decl]))
    if Ref.of(decl) is not None:
        return ids(Ref.of(decl).kinds)
    origin, args = typing.get_origin(decl), typing.get_args(decl)
    if origin is list:
        items = st.lists(value(args[0]), max_size=3)
        return st.one_of(items, items.map(tuple))
    if origin is dict:
        return st.dictionaries(ids(Ref.of(args[0]).kinds), value(args[1]), max_size=3)
    if isinstance(decl, Fields):
        return fields(decl)
    if decl == EDIT:
        return st.one_of(st.builds(lambda body: {"add": body}, fields(INVOICE_ITEM)),
                         st.builds(lambda body: {"delete": body}, value(str)),
                         st.just({"replace": "x"}), st.just({"add": {}, "delete": "x"}))
    raise TypeError(decl)


def value(decl) -> st.SearchStrategy:
    return rarely(WRONG, right(decl))


@st.composite
def raw_args(draw, schema: Fields):
    """Args for a schema: each one now and then left out, now and then an
    undeclared one (a non-string name among them), and now and then no
    object at all."""
    if draw(st.integers(0, 19)) == 0:
        return draw(WRONG)
    args = {}
    for name, decl in schema.fields.items():
        if draw(st.integers(0, 19)) < (10 if name in schema.optional else 19):
            args[name] = draw(value(decl))
    if draw(st.integers(0, 19)) == 0:
        args[draw(st.sampled_from(["bogus", 3, None]))] = 1
    return args


def outcome(parse, raw):
    """What a parser gives: its results with the class of every value
    (``repr`` tells 1 from True and a str from an enum member), or the
    error code it raises; the name of any other exception."""
    try:
        return ("ok", repr(parse(raw)))
    except DomainError as exc:
        return ("error", exc.code)
    except TypeError:
        return ("raised", "TypeError")


def same_outcome(new, old):
    # the closure parsers sorted undeclared names of several types and
    # raised TypeError; the generated ones report them as a SchemaError
    if old == ("raised", "TypeError"):
        return new == ("error", "SchemaError")
    return new == old


class Drawn:
    """Stands in for ``st.data()`` in an ``@example``: each draw gives ``value``."""

    def __init__(self, value):
        self.value = value

    def draw(self, strategy, label=None):
        return self.value


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
# an invoice item whose description is a str-mixin enum member: its payload writes the value
@example(data=Drawn({"invoice": "invoice:1", "edits": [
    {"add": {"description": ProductStatus.NEW, "quantity": 1, "unit_price": 1}}]}))
def test_generated_command_parser_matches_the_closure_parser(command, data):
    raw = data.draw(raw_args(COMMANDS[command].schema))
    new = outcome(lambda raw: COMMANDS[command].parse(raw, CTX), raw)
    old = outcome(lambda raw: parse_oracle.parse_args(command, raw, CTX), raw)
    assert same_outcome(new, old), (raw, new, old)


@pytest.mark.parametrize("query", sorted(QUERIES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_generated_query_parser_matches_the_query_validation(query, data):
    schema = QUERIES[query].schema
    raw = data.draw(raw_args(schema).filter(lambda raw: isinstance(raw, dict)))
    # run_query took the values in the order given, the generated parser
    # takes them in schema order: given in that order, the two agree
    in_schema_order = {**{name: raw[name] for name in schema.fields if name in raw}, **raw}
    new = outcome(lambda raw: QUERIES[query].parse(raw, CTX)[0], raw)
    old = outcome(lambda raw: parse_oracle.query_args(query, raw, CTX), in_schema_order)
    assert same_outcome(new, old), (raw, new, old)
    if new[0] == "ok":  # the payload a query builds parses back to the same args
        parsed, payload = QUERIES[query].parse(raw, CTX)
        assert QUERIES[query].parse(payload, CTX)[0] == parsed, (raw, payload)


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_the_envelope_parses_as_the_parser(command, data):
    """Each command's envelope inlines its parser's lines: denied by a
    matrix with no roles, the record holds the payload the parser builds;
    when the parser raises, the raw args and the parser's error code."""
    raw = data.draw(raw_args(COMMANDS[command].schema))
    engine = Engine(rbac_matrix=load_rbac_config({}))
    try:
        _, payload = COMMANDS[command].parse(raw or {}, CTX)
        expected = ("denied", "AccessDenied", repr(payload))
    except DomainError as exc:
        expected = ("error", exc.code, repr(best_effort(raw or {})))
    except TypeError:
        expected = TypeError
    try:
        engine.dispatch("customer:1", command, raw)
    except DomainError:
        record, = engine.state.log
        assert (record.outcome, record.error, repr(record.payload)) == expected, raw
    except TypeError:
        assert expected is TypeError, raw
    else:
        raise AssertionError(f"not denied: {raw!r}")


def test_parsed_values_are_built_without_init_equal_and_frozen():
    """Money, quantities and the records of a list of objects are set
    field by field, as a codec's ``clone`` builds them: no ``__init__``
    runs, and they equal, hash and stay frozen as the constructor's do."""
    shipment = {"order": "order:1", "receiver": "customer:1",
                "items": [{"product": "product:1", "qty": 2},
                          {"product": "product:2", "qty": 0, "substituted_for": "product:1"}]}
    edits = {"invoice": "invoice:1", "edits": [{"add": {"description": "fee", "quantity": 3,
                                                        "unit_price": 250}}]}
    calls = []
    sys.setprofile(lambda frame, event, arg: event == "call" and calls.append(
        frame.f_code.co_name))
    try:
        (shipped, _), (prepared, _) = (COMMANDS["create_shipment"].parse(shipment, CTX),
                                       COMMANDS["prepare_invoice"].parse(edits, CTX))
    finally:
        sys.setprofile(None)
    assert "__init__" not in calls, calls
    p1, p2 = EntityId.parse("product:1"), EntityId.parse("product:2")
    built = [*shipped["items"], prepared["edits"][0]["add"]]
    expected = [ShippedItem(p1, Quantity(2), None), ShippedItem(p2, Quantity(0), p1),
                InvoiceItem("fee", None, Quantity(3), Money(250, "USD"))]
    assert built == expected
    assert [hash(value) for value in built] == [hash(value) for value in expected]
    for value in built + [value.quantity for value in built] + [built[2].unit_price]:
        assert type(value).__init__ is not object.__init__  # the check is not vacuous
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, dataclasses.fields(value)[0].name, None)
    with pytest.raises(NegativeQuantity, match="^quantity cannot be negative: -1$"):
        COMMANDS["add_to_stock"].parse({"item": "stock_item:1", "qty": -1}, CTX)


def test_object_field_names_of_several_types_are_a_logged_schema_error(eng):
    # the closure parsers sorted them and let a TypeError out of dispatch,
    # after the clock had moved and with no record written
    with pytest.raises(SchemaError):
        eng.execute(SYSTEM, "update_product", product="product:1", changes={1: "x", "name": "W"})
    assert eng.state.log[-1].error == "SchemaError"
    assert eng.replayed_state().to_dict() == eng.state.to_dict()


def test_every_command_and_query_has_a_reference_schema():
    assert set(parse_oracle.COMMAND_SCHEMAS) == set(COMMANDS)
    assert set(parse_oracle.QUERY_SCHEMAS) == set(QUERIES)


@pytest.mark.parametrize("decl", [float, list[float], dict[int, int], Fields({"at": float})])
def test_an_unsupported_declaration_fails_naming_its_arg(decl):
    with pytest.raises(TypeError, match=r"demo: arg 'when'"):
        compile_parser("demo", Fields({"name": str, "when": decl}, {"when"}), "<parser demo>")


def test_generated_code_is_compiled_under_a_name_that_says_what_it_is():
    assert Invoice.to_dict.__code__.co_filename == "<codec Invoice>"
    assert COMMANDS["create_shipment"].parse.__code__.co_filename == "<parser create_shipment>"
    assert QUERIES["cart_total"].parse.__code__.co_filename == "<query parser cart_total>"


# --- input files ---------------------------------------------------------------

def maybe(usual: st.SearchStrategy) -> st.SearchStrategy:
    return rarely(WRONG, usual)


def some(item: st.SearchStrategy) -> st.SearchStrategy:
    return maybe(st.lists(item, max_size=3))


def one_of(*values) -> st.SearchStrategy:
    return maybe(st.sampled_from(values))


JSON = st.recursive(st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=2),
                    lambda inner: st.lists(inner, max_size=2)
                    | st.dictionaries(st.text(max_size=2), inner, max_size=2), max_leaves=4)
NAMES = one_of("", "A", "B", "Shopper")
RIGHTS = [list(right) for right in sorted(DECLARED_RIGHTS)][:4]

ACCESS_CONFIGS = objects({}, {
    "roles": some(objects({"name": NAMES}, {
        "rights": some(one_of(*RIGHTS, ["cart"], ["cart", "checkout", "x"], "cart", ["cart", 7])),
        "owner_only": maybe(st.booleans() | st.sampled_from(["no", 0, 1]))})),
    "assignments": some(objects({
        "user": one_of("customer:1", "customer:01", "employee:2", "product:1", "system:0"),
        "roles": maybe(st.lists(NAMES, max_size=2) | st.just("A"))}))})

POLICY_CONFIGS = objects({}, {
    "billing_policies": some(objects(
        {"name": NAMES, "kind": one_of("percentage-discount", "flat-fee", "mystery")},
        {"percent": maybe(st.integers(-5, 150) | st.sampled_from([5.9, "5"])),
         "amount": maybe(st.integers(-5, 500)), "loyalty_only": maybe(st.booleans())})),
    "validation_rules": some(objects(
        {"name": NAMES, "target": one_of(*RULE_KINDS, "Elsewhere"),
         "kind": one_of(*{kind for kinds in RULE_KINDS.values() for kind in kinds})},
        {"methods": maybe(st.lists(one_of("Card", "Transfer", "Cheque"), max_size=2)
                          | st.just("Card"))}))})

ARGS = maybe(st.dictionaries(st.text(max_size=2), JSON, max_size=2))
SCENARIOS = objects({"name": NAMES, "commands": some(objects(
    {"op": one_of("create_cart", "checkout", 5)},
    {"actor": one_of("system", "$a", 5), "args": ARGS, "as": one_of("a"),
     "expect_error": one_of("EmptyCart", None)}))},
    {"expectations": some(objects({"query": one_of("event_count"), "expect": JSON},
                                  {"args": ARGS}))})

CATALOG_SEEDS = some(objects(
    {"name": one_of("W", "V", "X"),
     "price": maybe(st.integers(-1, 500)
                    | st.sampled_from([12.9, "12", {"amount": 5, "currency": "USD"}]))},
    {"status": one_of("New", "Regular", "Bogus"),
     "info": maybe(objects({}, {"description": maybe(st.text(max_size=2)),
                                "comparison_notes": maybe(st.text(max_size=2))})),
     "similar": maybe(st.lists(one_of("W", "V", "Z"), max_size=2))}))

STOCK_SEEDS = some(objects(
    {"item": one_of("WidgetA", "Gadget", "frame"), "kind": one_of("Product", "Component", "nope")},
    {"rooms": maybe(st.dictionaries(st.sampled_from(["Main", "Annex", "Back"]),
                                    maybe(st.integers(-2, 9) | st.sampled_from([2.7, "3"])),
                                    max_size=2))}))


def seeded(seed, over_catalog: bool):
    """A loader of a seed: the state of an engine, over the bundled catalog
    or over nothing, after ``seed(engine, entries)``."""
    def load(entries):
        engine = fresh_engine(seed_catalog=over_catalog, seed_stock=False)
        seed(engine, entries)
        return engine.state.to_dict()
    return load


LOADERS = {
    "access config": (ACCESS_CONFIGS, load_rbac_config, parse_oracle.load_rbac_config,
                      lambda matrix: (matrix.roles, matrix.assignments)),
    "policy config": (POLICY_CONFIGS, RuleBook.from_config, parse_oracle.rulebook_from_config,
                      lambda rulebook: rulebook),
    "scenario": (SCENARIOS, parse_scenario, parse_oracle.parse_scenario,
                 lambda scenario: scenario),
    "catalog seed": (CATALOG_SEEDS, seeded(Engine.seed_catalog, False),
                     seeded(parse_oracle.seed_catalog, False), lambda state: state),
    "stock seed": (STOCK_SEEDS, seeded(Engine.seed_stock, True),
                   seeded(parse_oracle.seed_stock, True), lambda state: state),
}


def lists(raw):
    """``raw`` with each tuple a list: a declared list takes either, as a
    command's args do, where the hand-written seed loaders took only a list."""
    if isinstance(raw, (list, tuple)):
        return [lists(item) for item in raw]
    if isinstance(raw, dict):
        return {key: lists(item) for key, item in raw.items()}
    return raw


def loaded(load, result, raw):
    """``("ok", result(what the loader gave))``, ``("error", code)`` for a
    ``DomainError``, or ``("raised", class name)`` for any other exception."""
    try:
        return ("ok", result(load(raw)))
    except DomainError as exc:
        return ("error", exc.code)
    except Exception as exc:  # the hand-written loaders let these out
        return ("raised", type(exc).__name__)


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_input_file_loader_accepts_only_what_the_hand_written_one_did(name, data):
    """What the declared loader accepts, the hand-written one accepted with
    the same result; what it rejects, it rejects with a ``DomainError``. The
    inputs only the hand-written one accepted are the ones it let through
    wrongly (``"owner_only": "no"``, ``"percent": 5.9``, ``"op": 5``, ...)."""
    inputs, load, old_load, result = LOADERS[name]
    raw = data.draw(inputs)
    new = loaded(load, result, raw)
    if new[0] == "ok":
        assert loaded(old_load, result, lists(raw)) == new, raw
    else:
        assert new[0] == "error", (raw, new)
