"""The finite command vocabulary: argument schemas, rights metadata,
ownership, and the handler and the envelope of every engine operation, each
generated from these declarations and the domain function it calls.

Scenario files and the Python API meet here: argument values may arrive as
JSON primitives (ids as ``kind:serial`` strings, money as minor-unit ints)
or as the rich value types; parsing normalizes both to one canonical form.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import re
import typing
from dataclasses import dataclass, field
from enum import Enum

from . import catalog, invoice, order_shipment, shopping_cart, stock_manager
from .catalog import ProductStatus
from .foundation import (
    _IDS,
    AccessDenied,
    CurrencyMismatch,
    DomainError,
    EntityId,
    GeneratedSource,
    Money,
    Quantity,
    Ref,
    SchemaError,
    json_text,
    run_generated,
)
from .invoice import InvoiceItem, PaymentMethod, PolicyKind
from .order_shipment import ShippedItem
from .state import (DENIALS, DENIED_ACCESS, KIND_TO_STORE, NOT_EVALUATED, PERMISSIVE_ALLOW,
                    STORES, SYSTEM_ALLOW, EventRecord, Txn, to_jsonable)
from .stock_manager import StockKind


# --- argument declarations ----------------------------------------------------
# The args of a command or a query are the ``Fields`` of one object; an input
# file is one declaration (see ``INPUT_FILES``). A value is declared as ``str``,
# ``bool``, ``int``, ``Money``, ``Quantity``, an enum class, ``Ref(kind, ...)``
# (an ``EntityId`` or its text), ``list[X]``, ``dict[Ref(kind) or str, X]``,
# ``Fields``, ``EDIT``, ``JSON_OBJECT`` or ``JSON_VALUE``.


@dataclass(eq=False)
class Fields:
    """An object of the declared fields, each required unless ``optional``,
    parsed to a dict of those present or to ``into(*fields)`` (None for an
    absent one); its payload, the object of those present, parses back."""

    fields: dict
    optional: set | frozenset = frozenset()
    into: type | None = None


ORDER_LINE = Fields({"product": Ref("product"), "qty": Quantity}, into=tuple)
SHIPPED_ITEM = Fields({"product": Ref("product"), "qty": Quantity,
                       "substituted_for": Ref("product")}, {"substituted_for"}, ShippedItem)
INVOICE_ITEM = Fields({"description": str, "product": Ref("product"), "quantity": Quantity,
                       "unit_price": Money}, {"product"}, InvoiceItem)
EDIT = "edit"  # {"add": INVOICE_ITEM, quantity at least 1} or {"delete": description}
JSON_OBJECT = "json object"  # any object, kept as it is
JSON_VALUE = "json value"  # any value, kept as it is

# Each scalar kind's code template: lines that parse the raw value in local
# ``{v}`` into ``{v}``, and the expression of its payload (its canonical JSON
# form). A value of the exact JSON class passes the first test; any other is
# accepted as an isinstance check accepts it, or rejected. A ``str`` that is
# not ASCII is searched for surrogate code points (see ``_text``). A ``Money``
# or a ``Quantity`` is set field by field, as a codec's ``clone`` builds one, so
# no ``__init__`` runs; a negative count still goes through ``Quantity``'s check.
_TEMPLATES = {
    str: ("if not isinstance({v}, str): _wrong({v}, 'string')\n"
          "elif not {v}.isascii(): _text({v})",
          "{v} if {v}.__class__ is str else to_jsonable({v})"),
    int: ("if {v}.__class__ is not int and ({v}.__class__ is bool or not isinstance({v}, int)):"
          " _wrong({v}, 'integer')", "{v} if {v}.__class__ is int else to_jsonable({v})"),
    bool: ("if {v}.__class__ is not bool: _wrong({v}, 'boolean')", "{v}"),
    Money: ("if {v}.__class__ is not int: {v} = _money({v}, currency)\n"
            "else: {v}_m = _new(Money); _set({v}_m, 'amount', {v}); "
            "_set({v}_m, 'currency', currency); {v} = {v}_m",
            "{{'amount': {v}.amount, 'currency': {v}.currency}}"),
    Quantity: ("if {v}.__class__ is not Quantity:\n"
               "    if {v}.__class__ is not int or {v} < 0: {v} = _qty({v})\n"
               "    else: {v}_q = _new(Quantity); _set({v}_q, 'value', {v}); {v} = {v}_q",
               "{v}.value"),
    Ref: ("if {v}.__class__ is not EntityId: {v} = ({v}.__class__ is str and ids_get({v})) "
          "or ({v} if isinstance({v}, EntityId) else parse_id({v}))\n"
          "if {v}.kind not in {kinds!r}: _wrong({v}._text, {expected!r})", "{v}._text"),
    Enum: ("if {v}.__class__ is not {cls}: {v} = {get}({v}) or _enum({cls}, {v}) "
           "if {v}.__class__ is str else _enum({cls}, {v})", "{v}._value_"),
    JSON_OBJECT: ("if not isinstance({v}, dict): _wrong({v}, 'object')", "{v}"),
    JSON_VALUE: ("", "{v}"),
}


def _wrong(value, expected: str):
    raise SchemaError(f"expected {expected}, got {value!r}")


_SURROGATE = re.compile("[\ud800-\udfff]")


def _text(value: str):
    """Reject a surrogate code point (U+D800-U+DFFF): the log writes it as a
    ``\\u`` escape, and a read joins an escaped pair into one character, so
    the value read back would not be the value logged."""
    if _SURROGATE.search(value):
        _wrong(value, "text with no surrogate code point")


def _at(exc: SchemaError, step: str):
    """Raise ``exc`` again with ``step`` (``.field``, ``[index]`` or ``[key]``)
    in front of the path its message names; a parse that succeeds never calls it."""
    exc.path = path = step + getattr(exc, "path", "")
    exc.args = (f"{path.removeprefix('.')}: {exc.__dict__.setdefault('detail', str(exc))}",)
    raise exc


def _names(what: str, names, others):
    """Reject ``names`` not among ``others``, listed in repr order."""
    raise SchemaError(f"{what} {sorted(names - others, key=repr)}")


def _money(value, currency: str) -> Money:
    """Minor units in the engine currency, or an {amount, currency} object."""
    if value.__class__ is not bool and isinstance(value, int):
        value = Money(value, currency)
    elif (isinstance(value, dict) and value.keys() == {"amount", "currency"}
          and value["amount"].__class__ is int and isinstance(value["currency"], str)):
        value = Money(value["amount"], value["currency"])
    elif not isinstance(value, Money):
        _wrong(value, "money")
    if value.currency != currency:
        raise CurrencyMismatch(f"engine currency is {currency}, got {value.currency}")
    return value


def _qty(value) -> Quantity:
    if isinstance(value, Quantity):
        return value
    if value.__class__ is bool or not isinstance(value, int):
        _wrong(value, "quantity")
    return Quantity(value)


def _enum(enum_class, value):
    if isinstance(value, enum_class):
        return value
    try:
        return enum_class(value)
    except ValueError:
        _wrong(value, f"one of {[e.value for e in enum_class]}")


def _indent(lines: list[str], depth: int = 1) -> list[str]:
    return [f"{'    ' * depth}{line}" for line in lines]


def _located(lines: list[str], step: str) -> list[str]:
    """``lines``, whose ``SchemaError`` gains the path step ``step`` (an
    expression) on its way out."""
    return ["try:", *_indent(lines), "except SchemaError as exc:",
            f"    _at(exc, {step})"] if lines else lines


class _ParserSource(GeneratedSource):
    """The lines of one generated parser, which parse the raw args and build
    their payload in the same pass, and the names those lines use."""

    def __init__(self):
        super().__init__({
            "EntityId": EntityId, "Money": Money, "Quantity": Quantity,
            "SchemaError": SchemaError, "ids_get": _IDS.get, "parse_id": EntityId.parse,
            "to_jsonable": to_jsonable, "_wrong": _wrong, "_text": _text, "_names": _names,
            "_at": _at, "_money": _money, "_qty": _qty, "_enum": _enum,
            "_new": object.__new__, "_set": object.__setattr__})

    def lines(self, decl, v: str) -> tuple[list[str], str]:
        """Lines that parse the raw value in local ``v`` as ``decl`` into
        ``v``, and the expression of its payload."""
        if isinstance(decl, Fields):
            return self.fields(decl, v)
        if isinstance(decl, type) and issubclass(decl, Enum):
            template, fill = _TEMPLATES[Enum], {
                "cls": self.name(decl, decl.__name__),
                "get": self.name({member.value: member for member in decl}.get, "values")}
        elif (ref := Ref.of(decl)) is not None:
            template = _TEMPLATES[Ref]
            fill = {"kinds": ref.kinds, "expected": f"{' or '.join(ref.kinds)} id"}
        elif decl in _TEMPLATES:
            template, fill = _TEMPLATES[decl], {}
        else:
            return self.structure(decl, v)
        lines, payload = (part.format(v=v, **fill) for part in template)
        return [line for line in lines.split("\n") if line], payload

    def structure(self, decl, v: str) -> tuple[list[str], str]:
        """The lines of a list, a map keyed by id or by string, or an edit."""
        origin, args = typing.get_origin(decl), typing.get_args(decl)
        parsed, payload, k, w = self.var(), self.var(), self.var(), self.var()
        if origin is list:
            item, item_payload = self.lines(args[0], w)
            return ([f"if not isinstance({v}, (list, tuple)): _wrong({v}, 'list')",
                     f"{parsed}, {payload} = [], []", f"for {w} in {v}:",
                     *_indent(_located(item, f"'[%d]' % len({parsed})")),
                     f"    {parsed}.append({w})", f"    {payload}.append({item_payload})",
                     f"{v} = {parsed}"], payload)
        if origin is dict and (Ref.of(args[0]) is not None or args[0] is str):
            key, key_payload = self.lines(args[0], k)
            value, value_payload = self.lines(args[1], w)
            return ([f"if not isinstance({v}, dict): _wrong({v}, 'object')",
                     f"{parsed}, {payload} = {{}}, {{}}", f"for {k}, {w} in {v}.items():",
                     *_indent(_located(key + value, f"'[%s]' % ({k},)")),
                     f"    {parsed}[{k}] = {w}", f"    {payload}[{key_payload}] = {value_payload}",
                     f"{v} = {parsed}"], payload)
        if decl != EDIT:
            raise TypeError(decl)
        add, add_payload = self.fields(INVOICE_ITEM, w)
        delete, delete_payload = self.lines(str, w)
        return ([f"if not isinstance({v}, dict) or len({v}) != 1: "
                 f"_wrong({v}, 'one add or delete object per edit')",
                 f"(({k}, {w}),) = {v}.items()", f"if {k} == 'add':",
                 *_indent(_located(add + [
                     f"if {w}.quantity.value < 1: "
                     f"raise SchemaError('invoice item quantity must be at least 1')"],
                     "'.add'")),
                 f"    {v}, {payload} = {{'add': {w}}}, {{'add': {add_payload}}}",
                 f"elif {k} == 'delete':", *_indent(delete),
                 f"    {v}, {payload} = {{'delete': {w}}}, {{'delete': {delete_payload}}}",
                 "else:", f"    _wrong({k}, 'edit action add or delete')"], payload)

    def fields(self, decl: Fields, v: str, label: str = "") -> tuple[list[str], str]:
        """The lines of ``Fields``: reject a non-object, an undeclared field,
        a missing one (under a schema's ``label``, when its turn comes), then
        parse each field present in declaration order."""
        if decl.into is tuple and decl.optional:  # a list payload has no absent items
            raise TypeError(decl)
        names = self.name(frozenset(decl.fields), "names")
        unexpected = f"{label}: unexpected args" if label else "unexpected fields:"
        lines = [f"if {v}.__class__ is not dict: "
                 f"{v} = dict({v}) if isinstance({v}, dict) else _wrong({v}, 'object')",
                 f"if not {v}.keys() <= {names}: _names({unexpected!r}, {v}.keys(), {names})"]
        if decl.optional < decl.fields.keys() and not label:
            required = self.name(frozenset(decl.fields) - decl.optional, "required")
            lines.append(f"if not {v}.keys() >= {required}: "
                         f"_names('missing fields:', {required}, {v}.keys())")
        parsed, payload = self.var(), self.var()
        lines.append(f"{parsed}, {payload} = {{}}, {{}}" if decl.into is None
                     else f"{payload} = {{}}")
        fields = []
        for name, field_decl in decl.fields.items():
            f = self.var()
            try:  # the outermost arg is the one named
                field, field_payload = self.lines(field_decl, f)
            except TypeError:
                raise TypeError(f"{label}: arg {name!r}: no kind parses {field_decl!r}") from None
            fields.append(f)
            field.append(f"{parsed}[{name!r}], {payload}[{name!r}] = {f}, {field_payload}"
                         if decl.into is None else f"{payload}[{name!r}] = {field_payload}")
            field = _located(field, repr(f".{name}"))
            if name in decl.optional:
                lines += ([f"{f} = None"] if decl.into else []) + [
                    f"if {name!r} in {v}:", f"    {f} = {v}[{name!r}]", *_indent(field)]
            elif label:
                lines += ["try:", f"    {f} = {v}[{name!r}]", "except KeyError:",
                          f"    raise SchemaError({f'{label}: missing required arg {name!r}'!r})"
                          " from None", *field]
            else:
                lines += [f"{f} = {v}[{name!r}]", *field]
        if decl.into is None:
            return lines + [f"{v} = {parsed}"], payload
        if decl.into is tuple:
            return lines + [f"{v} = ({', '.join(fields)},)"], payload
        # built as a codec's clone builds it: a __post_init__ would not run
        attributes = [f.name for f in dataclasses.fields(decl.into)]
        if len(attributes) != len(fields) or hasattr(decl.into, "__post_init__"):
            raise TypeError(decl)
        into = self.name(decl.into, decl.into.__name__)
        return lines + [f"{v} = _new({into})", *(f"_set({v}, {name!r}, {f})" for name, f
                                                 in zip(attributes, fields))], payload


@functools.cache
def compile_parser(name: str, schema, filename: str):
    """Generate ``parse(raw, currency) -> (parsed, payload)`` for ``schema``: the
    ``Fields`` of the args of the command or query ``name``, taken in
    declaration order, or with no name any declaration (such as an input
    file's). It builds the payload the event log records in the same pass,
    which a caller that writes no record drops. An undeclared kind raises
    ``TypeError`` naming the arg. Cached, so a copy of a spec reuses its parser."""
    source = _ParserSource()
    lines, expr = source.fields(schema, "raw", name) if name else source.lines(schema, "raw")
    body = [*lines, f"return raw, {expr}"]
    run_generated("def parse(raw, currency):\n" + "\n".join(_indent(body)), filename, source.names)
    return source.names["parse"]


# --- ownership ----------------------------------------------------------------
# A target's owner is declared as the arg naming the target: a customer, who
# owns it, or an entity whose one ``Ref`` to a customer names the owner.

def _foreign(name: str, schema: Fields, arg: str) -> str:
    """The condition, on ``state``, ``args`` and ``actor``, that the target
    the owner arg ``arg`` names is not the actor's own. An arg that resolves
    to no single owner raises ``TypeError``."""
    kinds = getattr(Ref.of(schema.fields.get(arg)), "kinds", ())
    if kinds == ("customer",):
        return f"args[{arg!r}] is not actor"
    store = KIND_TO_STORE.get(kinds[0]) if len(kinds) == 1 else None
    fields = dataclasses.fields(STORES[store][1]) if store else ()
    owners = [f.name for f in fields if "customer" in getattr(Ref.of(f.type), "kinds", ())]
    if len(owners) != 1:
        raise TypeError(f"{name}: owner arg {arg!r} names no entity with one customer Ref")
    return (f"(target := state.stores[{store!r}].get(args[{arg!r}])) is None"
            f" or target.{owners[0]} is not actor")


# --- command specs ------------------------------------------------------------

@dataclass(frozen=True)
class CommandSpec:
    name: str
    kind: str  # target entity kind, the first element of the required right
    schema: Fields  # the args, declared as the fields of an object
    foreign: str  # when the target is not the actor's own (see "ownership"); "False": no owner
    run: object  # callable(engine, txn, actor, args) -> its result, as plain JSON
    # (call statement, result expression, names): what ``_spec`` generated ``run`` from
    source: tuple = field(repr=False, compare=False)

    @functools.cached_property
    def parse(self):
        """``parse(raw, currency) -> (parsed, payload)``, generated on first use."""
        return compile_parser(self.name, self.schema, f"<parser {self.name}>")

    @functools.cached_property
    def envelope(self):
        """``envelope(engine, actor, raw, seq, tick) -> EventRecord``: the
        whole dispatch of the command, generated once, on first use."""
        return _envelope(self)

    @functools.cached_property
    def decide(self):
        """``decide(engine, actor, args) -> access``: the decision the
        envelope takes for ``actor`` on the parsed ``args``, as the very
        ``access`` dict its record holds (shared, so never mutate it)."""
        access, names = _access(self)
        run_generated(f"def decide(engine, actor, args):\n    state = engine.state\n{access}\n"
                      "            return denied\n    return allow\n",
                      f"<decide {self.name}>", names)
        return names["decide"]


_ACCESS = """\
    rbac = engine.rbac
    allow = system if actor.kind == 'system' else permissive if rbac.permissive else None
    if allow is None:
        granting = rbac.grants.get(right)
        if granting is None:
            granting = rbac.compile_grant(*right)
        store = KIND_TO_STORE.get(actor.kind)
        roles = getattr(store and state.stores[store].get(actor), 'roles', NO_ROLES)
        assigned = rbac.assignments.get(actor, ())
        denied = no_role
        for role, owner_only, allow in granting:
            if role not in roles and role not in assigned:
                continue
            if owner_only and ({foreign}):
                denied = not_owner
                continue
            break
        else:"""


def _access(spec: CommandSpec) -> tuple[str, dict]:
    """The access decision of ``spec``'s envelope and its ``decide``: ``allow``,
    or ``denied`` in the ``else`` it ends in, which the caller fills; and its names."""
    return (_ACCESS.format(foreign=spec.foreign),
            {"KIND_TO_STORE": KIND_TO_STORE, "NO_ROLES": frozenset(),
             "right": (spec.kind, spec.name), "system": SYSTEM_ALLOW,
             "permissive": PERMISSIVE_ALLOW, "no_role": DENIED_ACCESS["no-role"],
             "not_owner": DENIED_ACCESS["not-owner"], "denials": DENIALS})


# the source of an envelope: {parse} and {payload} are a parser's lines and the
# name of its payload, {access} the access decision, {operation} the domain call
_ENVELOPE = """\
def envelope(engine, actor, raw, seq, tick):
    state, args, currency = engine.state, raw, engine.currency
    try:
{parse}
    except DomainError as exc:
        state.log.append({record}best_effort(raw), NOT_EVALUATED, 'error', exc.code))
        raise
{access}
            state.log.append({record}{payload}, denied, 'denied', 'AccessDenied'))
            raise AccessDenied(denials[denied['reason']])
    txn = Txn(state)
    try:
{operation}
    except DomainError as exc:
        txn.rollback()
        state.log.append({record}{payload}, allow, 'error', exc.code))
        raise
    record = {record}{payload}, allow, 'ok', None, result, txn.facts())
    state.log.append(record)
    return record
"""


def _envelope(spec: CommandSpec):
    """The parser's lines, the access decision (the owner resolved only for
    an owner-only role), and a ``Txn`` around ``run``'s source while ``run``
    is the runner generated from it, else around a call of ``run``."""
    parser = _ParserSource()
    parse, payload = parser.fields(spec.schema, "args", spec.name)
    statement, result, names = spec.source
    if names.get("run") is spec.run:
        operation = [statement, f"result = {result}"]
    else:
        operation, names = ["result = run(engine, txn, actor, args)"], {"run": spec.run}
    access, access_names = _access(spec)
    names = {**parser.names, **names, **access_names, "DomainError": DomainError,
             "AccessDenied": AccessDenied, "Txn": Txn, "EventRecord": EventRecord,
             "NOT_EVALUATED": NOT_EVALUATED, "best_effort": best_effort}
    run_generated(_ENVELOPE.format(
        parse="\n".join(_indent(parse, 2)), payload=payload, access=access,
        operation="\n".join(_indent(operation, 2)),
        record=f"EventRecord(seq, tick, actor, {spec.name!r}, "),
        f"<envelope {spec.name}>", names)
    return names["envelope"]


def best_effort(args) -> dict:
    """Args that failed to parse, as the JSON object an audit record holds,
    or their repr when they are not one, or not one that reads back from the
    log as it is (a str holding a surrogate code point, see ``_text``)."""
    try:
        payload = to_jsonable(args)
    except TypeError:  # a value or a key with no JSON form
        payload = None
    if isinstance(payload, dict):
        text = json_text(payload)  # a surrogate is written as a \udXXX escape
        if "\\ud" not in text or json.loads(text) == payload:
            return payload
    return {"unparsed": repr(args)}


# the engine attributes a domain operation may take, by parameter name
_ENGINE_ATTRS = frozenset({"currency", "rulebook", "add_policy"})
# the JSON form of a domain operation's result, by its return annotation
_RESULTS = {EntityId: "{}._text", Money: "{}.to_dict()", list[EntityId]: "[v._text for v in {}]",
            str: "{}", list[str]: "{}", str | None: "{}"}


def _spec(name, kind, args, fn, *keys, owner=None, optional=frozenset()) -> CommandSpec:
    """The spec of command ``name``, whose ``run(engine, txn, actor, args)``
    is generated under the filename ``<command name>``: one call of the
    domain operation ``fn``, and a dict of its result under ``keys``.

    ``fn`` takes ``txn`` (``txn.state`` when its first parameter is
    ``state``), then in signature order: for a parameter named ``x`` or
    ``x_id`` the arg ``x`` (an optional one defaults to the parameter's
    default), else the engine attribute of its name. The return annotation
    picks the encoding in ``_RESULTS``; a ``tuple`` gives one key per
    element, ``None`` none. ``owner`` is the arg naming the target whose
    owner an owner-only role must be (see "ownership"). An unmatched
    parameter or arg, a result with no encoding, or an owner arg that
    resolves to no owner raises ``TypeError`` naming the command."""
    schema = Fields(args, optional)
    signature = inspect.signature(fn)
    params = list(signature.parameters.values())
    names, taken = {fn.__name__: fn}, set()
    call = ["txn.state" if params[0].name == "state" else "txn"]
    for param in params[1:]:
        arg = param.name if param.name in schema.fields else param.name.removesuffix("_id")
        if arg in schema.fields.keys() - schema.optional:
            value = f"args[{arg!r}]"
            taken.add(arg)
        elif arg in schema.optional and param.default is not param.empty:
            value = f"args.get({arg!r}, {param.name}_default)"
            names[f"{param.name}_default"] = param.default
            taken.add(arg)
        elif param.name in _ENGINE_ATTRS:
            value = f"engine.{param.name}"
        else:
            raise TypeError(f"{name}: parameter {param.name!r} of {fn.__qualname__} takes "
                            "neither a required arg nor an engine attribute")
        call.append(f"{param.name}={value}" if param.kind is param.KEYWORD_ONLY else value)
    for arg in sorted(schema.fields.keys() - taken):
        raise TypeError(f"{name}: no parameter of {fn.__qualname__} takes arg {arg!r}")
    returns = signature.return_annotation
    hints = (typing.get_args(returns) if typing.get_origin(returns) is tuple
             else () if returns is None else (returns,))
    try:
        results = [_RESULTS[hint].format(f"r{i}") for i, hint in enumerate(hints)]
    except (KeyError, TypeError):  # TypeError: an unhashable annotation
        raise TypeError(f"{name}: no result encoding for "
                        f"{fn.__qualname__} -> {returns!r}") from None
    if len(keys) != len(hints):
        raise TypeError(f"{name}: {len(keys)} result keys for {fn.__qualname__} -> {returns!r}")
    targets = ", ".join(f"r{i}" for i in range(len(hints))) or "_"
    result = ", ".join(f"{key!r}: {value}" for key, value in zip(keys, results))
    statement, result = f"{targets} = {fn.__name__}({', '.join(call)})", f"{{{result}}}"
    run_generated(f"def run(engine, txn, actor, args):\n    {statement}\n    return {result}\n",
                  f"<command {name}>", names)
    foreign = _foreign(name, schema, owner) if owner else "False"
    return CommandSpec(name=name, kind=kind, schema=schema, foreign=foreign, run=names["run"],
                       source=(statement, result, names))


COMMANDS = {spec.name: spec for spec in [
    # bootstrap / registry plumbing
    _spec("create_customer", "customer",
          {"name": str, "loyalty_member": bool, "roles": list[str]},
          shopping_cart.create_customer, "customer", optional={"loyalty_member", "roles"}),
    _spec("create_employee", "employee", {"name": str, "roles": list[str]},
          invoice.create_employee, "employee", optional={"roles"}),
    _spec("create_catalog", "catalog", {"name": str}, catalog.create_catalog, "catalog"),

    # catalog
    _spec("add_product", "product",
          {"catalog": Ref("catalog"), "name": str, "price": Money, "status": ProductStatus},
          catalog.add_product, "product"),
    _spec("set_product_info", "product",
          {"product": Ref("product"), "description": str, "comparison_notes": str},
          catalog.set_product_info, optional={"comparison_notes"}),
    _spec("update_product", "product",
          {"product": Ref("product"),
           "changes": Fields({"name": str, "price": Money, "status": ProductStatus},
                             {"name", "price", "status"})},
          catalog.update_product, "notifications"),
    _spec("link_similar", "product", {"a": Ref("product"), "b": Ref("product")},
          catalog.link_similar),
    _spec("subscribe", "product", {"customer": Ref("customer"), "product": Ref("product")},
          catalog.subscribe, owner="customer"),
    _spec("search", "catalog",
          {"catalog": Ref("catalog"), "name_substring": str, "status": ProductStatus,
           "max_price": Money},
          catalog.search, "products", optional={"name_substring", "status", "max_price"}),

    # shopping cart
    _spec("create_cart", "cart", {"customer": Ref("customer")},
          shopping_cart.create_cart, "cart", owner="customer"),
    _spec("add_item", "cart", {"cart": Ref("cart"), "product": Ref("product"), "qty": Quantity},
          shopping_cart.add_item, owner="cart"),
    _spec("remove_item", "cart", {"cart": Ref("cart"), "product": Ref("product")},
          shopping_cart.remove_item, owner="cart"),
    _spec("cart_total", "cart", {"cart": Ref("cart")},
          shopping_cart.cart_total, "total", owner="cart"),
    _spec("checkout", "cart", {"cart": Ref("cart")},
          shopping_cart.checkout, "order", "invoice", owner="cart"),

    # invoice
    _spec("create_invoice", "invoice",
          {"creator": Ref("employee", "system"), "customer": Ref("customer")},
          invoice.create_invoice, "invoice"),
    _spec("prepare_invoice", "invoice",
          {"invoice": Ref("invoice"), "edits": list[EDIT], "policies": list[str]},
          invoice.prepare_invoice, "total", optional={"edits", "policies"}),
    _spec("validate_invoice", "invoice",
          {"validator": Ref("employee"), "invoice": Ref("invoice"), "rules": list[str]},
          invoice.validate_invoice, "verdict", "reasons", optional={"rules"}),
    _spec("record_payment", "payment",
          {"customer": Ref("customer"), "invoice": Ref("invoice"), "amount": Money,
           "method": PaymentMethod},
          invoice.record_payment, "payment", owner="invoice"),
    _spec("validate_payment", "payment",
          {"validator": Ref("employee"), "payment": Ref("payment"), "rules": list[str]},
          invoice.validate_payment, "verdict", "reasons", optional={"rules"}),
    _spec("invoice_balance", "invoice", {"invoice": Ref("invoice")},
          invoice.invoice_balance, "balance", owner="invoice"),

    # order and shipment
    _spec("place_order", "order", {"customer": Ref("customer"), "lines": list[ORDER_LINE]},
          order_shipment.place_order, "order", owner="customer"),
    _spec("cancel_order", "order", {"order": Ref("order")},
          order_shipment.cancel_order, owner="order"),
    _spec("create_shipment", "shipment",
          {"order": Ref("order"), "items": list[SHIPPED_ITEM], "receiver": Ref("customer")},
          order_shipment.create_shipment, "shipment", "invoice"),
    _spec("record_receipt", "shipment",
          {"shipment": Ref("shipment"), "receiver": Ref("customer")},
          order_shipment.record_receipt, owner="shipment"),

    # stock manager
    _spec("create_stockroom", "stockroom", {"name": str},
          stock_manager.create_stockroom, "stockroom"),
    _spec("create_stock_item", "stock_item",
          {"name": str, "kind": StockKind, "product_link": Ref("product")},
          stock_manager.create_stock_item, "stock_item", optional={"product_link"}),
    _spec("add_to_stock", "stock_item",
          {"item": Ref("stock_item"), "qty": Quantity,
           "allocation": dict[Ref("stockroom"), int]},
          stock_manager.add_to_stock, "policy", optional={"allocation"}),
    _spec("remove_from_stock", "stock_item",
          {"item": Ref("stock_item"), "qty": Quantity, "room": Ref("stockroom")},
          stock_manager.remove_from_stock, optional={"room"}),
    _spec("transfer", "stock_item",
          {"item": Ref("stock_item"), "qty": Quantity, "from_room": Ref("stockroom"),
           "to_room": Ref("stockroom")},
          stock_manager.transfer),
    _spec("create_shop_order", "shop_order",
          {"product": Ref("stock_item"), "output_qty": int,
           "bill_of_materials": dict[Ref("stock_item"), Quantity]},
          stock_manager.create_shop_order, "shop_order"),
    _spec("cut_shop_order", "shop_order", {"order": Ref("shop_order")},
          stock_manager.cut_shop_order),
    _spec("pick_components", "shop_order",
          {"order": Ref("shop_order"),
           "room_drains": dict[Ref("stock_item"), dict[Ref("stockroom"), Quantity]]},
          stock_manager.pick_components, optional={"room_drains"}),
    _spec("finish_fabrication", "shop_order",
          {"order": Ref("shop_order"), "room": Ref("stockroom")},
          stock_manager.finish_fabrication),
]}


def parse_args(spec: CommandSpec, raw_args: dict, currency: str) -> tuple[dict, dict]:
    """The parsed args and their payload, as the command's envelope parses them."""
    return spec.parse(raw_args, currency)


def canonical_payload(args: dict) -> dict:
    """The payload as log format 2 wrote it; the parsers build format 3's."""
    return {name: to_jsonable(value) for name, value in sorted(args.items())}


# --- input files ----------------------------------------------------------------
# The shape of each file the engine reads, declared once. A seed entry takes
# the declarations of the args of the commands it stands for.

_ADD_PRODUCT = COMMANDS["add_product"].schema.fields
_PRODUCT_INFO = COMMANDS["set_product_info"].schema.fields
_STOCK_ITEM = COMMANDS["create_stock_item"].schema.fields
_ROOM_QTY = typing.get_args(COMMANDS["add_to_stock"].schema.fields["allocation"])[1]

INPUT_FILES = {
    "access config": Fields({
        "roles": list[Fields({"name": str, "rights": list[list[str]], "owner_only": bool},
                             {"rights", "owner_only"})],
        "assignments": list[Fields({"user": Ref("customer", "employee"), "roles": list[str]})],
    }, {"roles", "assignments"}),
    "policy config": Fields({
        "billing_policies": list[Fields(
            {"name": str, "kind": PolicyKind, "percent": int, "amount": int,
             "loyalty_only": bool}, {"percent", "amount", "loyalty_only"})],
        "validation_rules": list[Fields(
            {"name": str, "target": str, "kind": str, "methods": list[PaymentMethod]},
            {"methods"})],
    }, {"billing_policies", "validation_rules"}),
    "scenario": Fields({
        "name": str,
        "commands": list[Fields(
            {"op": str, "actor": str, "args": JSON_OBJECT, "as": str, "expect_error": str},
            {"actor", "args", "as", "expect_error"})],
        "expectations": list[Fields({"query": str, "args": JSON_OBJECT, "expect": JSON_VALUE},
                                    {"args"})],
    }, {"expectations"}),
    "catalog seed": list[Fields({
        **{key: _ADD_PRODUCT[key] for key in ("name", "price", "status")},
        "info": Fields({key: _PRODUCT_INFO[key] for key in ("description", "comparison_notes")},
                       {"description", "comparison_notes"}),
        "similar": list[str],
    }, {"status", "info", "similar"})],
    "stock seed": list[Fields({"item": _STOCK_ITEM["name"], "kind": _STOCK_ITEM["kind"],
                               "rooms": dict[str, _ROOM_QTY]}, {"rooms"})],
}


def parse_input(name: str, raw, currency: str | None = None):
    """``raw`` parsed as the input file ``name`` by its generated parser, the
    payload dropped (``currency`` is needed only for money); a wrong type, a
    missing or an unknown field, at any level, is a ``SchemaError``."""
    parse = compile_parser("", INPUT_FILES[name], f"<input parser {name}>")
    try:
        return parse(raw, currency)[0]
    except SchemaError as exc:
        raise SchemaError(f"{name}: {exc}") from None
