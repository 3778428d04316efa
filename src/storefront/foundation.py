"""Shared value types: money, discrete quantities, entity ids, the error
base, the ``Ref`` and ``Fields`` declarations, and the ``Record`` codec
every entity and value dataclass derives.

The values here are immutable and freely shareable. Mutation happens only
in the engine's entity stores, never inside these values.
"""

import dataclasses
import functools
import json
import linecache
import types
import typing
from dataclasses import dataclass
from enum import Enum


class DomainError(Exception):
    """Base for every business-rule rejection.

    ``code`` is the stable machine-readable name used in event-log audit
    records and scenario ``expect_error`` clauses. The message is
    ``args[0]``; with none, ``str`` gives the code.
    """

    code = "DomainError"

    def __str__(self) -> str:
        return super().__str__() or self.code


class CurrencyMismatch(DomainError):
    code = "CurrencyMismatch"


class NegativeQuantity(DomainError):
    code = "NegativeQuantity"


class SchemaError(DomainError):
    code = "SchemaError"


class AccessDenied(DomainError):
    code = "AccessDenied"


class Record:
    """Base of every entity and value dataclass.

    ``derive_codec`` gives each subclass ``to_dict`` (its JSON form),
    ``to_json`` (the text of that form in the log), ``from_dict`` (the
    inverse, with every value-domain check), ``decode`` (``from_dict``
    within one read of a log, sharing frozen values through the read's
    memo) and ``clone`` (a copy whose containers can change without
    touching the original), generated from the evaluated field declarations.
    The engine derives every stored entity class, and the records nested in
    it, when ``state`` is imported.
    """

    __slots__ = ()


@dataclass(frozen=True)
class Money(Record):
    """An amount in integer minor units (cents) of a single currency.

    Negative amounts are legal only for adjustments and balance arithmetic;
    prices and payments are validated non-negative at their use sites.
    """

    amount: int
    currency: str

    def add(self, other: "Money") -> "Money":
        if self.currency != other.currency:
            raise CurrencyMismatch(
                f"cannot add {other.currency} to {self.currency}"
            )
        return Money(self.amount + other.amount, self.currency)

    def sub(self, other: "Money") -> "Money":
        if self.currency != other.currency:
            raise CurrencyMismatch(
                f"cannot subtract {other.currency} from {self.currency}"
            )
        return Money(self.amount - other.amount, self.currency)

    @staticmethod
    def zero(currency: str) -> "Money":
        return Money(0, currency)


def money_amount(values, currency: str) -> int:
    """Sum in minor units of ``Money`` values that must all be in
    ``currency``; empty input is zero. Raises ``CurrencyMismatch`` at the
    first value in another currency, with the message ``Money.add`` gives."""
    total = 0
    for value in values:
        if value.currency != currency:
            raise CurrencyMismatch(f"cannot add {value.currency} to {currency}")
        total += value.amount
    return total


def priced_sum(lines, currency: str) -> Money:
    """Sum of unit price times quantity over priced lines (cart items,
    order lines, invoice items), checked per line as ``money_amount``."""
    return Money(priced_amount(lines, currency), currency)


def priced_amount(lines, currency: str) -> int:
    """``priced_sum`` in minor units, building no ``Money``."""
    total = 0
    for line in lines:
        price = line.unit_price
        if price.currency != currency:
            raise CurrencyMismatch(f"cannot add {price.currency} to {currency}")
        total += price.amount * line.quantity.value
    return total


_set = object.__setattr__


@dataclass(frozen=True, init=False)
class Quantity:
    """A non-negative count of discrete items."""

    value: int

    def __init__(self, value: int):
        if value < 0:
            raise NegativeQuantity(f"quantity cannot be negative: {value}")
        _set(self, "value", value)

    def add(self, other: "Quantity") -> "Quantity":
        return Quantity(self.value + other.value)


@functools.total_ordering
@dataclass(frozen=True, eq=False, init=False)
class EntityId:
    """Identity of one stored entity: a kind tag plus a per-kind serial.

    Serials are allocated monotonically by the engine, so the string form
    ``kind:serial`` is unique and stable across replays.

    The process holds one instance per id: the constructor, ``of``,
    ``parse``, pickle, ``copy`` and ``dataclasses.replace`` all return it,
    so ids hash and compare by identity, and sort by ``(kind, serial)``;
    the table of ids has no size limit. A kind is a non-empty ``str`` with
    no ``:``, a serial an exact ``int``; anything else is a ``SchemaError``.
    """

    __slots__ = ("kind", "serial", "_text", "_key")

    kind: str
    serial: int

    def __new__(cls, kind: str, serial: int):
        if serial.__class__ is int and kind.__class__ is str:
            try:
                return _BY_KEY[kind, serial]
            except KeyError:
                pass
        if kind.__class__ is not str or not kind or ":" in kind or serial.__class__ is not int:
            raise SchemaError(f"malformed entity id: kind {kind!r}, serial {serial!r}")
        entity_id, key, text = object.__new__(cls), (kind, serial), f"{kind}:{serial}"
        for name, value in (("kind", kind), ("serial", serial), ("_text", text), ("_key", key)):
            _set(entity_id, name, value)
        _BY_KEY[key] = _IDS[text] = entity_id
        return entity_id

    def __lt__(self, other):
        return self._key < other._key if other.__class__ is EntityId else NotImplemented

    def __str__(self) -> str:
        return self._text

    def __reduce__(self):  # copies and unpickled ids go through the constructor
        return EntityId, self._key

    @classmethod
    def parse(cls, text: str) -> "EntityId":
        """The id of ``kind:serial`` text; ``SchemaError`` for anything
        else, a non-string included."""
        try:
            return _IDS[text]
        except (KeyError, TypeError):  # TypeError: an unhashable non-string
            return _parse_new(text)

    of = classmethod(__new__)  # EntityId.of(kind, serial) is EntityId(kind, serial)


_BY_KEY: dict[tuple[str, int], EntityId] = {}
"""(kind, serial) -> its id, for every id the process has built."""
_IDS: dict[str, EntityId] = {}
"""Every id's own text -> its id: a text such as ``kind:07`` is never a key."""


def _parse_new(text) -> EntityId:
    """The slow path of ``EntityId.parse``: validate text not in ``_IDS``
    and register it when it is the id's own text."""
    if not isinstance(text, str):
        raise SchemaError(f"malformed entity id: {text!r}")
    kind, sep, serial = text.partition(":")
    digits = serial[1:] if serial.startswith("-") else serial
    if not sep or not kind or not (digits.isascii() and digits.isdigit()):
        raise SchemaError(f"malformed entity id: {text!r}")
    entity_id = EntityId(kind, int(serial))
    if entity_id._text == text:
        _IDS[text] = entity_id
    return entity_id


def parse_written_id(text) -> EntityId:
    """``EntityId.parse`` of an id as the engine writes it, its own text: a
    ``SchemaError`` for other text of an id, such as ``kind:07``."""
    try:
        return _IDS[text]
    except (KeyError, TypeError):
        entity_id = _parse_new(text)
    if entity_id._text != text:
        raise SchemaError(f"entity id {text!r} is not written as {entity_id._text!r}")
    return entity_id


SYSTEM = EntityId("system", 0)
"""Sentinel actor for engine-internal command paths (seeding, checkout)."""


class Ref:
    """The id of an entity of one of ``kinds``, as an entity field and a
    command's or a query's arg declare it: ``Ref(kind, ...)`` is the
    annotation ``Annotated[EntityId, ref]``, an ``EntityId`` to the codec, and
    one per ``kinds``, so typing's caches keep one. The kind ``system`` admits
    ``SYSTEM``, which no store holds."""

    @functools.cache
    def __new__(cls, *kinds: str):
        ref = super().__new__(cls)
        ref.kinds = kinds
        return typing.Annotated[EntityId, ref]

    @staticmethod
    def of(hint) -> "Ref | None":
        """The ``Ref`` of a field annotated ``Ref(...)`` or ``Ref(...) | None``,
        read from the evaluated annotation, else None."""
        metadata = getattr(optional_of(hint) or hint, "__metadata__", ())
        return next((ref for ref in metadata if isinstance(ref, Ref)), None)


def optional_of(hint):
    """The ``X`` of an ``X | None`` annotation, else None."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) in (typing.Union, types.UnionType) and len(args) == 2 \
            and type(None) in args:
        return args[args[0] is type(None)]
    return None


@dataclass(eq=False)
class Fields:
    """An object of the declared fields, each required unless ``optional``,
    parsed to a dict of those present or to ``into(*fields)`` (None for an
    absent one); its payload, the object of those present, parses back."""

    fields: dict
    optional: set | frozenset = frozenset()
    into: type | None = None


def round_half_away(numerator: int, denominator: int) -> int:
    """Integer division rounding halves away from zero.

    Used for percentage adjustments so that independently computed expected
    values agree bit-exactly with the engine.
    """
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    sign = -1 if numerator < 0 else 1
    q, r = divmod(abs(numerator), denominator)
    if 2 * r >= denominator:
        q += 1
    return sign * q


# --- the Record codec ------------------------------------------------------------

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
_SCAN = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None, _ENCODER.default, json.encoder.encode_basestring_ascii, None, ":", ",", True, False, True)


def json_text(value) -> str:
    """``json.dumps(value, sort_keys=True, separators=(",", ":"))``, the one
    encoder of the log, through a C scanner built once (``encode`` builds
    one per call)."""
    return _ENCODER.encode(value) if _SCAN is None else "".join(_SCAN(value, 0))


_SPACED = json.JSONEncoder(sort_keys=True)
_SPACED_SCAN = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None, _SPACED.default, json.encoder.encode_basestring_ascii, None, ": ", ", ",
    True, False, True)


def json_spaced(value) -> str:
    """``json.dumps(value, sort_keys=True)``, the form of the values in
    ``storefront run``'s summary lines, through a C scanner built once."""
    return _SPACED.encode(value) if _SPACED_SCAN is None else "".join(_SPACED_SCAN(value, 0))


_ascii = json.encoder.encode_basestring_ascii
# the writer of each scalar class json_indented writes itself
_SCALARS = {str: _ascii, int: int.__repr__,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): {None: "null"}.__getitem__}


def json_indented(value, newline: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True)`` with an indent of two spaces, each
    inner line after ``newline``: the values nested in ``report.json``. An
    indent sends ``json.dumps`` through the pure-Python encoder; this walks
    dicts, lists and tuples itself, writes an exact str, int, bool or None
    from ``_SCALARS`` and leaves any other value to ``json_text``, which
    writes it as ``json.dumps`` does. A key that is not a str is written as
    ``json.dumps`` writes it. Unlike ``json.dumps``, it does not look for cycles."""
    parts: list[str] = []
    _indented(value, newline, parts.append)
    return "".join(parts)


def _indented(value, newline: str, out) -> None:
    """Write ``value`` through ``out``, each of its inner lines after
    ``newline`` and two more spaces."""
    if isinstance(value, dict):
        if not value:
            return out("{}")
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            item = value[key]
            head = f"{sep}{_ascii(key if key.__class__ is str else _json_key(key))}: "
            sep = "," + inner
            write = _SCALARS.get(item.__class__)
            if write is None:
                out(head)
                _indented(item, inner, out)
            else:
                out(head + write(item))
        return out(newline + "}")
    if isinstance(value, (list, tuple)):
        if not value:
            return out("[]")
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            write = _SCALARS.get(item.__class__)
            if write is None:
                out(sep)
                _indented(item, inner, out)
            else:
                out(sep + write(item))
            sep = "," + inner
        return out(newline + "]")
    return out((_SCALARS.get(value.__class__) or json_text)(value))


def _json_key(key) -> str:
    """The text of a dict key in JSON, as ``json.dumps`` makes it."""
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:
        return json_text(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


_SHARED: dict[type, bool] = {}
"""Every derived Record class -> whether its ``clone`` returns the record
itself (a frozen record with no mutable field)."""


def derive_codec(cls: type) -> type:
    """Generate ``to_dict``, ``to_json``, ``from_dict`` and ``clone`` for a
    Record dataclass from its evaluated field types (``dataclasses.fields``,
    where a ``Ref`` is an ``EntityId``), install them, and return the class.

    Encoding per field type: ``EntityId`` -> ``kind:serial`` string;
    ``Quantity`` -> bare int; enum -> its value; ``set`` -> list sorted by
    encoded element; ``tuple`` (as a container element) -> list; ``list``
    and ``dict`` -> element-wise; nested Record -> dict; ``X | None`` ->
    ``null``; int, str and bool as they are. ``to_dict`` is one flat dict
    literal. ``to_json`` is one f-string that writes the text
    ``json.dumps(to_dict(), sort_keys=True, separators=(",", ":"))`` gives,
    byte for byte, with no dict in between but a ``set``'s, a ``dict``'s or
    a tuple's form, which ``json_text`` writes: fields in name order,
    strings through the C string encoder, a nested record inline (one call
    per record in a list or behind ``None``). Decoding requires each int,
    str, bool, list and object to be exactly that JSON type (``SchemaError``
    otherwise) and goes back through each type's constructor
    (``parse_written_id``, which takes an id only in the text the log writes,
    the enum, ``Quantity``, the record's ``__post_init__``), so every
    value-domain check runs. An enum member is read from the enum's value
    table; anything not in it goes through the enum call, which raises for
    a value that is not a member. ``clone`` sets the fields of a new instance
    directly: its source is already valid, so no ``__init__`` or
    ``__post_init__`` runs.
    Any other field type, a string annotation too (the only way a record
    could nest itself), raises ``TypeError`` naming the field.

    A put of a stored entity writes ``changes_json(old)``: the fields but
    ``id`` that differ from the pre-image ``old``. ``decode_changes`` decodes
    them as ``decode`` would, refusing an undeclared field or ``id``;
    ``changes_text`` writes them back; ``merge(old, changes)`` is a new record
    holding them and sharing every other field with ``old``, left unchanged.

    ``decode(data, memo)`` is ``from_dict`` with a memo, a dict that lives
    for one read of a log (``from_dict`` passes a new one). A record whose
    ``clone`` returns itself is looked up there by the tuple of its JSON
    leaves in field order, nested records flattened, and built through its
    constructor only on a miss: each check runs once per distinct value,
    and a value that fails one never enters the memo. An int, str or bool
    leaf enters the key after its exact-type check, so ``1``, ``1.0`` and
    ``true`` never share a key; an id or enum leaf enters as it is, since a
    key in the memo holds only leaves that decoded, and those are strings,
    which equal no other JSON value.

    The methods are generated once, like a dataclass ``__init__``; a second
    call returns at once.
    """
    if cls in _SHARED:
        return cls
    source = _CodecSource()
    encoded, decoded, copied = source.record(cls, "self", "data")
    written = source.f_string(source.record_text(cls, "self"))
    names = [f.name for f in dataclasses.fields(cls)]
    frozen = cls.__dataclass_params__.frozen
    shared = frozen and copied == [f"self.{name}" for name in names]
    assign = "_set(new, {!r}, {})" if frozen else "new.{} = {}"
    clone = "return self" if shared else "\n    ".join(
        ["new = _new(_cls)"] + [assign.format(name, copy) for name, copy in zip(names, copied)]
        + ["return new"])
    build = f"_cls({', '.join(decoded)})"
    leaves = source.leaves(cls, "data") if shared else None
    # TypeError: an id or enum leaf that cannot hash, which the build rejects
    decode = f"return {build}" if leaves is None else (
        f"key = (_cls, {', '.join(leaves)})\n    try:\n        return memo[key]\n"
        f"    except (KeyError, TypeError):\n        value = memo[key] = {build}\n"
        f"        return value")
    changes = source.changes(cls)
    namespace = dict(source.names, _cls=cls, _new=object.__new__, _set=object.__setattr__)
    run_generated(f"def to_dict(self):\n    return {encoded}\n"
                  f"def to_json(self):\n    return {written}\n"
                  f"def decode(data, memo):\n    {decode}\n"
                  f"def from_dict(cls, data):\n    return decode(data, {{}})\n"
                  f"def clone(self):\n    {clone}\n{changes}"
                  "def merge(old, changes):\n    new = _new(_cls)\n"
                  "    new.__dict__.update(old.__dict__, **changes)\n    return new\n",
                  f"<codec {cls.__qualname__}>", namespace)
    cls.to_dict, cls.to_json, cls.clone = namespace["to_dict"], namespace["to_json"], namespace["clone"]
    cls.changes_json = namespace["changes_json"]
    for name in ("decode", "decode_changes", "changes_text", "merge"):
        setattr(cls, name, staticmethod(namespace[name]))
    cls.from_dict = classmethod(namespace["from_dict"])
    _SHARED[cls] = shared
    return cls


def run_generated(source: str, filename: str, namespace: dict) -> None:
    """Run generated ``source`` in ``namespace``, compiled under ``filename``
    (such as ``<codec Invoice>``), the name that tracebacks and profiles show;
    ``linecache`` holds the source, so a traceback shows its lines."""
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace)


class GeneratedSource:
    """The names that the lines of one generated source use, and its locals."""

    def __init__(self, names: dict):
        self.names = names
        self._count = 0

    def name(self, value, label: str = "") -> str:
        """A new name for ``value``: ``label`` (else the value's own name) and a number."""
        name = f"{label or value.__name__}_{len(self.names)}"
        self.names[name] = value
        return name

    def var(self) -> str:
        self._count += 1
        return f"v{self._count}"


def _plain(hint):
    """``hint``, or the ``EntityId`` a ``Ref`` annotates: the type the codec encodes."""
    return hint.__origin__ if typing.get_origin(hint) is typing.Annotated else hint


def _wrong(value, expected: type):
    raise SchemaError(f"expected {expected.__name__}, got {value!r}")


def _undeclared(data: dict, declared: frozenset):
    raise SchemaError(f"undeclared fields: {sorted(data.keys() - declared, key=repr)}")


class _Lit(str):
    """Literal JSON text among a generated writer's parts."""


class _Int(str):
    """A writer part whose value is an int; any other expression's is text."""


class _CodecSource(GeneratedSource):
    """The expressions of one class's generated methods, and the names
    those expressions use."""

    def __init__(self):
        super().__init__({"Quantity": Quantity, "parse_id": parse_written_id, "_wrong": _wrong,
                          "_str": json.encoder.encode_basestring_ascii, "json_text": json_text,
                          "_undeclared": _undeclared})

    def record(self, cls: type, x: str, d: str) -> tuple[str, list[str], list[str]]:
        """The dict literal that encodes ``x``, a ``cls`` record, and the
        decode and copy expressions of each of its fields, read from ``d``."""
        encoded, decoded, copied = [], [], []
        for f in dataclasses.fields(cls):
            try:
                enc, dec, copy = self.expressions(f.type, f"{x}.{f.name}", f"{d}[{f.name!r}]")
            except TypeError:
                raise TypeError(f"{cls.__qualname__}.{f.name}: the record codec cannot "
                                f"encode {f.type!r}") from None
            encoded.append(f"{f.name!r}: {enc}")
            decoded.append(dec)
            copied.append(copy)
        return f"{{{', '.join(encoded)}}}", decoded, copied

    def expressions(self, hint, x: str, d: str) -> tuple[str, str, str]:
        """Encode ``x``, decode ``d`` and copy ``x``, a value of type
        ``hint``; the copy is ``x`` itself when the value is immutable."""
        hint = _plain(hint)
        origin, args, inner = typing.get_origin(hint), typing.get_args(hint), optional_of(hint)
        if inner is not None:
            enc, dec, copy = self.expressions(inner, x, d)
            return (x if enc == x else f"(None if {x} is None else {enc})",
                    f"(None if {d} is None else {dec})",
                    x if copy == x else f"(None if {x} is None else {copy})")
        if hint in (int, str, bool):
            return x, self._exact(hint, d), x
        if hint is EntityId:
            return f"{x}._text", f"parse_id({d})", x
        if hint is Quantity:
            return f"{x}.value", f"Quantity({self._exact(int, d)})", x
        if isinstance(hint, type) and issubclass(hint, Enum):
            enum = self.name(hint)
            table = self.name(hint._value2member_map_, f"{hint.__name__}_members")
            return (f"{x}._value_",
                    f"({d}.__class__ is str and {table}.get({d}) or {enum}({d}))", x)
        if isinstance(hint, type) and issubclass(hint, Record):
            derive_codec(hint)
            enc = self.record(hint, x, d)[0]
            decode = self.name(hint.decode, f"{hint.__name__}_decode")
            return enc, f"{decode}({d}, memo)", x if _SHARED[hint] else f"{x}.clone()"
        if origin in (list, set):
            v, target, (enc, dec, copy) = self._element(args[0])
            d = self._exact(list, d)
            if origin is set:
                return (f"sorted({x})" if enc == v else f"sorted([{enc} for {v} in {x}])",
                        f"{{{dec} for {target} in {d}}}", f"set({x})")
            return (f"list({x})" if enc == v else f"[{enc} for {v} in {x}]",
                    f"[{dec} for {target} in {d}]",
                    f"list({x})" if copy == v else f"[{copy} for {v} in {x}]")
        if origin is dict:
            k, key_target, (key_enc, key_dec, _) = self._element(args[0])
            v, target, (enc, dec, copy) = self._element(args[1])
            return (f"dict({x})" if (key_enc, enc) == (k, v)
                    else f"{{{key_enc}: {enc} for {k}, {v} in {x}.items()}}",
                    f"{{{key_dec}: {dec} for {key_target}, {target} in "
                    f"{self._exact(dict, d)}.items()}}",
                    f"dict({x})" if copy == v else f"{{{k}: {copy} for {k}, {v} in {x}.items()}}")
        raise TypeError(hint)

    def changes(self, cls: type) -> str:
        """The source of ``changes_json``, ``changes_text`` and ``decode_changes``."""
        hints = {f.name: f.type for f in dataclasses.fields(cls) if f.name != "id"}
        names = sorted(hints)
        declared = self.name(frozenset(names), "declared")
        written = ["def changes_json(self, old):", "parts = []"]
        texts = ["def changes_text(changes):", "parts = []"]
        decoded = ["def decode_changes(data, memo):", "changes = {}",
                   f"if not data.keys() <= {declared}: _undeclared(data, {declared})"]
        for name in names:
            key, hint = _Lit(f'"{name}":'), hints[name]
            mine, value = f"self.{name}", f"changes[{name!r}]"
            written += [f"if {mine} is not old.{name} and {mine} != old.{name}:",
                        f"    parts.append({self.f_string([key, *self.text(hint, mine)])})"]
            texts += [f"if {name!r} in changes:",
                      f"    parts.append({self.f_string([key, *self.text(hint, value)])})"]
            decoded += [f"if {name!r} in data: {value} = "
                        + self.expressions(hint, "self", f"data[{name!r}]")[1]]
        end = "return '{' + ','.join(parts) + '}'"
        return "".join("\n    ".join(lines) + "\n"
                       for lines in (written + [end], texts + [end], decoded + ["return changes"]))

    def record_text(self, cls: type, x: str) -> list[str]:
        """The parts of the JSON text of ``x``, a ``cls`` record, its
        fields in name order, as ``json.dumps(..., sort_keys=True)`` writes
        them."""
        parts = [_Lit("{")]
        for f in sorted(dataclasses.fields(cls), key=lambda f: f.name):
            parts += [_Lit(f'{"," if len(parts) > 1 else ""}"{f.name}":'),
                      *self.text(f.type, f"{x}.{f.name}")]
        return parts + [_Lit("}")]

    def text(self, hint, x: str) -> list[str]:
        """The parts of the JSON text of ``x``, a value of type ``hint``."""
        hint = _plain(hint)
        origin, args, inner = typing.get_origin(hint), typing.get_args(hint), optional_of(hint)
        if inner is not None:
            return [f"('null' if {x} is None else {self.expr(inner, x)})"]
        if hint is int or hint is Quantity:
            return [_Int(x if hint is int else f"{x}.value")]
        if hint is bool:
            return [f"('true' if {x} else 'false')"]
        if hint is str or hint is EntityId:
            return [f"_str({x})" if hint is str else f"_str({x}._text)"]
        if isinstance(hint, type) and issubclass(hint, Enum):
            table = {member: json_text(member._value_) for member in hint}
            return [f"{self.name(table, f'{hint.__name__}_json')}[{x}]"]
        if isinstance(hint, type) and issubclass(hint, Record):
            derive_codec(hint)
            return self.record_text(hint, x)
        if origin is list:
            v, _, (enc, _, _) = self._element(args[0])
            item = (f"json_text({enc})" if typing.get_origin(args[0]) is tuple
                    else self.expr(args[0], v))
            return [_Lit("["), f"','.join([{item} for {v} in {x}])", _Lit("]")]
        return [f"json_text({self.expressions(hint, x, x)[0]})"]  # sorted as the encoder sorts

    def expr(self, hint, x: str) -> str:
        """An expression whose value is the JSON text of ``x``, a value of
        type ``hint``: a record's is a call of its ``to_json``."""
        if isinstance(hint, type) and issubclass(hint, Record):
            return f"{self.name(derive_codec(hint).to_json, f'{hint.__name__}_json')}({x})"
        return " + ".join(f"'{part}'" if isinstance(part, _Lit) else
                          f"str({part})" if isinstance(part, _Int) else part
                          for part in self.text(hint, x))

    @staticmethod
    def f_string(parts: list[str]) -> str:
        """One f-string of writer parts. Literal text is field names and
        JSON punctuation, and no expression holds a quote ``"`` or a
        backslash, so a literal needs only its quotes and braces escaped."""
        return 'f"' + "".join(
            part.replace('"', '\\"').replace("{", "{{").replace("}", "}}")
            if isinstance(part, _Lit) else f"{{({part})}}" for part in parts) + '"'

    def leaves(self, cls: type, d: str) -> list[str] | None:
        """The memo key leaves of ``d``, a ``cls`` record (see ``derive_codec``),
        or None when a field cannot enter a key."""
        leaves = []
        for f in dataclasses.fields(cls):
            field_leaves = self._key(f.type, f"{d}[{f.name!r}]")
            if field_leaves is None:
                return None
            leaves += field_leaves
        return leaves

    def _key(self, hint, d: str) -> list[str] | None:
        hint = _plain(hint)
        inner = optional_of(hint)
        if inner is not None:
            if isinstance(inner, type) and issubclass(inner, Record):
                return None  # null and a record's leaves would not line up in one key
            leaves = self._key(inner, d)
            if leaves is None or leaves == [d]:
                return leaves
            return [f"(None if {d} is None else {leaves[0]})"]
        if hint in (int, str, bool) or hint is Quantity:
            return [self._exact(int if hint is Quantity else hint, d)]
        if hint is EntityId or (isinstance(hint, type) and issubclass(hint, Enum)
                                and all(m._value_.__class__ is str for m in hint)):
            return [d]
        if isinstance(hint, type) and issubclass(hint, Record) and _SHARED.get(hint):
            return self.leaves(hint, d)
        return None

    @staticmethod
    def _exact(hint, d: str) -> str:
        """``d`` if its JSON type is exactly ``hint`` (no bool, float or
        digit string for an int; no string or object for a list), else a
        ``SchemaError``. ``d`` is a name or a ``data[...]`` item, so reading
        it twice is cheaper than a call."""
        name = hint.__name__
        return f"({d} if {d}.__class__ is {name} else _wrong({d}, {name}))"

    def _element(self, hint):
        """Loop variable, decode loop target, and expressions of one
        container element. A tuple element unpacks in the target, which
        rejects a list of the wrong length."""
        v = self.var()
        if typing.get_origin(hint) is not tuple or ... in typing.get_args(hint):
            return v, v, self.expressions(hint, v, v)
        names = [self.var() for _ in typing.get_args(hint)]
        parts = [self.expressions(a, f"{v}[{i}]", n)
                 for i, (a, n) in enumerate(zip(typing.get_args(hint), names))]
        shared = all(copy == f"{v}[{i}]" for i, (_, _, copy) in enumerate(parts))
        return v, f"({', '.join(names)},)", (
            f"[{', '.join(enc for enc, _, _ in parts)}]",
            f"({', '.join(dec for _, dec, _ in parts)},)",
            v if shared else f"({', '.join(copy for _, _, copy in parts)},)")
