"""Shared value types: money, discrete quantities, entity ids, the error
base, and the ``Record`` codec every entity and value dataclass derives.

The values here are immutable and freely shareable. Mutation happens only
in the engine's entity stores, never inside these values.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from dataclasses import dataclass
from enum import Enum


class DomainError(Exception):
    """Base for every business-rule rejection.

    ``code`` is the stable machine-readable name used in event-log audit
    records and scenario ``expect_error`` clauses.
    """

    code = "DomainError"

    def __init__(self, message: str = "", **details):
        self.message = message or self.code
        self.details = details
        super().__init__(self.message)

    def __str__(self) -> str:
        if self.details:
            extras = ", ".join(f"{k}={v}" for k, v in sorted(self.details.items()))
            return f"{self.message} ({extras})"
        return self.message


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
    ``from_dict`` (the inverse, with every value-domain check) and
    ``clone`` (a copy whose containers can change without touching the
    original), generated from the field declarations. The engine derives
    every stored entity class, and the records nested in it, when
    ``state`` is imported.
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

    def add(self, other: Money) -> Money:
        if self.currency != other.currency:
            raise CurrencyMismatch(
                f"cannot add {other.currency} to {self.currency}"
            )
        return Money(self.amount + other.amount, self.currency)

    def sub(self, other: Money) -> Money:
        if self.currency != other.currency:
            raise CurrencyMismatch(
                f"cannot subtract {other.currency} from {self.currency}"
            )
        return Money(self.amount - other.amount, self.currency)

    def negate(self) -> Money:
        return Money(-self.amount, self.currency)

    @staticmethod
    def zero(currency: str) -> Money:
        return Money(0, currency)


def money_sum(values, currency: str) -> Money:
    """Sum of values that must all be in ``currency``; empty input is zero.

    Raises ``CurrencyMismatch`` at the first value in another currency,
    with the message ``Money.add`` gives.
    """
    total = 0
    for value in values:
        if value.currency != currency:
            raise CurrencyMismatch(f"cannot add {value.currency} to {currency}")
        total += value.amount
    return Money(total, currency)


def priced_sum(lines, currency: str) -> Money:
    """Sum of unit price times quantity over priced lines (cart items,
    order lines, invoice items), checked per line as ``money_sum``."""
    total = 0
    for line in lines:
        price = line.unit_price
        if price.currency != currency:
            raise CurrencyMismatch(f"cannot add {price.currency} to {currency}")
        total += price.amount * line.quantity.value
    return Money(total, currency)


@dataclass(frozen=True)
class Quantity:
    """A non-negative count of discrete items."""

    value: int

    def __post_init__(self):
        if self.value < 0:
            raise NegativeQuantity(f"quantity cannot be negative: {self.value}")

    def add(self, other: Quantity) -> Quantity:
        return Quantity(self.value + other.value)

    def sub(self, other: Quantity) -> Quantity:
        if other.value > self.value:
            raise NegativeQuantity(
                f"cannot subtract {other.value} from {self.value}"
            )
        return Quantity(self.value - other.value)

    def is_zero(self) -> bool:
        return self.value == 0


@dataclass(frozen=True, order=True, init=False)
class EntityId:
    """Identity of one stored entity: a kind tag plus a per-kind serial.

    Serials are allocated monotonically by the engine, so the string form
    ``kind:serial`` is unique and stable across replays.

    Ids are shared immutable values. ``parse`` and ``of`` return the one
    instance the process holds for each id text, from a table with one
    entry per distinct id text the process has seen; it has no size limit
    and no setting. Each instance computes its hash and its text once, so
    a dict lookup with a shared id is an identity hit. A directly
    constructed id is a separate instance that still equals, hashes and
    orders by ``(kind, serial)`` exactly like the shared one.
    """

    __slots__ = ("kind", "serial", "_hash", "_text")

    kind: str
    serial: int

    def __init__(self, kind: str, serial: int):
        setattr_ = object.__setattr__
        setattr_(self, "kind", kind)
        setattr_(self, "serial", serial)
        setattr_(self, "_hash", hash((kind, serial)))
        setattr_(self, "_text", f"{kind}:{serial}")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not EntityId:
            return NotImplemented
        return self.serial == other.serial and self.kind == other.kind

    def __str__(self) -> str:
        return self._text

    def __reduce__(self):
        # the hash of a str is randomized per process: rebuild, never copy it
        return EntityId, (self.kind, self.serial)

    @classmethod
    def parse(cls, text: str) -> EntityId:
        """The shared id for ``kind:serial`` text; ``SchemaError`` for
        anything else, a non-string included."""
        try:
            return _IDS[text]
        except (KeyError, TypeError):  # TypeError: an unhashable non-string
            return _parse_new(text)

    @classmethod
    def of(cls, kind: str, serial: int) -> EntityId:
        """The shared id of an engine-allocated kind (no ``:``) and int serial."""
        entity_id = cls(kind, serial)
        return _IDS.setdefault(entity_id._text, entity_id)


_IDS: dict[str, EntityId] = {}
"""Id text seen by ``EntityId.parse`` or ``EntityId.of`` -> its shared id."""


def _parse_new(text) -> EntityId:
    """The slow path of ``EntityId.parse``: validate text not seen before
    and register it."""
    if not isinstance(text, str):
        raise SchemaError(f"malformed entity id: {text!r}")
    kind, sep, serial = text.partition(":")
    digits = serial[1:] if serial.startswith("-") else serial
    if not sep or not kind or not (digits.isascii() and digits.isdigit()):
        raise SchemaError(f"malformed entity id: {text!r}")
    entity_id = EntityId.of(kind, int(serial))
    _IDS[text] = entity_id  # a non-canonical text such as "kind:07" maps to "kind:7"
    return entity_id


SYSTEM = EntityId.of("system", 0)
"""Sentinel actor for engine-internal command paths (seeding, checkout)."""


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

_SHARED: dict[type, bool] = {}
"""Every derived Record class -> whether its ``clone`` returns the record
itself (a frozen record with no mutable field)."""


def derive_codec(cls: type) -> type:
    """Generate ``to_dict``, ``from_dict`` and ``clone`` for a Record
    dataclass from its field types, install them, and return the class.

    Encoding per field type: ``EntityId`` -> ``kind:serial`` string;
    ``Quantity`` -> bare int; enum -> its value; ``set`` -> list sorted by
    encoded element; ``tuple`` (as a container element) -> list; ``list``
    and ``dict`` -> element-wise; nested Record -> dict; ``X | None`` ->
    ``null``; int, str and bool as they are. Decoding requires each int,
    str, bool, list and object to be exactly that JSON type (``SchemaError``
    otherwise) and goes back through each type's constructor (``EntityId.parse``, the
    enum, ``Quantity``, the record's ``__post_init__``), so every
    value-domain check runs. ``clone`` sets the fields of a new instance
    directly: its source is already valid, so no ``__init__`` or
    ``__post_init__`` runs.
    Any other field type raises ``TypeError`` naming the field.
    The methods are generated once, like a dataclass ``__init__``; a second
    call returns at once.
    """
    if cls in _SHARED:
        return cls
    _SHARED[cls] = False  # a record nested in itself is cloned, never shared
    hints, source = typing.get_type_hints(cls), _CodecSource()
    encoded, decoded, copied = [], [], []
    for f in dataclasses.fields(cls):
        try:
            enc, dec, copy = source.expressions(hints[f.name], f"self.{f.name}",
                                                f"data[{f.name!r}]")
        except TypeError:
            raise TypeError(f"{cls.__qualname__}.{f.name}: the record codec cannot "
                            f"encode {hints[f.name]!r}") from None
        encoded.append(f"{f.name!r}: {enc}")
        decoded.append(dec)
        copied.append(copy)
    names = [f.name for f in dataclasses.fields(cls)]
    frozen = cls.__dataclass_params__.frozen
    shared = frozen and copied == [f"self.{name}" for name in names]
    assign = "_set(new, {!r}, {})" if frozen else "new.{} = {}"
    clone = "return self" if shared else "\n    ".join(
        ["new = _new(_cls)"] + [assign.format(name, copy) for name, copy in zip(names, copied)]
        + ["return new"])
    namespace = dict(source.names, _cls=cls, _new=object.__new__, _set=object.__setattr__)
    exec(f"def to_dict(self):\n    return {{{', '.join(encoded)}}}\n"
         f"def from_dict(cls, data):\n    return cls({', '.join(decoded)})\n"
         f"def clone(self):\n    {clone}\n", namespace)
    cls.to_dict, cls.clone = namespace["to_dict"], namespace["clone"]
    cls.from_dict = classmethod(namespace["from_dict"])
    _SHARED[cls] = shared
    return cls


def _wrong(value, expected: type):
    raise SchemaError(f"expected {expected.__name__}, got {value!r}")


class _CodecSource:
    """The expressions of one class's generated methods, and the names
    those expressions use."""

    def __init__(self):
        self.names = {"Quantity": Quantity, "parse_id": EntityId.parse, "_wrong": _wrong}
        self._count = 0

    def _name(self, value) -> str:
        name = f"{value.__name__}_{len(self.names)}"
        self.names[name] = value
        return name

    def _var(self) -> str:
        self._count += 1
        return f"v{self._count}"

    def expressions(self, hint, x: str, d: str) -> tuple[str, str, str]:
        """Encode ``x``, decode ``d`` and copy ``x``, a value of type
        ``hint``; the copy is ``x`` itself when the value is immutable."""
        origin, args = typing.get_origin(hint), typing.get_args(hint)
        if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
            enc, dec, copy = self.expressions(args[args[0] is type(None)], x, d)
            return (x if enc == x else f"(None if {x} is None else {enc})",
                    f"(None if {d} is None else {dec})",
                    x if copy == x else f"(None if {x} is None else {copy})")
        if hint in (int, str, bool):
            return x, self._exact(hint, d), x
        if hint is EntityId:
            return f"str({x})", f"parse_id({d})", x
        if hint is Quantity:
            return f"{x}.value", f"Quantity({self._exact(int, d)})", x
        if isinstance(hint, type) and issubclass(hint, Enum):
            return f"{x}.value", f"{self._name(hint)}({d})", x
        if isinstance(hint, type) and issubclass(hint, Record):
            derive_codec(hint)
            return (f"{x}.to_dict()", f"{self._name(hint)}.from_dict({d})",
                    x if _SHARED[hint] else f"{x}.clone()")
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
        v = self._var()
        if typing.get_origin(hint) is not tuple or ... in typing.get_args(hint):
            return v, v, self.expressions(hint, v, v)
        names = [self._var() for _ in typing.get_args(hint)]
        parts = [self.expressions(a, f"{v}[{i}]", n)
                 for i, (a, n) in enumerate(zip(typing.get_args(hint), names))]
        shared = all(copy == f"{v}[{i}]" for i, (_, _, copy) in enumerate(parts))
        return v, f"({', '.join(names)},)", (
            f"[{', '.join(enc for enc, _, _ in parts)}]",
            f"({', '.join(dec for _, dec, _ in parts)},)",
            v if shared else f"({', '.join(copy for _, _, copy in parts)},)")
