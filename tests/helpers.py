"""Shared lookups and builders for driving a seeded engine in tests."""

import sys
import tempfile
from pathlib import Path

from storefront import SYSTEM, DomainError, Engine

BENCH = Path(__file__).resolve().parents[1] / "bench"


def product_id(engine: Engine, name: str) -> str:
    for pid, product in engine.state.stores["products"].items():
        if product.name == name:
            return str(pid)
    raise LookupError(name)


def stock_item_id(engine: Engine, name: str) -> str:
    for iid, item in engine.state.stores["stock_items"].items():
        if item.name == name:
            return str(iid)
    raise LookupError(name)


def room_id(engine: Engine, name: str) -> str:
    for rid, room in engine.state.stores["stockrooms"].items():
        if room.name == name:
            return str(rid)
    raise LookupError(name)


def catalog_id(engine: Engine) -> str:
    return str(next(iter(engine.state.stores["catalogs"])))


def new_customer(engine: Engine, name="Ana", loyalty=False, roles=("Shopper",)) -> str:
    result = engine.execute(SYSTEM, "create_customer", name=name,
                            loyalty_member=loyalty, roles=list(roles))
    return result["customer"]


def new_employee(engine: Engine, name="Iris", roles=()) -> str:
    result = engine.execute(SYSTEM, "create_employee", name=name, roles=list(roles))
    return result["employee"]


def validated_invoice(engine: Engine, customer: str, items=((1000, 1), (500, 1)),
                      policies=("loyalty-5pct",)) -> str:
    """Create, prepare, and validate an invoice; returns its id."""
    clerk = new_employee(engine, name="clerk-for-invoice", roles=["InvoiceClerk"])
    checker = new_employee(engine, name="validator-for-invoice",
                           roles=["InvoiceValidator"])
    invoice = engine.execute(clerk, "create_invoice", creator=clerk,
                             customer=customer)["invoice"]
    edits = [{"add": {"description": f"item-{i}", "quantity": qty,
                      "unit_price": price}}
             for i, (price, qty) in enumerate(items)]
    engine.execute(clerk, "prepare_invoice", invoice=invoice, edits=edits,
                   policies=list(policies))
    engine.execute(checker, "validate_invoice", validator=checker, invoice=invoice,
                   rules=["nonempty-items", "nonnegative-total"])
    return invoice


class LinesAtAppend(list):
    """An engine's log that keeps the log line of each record as it was
    when the record was appended."""

    def __init__(self, records=()):
        super().__init__(records)
        self.lines = [record.to_json_line() for record in records]

    def append(self, record) -> None:
        super().append(record)
        self.lines.append(record.to_json_line())


def keep_lines_at_append(engine: Engine) -> Engine:
    """Make ``engine`` keep each record's line as it was appended, for
    ``assert_no_record_rewritten``."""
    engine.state.log = LinesAtAppend(engine.state.log)
    return engine


def assert_no_record_rewritten(engine: Engine) -> None:
    """Each record's line when it was appended equals its line in the
    final ``write_log``. A put carries the entity object itself, so a
    domain function that mutates an entity it did not get through
    ``Txn.get_mut`` rewrites the earlier records that hold it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.jsonl"
        engine.write_log(path)
        written = path.read_text(encoding="utf-8").splitlines()
    at_append = engine.state.log.lines
    assert len(written) == len(at_append)
    for seq, (then, now) in enumerate(zip(at_append, written), start=1):
        assert now == then, f"record {seq} was rewritten after it was appended"


def bench_engines(seed: int = 3, scale: float = 0.05, keep_lines: bool = False,
                  log=None) -> list[Engine]:
    """The engine left by a short run of each dispatch workload of the
    benchmark: its set-up, then every command its client sends. With
    ``keep_lines``, each engine keeps its lines at append (see
    ``keep_lines_at_append``) from its first command on; with ``log``, its
    log from then on is ``log(engine)``."""
    if str(BENCH) not in sys.path:
        sys.path.append(str(BENCH))
    from workloads import DISPATCH_WORKLOADS

    engines = []
    for name, (setup, client_fn) in DISPATCH_WORKLOADS.items():
        prepared, failures = setup(seed, scale), []
        if keep_lines:
            keep_lines_at_append(prepared.engine)
        if log is not None:
            prepared.engine.state.log = log(prepared.engine)
        client = client_fn(prepared, failures.append)
        try:
            actor, command, args, _ = next(client)
            while True:
                try:
                    reply = "ok", prepared.engine.dispatch(actor, command, args).result
                except DomainError as exc:
                    reply = exc.code, None
                actor, command, args, _ = client.send(reply)
        except StopIteration:
            pass
        assert failures == [], name
        engines.append(prepared.engine)
    return engines


def assert_plain_json(value, where="") -> None:
    """``value`` holds only exact ``dict`` (with ``str`` keys), ``list``,
    ``str``, ``int``, ``bool`` and ``None``: no enum member, tuple or
    ``Record``, although an enum member or a tuple compares equal to one."""
    cls = value.__class__
    if cls is dict:
        for key, item in value.items():
            assert key.__class__ is str, f"{where}: key {key!r}"
            assert_plain_json(item, f"{where}.{key}")
    elif cls is list:
        for index, item in enumerate(value):
            assert_plain_json(item, f"{where}[{index}]")
    else:
        assert cls in (str, int, bool, type(None)), f"{where}: {cls.__name__} {value!r}"
