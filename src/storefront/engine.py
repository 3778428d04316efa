"""The composed domain engine: serialized command dispatch with an access
check in front, an append-only event log behind, and a replay oracle.

Every command follows one path: schema-parse the arguments, consult the
access matrix, run the target operation inside a transaction, and append
exactly one event record. Denied and failed commands append a non-mutating
audit record and raise. That path is one generated function per command,
its ``CommandSpec.envelope``: dispatch interns the actor, takes the seq and
the tick, and hands over. Two runs over the same seeds and commands produce
byte-identical logs — the clock is logical and every iteration order is
pinned.
"""

from __future__ import annotations

import logging
from pathlib import Path

from . import catalog as catalog_mod
from . import invariants as invariants_mod
from . import stock_manager
# dispatch calls neither parse_args nor canonical_payload, which each
# envelope inlines; the names stay here, where the bench's tracer hooks them
from .commands import COMMANDS, ParseContext, canonical_payload, parse_args  # noqa: F401
from .commands import best_effort, parse_input
from .foundation import _IDS, EntityId, Quantity, SchemaError
from .invoice import RuleBook, default_rulebook
from .queries import run_query
from .rbac import RbacMatrix, permissive_matrix
from .state import NOT_EVALUATED, EngineState, EventRecord, Txn, read_records, replay

logger = logging.getLogger("storefront.engine")


class Engine:
    """One strictly serialized command processor over one state."""

    def __init__(self, currency: str = "USD", rulebook: RuleBook | None = None,
                 rbac_matrix: RbacMatrix | None = None,
                 add_policy: str = "first-room"):
        if add_policy not in stock_manager.ADD_POLICIES:
            raise SchemaError(f"unknown stock distribution policy {add_policy!r}")
        if rbac_matrix is None:
            logger.warning("no access matrix loaded; running permissive")
            rbac_matrix = permissive_matrix()
        self.currency = currency
        self.rulebook = rulebook or default_rulebook()
        self.rbac = rbac_matrix
        self.add_policy = add_policy
        self.state = EngineState()
        self.parse_context = ParseContext(currency=currency)
        self._baseline: EngineState | None = None

    # -- seeding -----------------------------------------------------------

    def _seed_txn(self) -> Txn:
        if self.state.log:
            raise SchemaError("seeds must load before the first command")
        self._baseline = None
        return Txn(self.state)

    def seed_catalog(self, entries: list[dict], catalog_name: str = "main") -> EntityId:
        """Load the catalog seed, declared in ``commands.INPUT_FILES``:
        [{name, price, status?, info?, similar?}], status ``Regular`` when absent."""
        entries = parse_input("catalog seed", entries, self.parse_context)
        txn = self._seed_txn()
        catalog_id = catalog_mod.create_catalog(txn, catalog_name)
        by_name: dict[str, EntityId] = {}
        for entry in entries:
            name = entry["name"]
            if name in by_name:
                raise SchemaError(f"catalog seed: duplicate product {name!r}")
            by_name[name] = catalog_mod.add_product(
                txn, catalog_id, name, entry["price"],
                entry.get("status", catalog_mod.ProductStatus.REGULAR))
            info = entry.get("info")
            if info:
                catalog_mod.set_product_info(txn, by_name[name], info.get("description", ""),
                                             info.get("comparison_notes", ""))
        for entry in entries:
            product_id = by_name[entry["name"]]
            for other in entry.get("similar", ()):
                if other not in by_name:
                    raise SchemaError(f"catalog seed: similar link to unknown {other!r}")
                if by_name[other] not in self.state.stores["products"][product_id].similar:
                    catalog_mod.link_similar(txn, product_id, by_name[other])
        return catalog_id

    def seed_stock(self, entries: list[dict]) -> None:
        """Load the stock seed, declared in ``commands.INPUT_FILES``: [{item,
        kind, rooms?: {room name: qty}}]. Stockrooms are created in order of
        first mention; product items link to the catalog product of the same
        name when one exists."""
        entries = parse_input("stock seed", entries, self.parse_context)
        txn = self._seed_txn()
        rooms: dict[str, EntityId] = {
            room.name: rid for rid, room in self.state.stores["stockrooms"].items()}
        products_by_name = {product.name: pid for pid, product
                            in self.state.stores["products"].items()}
        for entry in entries:
            name, kind, placed = entry["item"], entry["kind"], entry.get("rooms", {})
            link = (products_by_name.get(name)
                    if kind is stock_manager.StockKind.PRODUCT else None)
            item_id = stock_manager.create_stock_item(txn, name, kind, link)
            for room_name in placed:
                if room_name not in rooms:
                    rooms[room_name] = stock_manager.create_stockroom(txn, room_name)
            qty = Quantity(sum(placed.values()))
            if qty.value:
                stock_manager.add_to_stock(
                    txn, item_id, qty, {rooms[room_name]: n for room_name, n in placed.items()})

    def baseline(self) -> EngineState:
        """The seeded pre-command state; replays start here."""
        if self._baseline is None:
            self._baseline = self.state.clone_without_log()
        return self._baseline

    def start_from(self, baseline: EngineState) -> None:
        """Take ``baseline``, the ``baseline()`` of an engine seeded alike, as
        this engine's seeded state instead of seeding again. It stays shared:
        the state is a clone, and a committed entity is never mutated."""
        if self.state.log:
            raise SchemaError("seeds must load before the first command")
        self._baseline = baseline
        self.state = baseline.clone_without_log()

    # -- access ------------------------------------------------------------

    def access_decision(self, actor: EntityId, command: str, args: dict):
        """The decision the envelope of ``command`` takes for ``actor`` on
        the parsed ``args``, made by the same generated lines."""
        return COMMANDS[command].decide(self, actor, args)

    # -- dispatch ------------------------------------------------------------

    def dispatch(self, actor, command: str, args: dict | None = None) -> EventRecord:
        """Run one command end to end, appending exactly one event record.

        Raises the operation's DomainError (or AccessDenied / SchemaError)
        after the audit record lands; the record for a failed command
        never carries deltas. An actor that is neither an ``EntityId`` nor
        id text is a ``SchemaError`` before the seq and the tick are taken,
        so it leaves no record.
        """
        if self._baseline is None:
            self.baseline()
        if actor.__class__ is not EntityId:
            actor = (actor.__class__ is str and _IDS.get(actor)) or EntityId.parse(actor)
        state = self.state
        seq = len(state.log) + 1
        state.clock = tick = state.clock + 1
        spec = COMMANDS.get(command)
        if spec is None:
            state.log.append(EventRecord(seq, tick, actor, command, best_effort(args or {}),
                                         NOT_EVALUATED, "error", "SchemaError"))
            raise SchemaError(f"unknown command {command!r}")
        return spec.envelope(self, actor, args or {}, seq, tick)

    def execute(self, actor, command: str, **args):
        """Dispatch and return the command's result value."""
        return self.dispatch(actor, command, args).result

    # -- queries, oracle, verification -----------------------------------------

    def query(self, name: str, **args):
        return run_query(self, name, args)

    def replayed_state(self, records: list[EventRecord] | None = None) -> EngineState:
        """Rebuild state from the baseline plus event records — no business
        logic runs; this is the independent oracle for dispatch. With no
        records, the log's records are written and read back in memory, so
        the oracle checks the log writer and reader too."""
        if records is None:
            records = read_records((f"{record.to_json_line()}\n".encode()
                                    for record in self.state.log), "engine log")
        return replay(self.baseline(), records)

    def check_invariants(self) -> invariants_mod.InvariantReport:
        return invariants_mod.check_invariants(self)

    def write_log(self, path) -> None:
        """Write the log one line at a time; a failed write removes the file."""
        out = open(path, "w", encoding="utf-8")
        try:
            with out:
                out.writelines(record.to_json_line() + "\n" for record in self.state.log)
        except BaseException:
            Path(path).unlink(missing_ok=True)
            raise


def read_log(path) -> list[EventRecord]:
    """The records of an ``events.jsonl`` file, read as ``read_records`` reads
    lines, so that no more than 64 of its lines are held at a time. A fault
    in the log, or a path that cannot be read, is a ``SchemaError`` naming
    the line or the path."""
    try:
        with open(path, "rb") as lines:
            return read_records(lines, path)
    except OSError as exc:
        raise SchemaError(f"cannot read log {path}: {exc}") from None
