"""Log format 3: a put of an entity the state already holds writes only the
fields that changed, ``access`` holds no sentence, and each payload is an
input its command's parser accepts. Over every test log (the bundled
scenarios, every command, a short run of each dispatch workload): live and
replayed state agree after every record, a read record writes its own line
back, and ``log_v2_oracle`` shows the format-2 bytes the format saves."""

import functools
import json
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import log_v2_oracle
from helpers import bench_engines
from storefront import Engine, bundled, default_matrix, load_scenario, read_log, run_scenario
from storefront.commands import COMMANDS
from storefront.state import STORES, EventRecord, apply_fact, replay
from test_every_command import STEPS
from test_scenario_cli import _full_purchase_log, run_cli

from conftest import fresh_engine


class StatesAtAppend(list):
    """An engine's log that keeps the stores and serials as each record left
    them: dict copies sharing the entities, which are never mutated (None
    for a record appended before the log was installed)."""

    def __init__(self, records=()):
        super().__init__(records)
        self.engine, self.states = None, [None] * len(records)

    def append(self, record) -> None:
        super().append(record)
        state = self.engine.state
        self.states.append(({name: dict(store) for name, store in state.stores.items()},
                            dict(state.serials)))


def _states_log(engine: Engine) -> StatesAtAppend:
    log = StatesAtAppend(engine.state.log)
    log.engine = engine
    return log


def _watched(engine: Engine) -> Engine:
    engine.state.log = _states_log(engine)
    return engine


def _run_steps(engine: Engine) -> Engine:
    for command, args in STEPS:
        engine.dispatch("system:0", command, args)
    return engine


@pytest.fixture(scope="module")
def calls():
    """Each engine's dispatched (command, raw args), in the order of its log."""
    return {}


@pytest.fixture(scope="module")
def engines(calls):
    """(name, engine) for every test log, each engine keeping its states at
    append and the raw args of each command it dispatched."""
    real = Engine.dispatch

    def dispatch(self, actor, command, args=None):
        calls.setdefault(id(self), []).append((command, args))
        return real(self, actor, command, args)

    Engine.dispatch = dispatch
    try:
        found = [("every-command", _run_steps(_watched(fresh_engine())))]
        for path in bundled.scenario_files():
            engine = _watched(fresh_engine(rbac=default_matrix()))
            assert run_scenario(engine, load_scenario(path)).ok, path.stem
            found.append((path.stem, engine))
        found += zip(["shop-mix", "stock-churn"], bench_engines(log=_states_log))
    finally:
        Engine.dispatch = real
    return found


def _lines(engine) -> list[str]:
    return [record.to_json_line() for record in engine.state.log]


def test_live_state_equals_replayed_state_after_every_record(engines, tmp_path):
    for name, engine in engines:
        engine.write_log(tmp_path / "events.jsonl")
        state = engine.baseline().clone_without_log()
        records = read_log(tmp_path / "events.jsonl")
        states = engine.state.log.states
        assert len(records) == len(states) and states[-1] is not None, name
        for record, live in zip(records, states):
            for fact in record.deltas:
                apply_fact(state, fact)
            if live is not None:
                assert (state.stores, state.serials) == live, (name, record.seq)


def test_replaying_the_same_records_twice_gives_equal_states(engines, tmp_path):
    for name, engine in engines:
        engine.write_log(tmp_path / "events.jsonl")
        records = read_log(tmp_path / "events.jsonl")
        first = replay(engine.baseline(), records).to_dict()
        assert replay(engine.baseline(), records).to_dict() == first, name
        assert first == engine.state.to_dict(), name
        # the live records replay to the same state
        assert engine.replayed_state(engine.state.log).to_dict() == first, name


def test_a_read_record_writes_its_own_line_back_before_and_after_replay(engines, tmp_path):
    for name, engine in engines:
        engine.write_log(tmp_path / "events.jsonl")
        lines = (tmp_path / "events.jsonl").read_text(encoding="ascii").splitlines()
        assert lines == _lines(engine), name
        memo = {}
        records = [EventRecord.from_json_line(line, memo) for line in lines]
        assert [record.to_json_line() for record in records] == lines, name
        replay(engine.baseline(), records)
        assert [record.to_json_line() for record in records] == lines, name
        # each put's data is the whole entity now, as a live put's is
        assert all(fact["data"].__class__ is not dict for record in records
                   for fact in record.deltas if fact["f"] == "put"), name


def test_every_logged_payload_parses_back_to_the_args_it_was_written_from(engines, calls):
    checked = 0
    for name, engine in engines:
        dispatched = calls[id(engine)]
        log = engine.state.log
        assert len(dispatched) == len(log), name
        for (command, raw), record in zip(dispatched, log):
            if record.access["verdict"] is None:  # the args did not parse
                continue
            spec = COMMANDS[command]
            args, payload = spec.parse(raw, engine.parse_context)
            assert record.payload == payload, (name, record.seq)
            assert spec.parse(payload, engine.parse_context) == (args, payload), (
                name, record.seq)
            checked += 1
    assert checked > 500
    every = {command for command, _ in calls[id(engines[0][1])]}
    assert every == set(COMMANDS)


def test_a_short_shop_mix_log_takes_at_most_three_quarters_of_its_format2_bytes(
        engines, tmp_path):
    (engine,) = [engine for name, engine in engines if name == "shop-mix"]
    path = tmp_path / "events.jsonl"
    engine.write_log(path)
    written = path.read_bytes()
    format2 = log_v2_oracle.format2_text(engine, read_log(path)).encode()
    assert len(written) <= 0.75 * len(format2), (len(written), len(format2))


# -- verify on mutated format-3 logs ----------------------------------------------

@functools.cache
def _full_purchase_lines() -> tuple[str, ...]:
    with tempfile.TemporaryDirectory() as tmp:
        return tuple(_full_purchase_log(Path(tmp)).read_text(encoding="ascii").splitlines())


def _verify(tmp_path, lines) -> tuple[int, str]:
    log = tmp_path / "events.jsonl"
    log.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return run_cli("verify", str(log))


def _dump(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _puts(lines, full: bool) -> list[tuple[int, int]]:
    """(line index, fact index) of each put that creates an entity (``full``)
    or writes the fields of one that changed."""
    return [(index, position) for index, line in enumerate(lines)
            for position, fact in enumerate(json.loads(line)["deltas"])
            if fact["f"] == "put" and ("id" in fact["data"]) is full]


def _edit_put(lines, where, edit) -> list[str]:
    (index, position), lines = where, list(lines)
    record = json.loads(lines[index])
    edit(record["deltas"][position])
    lines[index] = _dump(record)
    return lines


def _copy_first_full_put_into_the_last_record(lines) -> list[str]:
    (index, position), lines = _puts(lines, full=True)[0], list(lines)
    fact = json.loads(lines[index])["deltas"][position]
    last = json.loads(lines[-1])
    last["deltas"].append(fact)
    lines[-1] = _dump(last)
    return lines


@pytest.mark.parametrize("mutate", [
    lambda lines: _edit_put(lines, _puts(lines, full=False)[0],
                            lambda f: f.update(id=f"{f['id'].partition(':')[0]}:999999")),
    lambda lines: _edit_put(lines, _puts(lines, full=False)[0],
                            lambda f: f["data"].update(id=f["id"])),
    lambda lines: _edit_put(lines, _puts(lines, full=False)[0],
                            lambda f: f["data"].update(no_such_field=1)),
    _copy_first_full_put_into_the_last_record,
    lambda lines: _edit_put(lines, _puts(lines, full=True)[0],
                            lambda f: f["data"].update(id=f"{f['id'].partition(':')[0]}:999999")),
], ids=["changes-to-an-id-never-put", "changes-holding-id", "changes-holding-an-undeclared-field",
        "creates-an-id-that-exists", "data-id-differs-from-the-fact-id"])
def test_verify_refuses_a_put_the_engine_could_not_have_written(tmp_path, mutate):
    code, output = _verify(tmp_path, mutate(_full_purchase_lines()))
    assert code == 2, output
    assert "Traceback" not in output
    assert "error: " in output


_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.text(max_size=4),
                     lambda inner: st.lists(inner, max_size=2)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=2), max_leaves=4)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_verify_of_a_mutated_log_exits_cleanly(tmp_path_factory, data):
    """Dropped, duplicated, swapped or cut lines, and fields deleted from or
    added to a put: ``verify`` never ends in a traceback, and exits 1 or 2
    for each mutation but the two that make a log the engine could have
    written, or that only re-execution tells apart: the last line dropped,
    and a changed field deleted or set to another value of its type."""
    lines = list(_full_purchase_lines())
    last = len(lines) - 1
    kind = data.draw(st.sampled_from(["drop", "duplicate", "swap", "cut", "delete field",
                                      "add field"]))
    index = data.draw(st.integers(0, last), label="line")
    detectable = True
    if kind == "drop":
        del lines[index]
        detectable = index != last
    elif kind == "duplicate":
        lines.insert(index, lines[index])
    elif kind == "swap":
        other = data.draw(st.integers(0, last).filter(lambda other: other != index))
        lines[index], lines[other] = lines[other], lines[index]
    elif kind == "cut":
        lines[index] = lines[index][:data.draw(st.integers(1, len(lines[index]) - 1))]
    else:
        where = data.draw(st.sampled_from(_puts(lines, True) + _puts(lines, False)), label="put")
        fact = json.loads(lines[where[0]])["deltas"][where[1]]
        full = "id" in fact["data"]
        if kind == "delete field":
            assume(fact["data"])
            name = data.draw(st.sampled_from(sorted(fact["data"])), label="field")
            lines = _edit_put(lines, where, lambda f: f["data"].pop(name))
            detectable = full
        else:
            declared = sorted(f.name for f in fields(STORES[fact["store"]][1]))
            name = data.draw(st.sampled_from(declared + ["no_such_field"]), label="field")
            value = fact["id"] if name == "id" else data.draw(_JSON, label="value")
            lines = _edit_put(lines, where, lambda f: f["data"].update({name: value}))
            detectable = name not in declared or name == "id" and not full
    code, output = _verify(tmp_path_factory.mktemp("verify"), lines)
    assert code in ((1, 2) if detectable else (0, 1, 2)), (kind, output)
    assert "Traceback" not in output


def test_verify_names_each_entity_of_an_all_eur_log():
    """A log whose every ``USD`` reads ``EUR``, verified in a USD engine:
    each line, item and payment in the other currency is a violation that
    names its entity; the check stopped at the first before."""
    lines = [line.replace("USD", "EUR") for line in _full_purchase_lines()]
    with tempfile.TemporaryDirectory() as tmp:
        code, output = _verify(Path(tmp), lines)
    assert code == 1, output
    assert "Traceback" not in output and "error" not in output
    for entity, invariant in [("cart:1", "checkout-bijection"), ("order:1", "checkout-bijection"),
                              ("invoice:1", "payment-conservation"),
                              ("invoice:2", "payment-conservation")]:
        assert f"VIOLATION {invariant} @ {entity}: line 0 in EUR, not USD" in output
    assert "VIOLATION payment-conservation @ payment:1: amount in EUR, not USD" in output
