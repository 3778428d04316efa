"""The log reader ``read_log`` replaced: the open file's lines one at a
time, each decoded alone by ``raw_decode`` and built by ``from_dict``. Kept
only as the oracle of the chunked reader: on every log of
``test_log_read.py`` both give equal records or the same ``SchemaError``."""

import json
from sys import intern

from storefront.foundation import DomainError, SchemaError, parse_written_id
from storefront.state import _RAW_FIELD_TYPES, EventRecord, _decode_fact, _shared_access

_DECODE_JSON = json.JSONDecoder().raw_decode


def read_log(path) -> list[EventRecord]:
    """The records of an ``events.jsonl`` file, read a line at a time through
    one memo. A line is accepted only as ``write_log`` writes it: one record
    of ASCII JSON, then a newline; empty lines are skipped."""
    records, memo, line = [], {}, b"\n"
    try:
        with open(path, "rb") as lines:
            for line_number, line in enumerate(lines, start=1):
                if line == b"\n":
                    continue
                try:
                    records.append(from_json_line(line.decode("ascii"), memo))
                except (ValueError, KeyError, TypeError, AttributeError, RecursionError,
                        DomainError) as exc:
                    raise SchemaError(f"{path}:{line_number}: bad event record: "
                                      f"{type(exc).__name__}: {exc}") from None
    except OSError as exc:
        raise SchemaError(f"cannot read log {path}: {exc}") from None
    if line[-1:] != b"\n":
        raise SchemaError(f"{path}:{line_number}: bad event record: no newline at its end")
    return records


def from_json_line(line: str, memo: dict) -> EventRecord:
    """The record of one log line, one JSON object, with or without its newline."""
    data, end = _DECODE_JSON(line)
    if end != len(line) and line[end:] != "\n":
        raise SchemaError(f"text after the record at column {end + 1}")
    return from_dict(data, memo)


def from_dict(data: dict, memo: dict | None = None) -> EventRecord:
    """The record of a parsed log line, its facts decoded and its access
    shared through ``memo`` (a new one when None)."""
    command, payload, access = data["command"], data["payload"], data["access"]
    outcome, error, deltas = data["outcome"], data["error"], data["deltas"]
    if (command.__class__ is not str or payload.__class__ is not dict
            or access.__class__ is not dict or outcome.__class__ is not str
            or error is not None and error.__class__ is not str
            or deltas.__class__ is not list):
        name = next(name for name, expected in _RAW_FIELD_TYPES.items()
                    if data[name].__class__ not in expected)
        raise SchemaError(
            f"record field {name!r} has the wrong JSON type: {data[name]!r}")
    seq, tick = data["seq"], data["tick"]
    if seq.__class__ is not int or tick.__class__ is not int:
        raise SchemaError(f"record seq and tick must be integers: {seq!r}, {tick!r}")
    memo = {} if memo is None else memo
    if outcome not in ("ok", "error", "denied"):
        raise SchemaError(f"record outcome {outcome!r} is none of ok, error, denied")
    # each distinct decision of a read is checked once; its records share it, as live ones do
    decisions = memo.setdefault("access", [])
    for shared in decisions:
        if access == shared:
            break
    else:
        decisions.append(shared := _shared_access(access))
    for number, fact in enumerate(deltas):
        deltas[number] = _decode_fact(fact, memo)
    return EventRecord(seq, tick, parse_written_id(data["actor"]), intern(command), payload,
                       shared, intern(outcome), error and intern(error), data["result"], deltas)
