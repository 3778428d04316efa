"""Log format 3 turned back into log format 2, the format before a put wrote
only the fields that changed: each put as its entity's full snapshot, each
``access`` in its long form (the reason through ``rbac.reason_text``) and
each payload as ``commands.canonical_payload`` of the args it parses to.
Kept only as the proof that format 3 loses nothing: the digests of the
format-2 logs stay pinned against what this writes."""

from storefront.commands import COMMANDS, canonical_payload
from storefront.foundation import json_text
from storefront.rbac import reason_text
from storefront.state import replay


def format2_text(engine, records) -> str:
    """The format-2 log of ``records``, read from a format-3 log written by
    an engine configured and seeded as ``engine``. Replaying them over its
    baseline makes each put's data the whole entity."""
    replay(engine.baseline(), records)
    return "".join(json_text(format2_record(engine, record)) + "\n" for record in records)


def format2_record(engine, record) -> dict:
    access, command = record.access, record.command
    payload = record.payload
    if access["verdict"] is not None:  # the args parsed: their format-2 form
        payload = canonical_payload(COMMANDS[command].parse(payload, engine.parse_context)[0])
    return {
        "seq": record.seq, "tick": record.tick, "actor": record.actor._text,
        "command": command, "payload": payload,
        "access": {"verdict": access["verdict"], "matched_role": access["role"],
                   "reason": reason_text(access, command)},
        "outcome": record.outcome, "error": record.error, "result": record.result,
        "deltas": [{"f": "put", "store": fact["store"], "id": fact["id"],
                    "data": fact["data"].to_dict()} if fact["f"] == "put" else fact
                   for fact in record.deltas],
    }
