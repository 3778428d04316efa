"""Paths to the packaged seeds, configs, and scenario corpus; the JSON file
reader, and the memo of what was built from each input file's content."""

from __future__ import annotations

import functools
import json
from importlib import resources
from pathlib import Path

from .foundation import SchemaError


@functools.cache
def data_dir() -> Path:
    """Where the package's data files are; looking it up costs more than
    reading a small one."""
    return Path(str(resources.files("storefront") / "data"))


def catalog_seed() -> Path:
    return data_dir() / "seeds" / "catalog.json"


def stock_seed() -> Path:
    return data_dir() / "seeds" / "stock.json"


def rbac_config() -> Path:
    return data_dir() / "config" / "rbac.json"


def policies_config() -> Path:
    return data_dir() / "config" / "policies.json"


def scenario_dir() -> Path:
    return data_dir() / "scenarios"


def scenario_files() -> list[Path]:
    return sorted(scenario_dir().glob("*.json"))


def read_bytes(path, what: str) -> bytes:
    """The bytes of file ``path``, or a ``SchemaError`` naming ``what``;
    ``open`` takes about half the time ``Path.read_bytes`` does."""
    try:
        with open(path, "rb") as file:
            return file.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {what} {path}: {exc}") from None


def parse_json(data: bytes, path, what: str):
    """The JSON value of ``data``, UTF-8 text read from ``path``, or a
    ``SchemaError`` naming ``what``."""
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:
        raise SchemaError(f"cannot read {what} {path}: {exc}") from None


# What this process built from input files, keyed on what was built and on
# the bytes it was built from, never on a path: the least recently used of
# at most MEMO_SIZE values goes first. A value here is shared by every
# caller, so none may change it. MEMO_SIZE holds the 13 bundled scenarios
# with the access matrix, the policies and a seeded baseline: a cycle
# through more values than it holds would never find one.
MEMO_SIZE = 32
_MEMO: dict = {}
_MISSING = object()


def memoized(key, build):
    """The value ``build()`` returned for an equal ``key`` earlier in this
    process, or ``build()``'s now. An error ``build`` raises is not kept."""
    value = _MEMO.pop(key, _MISSING)
    if value is _MISSING:
        value = build()
        if len(_MEMO) >= MEMO_SIZE:
            del _MEMO[next(iter(_MEMO))]
    _MEMO[key] = value
    return value


def load(path, what: str, build):
    """``build`` of the JSON value in file ``path``, called once per distinct
    content of a ``what`` file in this process; a ``SchemaError`` naming
    ``what`` for a file it cannot read or decode."""
    data = read_bytes(path, what)
    return memoized((what, data), lambda: build(parse_json(data, path, what)))
