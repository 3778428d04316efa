"""Paths to the packaged seeds, configs, and scenario corpus; the JSON file reader."""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .foundation import SchemaError


def data_dir() -> Path:
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


def read_json(path, what: str):
    """The JSON value in file ``path``, or a ``SchemaError`` naming ``what``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SchemaError(f"cannot read {what} {path}: {exc}") from None
