"""Scenario runner and CLI contract: exit codes, reports, log verification."""

import contextlib
import hashlib
import io
import json

import pytest

from storefront import bundled
from storefront.cli import main
from storefront.scenario import ParseError, parse_scenario

RBAC = str(bundled.rbac_config())


def run_cli(*argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


def test_every_bundled_scenario_runs_clean(tmp_path):
    assert len(bundled.scenario_files()) == 13
    for path in bundled.scenario_files():
        out_dir = tmp_path / path.stem
        code, output = run_cli("run", str(path), "--rbac", RBAC,
                               "--out", str(out_dir))
        assert code == 0, f"{path.stem}:\n{output}"
        assert (out_dir / "events.jsonl").exists()
        report = json.loads((out_dir / "report.json").read_text())
        assert report["ok"] is True
        assert report["invariants"]["violations"] == []


# sha256 of each bundled scenario's events.jsonl under the bundled access
# matrix. A change here is a log-format change: bump the format version and
# say why in CHANGES.md.
GOLDEN_DIGESTS = {
    "cart-checkout": "369b0c33f1bcbae4aa8ae47e4068dd32e57c4cc0ec9ef340994ddc8cc49c5156",
    "full-purchase": "882cd36a92769f6300ec2b779f5a9db827e752eae98a4ed228e64dff915db379",
    "invoice-lifecycle": "d8ee1f3dd027e7fd57ec3915496843f39206546e3b17170ea1d5d1e437b12d16",
    "invoice-payment": "90cb111364551774ae4c2e158fde087e7e23878990791ce60d6177a7eba94dea",
    "invoice-preparation": "7d2acb86f84e17b4fc9019f28519437146c55ba4e5d00a5ee753369e996a7422",
    "order-fulfillment": "e858908187596f39f61df049cd3696ad633b253d7ad59695b26c5707f6182cda",
    "order-receipt": "3ecf28317f12d8978867ea71cf24890dafb85ec07086f7e125f353563e8c6f41",
    "product-update-notify": "f45714f6b59c1bc908253873f614f3b19399f991df191db75459f8e00bb08a74",
    "rbac-denials": "bbfcdb74bfd6c5a4b180853e8fc3ae272a21ebdd3c3faca681ce2b92fb28a215",
    "separation-of-duty": "f98ee83b8fbe576bf945a657bc71b10c25074dc1f22402a84ca08a8d36f09468",
    "shop-order-fabrication": "47517dfbaccf3430ce6aed25f034d0976a5d7b7e5b8c8cc35ff67581eab743f0",
    "stock-intake": "f6504a322185297783b8ff898383f9e4cf47fb3448022e45e4c7c7d4a02355c0",
    "stock-transfer": "0702ff3781eae06983007e3d499581bf4731adb24a12f66e77ca9764bf386fbc",
}


def test_bundled_scenario_logs_match_golden_digests(tmp_path):
    digests = {}
    for path in bundled.scenario_files():
        out_dir = tmp_path / path.stem
        code, output = run_cli("run", str(path), "--rbac", RBAC, "--out", str(out_dir))
        assert code == 0, output
        digests[path.stem] = hashlib.sha256(
            (out_dir / "events.jsonl").read_bytes()).hexdigest()
    assert digests == GOLDEN_DIGESTS


def test_verify_accepts_every_emitted_log(tmp_path):
    for path in bundled.scenario_files():
        out_dir = tmp_path / path.stem
        code, _ = run_cli("run", str(path), "--rbac", RBAC, "--out", str(out_dir))
        assert code == 0
        code, output = run_cli("verify", str(out_dir / "events.jsonl"))
        assert code == 0, output


def test_verify_flags_missing_line(tmp_path):
    scenario = bundled.scenario_dir() / "cart-checkout.json"
    out_dir = tmp_path / "run"
    run_cli("run", str(scenario), "--rbac", RBAC, "--out", str(out_dir))
    log = out_dir / "events.jsonl"
    lines = log.read_text().splitlines()
    log.write_text("\n".join(lines[:3] + lines[4:]) + "\n")
    code, output = run_cli("verify", str(log))
    assert code == 1
    assert "seq" in output


def test_verify_flags_tampered_quantity(tmp_path):
    scenario = bundled.scenario_dir() / "stock-intake.json"
    out_dir = tmp_path / "run"
    run_cli("run", str(scenario), "--rbac", RBAC, "--out", str(out_dir))
    log = out_dir / "events.jsonl"
    # edit the item's final snapshot so no later put masks the tamper
    tampered = log.read_text().replace('"on_hand":206', '"on_hand":999')
    assert '"on_hand":999' in tampered
    log.write_text(tampered)
    code, output = run_cli("verify", str(log))
    assert code == 1
    assert "stock-conservation" in output


def test_unparsable_scenario_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli("run", str(bad))
    assert code == 2
    shapeless = tmp_path / "shapeless.json"
    shapeless.write_text(json.dumps({"name": "x"}))
    code, _ = run_cli("run", str(shapeless))
    assert code == 2


def test_failed_expectation_exits_one(tmp_path):
    scenario = {
        "name": "wrong-expectation",
        "commands": [
            {"op": "create_customer", "actor": "system",
             "args": {"name": "Ana", "roles": ["Shopper"]}, "as": "ana"}
        ],
        "expectations": [
            {"query": "product_price", "args": {"product": "@product:WidgetA"},
             "expect": {"amount": 1, "currency": "USD"}}
        ],
    }
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(scenario))
    code, output = run_cli("run", str(path), "--out", str(tmp_path / "out"))
    assert code == 1
    assert "FAIL" in output


def test_unexpected_domain_error_fails_run(tmp_path):
    scenario = {
        "name": "unexpected-error",
        "commands": [
            {"op": "create_customer", "actor": "system",
             "args": {"name": "Ana", "roles": ["Shopper"]}, "as": "ana"},
            {"op": "create_cart", "actor": "$ana", "args": {"customer": "$ana"},
             "as": "cart"},
            {"op": "checkout", "actor": "$ana", "args": {"cart": "$cart"}}
        ],
    }
    path = tmp_path / "boom.json"
    path.write_text(json.dumps(scenario))
    code, output = run_cli("run", str(path), "--out", str(tmp_path / "out"))
    assert code == 1
    assert "EmptyCart" in output


def test_expected_error_must_match(tmp_path):
    scenario = {
        "name": "expected-error-mismatch",
        "commands": [
            {"op": "create_customer", "actor": "system",
             "args": {"name": "Ana", "roles": ["Shopper"]}, "as": "ana"},
            {"op": "create_cart", "actor": "$ana", "args": {"customer": "$ana"},
             "as": "cart", "expect_error": "EmptyCart"}
        ],
    }
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(scenario))
    code, _ = run_cli("run", str(path), "--out", str(tmp_path / "out"))
    assert code == 1


def test_reports_are_pure_functions_of_inputs(tmp_path):
    scenario = bundled.scenario_dir() / "full-purchase.json"
    outputs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        code, _ = run_cli("run", str(scenario), "--rbac", RBAC,
                          "--out", str(out_dir))
        assert code == 0
        outputs.append(((out_dir / "report.json").read_bytes(),
                        (out_dir / "events.jsonl").read_bytes()))
    assert outputs[0] == outputs[1]


def test_unresolved_reference_fails_step(tmp_path):
    scenario = {
        "name": "dangling",
        "commands": [
            {"op": "create_cart", "actor": "$ghost", "args": {"customer": "$ghost"}}
        ],
    }
    path = tmp_path / "dangling.json"
    path.write_text(json.dumps(scenario))
    code, output = run_cli("run", str(path), "--out", str(tmp_path / "out"))
    assert code == 1
    assert "UnresolvedReference" in output


def test_verify_rejects_negative_quantity_fact(tmp_path):
    """Negative quantities are outside the value domain; replay refuses them."""
    scenario = bundled.scenario_dir() / "stock-intake.json"
    out_dir = tmp_path / "run"
    run_cli("run", str(scenario), "--rbac", RBAC, "--out", str(out_dir))
    log = out_dir / "events.jsonl"
    log.write_text(log.read_text().replace('"on_hand":206', '"on_hand":-206'))
    code, output = run_cli("verify", str(log))
    assert code == 2
    assert "NegativeQuantity" in output


def test_explicit_policy_and_currency_flags(tmp_path):
    scenario = bundled.scenario_dir() / "invoice-preparation.json"
    code, _ = run_cli("run", str(scenario), "--rbac", RBAC,
                      "--policies", str(bundled.policies_config()),
                      "--currency", "USD", "--out", str(tmp_path / "out"))
    assert code == 0


def test_parse_scenario_rejects_unknown_keys():
    with pytest.raises(ParseError):
        parse_scenario({"name": "x", "commands": [], "extra": 1})
    with pytest.raises(ParseError):
        parse_scenario({"name": "x",
                        "commands": [{"op": "create_cart", "typo": 1}]})
    with pytest.raises(ParseError):
        parse_scenario({"name": "x", "commands": [],
                        "expectations": [{"query": "cart_total"}]})


def _full_purchase_log(tmp_path):
    scenario = bundled.scenario_dir() / "full-purchase.json"
    out_dir = tmp_path / "run"
    code, _ = run_cli("run", str(scenario), "--rbac", RBAC, "--out", str(out_dir))
    assert code == 0
    return out_dir / "events.jsonl"


def _edit_last_put(log, store, edit):
    """Apply ``edit`` to the data of the last put on ``store``, so no later
    record overwrites the change."""
    records = [json.loads(line) for line in log.read_text().splitlines()]
    for record in reversed(records):
        puts = [f for f in record["deltas"] if f["f"] == "put" and f["store"] == store]
        if puts:
            edit(puts[-1]["data"])
            break
    else:
        raise AssertionError(f"no put on {store}")
    log.write_text("".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
                           for r in records))


def _edit_first_record(log, edit):
    """Replace the first record that carries deltas with ``edit(record)``."""
    records = [json.loads(line) for line in log.read_text().splitlines()]
    index = next(i for i, r in enumerate(records) if r["deltas"])
    records[index] = edit(records[index])
    log.write_text("".join(json.dumps(r) + "\n" for r in records))


@pytest.mark.parametrize("malform", [
    lambda log: _edit_last_put(log, "orders", lambda d: d.pop("source_cart")),
    lambda log: _edit_last_put(log, "orders", lambda d: d.update(state="Teleported")),
    lambda log: _edit_first_record(log, lambda r: {**r, "deltas": None}),
    # an invoice put as written before invoices carried their accepted total
    lambda log: _edit_last_put(log, "invoices", lambda d: d.pop("accepted")),
    lambda log: _edit_first_record(log, lambda r: [r]),
    lambda log: _edit_first_record(log, lambda r: {**r, "actor": 7}),
], ids=["missing-field", "bad-enum", "null-deltas", "old-format-invoice",
        "record-not-an-object", "actor-not-a-string"])
def test_verify_rejects_malformed_log_with_exit_two(tmp_path, malform):
    log = _full_purchase_log(tmp_path)
    malform(log)
    code, output = run_cli("verify", str(log))
    assert code == 2, output
    assert "Traceback" not in output
    assert "error: " in output


@pytest.mark.parametrize("store, edit, violation", [
    ("invoices", lambda d: d.update(accepted=d["accepted"] + 1), "payment-conservation"),
    ("orders", lambda d: d["shipped"].update({k: v - 1 for k, v in d["shipped"].items()}),
     "shipment-coverage"),
    ("products", lambda d: d.update(stock_item=None), "catalog-references"),
], ids=["accepted", "shipped", "stock-item"])
def test_verify_rejects_tampered_derived_value(tmp_path, store, edit, violation):
    log = _full_purchase_log(tmp_path)
    _edit_last_put(log, store, edit)
    code, output = run_cli("verify", str(log))
    assert code == 1, output
    assert f"VIOLATION {violation}" in output
    assert "stored" in output
