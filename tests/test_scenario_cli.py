"""Scenario runner and CLI contract: exit codes, reports, log verification."""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from storefront import bundled, cli, default_matrix, load_scenario, read_log, run_scenario
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


# sha256 of each bundled scenario's report.json under the bundled access
# matrix: step outcomes, expectations and the invariant report. A change
# here changes what a run reports, not only how fast it gets there.
REPORT_DIGESTS = {
    "cart-checkout": "381324aa246a4f3c5b4a6a2812e5cc52dcd30bd13d77c57dce8256cdfaa7523e",
    "full-purchase": "70b6efddd5033f72a0eafd91cf21adc6384f34c111ca08fbc1e5492670addb60",
    "invoice-lifecycle": "5cf3d0ee5dfcecc8ae602a0c53ca7ba2517732907a92a37b4b5103d78e9f30ab",
    "invoice-payment": "a7c8d4ade8b52666517889337881f538e820b00feeb1d22fd0b3d1e6e69af8dd",
    "invoice-preparation": "20b476f2196534048360e2411d46c73c4ab2a917ee4f51d0c625e2a12f458adc",
    "order-fulfillment": "ab19ed4eef1b8a56f6653ff6362b58c02dd572c661e5b7b505de48b703218692",
    "order-receipt": "1af66ad2185b31cc5af6b6ea492eefd6993dda1d4b45f5f7e931c9356670be84",
    "product-update-notify": "d13c71cce65f5c34404ac380c14e0931b88372e640c76c384aa3ad19f3b8ab8d",
    "rbac-denials": "0843f8632b218715beeeac73533a657d934a2310983e4924188fbf7cd2251e31",
    "separation-of-duty": "5e0fedb2a69a23d919bbb6d22445af16ab5fd7cd519c02829a879edc5be606ac",
    "shop-order-fabrication": "69061168e214447b4bcb39a031769fef2cdf76fbae7cc5a0919729e11e984634",
    "stock-intake": "8df44f31cd09dca60b99f77f2ddf72f1ba41d8850b50e4b9d385643e6029b8e5",
    "stock-transfer": "95a1e34f7dfebfaf9eef03c25947dd59e83188267e6f8b4eb520ced7b070af19",
}


def test_bundled_scenario_reports_match_golden_digests(tmp_path):
    digests = {}
    for path in bundled.scenario_files():
        out_dir = tmp_path / path.stem
        code, output = run_cli("run", str(path), "--rbac", RBAC, "--out", str(out_dir))
        assert code == 0, output
        digests[path.stem] = hashlib.sha256(
            (out_dir / "report.json").read_bytes()).hexdigest()
    assert digests == REPORT_DIGESTS


def _typed(value):
    """``value`` with the exact class of every node beside it."""
    if isinstance(value, dict):
        return dict, {key: _typed(item) for key, item in value.items()}
    if isinstance(value, list):
        return list, [_typed(item) for item in value]
    return value.__class__, value


def test_live_records_equal_their_log_lines_in_value_types(tmp_path):
    """A live record holds the same JSON values as the record read back
    from its log line, down to the class of each value."""
    for path in bundled.scenario_files():
        args = cli.make_parser().parse_args(["run", str(path), "--rbac", RBAC])
        engine = cli.build_engine(args, default_matrix())
        run_scenario(engine, load_scenario(path))
        log = tmp_path / f"{path.stem}.jsonl"
        engine.write_log(log)
        live = [_typed(record.to_dict()) for record in engine.state.log]
        assert live == [_typed(record.to_dict()) for record in read_log(log)], path.stem


def test_verify_accepts_every_emitted_log(tmp_path):
    for path in bundled.scenario_files():
        out_dir = tmp_path / path.stem
        code, _ = run_cli("run", str(path), "--rbac", RBAC, "--out", str(out_dir))
        assert code == 0
        code, output = run_cli("verify", str(out_dir / "events.jsonl"))
        assert code == 0, output


def test_verify_writes_nothing_to_stderr(tmp_path, capsys, caplog):
    """verify consults no access matrix, so it has no missing one to warn about."""
    scenario = bundled.scenario_dir() / "full-purchase.json"
    out_dir = tmp_path / "run"
    assert main(["run", str(scenario), "--rbac", RBAC, "--out", str(out_dir)]) == 0
    capsys.readouterr()
    caplog.clear()
    assert main(["verify", str(out_dir / "events.jsonl")]) == 0
    assert capsys.readouterr().err == ""
    assert caplog.records == []  # under pytest a logged warning lands here


def test_main_reuses_one_parser(tmp_path, monkeypatch):
    built = []
    make_parser = cli.make_parser
    monkeypatch.setattr(cli, "make_parser", lambda: built.append(1) or make_parser())
    scenario = bundled.scenario_dir() / "cart-checkout.json"
    for _ in range(3):
        code, _ = run_cli("run", str(scenario), "--out", str(tmp_path / "run"))
        assert code == 0
    assert len(built) <= 1


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


@pytest.mark.parametrize("flag, seed", [
    ("--seed-catalog", [{"name": "W", "price": 12.9}]),
    ("--seed-catalog", [{"name": "W", "price": "12"}]),
    ("--seed-catalog", [{"name": "W", "price": True}]),
    ("--seed-catalog", [{"name": "W", "price": 1, "status": "Bogus"}]),
    ("--seed-catalog", [{"name": "W", "price": 1, "info": "text"}]),
    ("--seed-stock", [{"item": "x", "kind": "Component", "rooms": {"Main": 2.7}}]),
    ("--seed-stock", [{"item": "x", "kind": "nope", "rooms": {"Main": 2}}]),
    # wrongly shaped seeds, which ended in a traceback before
    ("--seed-catalog", [{"name": "W", "price": 1, "similar": 5}]),
    ("--seed-catalog", [{"name": "W", "price": 1, "similar": "V"}]),
    ("--seed-catalog", {"name": "W", "price": 1}),
    ("--seed-stock", [{"item": "x", "kind": "Component", "rooms": ["Main"]}]),
    ("--seed-stock", [5]),
])
def test_malformed_seed_value_exits_two(tmp_path, flag, seed):
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(seed))
    scenario = bundled.scenario_dir() / "invoice-preparation.json"
    code, output = run_cli("run", str(scenario), flag, str(path), "--out", str(tmp_path / "out"))
    assert code == 2
    assert f"error: {flag[7:]} seed: expected " in output


def test_parse_scenario_rejects_unknown_keys():
    with pytest.raises(ParseError):
        parse_scenario({"name": "x", "commands": [], "extra": 1})
    with pytest.raises(ParseError):
        parse_scenario({"name": "x",
                        "commands": [{"op": "create_cart", "typo": 1}]})
    with pytest.raises(ParseError):
        parse_scenario({"name": "x", "commands": [],
                        "expectations": [{"query": "cart_total"}]})


@pytest.mark.parametrize("flag, content", [
    ("--rbac", {"roles": [{"rights": []}]}),
    ("--rbac", {"roles": 5}),
    ("--rbac", []),
    ("--rbac", {"roles": [], "extra": 1}),
    ("--rbac", {"roles": [{"name": "Shopper", "rights": [], "extra": 1}]}),
    ("--rbac", {"roles": [{"name": "Shopper", "rights": [], "owner_only": "no"}]}),
    ("--policies", []),
    ("--policies", {"billing_policies": [5]}),
    ("--policies", {"validation_rules": [{"name": "m", "target": "Payment",
                                          "kind": "method-allowed", "methods": "Card"}]}),
    ("--policies", {"billing_policies": [{"name": "l", "kind": "percentage-discount",
                                          "percent": 5, "loyalty_only": "false"}]}),
    ("--policies", {"billing_policies": [{"name": "l", "kind": "percentage-discount",
                                          "percent": 5.9}]}),
    ("--policies", {"billing_policies": [{"name": "l", "kind": "percentage-discount",
                                          "percent": "5"}]}),
    ("--policies", {"billing_policies": [], "extra": 1}),
    (None, {"name": "x", "commands": [], "expectations": 5}),
    (None, {"name": "x", "commands": [{"op": 5}]}),
], ids=["rbac-role-without-name", "rbac-roles-not-a-list", "rbac-top-level-list",
        "rbac-unknown-key", "rbac-unknown-role-key", "rbac-owner-only-string",
        "policies-top-level-list", "policies-entry-not-an-object", "policies-methods-string",
        "policies-loyalty-only-string", "policies-float-percent", "policies-string-percent",
        "policies-unknown-key", "scenario-expectations-not-a-list", "scenario-op-not-a-string"])
def test_malformed_input_file_exits_two(tmp_path, flag, content):
    """Each of these ended in a traceback, or loaded as something else."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    scenario = bundled.scenario_dir() / "cart-checkout.json"
    argv = ["run", str(path)] if flag is None else ["run", str(scenario), flag, str(path)]
    code, output = run_cli(*argv, "--out", str(tmp_path / "out"))
    assert code == 2, output
    assert "error: " in output
    assert "Traceback" not in output


JSON_LEAF = st.none() | st.booleans() | st.integers(-2, 3) | st.text(max_size=3)
STEPS = st.fixed_dictionaries(
    {"op": st.integers(0, 9).flatmap(
        lambda n: JSON_LEAF if n == 0 else st.sampled_from(["create_customer", "create_cart",
                                                             "add_item", "bogus"]))},
    optional={"actor": st.sampled_from(["system", "customer:1", "$c"]),
              "args": st.dictionaries(st.sampled_from(["name", "customer", "cart", "qty"]),
                                      JSON_LEAF | st.just("customer:1"), max_size=3),
              "as": st.just("c")})


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(STEPS, max_size=4))
def test_every_scenario_the_loader_accepts_runs_to_a_log_that_verifies(steps):
    scenario = {"name": "generated", "commands": steps}
    try:
        parse_scenario(scenario)
    except ParseError:
        assume(False)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "scenario.json", Path(tmp) / "out"
        path.write_text(json.dumps(scenario))
        code, output = run_cli("run", str(path), "--out", str(out))
        assert code in (0, 1), output
        code, output = run_cli("verify", str(out / "events.jsonl"))
        assert code == 0, (scenario, output)


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


def _edit_first_fact(log, f, edit):
    """Apply ``edit`` to the first fact of kind ``f`` in the log."""
    records = [json.loads(line) for line in log.read_text().splitlines()]
    fact = next(fact for r in records for fact in r["deltas"] if fact["f"] == f)
    edit(fact)
    log.write_text("".join(json.dumps(r) + "\n" for r in records))


def _edit_line(log, edit):
    """Replace the first line of the log with ``edit(line)``."""
    first, rest = log.read_text().split("\n", 1)
    log.write_text(edit(first) + "\n" + rest)


@pytest.mark.parametrize("malform", [
    lambda log: _edit_last_put(log, "orders", lambda d: d.pop("source_cart")),
    lambda log: _edit_last_put(log, "orders", lambda d: d.update(state="Teleported")),
    lambda log: _edit_first_record(log, lambda r: {**r, "deltas": None}),
    # an invoice put as written before invoices carried their accepted total
    lambda log: _edit_last_put(log, "invoices", lambda d: d.pop("accepted")),
    lambda log: _edit_first_record(log, lambda r: [r]),
    lambda log: _edit_first_record(log, lambda r: {**r, "actor": 7}),
    lambda log: _edit_first_record(log, lambda r: {**r, "access": 5}),
    lambda log: _edit_first_record(log, lambda r: {**r, "payload": [1]}),
    lambda log: _edit_first_record(log, lambda r: {**r, "outcome": None}),
    # JSON types an int field must not take, though int(...) would accept them
    lambda log: _edit_last_put(log, "invoices", lambda d: d.update(accepted=d["accepted"] + 0.9)),
    lambda log: _edit_last_put(log, "invoices", lambda d: d.update(accepted=str(d["accepted"]))),
    lambda log: _edit_first_record(log, lambda r: {**r, "seq": True}),
    lambda log: _edit_first_record(log, lambda r: {**r, "tick": str(r["tick"])}),
    # a string where a list belongs would decode as its characters
    lambda log: _edit_last_put(log, "customers", lambda d: d.update(roles="Shopper")),
    # serial and put facts the engine never writes
    lambda log: _edit_first_fact(log, "serial", lambda f: f.update(value="1")),
    lambda log: _edit_first_fact(log, "serial", lambda f: f.update(value=True)),
    lambda log: _edit_first_fact(log, "serial", lambda f: f.update(kind=5)),
    lambda log: _edit_first_fact(log, "serial", lambda f: f.update(kind="system")),
    lambda log: _edit_last_put(log, "customers", lambda d: d.update(id="customer:2")),
    lambda log: _edit_first_fact(log, "put", lambda f: (f.update(id="cart:1"),
                                                        f["data"].update(id="cart:1"))),
    # the later occurrence of a frozen value that earlier puts hold intact
    lambda log: _edit_last_put(log, "carts", lambda d: d["items"][1].update(quantity=True)),
    lambda log: _edit_last_put(log, "carts", lambda d: d["items"][0]["unit_price"].update(
        amount=float(d["items"][0]["unit_price"]["amount"]))),
    lambda log: _edit_last_put(log, "invoices", lambda d: d["items"][0].update(
        description=[d["items"][0]["description"]])),
    lambda log: _edit_last_put(log, "carts", lambda d: d.update(state="open")),
    lambda log: _edit_last_put(log, "carts", lambda d: d.update(state=["Open"])),
    lambda log: _edit_line(log, lambda line: line + " {}"),
], ids=["missing-field", "bad-enum", "null-deltas", "old-format-invoice",
        "record-not-an-object", "actor-not-a-string", "access-not-an-object",
        "payload-not-an-object", "outcome-not-a-string", "float-in-int-field",
        "string-in-int-field", "bool-seq", "string-tick", "string-for-a-list",
        "string-serial", "bool-serial", "int-serial-kind", "unstored-serial-kind",
        "put-of-another-id", "put-of-another-kind", "bool-quantity-repeat",
        "float-amount-repeat", "list-description-repeat", "enum-not-a-member",
        "enum-not-a-string", "text-after-record"])
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
