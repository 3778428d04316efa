"""Scenario runner and CLI contract: exit codes, reports, log verification."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import log_v2_oracle

from storefront import (Engine, bundled, cli, default_matrix, load_scenario, permissive_matrix,
                        read_log, run_scenario)
from storefront.cli import main
from storefront.foundation import SchemaError
from storefront.invoice import RuleBook
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
# matrix, in log format 3. A change here is a log-format change: bump the
# format version and say why in CHANGES.md.
GOLDEN_DIGESTS = {
    "cart-checkout": "b4e73c2ca409785800f6a34eb5f96a630bd15375913db539cdee01401d993baa",
    "full-purchase": "f91bd142b5c719b167d2d05d15ef7d1155accf69b9cb77f137761bd25c62d91e",
    "invoice-lifecycle": "0810743c32b17bd880cfd3673c358da22576ff3b92ff26498a74e0599040caae",
    "invoice-payment": "23b153f3093fefc02095e507891238bad358a10d25cf732a03af28f4f00dde81",
    "invoice-preparation": "cb820a5b9ee7b3ef0d317502fdb491ecaa121c3db3f7de6e8d0eec0b522371f6",
    "order-fulfillment": "c0e0ab7fa7c4c03793cb215badb9d024edf200b1306ff3bd4102f219f8b09e24",
    "order-receipt": "a9e53941949d8abdf124a3e3f07c308ae841449d3850116c709ba2db27ec6555",
    "product-update-notify": "29fc2edc73e6ae1933b06d209e6f22d5784013606022933d100990cd1f0ede34",
    "rbac-denials": "45bf775b6a5b9e739e8cd8464fd21d16df1b8dede59efd4a8dfa79bab0f44909",
    "separation-of-duty": "3af9e68bf695152dc916f12eb2499cfbd93ae99296bb7c4bd2867d98d5f56ece",
    "shop-order-fabrication": "fb3ac9a286c6c7b7263152191591552c1ea786e245139078283c326871b6ed80",
    "stock-intake": "7719a099c81f8902a91662813c887ed5ca3a9e3ca3a0939f2b1710ffd083cc7f",
    "stock-transfer": "cd2d4542d287fba94ad2e5d7fb7da6f8c623eac0318bcd1d2a4451f7f4546db8",
}

# the same logs in log format 2, as ``log_v2_oracle`` writes a format-3
# log back: format 3 loses nothing these pinned
FORMAT2_DIGESTS = {
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


def test_bundled_scenario_logs_read_back_to_their_format2_digests(tmp_path):
    digests = {}
    for path in bundled.scenario_files():
        out_dir = tmp_path / path.stem
        code, output = run_cli("run", str(path), "--rbac", RBAC, "--out", str(out_dir))
        assert code == 0, output
        log = out_dir / "events.jsonl"
        args = cli.make_parser().parse_args(["verify", str(log)])
        engine = cli.build_engine(args, permissive_matrix())
        digests[path.stem] = hashlib.sha256(
            log_v2_oracle.format2_text(engine, read_log(log)).encode()).hexdigest()
    assert digests == FORMAT2_DIGESTS


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


def test_runs_sharing_one_seeded_baseline_write_the_golden_bytes(tmp_path):
    """Every run and verify in one process starts from one memoized seeded
    baseline, whose entities they share: in either order, each run writes
    its golden log and report, and the baseline stays as seeded, though
    stock-transfer and product-update-notify change seeded entities."""
    def shared_baseline():
        args = cli.make_parser().parse_args(["verify", "events.jsonl"])
        return cli.build_engine(args, permissive_matrix()).baseline()
    baseline = shared_baseline()
    paths = bundled.scenario_files()
    for order in (paths, paths[::-1]):
        logs, reports = {}, {}
        for path in order:
            out_dir = tmp_path / path.stem
            code, output = run_cli("run", str(path), "--rbac", RBAC, "--out", str(out_dir))
            assert code == 0, output
            code, output = run_cli("verify", str(out_dir / "events.jsonl"))
            assert code == 0, output
            logs[path.stem], reports[path.stem] = (
                hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                for name in ("events.jsonl", "report.json"))
        assert logs == GOLDEN_DIGESTS
        assert reports == REPORT_DIGESTS
    assert shared_baseline() is baseline
    fresh = Engine()
    fresh.seed_catalog(bundled.read_json(bundled.catalog_seed(), "catalog seed"))
    fresh.seed_stock(bundled.read_json(bundled.stock_seed(), "stock seed"))
    assert baseline.to_dict() == fresh.baseline().to_dict()


def test_full_purchase_is_byte_identical_across_hash_seeds(tmp_path):
    """Ids hash by address and strings by a per-process seed, so no output
    may depend on the iteration order of a set: two processes with other
    seeds write the same bytes, and the golden ones."""
    scenario = bundled.scenario_dir() / "full-purchase.json"
    outputs = []
    for seed in ("1", "4242"):
        out_dir = tmp_path / seed
        subprocess.run([sys.executable, "-m", "storefront.cli", "run", str(scenario),
                        "--rbac", RBAC, "--out", str(out_dir)], check=True,
                       capture_output=True, env={**os.environ, "PYTHONHASHSEED": seed,
                                                 "PYTHONPATH": os.pathsep.join(sys.path)})
        outputs.append([(out_dir / name).read_bytes()
                        for name in ("events.jsonl", "report.json")])
    assert outputs[0] == outputs[1]
    assert [hashlib.sha256(data).hexdigest() for data in outputs[0]] == [
        GOLDEN_DIGESTS["full-purchase"], REPORT_DIGESTS["full-purchase"]]


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


MALFORMED_SEEDS = [
    ("--seed-catalog", [{"name": "W", "price": 12.9}], "[0].price: "),
    ("--seed-catalog", [{"name": "W", "price": "12"}], "[0].price: "),
    ("--seed-catalog", [{"name": "W", "price": True}], "[0].price: "),
    ("--seed-catalog", [{"name": "W", "price": 1, "status": "Bogus"}], "[0].status: "),
    ("--seed-catalog", [{"name": "W", "price": 1, "info": "text"}], "[0].info: "),
    ("--seed-stock", [{"item": "x", "kind": "Component", "rooms": {"Main": 2.7}}],
     "[0].rooms[Main]: "),
    ("--seed-stock", [{"item": "x", "kind": "nope", "rooms": {"Main": 2}}], "[0].kind: "),
    # wrongly shaped seeds, which ended in a traceback before
    ("--seed-catalog", [{"name": "W", "price": 1, "similar": 5}], "[0].similar: "),
    ("--seed-catalog", [{"name": "W", "price": 1, "similar": "V"}], "[0].similar: "),
    ("--seed-catalog", {"name": "W", "price": 1}, ""),
    ("--seed-stock", [{"item": "x", "kind": "Component", "rooms": ["Main"]}], "[0].rooms: "),
    ("--seed-stock", [5], "[0]: "),
    # the path of a value deep in a later entry
    ("--seed-catalog", [{"name": "V", "price": 1},
                        {"name": "W", "price": 1, "similar": ["V", 3]}], "[1].similar[1]: "),
    ("--seed-stock", [{"item": "x", "kind": "Component"},
                      {"item": "y", "kind": "Component", "rooms": {"A": 1, "B": "2"}}],
     "[1].rooms[B]: "),
]


@pytest.mark.parametrize("flag, seed, at", MALFORMED_SEEDS,
                         ids=[f"{flag}-seed{i}" for i, (flag, _, _) in enumerate(MALFORMED_SEEDS)])
def test_malformed_seed_value_exits_two(tmp_path, flag, seed, at):
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(seed))
    scenario = bundled.scenario_dir() / "invoice-preparation.json"
    code, output = run_cli("run", str(scenario), flag, str(path), "--out", str(tmp_path / "out"))
    assert code == 2
    assert f"error: {flag[7:]} seed: {at}expected " in output


@pytest.mark.parametrize("data, message", [
    ({"name": "x", "commands": [{"op": "create_cart"}, {"op": 5}]},
     "commands[1].op: expected string, got 5"),
    ({"name": "x", "commands": [{"op": "create_cart", "args": []}]},
     "commands[0].args: expected object, got []"),
    ({"name": "x", "commands": [], "expectations": [{"query": "q", "expect": 1},
                                                    {"query": "q", "expect": 1, "x": 1}]},
     "expectations[1]: unexpected fields: ['x']"),
], ids=["op", "args", "expectation-key"])
def test_scenario_error_names_the_path(data, message):
    with pytest.raises(ParseError) as raised:
        parse_scenario(data, "s.json")
    assert str(raised.value) == f"s.json: scenario: {message}"


def test_policy_config_error_names_the_path():
    config = {"billing_policies": [], "validation_rules": [
        {"name": "m", "target": "Payment", "kind": "method-allowed", "methods": ["Card"]},
        {"name": "n", "target": "Payment", "kind": "method-allowed", "methods": ["Card", 7]}]}
    with pytest.raises(SchemaError) as raised:
        RuleBook.from_config(config)
    assert str(raised.value).startswith(
        "policy config: validation_rules[1].methods[1]: expected one of [")


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


def _edit_last_put(log, store, edit, holding=None):
    """Apply ``edit`` to the data of the last put on ``store`` that holds the
    field ``holding`` (any put when None), so no later record overwrites
    the change: a put writes only the fields that changed, and ``id`` only
    when it creates the entity."""
    records = [json.loads(line) for line in log.read_text().splitlines()]
    for record in reversed(records):
        puts = [f for f in record["deltas"] if f["f"] == "put" and f["store"] == store
                and (holding is None or holding in f["data"])]
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
    first, rest = log.read_text(encoding="utf-8").split("\n", 1)
    log.write_text(edit(first) + "\n" + rest, encoding="utf-8")


# the first line framed as the log writer never writes it: each of these
# characters is whitespace to ``str.strip``, and ``\r`` ends a line in
# universal-newline reading
MISFRAMED = [
    lambda line: "\u00a0" + line,
    lambda line: line + "\x1f",
    lambda line: line + "\r",
    # the writer escapes every character outside ASCII
    lambda line: line.replace('"actor":"system:0"', '"actor":"system:0","note":"\u00e9"', 1),
]
MISFRAMED_IDS = ["leading-nbsp", "trailing-unit-separator", "crlf-ending", "raw-non-ascii"]


@pytest.mark.parametrize("malform", [
    lambda log: _edit_last_put(log, "orders", lambda d: d.pop("source_cart"), "source_cart"),
    lambda log: _edit_last_put(log, "orders", lambda d: d.update(state="Teleported"), "state"),
    lambda log: _edit_first_record(log, lambda r: {**r, "deltas": None}),
    # an invoice put as written before invoices carried their accepted total
    lambda log: _edit_last_put(log, "invoices", lambda d: d.pop("accepted"), "id"),
    lambda log: _edit_first_record(log, lambda r: [r]),
    lambda log: _edit_first_record(log, lambda r: {**r, "actor": 7}),
    lambda log: _edit_first_record(log, lambda r: {**r, "access": 5}),
    lambda log: _edit_first_record(log, lambda r: {**r, "payload": [1]}),
    lambda log: _edit_first_record(log, lambda r: {**r, "outcome": None}),
    # JSON types an int field must not take, though int(...) would accept them
    lambda log: _edit_last_put(log, "invoices", lambda d: d.update(accepted=d["accepted"] + 0.9),
                                "accepted"),
    lambda log: _edit_last_put(log, "invoices", lambda d: d.update(accepted=str(d["accepted"])),
                                "accepted"),
    lambda log: _edit_first_record(log, lambda r: {**r, "seq": True}),
    lambda log: _edit_first_record(log, lambda r: {**r, "tick": str(r["tick"])}),
    # a string where a list belongs would decode as its characters
    lambda log: _edit_last_put(log, "customers", lambda d: d.update(roles="Shopper"), "roles"),
    # serial and put facts the engine never writes
    lambda log: _edit_first_fact(log, "serial", lambda f: f.update(value="1")),
    lambda log: _edit_first_fact(log, "serial", lambda f: f.update(value=True)),
    lambda log: _edit_first_fact(log, "serial", lambda f: f.update(kind=5)),
    lambda log: _edit_first_fact(log, "serial", lambda f: f.update(kind="system")),
    lambda log: _edit_last_put(log, "customers", lambda d: d.update(id="customer:2"), "id"),
    lambda log: _edit_first_fact(log, "put", lambda f: (f.update(id="cart:1"),
                                                        f["data"].update(id="cart:1"))),
    # the later occurrence of a frozen value that earlier puts hold intact
    lambda log: _edit_last_put(log, "carts", lambda d: d["items"][1].update(quantity=True),
                                "items"),
    lambda log: _edit_last_put(log, "carts", lambda d: d["items"][0]["unit_price"].update(
        amount=float(d["items"][0]["unit_price"]["amount"])), "items"),
    lambda log: _edit_last_put(log, "invoices", lambda d: d["items"][0].update(
        description=[d["items"][0]["description"]]), "items"),
    lambda log: _edit_last_put(log, "carts", lambda d: d.update(state="open"), "state"),
    lambda log: _edit_last_put(log, "carts", lambda d: d.update(state=["Open"]), "state"),
    lambda log: _edit_line(log, lambda line: line + " {}"),
    *[lambda log, edit=edit: _edit_line(log, edit) for edit in MISFRAMED[:3]],
    # deeper than the JSON decoder recurses
    lambda log: _edit_line(log, lambda line: "[" * 100_000 + "]" * 100_000),
], ids=["missing-field", "bad-enum", "null-deltas", "old-format-invoice",
        "record-not-an-object", "actor-not-a-string", "access-not-an-object",
        "payload-not-an-object", "outcome-not-a-string", "float-in-int-field",
        "string-in-int-field", "bool-seq", "string-tick", "string-for-a-list",
        "string-serial", "bool-serial", "int-serial-kind", "unstored-serial-kind",
        "put-of-another-id", "put-of-another-kind", "bool-quantity-repeat",
        "float-amount-repeat", "list-description-repeat", "enum-not-a-member",
        "enum-not-a-string", "text-after-record", *MISFRAMED_IDS[:3], "nested-too-deep"])
def test_verify_rejects_malformed_log_with_exit_two(tmp_path, malform):
    log = _full_purchase_log(tmp_path)
    malform(log)
    code, output = run_cli("verify", str(log))
    assert code == 2, output
    assert "Traceback" not in output
    assert "error: " in output


@pytest.mark.parametrize("edit", MISFRAMED, ids=MISFRAMED_IDS)
def test_verify_names_the_line_of_a_misframed_record(tmp_path, edit):
    log = _full_purchase_log(tmp_path)
    assert '"actor":"system:0"' in log.read_text().split("\n", 1)[0]
    _edit_line(log, edit)
    code, output = run_cli("verify", str(log))
    assert code == 2, output
    assert "Traceback" not in output
    assert f"error: {log}:1: bad event record: " in output


def test_verify_names_the_line_of_bytes_that_are_not_text(tmp_path):
    log = _full_purchase_log(tmp_path)
    first, rest = log.read_bytes().split(b"\n", 1)
    log.write_bytes(first + b"\n" + first.replace(b"system:0", b"system:\xff0", 1) + b"\n" + rest)
    code, output = run_cli("verify", str(log))
    assert code == 2, output
    assert f"error: {log}:2: bad event record: UnicodeDecodeError: " in output


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_verify_of_a_path_it_cannot_read_exits_two(tmp_path, where):
    # both ended in a traceback and exit 1, the code for violations found
    path = tmp_path / "no-such-events.jsonl" if where == "missing" else tmp_path
    code, output = run_cli("verify", str(path))
    assert code == 2, output
    assert output.startswith(f"error: cannot read log {path}: "), output
    assert output.count("\n") == 1, output


@pytest.mark.parametrize("where", ["out-is-a-file", "out-under-a-file", "log-is-a-directory",
                                   "report-is-a-directory"])
def test_run_to_an_output_it_cannot_write_exits_two(tmp_path, where):
    # an --out naming a file ended in a traceback and exit 1, the code for violations found
    (tmp_path / "file").write_text("")
    out, failing = {
        "out-is-a-file": (tmp_path / "file", tmp_path / "file"),
        "out-under-a-file": (tmp_path / "file" / "out", tmp_path / "file" / "out"),
        "log-is-a-directory": (tmp_path / "out", tmp_path / "out" / "events.jsonl"),
        "report-is-a-directory": (tmp_path / "out", tmp_path / "out" / "report.json"),
    }[where]
    if where.endswith("directory"):
        failing.mkdir(parents=True)
    scenario = bundled.scenario_dir() / "cart-checkout.json"
    code, output = run_cli("run", str(scenario), "--rbac", RBAC, "--out", str(out))
    assert code == 2, output
    assert output.startswith(f"error: cannot write {failing}: "), output
    assert output.count("\n") == 1, output


def test_verify_skips_empty_lines(tmp_path):
    log = _full_purchase_log(tmp_path)
    log.write_text("\n" + log.read_text().replace("\n", "\n\n"))
    code, output = run_cli("verify", str(log))
    assert code == 0, output


def test_verify_rejects_a_payment_in_another_currency(tmp_path):
    log = _full_purchase_log(tmp_path)
    records = [json.loads(line) for line in log.read_text().splitlines()]
    puts = [f for r in records for f in r["deltas"]
            if f["f"] == "put" and f["store"] == "payments" and "amount" in f["data"]]
    assert puts
    for fact in puts:
        fact["data"]["amount"]["currency"] = "EUR"
    log.write_text("".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
                           for r in records))
    code, output = run_cli("verify", str(log))
    assert code == 1, output
    assert "VIOLATION payment-conservation @ payment:1: amount in EUR, not USD" in output


@pytest.mark.parametrize("store, edit, violation, holding", [
    ("invoices", lambda d: d.update(accepted=d["accepted"] + 1), "payment-conservation",
     "accepted"),
    ("orders", lambda d: d["shipped"].update({k: v - 1 for k, v in d["shipped"].items()}),
     "shipment-coverage", "shipped"),
    ("products", lambda d: d.update(stock_item=None), "catalog-references", None),
], ids=["accepted", "shipped", "stock-item"])
def test_verify_rejects_tampered_derived_value(tmp_path, store, edit, violation, holding):
    log = _full_purchase_log(tmp_path)
    _edit_last_put(log, store, edit, holding)
    code, output = run_cli("verify", str(log))
    assert code == 1, output
    assert f"VIOLATION {violation}" in output
    assert "stored" in output
