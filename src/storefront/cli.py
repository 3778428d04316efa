"""Command-line front end: run scenario scripts and verify event logs.

Exit codes: 0 clean, 1 violations or failed expectations, 2 parse or
config errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import bundled
from .engine import Engine, read_log
from .foundation import DomainError, SchemaError, json_spaced
from .invoice import RuleBook
from .rbac import RbacMatrix, load_rbac_config, permissive_matrix
from .scenario import ParseError, load_scenario, report_json, run_scenario
from .state import EngineState, GapInSequence, replay


def build_engine(args, matrix: RbacMatrix | None) -> Engine:
    """The engine ``args`` configure, over ``matrix``. Its seeded baseline
    is built once per distinct seed content, currency and stock policy in
    this process, through ``seed_catalog`` and ``seed_stock``, and shared."""
    rulebook = None
    if args.policies:
        rulebook = bundled.load(args.policies, "policy config", RuleBook.from_config)
    engine = Engine(currency=args.currency, rulebook=rulebook, rbac_matrix=matrix,
                    add_policy=args.add_policy)
    seeds = [(seed, what, path, bundled.read_bytes(path, what)) for seed, what, path in (
        (engine.seed_catalog, "catalog seed", args.seed_catalog),
        (engine.seed_stock, "stock seed", args.seed_stock)) if path]
    key = ("seeds", args.currency, args.add_policy, *[(what, data) for _, what, _, data in seeds])

    def seeded() -> EngineState:
        for seed, what, path, data in seeds:
            seed(bundled.parse_json(data, path, what))
        return engine.baseline()
    engine.start_from(bundled.memoized(key, seeded))
    return engine


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    matrix = None
    if args.rbac:
        matrix = bundled.load(args.rbac, "access config", load_rbac_config)
    engine = build_engine(args, matrix)
    report = run_scenario(engine, scenario)

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        engine.write_log(out_dir / "events.jsonl")
        (out_dir / "report.json").write_text(report_json(report) + "\n",
                                             encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {exc.filename or out_dir}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2

    lines = []  # printed in one call
    for step in report.steps:
        marker = "ok " if step.ok else "FAIL"
        detail = step.error or ""
        if step.expect_error:
            detail = f"{detail} (expected {step.expect_error})"
        lines.append(f"[{step.seq:3d}] {marker} {step.op:<22} {detail}".rstrip())
    for expectation in report.expectations:
        marker = "ok " if expectation.ok else "FAIL"
        lines.append(f"[exp] {marker} {expectation.query}: expected "
                     f"{json_spaced(expectation.expect)}, got {json_spaced(expectation.actual)}")
    violations = report.invariants.get("violations", [])
    lines.append(f"invariants: {report.invariants.get('checked', 0)} checked, "
                 f"{len(violations)} violations")
    lines += [f"  VIOLATION {violation['invariant']} @ {violation['entity']}: "
              f"{violation['detail']}" for violation in violations]
    lines.append(f"scenario {report.scenario}: {'PASS' if report.ok else 'FAIL'}")
    lines.append(f"log: {out_dir / 'events.jsonl'}  report: {out_dir / 'report.json'}")
    print("\n".join(lines))
    return 0 if report.ok else 1


def cmd_verify(args) -> int:
    records = read_log(args.log)
    # replay applies facts and checks invariants; no access check runs
    engine = build_engine(args, permissive_matrix())
    try:
        engine.state = replay(engine.baseline(), records)
    except GapInSequence as exc:
        print(f"verify: {exc}")
        return 1
    report = engine.check_invariants()
    print(f"replayed {len(records)} events; {report.checked} invariants checked, "
          f"{len(report.violations)} violations")
    for violation in report.violations:
        print(f"  VIOLATION {violation.invariant} @ {violation.entity}: "
              f"{violation.detail}")
    return 0 if report.ok() else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storefront",
        description="Replay scripted store workloads and verify their event logs.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed-catalog", metavar="FILE",
                        default=str(bundled.catalog_seed()),
                        help="catalog seed JSON (default: bundled)")
    common.add_argument("--seed-stock", metavar="FILE",
                        default=str(bundled.stock_seed()),
                        help="stock seed JSON (default: bundled)")
    common.add_argument("--policies", metavar="FILE", default=None,
                        help="billing policy / validation rule config JSON")
    common.add_argument("--currency", default="USD",
                        help="engine currency code (default USD)")
    common.add_argument("--add-policy", default="first-room",
                        choices=("first-room", "round-robin"),
                        help="stock distribution policy when no allocation given")

    run = sub.add_parser("run", parents=[common],
                         help="run a scenario and write its report and event log")
    run.add_argument("scenario", help="scenario JSON file")
    run.add_argument("--rbac", metavar="FILE", default=None,
                     help="access matrix JSON; omit for permissive mode")
    run.add_argument("--out", default="out", help="output directory (default ./out)")
    run.set_defaults(fn=cmd_run)

    verify = sub.add_parser("verify", parents=[common],
                            help="replay an event log over the seeds and check invariants")
    verify.add_argument("log", help="events.jsonl file")
    verify.set_defaults(fn=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call in this process reuses; building one
    takes about a quarter of a bundled scenario's ``run``."""
    return make_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
