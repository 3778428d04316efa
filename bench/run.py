#!/usr/bin/env python3
"""Storefront benchmark: three workloads through ``Engine.dispatch`` and the CLI.

    python3 bench/run.py --workload shop-mix --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all

Run from anywhere; the engine is imported from ``src/`` next to this
directory. One process, one closed-loop client, no threads. A run repeats
the workload with the same seed until ``--seconds`` have passed (after one
warm-up repetition). Each time is reported as its best over the
repetitions, as ``timeit`` does: each command's latency, each scenario's
``storefront run``, each phase (set-up, replay, invariants). The host's
speed drifts within a run; the best of many identical attempts stays put.
Every repetition is checked: each command's outcome against the client's model,
the replayed log against the live state, the invariants, and the log bytes
and outcomes against the first repetition (same seed, so they must be
identical). ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced repetitions and prints the per-layer metrics.
The last line of output is one JSON object; the exit code is 1 when any
check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ["shop-mix", "stock-churn", "scenario-corpus"]
DEFAULT_SEED = 1
MIN_REPS = 3

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cmd_per_s": ("1/s", "higher"),
    "cmd_us_p50": ("us", "lower"),
    "cmd_us_p99": ("us", "lower"),
    "log_bytes_per_cmd": ("B", "lower"),
    "replay_us_per_record": ("us", "lower"),
    "invariants_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _import_engine():
    if not (SRC / "storefront" / "__init__.py").is_file():
        sys.exit(f"bench: no engine source under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _percentile(samples: list, q: int) -> float:
    return statistics.quantiles(samples, n=100)[q - 1]


def _fold_best(best: list, rep: Rep) -> list:
    """Each command's best latency so far, with ``rep``'s folded in.

    A dispatch repetition sends the same commands in the same order every
    time (the outcome digest checks it), so the n-th latency of each
    repetition times the same command; on ``scenario-corpus`` it is the n-th
    ``storefront run``. The repetition's own list is dropped, so the run's
    memory does not grow with the number of repetitions.
    """
    folded = list(map(min, best, rep.latencies)) if best else rep.latencies
    rep.latencies = []
    return folded


def _best_phase(plain: list, phase: str) -> float:
    """A phase's time in seconds: the sum over its units of each unit's
    best time over the repetitions."""
    return sum(map(min, zip(*(rep.phases[phase] for rep in plain))))


# --- the correctness gate ------------------------------------------------------

def replay_log(engine, path):
    """Read the written log back and replay it over the seeded baseline."""
    from storefront import engine as engine_mod
    records = engine_mod.read_log(path)
    return records, engine.replayed_state(records)


def gate(engine, records, replayed, report) -> list[str]:
    """Mismatches between the live engine, its log and its invariants."""
    problems = []
    if len(records) != len(engine.state.log):
        problems.append(f"log holds {len(records)} records, engine made "
                        f"{len(engine.state.log)}")
    if replayed.to_dict() != engine.state.to_dict():
        problems.append("replayed state differs from live state")
    return problems + [f"invariant {v.invariant} @ {v.entity}: {v.detail}"
                       for v in report.violations]


def verify_log(engine, path) -> list[str]:
    """The gate on one written log: replay it, compare, check invariants."""
    from storefront import DomainError
    try:
        records, replayed = replay_log(engine, path)
    except (DomainError, KeyError, ValueError, TypeError) as exc:
        return [f"log does not replay: {type(exc).__name__}: {exc}"]
    return gate(engine, records, replayed, engine.check_invariants())


# --- one repetition ------------------------------------------------------------

class Rep:
    """What one repetition measured and what its checks found."""

    def __init__(self):
        # phase -> seconds per unit: the whole repetition on a dispatch
        # workload, each scenario on scenario-corpus
        self.phases: dict[str, list[float]] = {}
        self.records: list[int] = []       # log records per unit
        self.log_bytes = 0
        self.latencies: list[int] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.load_s = 0.0
        self.layers: dict[str, float] | None = None
        self.not_measured: list[str] = []
        self.spans: list = []


def _drive(engine, client, rep: Rep) -> list[str]:
    """Closed loop: dispatch each command once the previous one returned."""
    from storefront import DomainError
    dispatch = engine.dispatch
    clock = time.perf_counter_ns
    latencies, codes, failures = rep.latencies, [], rep.failures
    start = clock()
    try:
        actor, command, args, expect = next(client)
        while True:
            sent = clock()
            try:
                result = dispatch(actor, command, args).result
                code = "ok"
            except DomainError as exc:
                result, code = None, exc.code
            except Exception:  # a crash is a wrong outcome; record it and go on
                result, code = None, "crash"
                failures.append(f"{command}: {traceback.format_exc(limit=4)}")
            latencies.append(clock() - sent)
            codes.append(code)
            if code != expect and (isinstance(expect, str) or code not in expect):
                failures.append(f"{command} by {actor}: {code}, expected {expect}")
            actor, command, args, expect = client.send((code, result))
    except StopIteration:
        pass
    except Exception:  # the client's model cannot go on after a wrong result
        failures.append(f"client stopped: {traceback.format_exc(limit=4)}")
    rep.load_s = (clock() - start) / 1e9
    rep.attempted = len(codes)
    return codes


def dispatch_rep(workload, seed, scale, workdir: Path, tracer=None) -> Rep:
    from workloads import DISPATCH_WORKLOADS
    setup, client_fn = DISPATCH_WORKLOADS[workload]
    rep = Rep()
    started = time.perf_counter()
    prepared = setup(seed, scale)
    rep.phases["setup"] = [time.perf_counter() - started]
    engine = prepared.engine
    client = client_fn(prepared, rep.failures.append)
    path = workdir / "events.jsonl"
    with tracer if tracer else contextlib.nullcontext():
        codes = _drive(engine, client, rep)
        if tracer:
            tracer.phase = "after"
        engine.write_log(path)
        started = time.perf_counter()
        records, replayed = replay_log(engine, path)
        replay_s = time.perf_counter() - started
        started = time.perf_counter()
        report = engine.check_invariants()
        invariants_s = time.perf_counter() - started
    data = path.read_bytes()
    path.unlink()  # the next repetition writes a new file rather than truncating this one
    rep.failures += gate(engine, records, replayed, report)
    for check in prepared.final_checks:
        rep.failures += check(engine)
    rep.digests = {"events.jsonl": _digest(data),
                   "outcomes": _digest("\n".join(codes).encode())}
    rep.phases.update(replay=[replay_s], invariants=[invariants_s])
    rep.records, rep.log_bytes = [len(records)], len(data)
    if tracer:
        rep.layers = tracer.metrics("engine.dispatch", sum(rep.latencies))
        rep.not_measured = tracer.not_measured("engine.dispatch")
        rep.spans = tracer.spans
    return rep


def _cli(argv) -> tuple[int, str]:
    from storefront import cli
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    return code, sink.getvalue()


def corpus_rep(workload, seed, scale, workdir: Path, tracer=None) -> Rep:
    """Passes over the bundled scenarios: ``storefront run --rbac`` then
    ``storefront verify`` on its log, in-process, output captured."""
    from storefront import Engine, bundled
    from workloads import bundled_matrix, corpus_setup
    rep = Rep()
    started = time.perf_counter()
    corpus = corpus_setup(seed, scale)
    oracle = Engine(rbac_matrix=bundled_matrix())
    oracle.seed_catalog(json.loads(bundled.catalog_seed().read_text(encoding="utf-8")))
    oracle.seed_stock(json.loads(bundled.stock_seed().read_text(encoding="utf-8")))
    oracle.baseline()
    rep.phases["setup"] = [time.perf_counter() - started]

    clock = time.perf_counter_ns
    client_ns = 0
    outcomes = []
    with tracer if tracer else contextlib.nullcontext():
        load_started = clock()
        for _ in range(corpus.passes):
            for stem, path in corpus.scenarios:
                # one directory per scenario, emptied before each run: a new
                # file, since ext4 starts the writeback of a file rewritten in
                # place on close; and no new directory, whose creation made the
                # best time of a run drift by up to 1.6x from minute to minute
                out = workdir / "corpus" / stem
                for name in ("events.jsonl", "report.json"):
                    with contextlib.suppress(FileNotFoundError):
                        (out / name).unlink()
                sent = clock()
                code, output = _cli(["run", path, "--rbac", corpus.rbac, "--out", str(out)])
                took = clock() - sent
                rep.latencies.append(took)
                sent = clock()
                verify_code, verify_output = _cli(["verify", str(out / "events.jsonl")])
                client_ns += took + clock() - sent
                rep.attempted += 2
                if code != 0:
                    rep.failures.append(f"run {stem}: exit {code}\n{output}")
                if verify_code != 0:
                    rep.failures.append(f"verify {stem}: exit {verify_code}\n{verify_output}")
                try:
                    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
                except (OSError, ValueError) as exc:
                    rep.failures.append(f"run {stem}: no report ({exc})")
                    continue
                if report.get("ok") is not True:
                    rep.failures.append(f"run {stem}: report is not ok")
                log = (out / "events.jsonl").read_bytes()
                digest = _digest(log)
                if rep.digests.setdefault(stem, digest) != digest:
                    rep.failures.append(f"run {stem}: log differs between passes")
                outcomes.append(f"{stem}:" + ",".join(
                    str(step.get("error")) for step in report.get("steps", [])))
        rep.load_s = (clock() - load_started) / 1e9
        if tracer:
            tracer.phase = "after"
        replays, checks = rep.phases["replay"], rep.phases["invariants"] = [], []
        for stem, _ in corpus.scenarios:
            path = out.parent / stem / "events.jsonl"
            rep.log_bytes += path.stat().st_size
            started = time.perf_counter()
            records, replayed = replay_log(oracle, path)
            replays.append(time.perf_counter() - started)
            rep.records.append(len(records))
            oracle.state = replayed
            started = time.perf_counter()
            report = oracle.check_invariants()
            checks.append(time.perf_counter() - started)
            rep.failures += [f"{stem}: invariant {v.invariant} @ {v.entity}"
                             for v in report.violations]
    rep.digests["outcomes"] = _digest("\n".join(outcomes[:len(corpus.scenarios)]).encode())
    if outcomes[len(corpus.scenarios):] != outcomes[:len(corpus.scenarios)] * (corpus.passes - 1):
        rep.failures.append("step outcomes differ between passes")
    if tracer:
        rep.layers = tracer.metrics("cli.main", client_ns)
        rep.not_measured = tracer.not_measured("cli.main")
        rep.spans = tracer.spans
    return rep


# --- a run ---------------------------------------------------------------------

def _without_gc(rep_fn, *args) -> Rep:
    """One repetition with the cyclic collector paused, as ``timeit`` does:
    where a full collection lands would otherwise decide the timings. The
    engine frees its objects by reference counting; cycles are collected
    between repetitions."""
    gc.collect()
    gc.disable()
    try:
        return rep_fn(*args)
    finally:
        gc.enable()


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0) -> dict:
    """Repeat the workload for ``seconds``; return the result object plus a
    ``detail`` entry with digests, sample counts and failures."""
    from tracing import PER_LAYER, Tracer
    rep_fn = corpus_rep if workload == "scenario-corpus" else dispatch_rep
    workdir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        warmup = _without_gc(rep_fn, workload, seed, scale, workdir)
        deadline = time.perf_counter() + seconds
        plain, traced = [], []
        best, samples = [], 0
        while True:
            if trace and len(plain) > len(traced):
                if traced:
                    traced[-1].spans = []  # only the last traced repetition's are kept
                traced.append(_without_gc(rep_fn, workload, seed, scale, workdir, Tracer()))
            else:
                plain.append(_without_gc(rep_fn, workload, seed, scale, workdir))
                samples += len(plain[-1].latencies)
                best = _fold_best(best, plain[-1])
            if time.perf_counter() >= deadline and len(plain) >= MIN_REPS \
                    and (not trace or len(traced) >= MIN_REPS):
                break
        if traced:
            spans_path = ROOT / ".bench_work" / f"spans-{workload}.jsonl"
            spans_path.write_text("".join(
                json.dumps(span) + "\n" for span in traced[-1].spans), encoding="utf-8")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reps = [warmup] + plain + traced
    failures = [f for rep in reps for f in rep.failures]
    for rep in reps[1:]:
        for key, digest in warmup.digests.items():
            if rep.digests.get(key) != digest:
                failures.append(f"{key} differs between repetitions of seed {seed}")
    attempted = sum(rep.attempted for rep in reps)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if trace:
        metrics = {name: statistics.median(rep.layers[name] for rep in traced)
                   for name in PER_LAYER if name != "trace.overhead_pct"}
        metrics["trace.overhead_pct"] = 100 * (
            statistics.median(rep.load_s for rep in traced)
            / statistics.median(rep.load_s for rep in plain) - 1)
        not_measured = sorted({m for rep in traced for m in rep.not_measured})
        units = PER_LAYER
    else:
        corpus = workload == "scenario-corpus"
        if corpus:  # each scenario's best over its runs in all passes
            best = [min(best[i::len(warmup.records)]) for i in range(len(warmup.records))]
        records = sum(warmup.records)
        metrics = {
            "setup_s": _best_phase(plain, "setup"),
            "cmd_per_s": (records if corpus else len(best)) / (sum(best) / 1e9),
            "cmd_us_p50": _percentile(best, 50) / 1e3,
            "cmd_us_p99": _percentile(best, 99) / 1e3,
            "log_bytes_per_cmd": warmup.log_bytes / records,
            "replay_us_per_record": _best_phase(plain, "replay") / records * 1e6,
            "invariants_ms": _best_phase(plain, "invariants") * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        not_measured = []
        units = END_TO_END
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
        "detail": {
            "workload": workload, "seed": seed, "trace": trace,
            "repetitions": len(plain), "traced_repetitions": len(traced),
            "latency_samples": samples,
            "commands_per_repetition": warmup.attempted,
            "digests": warmup.digests,
            "not_measured": not_measured,
            "failures": failures[:20],
            "python": platform.python_version(), "cpus": os.cpu_count(),
        },
    }


def _print_result(result: dict) -> None:
    detail = result["detail"]
    for name, metric in result["metrics"].items():
        note = " (not measured)" if name in detail["not_measured"] else ""
        print(f"{detail['workload']:<16} {name:<40} {metric['value']:>14.4f} "
              f"{metric['unit']}{note}")
    for failure in detail["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed",
                                                   "metrics")}))


def run_all(args) -> int:
    """Each workload in a process of its own, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}/{name}": metric
                                    for name, metric in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_engine()
    if args.workload == "all":
        return run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_result(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
