"""The supermod benchmark: seeded CLI workloads, checked, timed, traced.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload probe-generic --seed 3 --seconds 20 --trace 0

Each item is one ``supermod.cli.main(argv)`` call made in this process with
its output captured; items run one after another in a closed loop on a
single thread, in passes over the seeded item list, until ``--seconds`` have
gone by and at least three passes are done.  Every item's exit code and
report digest are checked against ``perfbench/expected.json``.  Human-readable
lines come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` first runs a
third of the time untraced, then wraps every layer (see ``layertrace.py``) and
reports the per-layer metrics, per pass.

Other modes:

    python3 perfbench/run.py --smoke --workload catalog --trace 1   # tiny windows, one pass
    python3 perfbench/run.py --record     # regenerate expected.json from this tree
    python3 perfbench/run.py --baseline   # one-off timings of the ROADMAP baseline table
    python3 perfbench/run.py --workload contract   # the exit-code-contract inputs

The benchmark imports supermod from ``src/`` of the checkout it sits in and
exits 2 without a result when that tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import workloads  # noqa: E402
from layertrace import PER_LAYER_METRICS, RATIOS, Tracer  # noqa: E402

END_TO_END = [
    ("wall_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
SETUP_SAMPLES = 5


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n\n")[0])
    names = list(workloads.WORKLOADS) + list(workloads.EXTRA_WORKLOADS)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny windows, one pass, one set-up sample")
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from this source tree")
    parser.add_argument("--baseline", action="store_true",
                        help="time the ROADMAP baseline table once")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.record or args.baseline or args.workload):
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        if args.setup_probe:
            harness.import_cli()
            workloads.build(args.workload, args.seed, args.smoke)
            print(time.monotonic())
            return 0
        if args.record:
            return record()
        if args.baseline:
            return baseline()
        return run(args)
    except harness.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# ----------------------------------------------------------------------
# a measured run

def _say(label: str, value) -> None:
    print(f"# {label}: {value}", flush=True)


def run(args) -> int:
    expected = harness.load_expected()
    cli = harness.import_cli()
    items = workloads.build(args.workload, args.seed, args.smoke)
    _say("machine", json.dumps(harness.machine_info(), sort_keys=True))
    _say("workload", f"{args.workload} seed={args.seed} items/pass={len(items)} "
         f"closed loop, 1 client, 1 thread")
    min_passes = 1 if args.smoke else harness.MIN_PASSES
    max_passes = 1 if args.smoke else None
    if args.trace:
        metrics, loop = _traced(cli, items, expected, args.seconds, args.smoke)
        units = {name: unit for name, unit, _ in PER_LAYER_METRICS}
    else:
        setup = harness.measure_setup(args.workload, args.seed,
                                      1 if args.smoke else SETUP_SAMPLES, args.smoke)
        loop = harness.closed_loop(cli, items, expected, args.seconds,
                                   min_passes, max_passes)
        tail = harness.tail_percentile(len(items))
        metrics = {
            "wall_s": statistics.median(loop.pass_seconds),
            "latency_p50_s": harness.latency_percentile(loop.latencies, 50),
            "latency_tail_s": harness.latency_percentile(loop.latencies, tail),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": harness.peak_rss_mb(),
        }
        units = dict(END_TO_END)
        _say("passes", f"{len(loop.pass_seconds)} "
             + " ".join(f"{s:.3f}" for s in loop.pass_seconds))
        _say("latency", f"p50 and p{tail} (latency_tail_s) over the medians of "
             f"{len(loop.latencies)} items, {loop.attempted} samples")
        _say("setup samples", " ".join(f"{s:.4f}" for s in setup))
    _say("fail_ratio", f"{loop.failed / loop.attempted:.6f} "
         f"({loop.failed} of {loop.attempted} attempted)")
    for key, outcome in sorted(loop.failures.items()):
        why = outcome.error or f"exit {outcome.exit}, sha256 {outcome.sha256[:12]}"
        note = workloads.CONTRACT_VIOLATIONS.get(key)
        _say("FAILED", f"{key} -> {why}" + (f" [contract: {note}]" if note else ""))
    for name, value in metrics.items():
        _say(name, f"{value:.6g} {units[name]}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _traced(cli, items, expected, seconds: float, smoke: bool):
    passes = 1 if smoke else None
    plain = harness.closed_loop(cli, items, expected, seconds / 3, 1, passes)
    tracer = Tracer()

    def run_traced(cli_module, item):
        tracer.begin_item()
        return harness.run_item(cli_module, item)

    tracer.install()
    try:
        traced = harness.closed_loop(cli, items, expected, seconds * 2 / 3, 1,
                                     passes, run=run_traced)
    finally:
        tracer.uninstall()
    n = len(traced.pass_seconds)
    wall = sum(traced.pass_seconds)
    layer_self = tracer.layer_self()
    harness_s = wall - tracer.root_s
    metrics = {name: (value if name in RATIOS else value / n)
               for name, value in tracer.counters().items()}
    metrics["harness.self_s"] = harness_s / n
    metrics["trace.wall_s"] = statistics.median(traced.pass_seconds)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain.pass_seconds)
    accounted = sum(layer_self.values()) + harness_s
    _say("untraced passes", f"{len(plain.pass_seconds)} median "
         f"{statistics.median(plain.pass_seconds):.4f} s")
    _say("traced passes", f"{n} median {metrics['trace.wall_s']:.4f} s")
    _say("accounting", "layers " + " + ".join(
        f"{layer} {s:.3f}" for layer, s in layer_self.items())
        + f" + harness {harness_s:.3f} = {accounted:.3f} s of traced wall {wall:.3f} s")
    merged = harness.LoopResult(
        plain.pass_seconds + traced.pass_seconds, {},
        plain.attempted + traced.attempted, plain.failed + traced.failed,
        {**plain.failures, **traced.failures})
    return metrics, merged


# ----------------------------------------------------------------------
# recording the expectations

def _all_items() -> list[workloads.Item]:
    seen: dict[str, workloads.Item] = {}
    for name in list(workloads.WORKLOADS) + list(workloads.EXTRA_WORKLOADS):
        for smoke in (False, True):
            for item in workloads.pool(name, smoke):
                seen.setdefault(item.key, item)
    return list(seen.values())


def record() -> int:
    """Run every pooled item twice and write expected.json.

    Both runs must agree byte for byte.  Inputs that break the README
    exit-code contract get the contract's exit code (2, no report) as their
    expectation, so they count as failures until the program is fixed.
    """
    cli = harness.import_cli()
    items = _all_items()
    empty = hashlib.sha256(b"").hexdigest()
    out, problems = {}, []
    start = time.perf_counter()
    for item in items:
        first = harness.run_item(cli, item)
        second = harness.run_item(cli, item)
        if (first.exit, first.sha256) != (second.exit, second.sha256):
            problems.append(f"nondeterministic: {item.key}")
        entry = {"exit": first.exit, "sha256": first.sha256}
        if item.key in workloads.CONTRACT_VIOLATIONS:
            entry = {"exit": 2, "sha256": empty,
                     "observed": {**entry, "note": workloads.CONTRACT_VIOLATIONS[item.key]}}
        elif first.error is not None:
            problems.append(f"escaping exception: {item.key}: {first.error}")
        out[item.key] = entry
    for item in workloads.pool("probe-generic"):
        if out[item.key]["exit"] != 0:
            problems.append(f"generic point is not full rank: {item.key}")
    harness.EXPECTED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    print(f"recorded {len(out)} items in {time.perf_counter() - start:.1f} s "
          f"to {harness.EXPECTED}")
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    return 1 if problems else 0


# ----------------------------------------------------------------------
# the ROADMAP baseline table, once

def baseline() -> int:
    cli = harness.import_cli()
    _say("machine", json.dumps(harness.machine_info(), sort_keys=True))
    sym = [("laurent", workloads.laurent("a")), ("omega", workloads.omega("l")),
           ("fraction", workloads.fraction(("a0", "a1"), ("0", "1"))),
           ("degree", workloads.degree(2))]
    rows = [(f"check-module 3,5 symbolic b, {family}",
             [workloads.Item(("check-module", "--module", spec, "--b", "b",
                              "--window", "3,5"))])
            for family, spec in sym]
    sweep = workloads.generic_sweep(*workloads.GENERIC_POINTS[0], "2,4,4", 4)
    for family in ("laurent", "omega", "fraction", "degree"):
        items = [item for item in sweep if f'"family":"{family}"' in item.argv[2]]
        rows.append((f"generic probe sweep 2,4,4 b={workloads.GENERIC_B}, {family} "
                     f"({len(items)} seeds)", items))
    rows.append(("symbolic fraction probe t^0 2,3,3",
                 [workloads.Item(("probe", "--module", sym[2][1], "--b", "b",
                                  "--seed", "t^0", "--window", "2,3,3"))]))
    for label, items in rows:
        outcomes = [harness.run_item(cli, item) for item in items]
        codes = sorted({o.exit for o in outcomes})
        _say(label, f"{sum(o.seconds for o in outcomes):.2f} s, exit codes {codes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
