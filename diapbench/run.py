"""Run one workload of the diapason benchmark and print its metrics.

    python3 diapbench/run.py --workload closure-ladder --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it imports `diapason` from that
checkout's `src/` and refuses to run without it.  The workload runs as
repeated rounds in this one process, closed loop, one caller.  Every
round is paired with the reference slices timed just before and just
after it (see `reference.py`).  Outputs are checked against the
`Fraction` oracle once the timing is over.  The last line of stdout is
one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
end-to-end metrics with `--trace 0`, the per-layer ones with
`--trace 1`.  Results and spans are also written under
`diapbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

import reference  # stdlib only; the script's own directory is on sys.path

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_CHILDREN = 15
MIN_ROUNDS = 4
_NULL = nullcontext()


def no_span(name: str):
    return _NULL


def setup_child_seconds(workload: str, seed: int) -> float:
    """Set-up time measured by one fresh interpreter (see setup_child.py)."""
    proc = subprocess.run(
        [sys.executable, "-I", os.path.join(HERE, "setup_child.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.split()[-1])


def ref_schedule(op_seconds: list[float], units: int) -> list[int]:
    """Reference units to time after each operation, `units` in all.

    Units are placed where the round's cumulative time (from the warm-up
    round) crosses each multiple of 1/units, so the reference samples the
    host evenly over the round's span.
    """
    total = sum(op_seconds)
    marks, elapsed = [], 0.0
    for seconds in op_seconds:
        elapsed += seconds
        marks.append(min(units, int(units * elapsed / total)))
    marks[-1] = units
    return [b - a for a, b in zip([0] + marks, marks)]


def measure(workload, ops, seconds: float, span_name: str, setup, tracer=None, gc_watch=None) -> dict:
    """Run rounds for `seconds`, each with its reference slice spread between its operations.

    The `SETUP_CHILDREN` set-up probes (`setup()`) run between rounds,
    spread evenly over the run, so their median sees the same host as the
    rounds do; one more probe first only warms the bytecode caches.

    With a tracer, every other round is traced (starting untraced), so
    the traced and untraced rounds see the same host and give the
    tracing overhead.  Each round's outputs must equal the warm-up
    round's, which the caller checks against the oracle.
    """
    warm, warm_s = [], []
    for op in ops:
        t0 = time.perf_counter()
        warm.append(workload.run_op(op, no_span))
        warm_s.append(time.perf_counter() - t0)
    schedule = ref_schedule(warm_s, workload.ref_units)
    rounds, differing = [], 0
    setup()
    setup_s = [setup()]
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start + rounds[-1]["wall_s"] < seconds:
        traced = tracer is not None and len(rounds) % 2 == 1
        span = tracer.span if traced else no_span
        t_round = time.perf_counter()
        round_s = ref_s = 0.0
        outputs = []
        with span(span_name):
            for op, units in zip(ops, schedule):
                t0 = time.perf_counter()
                with gc_watch if traced else _NULL:
                    outputs.append(workload.run_op(op, span))
                round_s += time.perf_counter() - t0
                if units:
                    with span("host.ref"):
                        ref_s += reference.slice_seconds(units)
        differing += outputs != warm
        rounds.append(
            {"round_s": round_s, "ref_s": ref_s, "traced": traced, "wall_s": time.perf_counter() - t_round}
        )
        while len(setup_s) < SETUP_CHILDREN * min(1.0, (time.perf_counter() - start) / seconds):
            setup_s.append(setup())
    while len(setup_s) < SETUP_CHILDREN:
        setup_s.append(setup())
    return {"warm": warm, "rounds": rounds, "differing": differing, "setup_s": statistics.median(setup_s)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "diapason", "__init__.py")):
        print(f"error: {SRC}/diapason not found; run from the root of a diapason checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import diapason

    if os.path.dirname(os.path.dirname(os.path.abspath(diapason.__file__))) != SRC:
        print(f"error: imported diapason from {diapason.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import checks
    import layers
    import oracle
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; know {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    ops = workload.build(args.seed)
    tracer = layers.Tracer() if args.trace else None
    gc_watch = layers.GcWatch() if args.trace else None
    run = measure(
        workload, ops, args.seconds, "round." + args.workload,
        lambda: setup_child_seconds(args.workload, args.seed), tracer, gc_watch,
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Checks, after timing so the oracle's memory stays out of peak_rss_mb.
    oracle.self_test()
    failed_per_round = 0
    if args.workload == "closure-ladder":
        problems, failed_per_round = checks.check_ladder(ops, run["warm"])
    elif args.workload == "certify-confluence":
        problems = checks.check_certify(ops, run["warm"])
    else:
        problems = checks.check_report(ops, run["warm"])
    if run["differing"]:
        problems.append(f"{run['differing']} rounds gave other outputs than the first")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    rounds = run["rounds"]
    plain = [r for r in rounds if not r["traced"]]
    n_rounds = len(rounds) + 1  # the warm-up round is attempted and checked too
    completed_per_round = len(ops) - failed_per_round
    if args.trace:
        metrics = layers.probe(tracer, gc_watch, args.seed)
        metrics.update(layers.import_ms(sys.executable, SRC))
        traced = [r for r in rounds if r["traced"]]
        watched = len(traced) + layers.PROBE_ROUNDS
        metrics["gc.collections"] = gc_watch.collections / watched
        metrics["gc.pause_ms"] = gc_watch.pause_s * 1e3 / watched
        metrics["host.ref_ms"] = statistics.median(r["ref_s"] for r in rounds) * 1e3
        metrics["trace.overhead_pct"] = layers.overhead_pct(
            [r["round_s"] / r["ref_s"] for r in traced], [r["round_s"] / r["ref_s"] for r in plain]
        )
    else:
        metrics = {
            "setup_s": run["setup_s"],
            "ops_per_s": completed_per_round * len(plain) / sum(r["round_s"] for r in plain),
            "round_ref_p50": statistics.median(r["round_s"] / r["ref_s"] for r in plain),
            "round_ms_p50": statistics.median(r["round_s"] for r in plain) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }

    declared = _declared_metrics("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(declared):
        print(f"error: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}", file=sys.stderr)
        return 2
    result = {
        "correct": not problems,
        "attempted": n_rounds * len(ops),
        "failed": n_rounds * failed_per_round,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as f:
        json.dump({**result, "rounds": rounds, "problems": problems}, f, indent=1)
    if tracer is not None:
        summary = layers.summarize(tracer)
        tracer.write(stem + "-spans.json", summary)
        for layer, ms in sorted(summary["self_ms"].items()):
            print(f"self time {layer}: {ms:.1f} ms over {summary['spans'][layer]} spans", file=sys.stderr)
    print(json.dumps(result))
    return 0


def _declared_metrics(section: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


if __name__ == "__main__":
    sys.exit(main())
