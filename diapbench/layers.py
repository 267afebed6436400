"""Traced mode: spans around the benchmark's calls into each layer, and
the per-layer metrics built from them.

Spans are recorded only by the benchmark's own code, around its calls
into the public functions of `exact`, `means`, `scales`, `generator`,
`analysis` and `cli`; the program itself is not instrumented.  A span's
layer is the first part of its name.  Counts marked "computed" are
derived from set sizes, not counted inside the program.
"""

from __future__ import annotations

import contextlib
import gc
import json
import re
import statistics
import subprocess
import time
from math import comb

from diapason import (
    FIVE_LIMIT,
    Ratio,
    Scale,
    compare_to_equal,
    cents,
    equal_temperament,
    generate_means,
    interval_census,
    is_smooth,
    mean_arithmetic,
    mean_closure,
    mean_harmonic,
    mean_table,
    reduce_to_diapason,
)

import workloads
from workloads import CERTIFY, LADDER, Failure

MODULES = ("diapason", "exact", "means", "scales", "generator", "analysis", "cli")
COMMANDS = ("scale", "closure", "table", "compare", "intervals")


class Tracer:
    """Spans (name, start ns, end ns, parent index) kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def durations_ms(self, name: str) -> list[float]:
        return [(end - start) / 1e6 for n, start, end, _ in self.spans if n == name]

    def self_ms(self) -> dict[str, float]:
        """Per layer: span time minus the part its child spans cover."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        layers: dict[str, float] = {}
        for (name, start, end, _), children in zip(self.spans, child_ns):
            layer = name.partition(".")[0]
            layers[layer] = layers.get(layer, 0.0) + (end - start - children) / 1e6
        return layers

    def write(self, path, summary: dict) -> None:
        with open(path, "w") as f:
            json.dump({"summary": summary, "spans": self.spans}, f)


class GcWatch:
    """Counts collections and their pause time through `gc.callbacks`."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.collections += 1
            self.pause_s += time.perf_counter() - self._start

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def per_op_ns(call, items, repeats: int = 5) -> float:
    """Median over `repeats` of the time per item of `call` over `items`."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for item in items:
            call(item)
        samples.append((time.perf_counter_ns() - start) / len(items))
    return statistics.median(samples)


def median_ms(call, repeats: int = 7) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        call()
        samples.append((time.perf_counter_ns() - start) / 1e6)
    return statistics.median(samples)


def import_ms(executable: str, src: str, children: int = 5) -> dict[str, float]:
    """Self time of each diapason module, from `-X importtime` in fresh interpreters."""
    code = f"import sys; sys.path.insert(0, {src!r}); import diapason, diapason.cli"
    line = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s+(diapason(?:\.\w+)?)$")
    samples: dict[str, list[float]] = {m: [] for m in MODULES}
    for child in range(children + 1):
        proc = subprocess.run(
            [executable, "-I", "-X", "importtime", "-c", code],
            capture_output=True, text=True, timeout=60, check=True,
        )
        if child == 0:
            continue  # the first child may still be writing bytecode caches
        for match in map(line.match, proc.stderr.splitlines()):
            if match:
                module = match.group(2).rpartition(".")[2]
                samples[module].append(int(match.group(1)) / 1e3)
    return {f"import.{m}_ms": statistics.median(v) for m, v in samples.items()}


PROBE_ROUNDS = 3


def probe(tracer: Tracer, gc_watch: GcWatch, seed: int) -> dict[str, float]:
    """One traced pass over every layer, whichever workload is selected.

    It includes one round of each workload (`PROBE_ROUNDS`), watched by
    `gc_watch` like the chosen workload's traced rounds.
    """
    metrics: dict[str, float] = {}
    span = tracer.span

    # generator: the ladder, then every pass of it replayed on its own input set.
    ladder = workloads.build_ladder(seed)
    with gc_watch, span("round.closure-ladder"):
        outputs = workloads.run_round(workloads.WORKLOADS["closure-ladder"], ladder, span)
    traces = {op.name: trace for op, trace in zip(ladder, outputs)}
    for name, *_ in LADDER:
        metrics[f"generator.closure_ms.{name}"] = statistics.median(tracer.durations_ms("generator.mean_closure." + name))
    passes, largest = [], (0, None, None)
    for op in ladder:
        trace = traces[op.name]
        if isinstance(trace, Failure):
            continue
        metrics[f"generator.tones.{op.name}"] = len(trace.final.tones)
        metrics[f"generator.generations.{op.name}"] = len(trace.generations)
        current = list(trace.seed.tones)
        inputs = [tuple(current)]
        for generation in trace.generations:
            current = sorted(current + list(generation.added))
            inputs.append(tuple(current))
        for tones in inputs:
            offered = comb(len(tones), 2) * len(op.config.kinds)
            passes.append((Scale("pass", tones), op.config, offered))
            largest = max(largest, (offered, tones, op.config.restriction), key=lambda x: x[0])
    with span("generator.pass"):
        start = time.perf_counter_ns()
        for scale, config, _ in passes:
            generate_means(scale, config)
        pass_ns = time.perf_counter_ns() - start
    offered = sum(p[2] for p in passes)
    metrics["generator.pass_ms"] = pass_ns / 1e6
    metrics["generator.pairs_offered"] = offered
    metrics["generator.ns_per_pair"] = pass_ns / offered

    certify = workloads.build_certify(seed)
    with gc_watch, span("round.certify-confluence"):
        workloads.run_round(workloads.WORKLOADS["certify-confluence"], certify, span)
    certify_passes = 0
    for name, _spec, _primes, _kinds, trials in CERTIFY:
        # Each certified configuration is also the ladder rung of the same name.
        metrics[f"generator.certify_ms.{name}"] = statistics.median(tracer.durations_ms("generator.certify." + name))
        trace = traces[name]
        grown = len(trace.final.tones) - len(trace.seed.tones)
        certify_passes += trials * (grown + 1) + len(trace.generations) + 1
    metrics["generator.certify_passes"] = certify_passes

    # exact and means: on the tones and pairs of the largest ladder pass.
    _, tones, restriction = largest
    pairs = [(a, b) for i, a in enumerate(tones) for b in tones[i + 1 :]]
    parts = [(a.num * b.den, a.den * b.num) for a, b in pairs]
    means = [mean_arithmetic(a, b) for a, b in pairs]
    for metric, call, items in (
        ("exact.ratio_init_ns", lambda p: Ratio(*p), parts),
        ("exact.hash_ns", hash, tones),
        ("exact.lt_ns", lambda p: p[0] < p[1], pairs),
        ("exact.add_ns", lambda p: p[0] + p[1], pairs),
        ("exact.mul_ns", lambda p: p[0] * p[1], pairs),
        ("exact.is_smooth_ns", lambda m: is_smooth(m, restriction), means),
        ("means.arithmetic_ns", lambda p: mean_arithmetic(*p), pairs),
        ("means.harmonic_ns", lambda p: mean_harmonic(*p), pairs),
    ):
        with span(metric):
            metrics[metric] = per_op_ns(call, items)

    # scales and analysis: on the same tones, and on the report's scales.
    fifths = [t * Ratio(3, 2) for t in tones]
    with span("scales.scale_init_us"):
        metrics["scales.scale_init_us"] = median_ms(lambda: Scale("probe", tones), 21) * 1e3
    with span("scales.reduce_ns"):
        metrics["scales.reduce_ns"] = per_op_ns(reduce_to_diapason, fifths)
    with span("scales.cents_ns"):
        metrics["scales.cents_ns"] = per_op_ns(cents, tones)
    exact_scales = [workloads.resolve(s) for s in workloads.REPORT_SCALES if not s.startswith("equal:")]
    for metric, call in (
        ("analysis.mean_table_ms", lambda: [mean_table(s, FIVE_LIMIT) for s in exact_scales]),
        ("analysis.compare_ms", lambda: [compare_to_equal(s, 12) for s in exact_scales]),
        ("analysis.census_ms", lambda: [interval_census(s) for s in exact_scales]),
    ):
        with span(metric):
            metrics[metric] = median_ms(call)

    # cli: one report round; render time is main minus a replay of the library call.
    report = workloads.build_report(seed)
    with gc_watch, span("round.report-matrix"):
        outputs = workloads.run_round(workloads.WORKLOADS["report-matrix"], report, span)
    report_rounds = len(tracer.durations_ms("round.report-matrix"))
    metrics["cli.out_bytes"] = sum(len(stdout.encode()) for _, stdout, _ in outputs)
    replay = {  # command: (layer of the library call, the call)
        "scale": ("scales", lambda spec: equal_temperament(int(spec.partition("=")[2]))
                  if spec.startswith("equal:") else workloads.resolve(spec)),
        "closure": ("generator", lambda spec: mean_closure(workloads.resolve(spec))),
        "table": ("analysis", lambda spec: mean_table(workloads.resolve(spec), FIVE_LIMIT)),
        "compare": ("analysis", lambda spec: compare_to_equal(workloads.resolve(spec), 12)),
        "intervals": ("analysis", lambda spec: interval_census(workloads.resolve(spec))),
    }
    for command in COMMANDS:
        main_ms = sum(tracer.durations_ms("cli.main." + command)) / report_rounds
        layer, call = replay[command]
        with span(f"{layer}.replay.{command}"):
            start = time.perf_counter_ns()
            for op in report:
                if op.name == command:
                    call(op.spec)
            library_ms = (time.perf_counter_ns() - start) / 1e6
        metrics[f"cli.main_ms.{command}"] = main_ms
        metrics[f"cli.render_ms.{command}"] = main_ms - library_ms
    return metrics


def summarize(tracer: Tracer) -> dict:
    """Self time per layer and span counts, for the spans file and stderr."""
    counts: dict[str, int] = {}
    for name, *_ in tracer.spans:
        layer = name.partition(".")[0]
        counts[layer] = counts.get(layer, 0) + 1
    return {"self_ms": tracer.self_ms(), "spans": counts}


def overhead_pct(traced: list[float], untraced: list[float]) -> float:
    return (statistics.median(traced) / statistics.median(untraced) - 1) * 100
