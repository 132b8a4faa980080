"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cold_analyze --seed 1 \\
        --seconds 18 --trace 0

Run from the repository root (the program under test is imported from
``src/``).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics that ``BENCHMARK.json`` names when ``--trace 0`` and its
per-layer metrics when ``--trace 1``.  The line before it,
``perfbench: {...}``, holds everything measured: every metric with its
sample count, the set-up samples and the run's provenance.  Results
(and, when traced, the spans) are also written to ``perfbench/out/``.

``--trace 1`` runs the workload twice on the same inputs: once
untraced, then with the layer wrappers of ``tracing.py`` installed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: Shares of an op that spans must cover in a traced pass.
COVERAGE = 0.95


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> str | None:
    """Put ``src/`` first on the path; return why repro is unusable."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import repro
    except ImportError as exc:
        return f"cannot import repro from {ROOT / 'src'}: {exc}"
    if Path(repro.__file__).resolve().parent != (ROOT / "src" / "repro").resolve():
        return f"repro imported from {repro.__file__}, not from {ROOT / 'src'}"
    return None


def main(argv=None) -> int:
    args = parse(argv)
    # a terminated run still stops the server it started (finally blocks)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    problem = import_program()
    if problem is None and not (ROOT / "BENCHMARK.json").is_file():
        problem = f"no BENCHMARK.json in {ROOT}"
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    import harness
    import tracing
    from workloads import WORKLOADS, Context

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    ctx = Context(ROOT, OUT, args.seed, args.seconds)
    workload = WORKLOADS[args.workload](ctx)
    facts = harness.provenance(str(ROOT), args.seed)

    phases = {}
    mark = time.monotonic()

    def phase(name):
        nonlocal mark
        now = time.monotonic()
        phases[name] = now - mark
        mark = now

    inputs = workload.inputs()
    phase("inputs")
    setups = workload.setup_times(inputs)
    phase("setup")
    gc.collect()
    plain = workload.run_pass(inputs)
    passes = [plain]
    phase("pass")
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        patches = tracing.install(tracer)
        try:
            gc.collect()
            traced = workload.run_pass(inputs, tracer)
        finally:
            patches.remove()
        passes.append(traced)
        phase("traced_pass")
    workload.verify(inputs, passes)
    phase("verify")
    facts["loadavg_1m_after"] = os.getloadavg()[0]
    facts["speed_factor_after"] = harness.speed_factor(9)

    if plain.setup is not None:
        setups.append(plain.setup)
    e2e = harness.end_to_end(plain)
    e2e["setup_s"] = (statistics.median(setups), "s", len(setups))
    e2e["peak_rss_mb"] = (plain.rss, "MB", 1)
    extras = workload.extra_metrics(inputs, plain)
    e2e.update(extras)
    report = {"workload": args.workload, "trace": args.trace,
              "provenance": facts, "phases_s": phases,
              "setup_samples_s": setups,
              "speed_factor": [p.speed() for p in passes],
              "end_to_end": {k: {"value": v, "unit": u, "samples": n}
                             for k, (v, u, n) in e2e.items()},
              "end_to_end_raw": {k: v for k, (v, _u, _n)
                                 in harness.end_to_end(plain, raw=True).items()}}
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, len(traced.samples),
                                       traced.speed())
        layers.update(workload.layer_metrics(inputs, traced, tracer))
        # end-to-end metrics BENCHMARK.json cannot gate (README.md),
        # from the untraced pass
        layers.update({name: value for name, (value, _u, _n) in extras.items()})
        layers["failed_ratio"] = e2e["failed_ratio"][0]
        traced_rate = harness.end_to_end(traced)["ops_per_s"][0]
        layers["trace.overhead_ratio"] = traced_rate / e2e["ops_per_s"][0]
        coverage = tracing.op_coverage(tracer)
        layers["trace.coverage_min"] = min(coverage) if coverage else 0.0
        if workload.name != "service" and layers["trace.coverage_min"] < COVERAGE:
            print(f"perfbench: spans cover only "
                  f"{layers['trace.coverage_min']:.3f} of some op",
                  file=sys.stderr)
        report["per_layer"] = layers
        stem = f"{args.workload}-seed{args.seed}-trace1"
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.spans))
        wanted = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit in wanted}
    else:
        metrics = {}
        for entry in spec["end_to_end"]:
            value, unit, _n = e2e[entry["name"]]
            if unit != entry["unit"]:
                raise ValueError(f"{entry['name']}: unit {unit} is not "
                                 f"{entry['unit']}")
            metrics[entry["name"]] = {"value": value, "unit": unit}

    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failed) for p in passes)
    report.update(attempted=attempted, failed=failed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))
    print("perfbench: " + json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    started = time.monotonic()
    code = main()
    print(f"perfbench: {time.monotonic() - started:.1f}s", file=sys.stderr)
    sys.exit(code)
