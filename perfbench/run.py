"""Dispatch benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload desk-day --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  With `--trace 0` the run is untraced and reports the end-to-end
metrics; with `--trace 1` it runs every round twice, untraced and traced,
and reports the per-layer metrics and the tracing overhead.  The last line
of standard output is one JSON object; a fuller report goes to
`perfbench/out/`.  Exits 1 if an output check fails, 2 if the program
cannot be imported or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("desk-day", "city-greedy", "contended-windows")
SETUPS = 3  # set-up repeats per untraced run; setup_s is their median


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_setups(workload, args) -> tuple[list[float], dict]:
    """Builds the inputs `SETUPS` times; keeps the last build."""
    times, state = [], None
    for _ in range(SETUPS):
        state = None  # drop the previous build so peak memory holds one copy
        start = perf_counter()
        state = workload.setup(args.seed, OUT_DIR, args.workload)
        times.append(perf_counter() - start)
    return times, state


def freeze_inputs() -> None:
    """Moves every object alive after set-up out of the garbage collector's view.

    The benchmark holds the inputs of all its rounds at once, which one run
    of the program never does; frozen, they add no work to the collections
    that the timed phase triggers.
    """
    gc.collect()
    gc.freeze()


def run_rounds(workload, state, seconds: float, tracer=None) -> tuple[list, list]:
    """Whole rounds until the timed rounds add up to `seconds`.

    With a tracer every round runs twice on the same inputs, untraced and
    then traced, and only the untraced passes count towards `seconds`.
    """
    plain, traced = [], []
    while sum(r.seconds for r in plain) < seconds:
        index = len(plain)
        plain.append(workload.run_round(state, index))
        if tracer is not None:
            traced.append(workload.run_round(state, index, tracer))
    return plain, traced


def end_to_end(setup_times: list[float], rounds: list, peak_rss_mb: float) -> dict:
    from bench_checks import percentile

    latencies = [t for r in rounds for t in r.latencies]
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "run_s": metric(statistics.median(r.seconds for r in rounds), "s"),
        "decision_ms_p50": metric(1e3 * percentile(latencies, 50), "ms"),
        "decision_ms_p90": metric(1e3 * percentile(latencies, 90), "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "requests_served": metric(statistics.fmean(r.served for r in rounds), "count"),
    }


def per_layer(tracer, setup_tracer, plain: list, traced: list) -> dict:
    """Per-layer metrics per traced round, less any layer whose functions are gone."""
    from bench_checks import percentile
    from bench_probes import LOOP_LAYERS

    n = len(traced)
    totals = tracer.totals
    setup = setup_tracer.totals
    enum, score, solve = totals["fleet.enumerate"], totals["scoring.score"], totals["matcher.solve"]
    solves = tracer.solves
    solve_ms = [1e3 * s.seconds for s in solves]
    candidates = [s.candidates for s in solves]
    latencies = [t for r in plain for t in r.latencies]
    traced_s = statistics.median(r.wall for r in traced)
    loop = tuple(LOOP_LAYERS)
    # (metric, layers it needs, value, unit)
    rows = [
        ("network.build_s", ("network.build",), setup["network.build"].seconds, "s"),
        ("demand.synth_s", ("demand.synth",), setup["demand.synth"].seconds, "s"),
        ("demand.requests", ("demand.synth",), setup["demand.synth"].items, "count"),
        ("fleet.enumerate_s", ("fleet.enumerate",), enum.seconds / n, "s"),
        ("fleet.enumerate_calls", ("fleet.enumerate",), enum.calls / n, "count"),
        ("fleet.actions", ("fleet.enumerate",), enum.items / n, "count"),
        ("fleet.advance_s", ("fleet.advance",), totals["fleet.advance"].seconds / n, "s"),
        ("scoring.score_s", ("scoring.score",), score.seconds / n, "s"),
        ("scoring.score_calls", ("scoring.score",), score.calls / n, "count"),
        ("scoring.score_us_mean", ("scoring.score",),
         1e6 * score.seconds / score.calls if score.calls else 0.0, "us"),
        ("scoring.reward_s", ("scoring.reward",), totals["scoring.reward"].seconds / n, "s"),
        ("matcher.solve_s", ("matcher.solve",), solve.seconds / n, "s"),
        ("matcher.solve_ms_p50", ("matcher.solve",), percentile(solve_ms, 50), "ms"),
        ("matcher.solve_ms_p99", ("matcher.solve",), percentile(solve_ms, 99), "ms"),
        ("matcher.solve_ms_max", ("matcher.solve",), max(solve_ms), "ms"),
        ("matcher.solve_samples", ("matcher.solve",), len(solve_ms), "count"),
        ("matcher.candidates_p50", ("matcher.solve",), percentile(candidates, 50), "count"),
        ("matcher.candidates_max", ("matcher.solve",), max(candidates), "count"),
        ("matcher.component_vehicles_max", ("matcher.solve",),
         max(s.component_vehicles for s in solves), "count"),
        ("matcher.served_per_request", ("matcher.solve",),
         sum(s.served for s in solves) / max(1, sum(s.batch for s in solves)), "ratio"),
        ("metrics.history_s", ("metrics.history",), totals["metrics.history"].seconds / n, "s"),
        ("metrics.report_s", ("metrics.report",), totals["metrics.report"].seconds / n, "s"),
        ("sim.loop_self_s", loop,
         (sum(r.wall for r in traced) - sum(totals[layer].seconds for layer in loop)) / n, "s"),
        ("decision_ms_p99", (), 1e3 * percentile(latencies, 99), "ms"),
        ("decision_ms_max", (), 1e3 * max(latencies), "ms"),
        ("decision_samples", (), len(latencies), "count"),
        ("trace.run_s", (), traced_s, "s"),
        ("trace.overhead_s", (), traced_s - statistics.median(r.wall for r in plain), "s"),
    ]
    absent = tracer.absent | setup_tracer.absent
    return {
        name: metric(value, unit)
        for name, layers, value, unit in rows
        if not absent.intersection(layers)
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import fairdispatch
        import scipy.optimize  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the program or its reference solver: {exc}", file=sys.stderr)
        return 2
    if Path(fairdispatch.__file__).resolve().parent != ROOT / "src" / "fairdispatch":
        print(f"error: fairdispatch imported from {fairdispatch.__file__}, not from src/", file=sys.stderr)
        return 2
    from bench_checks import percentile
    from bench_probes import SETUP_LAYERS, LayerTracer, Patches
    from bench_workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    report: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}

    if args.trace:
        setup_tracer = LayerTracer()
        with Patches() as patches:
            setup_tracer.install(patches, SETUP_LAYERS)
            state = workload.setup(args.seed, OUT_DIR, args.workload)
        freeze_inputs()
        tracer = LayerTracer()
        plain, traced = run_rounds(workload, state, args.seconds, tracer)
        metrics = per_layer(tracer, setup_tracer, plain, traced)
        report["absent_layers"] = sorted(tracer.absent | setup_tracer.absent)
        report["windows"] = [vars(s) for s in tracer.solves]
    else:
        setup_times, state = timed_setups(workload, args)
        freeze_inputs()
        plain, traced = run_rounds(workload, state, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end(setup_times, plain, peak_rss_mb)
        report["setup_s"] = setup_times
    rounds = plain + traced
    errors, info = workload.final_checks(state)
    report.update(info)
    report["rounds"] = [
        {"seconds": r.seconds, "wall": r.wall, "windows": len(r.latencies),
         "failed": sum(r.failed), "served": r.served,
         "decision_ms_p50": 1e3 * percentile(r.latencies, 50),
         "decision_ms_p90": 1e3 * percentile(r.latencies, 90)}
        for r in rounds
    ]
    report["errors"] = errors
    report["metrics"] = metrics
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n"
    )
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    if report.get("absent_layers"):
        print(f"absent layers: {', '.join(report['absent_layers'])}")
    result = {
        "correct": not errors,
        "attempted": sum(len(r.latencies) for r in rounds),
        "failed": sum(sum(r.failed) for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
