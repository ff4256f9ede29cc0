"""Command-line front end.

Exit codes: 0 success; 2 invalid manifest or flags; 3 runtime failure (`run`
and `sweep` also write the window the matcher failed on to
failed_window_<k>.json); 4 output files already present without --force;
5 theorem-check failure.
Every output file is written to a temp name and atomically renamed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from pathlib import Path

from .errors import ConfigError, ContractError, FairDispatchError, InputError, ParseError, WindowSolveError
from .manifest import horizon_from, load_scenario, network_from, read_manifest, requests_from
from .matcher import problem_to_json
from .metrics import METRICS_COLUMNS, write_metrics_csv
from .sim import (
    DEFAULT_WEIGHT_LADDER,
    RunResult,
    SweepRow,
    build_driver_min_unfair_instance,
    build_passenger_min_unfair_instance,
    check_driver_theorem,
    check_passenger_theorem,
    run_simulation,
    sweep,
)

DEFAULT_SWEEP_GRID = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)

VARIANTS = {
    "si": [(False, False)],
    "si-plus": [(True, True)],
    "both": [(False, False), (False, True), (True, False), (True, True)],
}


def _weight_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("list must not be empty")
    if not all(0 <= value < math.inf for value in values):
        raise argparse.ArgumentTypeError(f"weights must be finite and nonnegative, got {text!r}")
    return values


def _int_in(low: int, high: int):
    """An argparse type: an integer in `low`..`high`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"expected an integer in {low}..{high}, got {value}")
        return value

    return parse


def _load(load, manifest: str, label: str = "error"):
    """`load(manifest path)`, or None after reporting a bad manifest or data file."""
    try:
        return load(Path(manifest))
    except (ConfigError, InputError, ParseError, OSError) as exc:
        print(f"{label}: {exc}", file=sys.stderr)
        return None


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _guard_outputs(out: Path, names: list[str], force: bool) -> int | None:
    existing = [name for name in names if (out / name).exists()]
    if existing and not force:
        print(f"error: outputs already exist in {out}: {existing} (use --force)", file=sys.stderr)
        return 4
    out.mkdir(parents=True, exist_ok=True)
    return None


def _failed(exc: FairDispatchError, out: Path, what: str) -> int:
    """Report a failed run or sweep, dumping the window the matcher failed on; exit 3."""
    if isinstance(exc, WindowSolveError):  # a replayable dump of the failed window
        _atomic_write(out / f"failed_window_{exc.window}.json", problem_to_json(exc.problem) + "\n")
    print(f"error: {what} failed: {exc}", file=sys.stderr)
    return 3


def _summary_text(result: RunResult) -> str:
    p = result.passenger_report
    d = result.driver_report
    return (
        f"requests: {result.total_requests}  served: {result.total_served}  "
        f"service rate: {result.service_rate:.4f}\n"
        f"passenger F_Gini: {p.f_gini:.4f}  min group rate: {p.min_value:.4f}\n"
        f"driver F_Gini: {d.f_gini:.4f}  min income (raw): {d.min_value:.4f}\n"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _load(load_scenario, args.manifest)
    if scenario is None:
        return 2
    out = Path(args.out)
    blocked = _guard_outputs(out, ["metrics.csv", "result.json", "summary.txt"], args.force)
    if blocked is not None:
        return blocked
    try:
        result = run_simulation(
            scenario.config, scenario.net, scenario.partition, scenario.requests, scenario.fleet
        )
    except FairDispatchError as exc:
        return _failed(exc, out, "simulation")
    tmp = out / "metrics.csv.tmp"
    write_metrics_csv(result.window_rows, tmp)
    os.replace(tmp, out / "metrics.csv")
    _atomic_write(out / "result.json", json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n")
    _atomic_write(out / "summary.txt", _summary_text(result))
    print(_summary_text(result), end="")
    return 0


def _sweep_csv(rows: list[SweepRow]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["beta", "delta", "passenger_plus", "driver_plus", *METRICS_COLUMNS])
    for row in rows:
        final = row.result.window_rows[-1]
        writer.writerow(
            [repr(row.beta), repr(row.delta), row.passenger_plus, row.driver_plus, *final.as_row()]
        )
    return buffer.getvalue()


def _frontier_summary(rows: list[SweepRow]) -> str:
    base = next((r for r in rows if r.beta == 0 and r.delta == 0), None)
    if base is None:
        return "no (beta=0, delta=0) baseline in the sweep grid; frontier not computed\n"
    floor = 0.95 * base.result.service_rate
    lines = [
        f"baseline service rate: {base.result.service_rate:.4f} "
        f"(95% floor: {floor:.4f})\n"
    ]
    sides = (
        ("passenger", lambda r: r.result.passenger_report.f_gini),
        ("driver", lambda r: r.result.driver_report.f_gini),
    )
    for side, gini_of in sides:
        eligible = [
            r
            for r in rows
            if r.result.service_rate >= floor and gini_of(r) > gini_of(base)
        ]
        if not eligible:
            lines.append(f"{side}: no swept point improves F_Gini within the floor\n")
            continue
        best = max(eligible, key=lambda r: (gini_of(r), -r.beta, -r.delta))
        lines.append(
            f"{side}: best F_Gini {gini_of(best):.4f} at beta={best.beta} delta={best.delta} "
            f"plus=({best.passenger_plus},{best.driver_plus}) "
            f"service rate {best.result.service_rate:.4f}\n"
        )
    return "".join(lines)


def _cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _load(load_scenario, args.manifest)
    if scenario is None:
        return 2
    out = Path(args.out)
    blocked = _guard_outputs(out, ["sweep.csv", "summary.txt"], args.force)
    if blocked is not None:
        return blocked
    try:
        rows = sweep(
            scenario.config,
            scenario.net,
            scenario.partition,
            scenario.requests,
            scenario.fleet,
            betas=args.beta,
            deltas=args.delta,
            variants=VARIANTS[args.variant],
            jobs=args.jobs,
        )
    except FairDispatchError as exc:
        return _failed(exc, out, "sweep")
    _atomic_write(out / "sweep.csv", _sweep_csv(rows))
    summary = _frontier_summary(rows)
    _atomic_write(out / "summary.txt", summary)
    print(summary, end="")
    return 0


def _cmd_theorem_check(args: argparse.Namespace) -> int:
    out = Path(args.out)
    blocked = _guard_outputs(out, ["theorem_report.csv"], args.force)
    if blocked is not None:
        return blocked
    build = (
        build_passenger_min_unfair_instance
        if args.which == "passenger"
        else build_driver_min_unfair_instance
    )
    check = check_passenger_theorem if args.which == "passenger" else check_driver_theorem

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["seed", "unfair_at_zero", "improved", "baseline", "best", "detail"])
    failures = 0
    for seed in range(args.seeds):
        outcome = check(build(seed), ladder=DEFAULT_WEIGHT_LADDER)
        best = max(outcome.ladder_metrics.values()) if outcome.ladder_metrics else float("nan")
        writer.writerow(
            [
                seed,
                outcome.unfair_at_zero,
                outcome.improved,
                repr(outcome.baseline_metric),
                repr(best),
                outcome.detail,
            ]
        )
        if not outcome.passed:
            failures += 1
            _atomic_write(out / f"theorem_fail_seed{seed}.json", outcome.problem_json + "\n")
    _atomic_write(out / "theorem_report.csv", buffer.getvalue())
    if failures:
        print(f"{args.which} theorem check FAILED for {failures}/{args.seeds} seeds", file=sys.stderr)
        return 5
    print(f"{args.which} theorem check passed for all {args.seeds} seeds")
    return 0


def _synthesise_demand(path: Path) -> list:
    doc = read_manifest(path)
    spec = doc.get("requests")
    if not isinstance(spec, dict) or "profile" not in spec:
        raise ConfigError("gen-demand requires a 'requests.profile' manifest section")
    net, partition = network_from(doc, path.parent)
    return requests_from(doc, path.parent, net, partition, horizon_from(doc))


def _cmd_gen_demand(args: argparse.Namespace) -> int:
    requests = _load(_synthesise_demand, args.manifest)
    if requests is None:
        return 2
    out = Path(args.out)
    blocked = _guard_outputs(out, ["requests.csv"], args.force)
    if blocked is not None:
        return blocked
    lines = ["# pickup_id,dropoff_id,arrival_seconds"]
    lines += [f"{r.pickup},{r.dropoff},{repr(r.arrival)}" for r in requests]
    _atomic_write(out / "requests.csv", "\n".join(lines) + "\n")
    print(f"wrote {len(requests)} requests to {out / 'requests.csv'}")
    return 0


def _cmd_gen_network(args: argparse.Namespace) -> int:
    loaded = _load(lambda path: network_from(read_manifest(path), path.parent), args.manifest)
    if loaded is None:
        return 2
    net, partition = loaded
    out = Path(args.out)
    blocked = _guard_outputs(out, ["network.csv", "partition.csv"], args.force)
    if blocked is not None:
        return blocked
    net_lines = ["# from_id,to_id,cost_seconds"]
    net_lines += [
        f"{u},{v},{int(cost) if float(cost).is_integer() else repr(cost)}"
        for u, v, cost in net.edges
    ]
    _atomic_write(out / "network.csv", "\n".join(net_lines) + "\n")
    part_lines = ["# location_id,area_id"]
    part_lines += [f"{loc},{partition.area(loc)}" for loc in net.locations]
    _atomic_write(out / "partition.csv", "\n".join(part_lines) + "\n")
    print(f"wrote {len(net.locations)} locations, {len(net.edges)} edges to {out}")
    return 0


def _cmd_validate_config(args: argparse.Namespace) -> int:
    scenario = _load(load_scenario, args.manifest, label="invalid")
    if scenario is None:
        return 2
    print(
        f"ok: {len(scenario.net.locations)} locations, "
        f"{scenario.partition.num_areas} areas, "
        f"{len(scenario.requests)} requests, "
        f"{len(scenario.fleet)} vehicles, "
        f"{scenario.config.n_windows} windows"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairdispatch",
        description="Ridesharing dispatch simulator with fairness incentives",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, manifest: bool = True) -> None:
        if manifest:
            p.add_argument("--manifest", required=True, help="scenario manifest JSON")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")

    p_run = sub.add_parser("run", help="run one simulation")
    add_common(p_run)
    p_run.set_defaults(handler=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid-sweep the fairness weights")
    add_common(p_sweep)
    p_sweep.add_argument("--beta", type=_weight_list, default=list(DEFAULT_SWEEP_GRID))
    p_sweep.add_argument("--delta", type=_weight_list, default=list(DEFAULT_SWEEP_GRID))
    p_sweep.add_argument("--variant", choices=sorted(VARIANTS), default="both")
    jobs_type = _int_in(1, os.cpu_count() or 1)
    p_sweep.add_argument("--jobs", type=jobs_type, default=1, help="parallel runs, at most the CPU count")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_thm = sub.add_parser("theorem-check", help="check the max-min improvement guarantees")
    p_thm.add_argument("--which", choices=["passenger", "driver"], required=True)
    # At about 2 ms a seed the ceiling is some 3 minutes; the report is written only at the end.
    p_thm.add_argument("--seeds", type=_int_in(1, 100_000), default=50)
    add_common(p_thm, manifest=False)
    p_thm.set_defaults(handler=_cmd_theorem_check)

    p_gd = sub.add_parser("gen-demand", help="materialise a synthetic request file")
    add_common(p_gd)
    p_gd.set_defaults(handler=_cmd_gen_demand)

    p_gn = sub.add_parser("gen-network", help="materialise network and partition files")
    add_common(p_gn)
    p_gn.set_defaults(handler=_cmd_gen_network)

    p_vc = sub.add_parser("validate-config", help="validate a manifest without running")
    p_vc.add_argument("--manifest", required=True)
    p_vc.set_defaults(handler=_cmd_validate_config)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ContractError as exc:
        print(f"error: internal contract violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
