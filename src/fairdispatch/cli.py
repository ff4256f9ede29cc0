"""Command-line front end.

Exit codes: 0 success; 2 invalid manifest or flags, an --out that is not a
directory, or an output there that is not a regular file; 3 runtime failure
(`run` and `sweep` also write the window the matcher failed on to
failed_window_<k>.json); 4 outputs, or an earlier
failure dump, already present without --force, which deletes them before
the command runs; 5 theorem-check failure.
A command stops early only by raising `_Exit`, whose message `main` prints
before returning its code.  Every output file is written to a temp name and
atomically renamed.
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
from typing import Iterable, NoReturn, Sequence

from .errors import ConfigError, ContractError, FairDispatchError, InputError, ParseError, WindowSolveError
from .manifest import horizon_from, load_scenario, network_from, read_manifest, requests_from
from .matcher import MatchProblem, problem_to_json
from .metrics import METRICS_COLUMNS
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


class _Exit(Exception):
    """Stop a command: `main` prints the message to stderr and returns `code`."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _load(load, manifest: str, label: str = "error"):
    """`load(manifest path)`; a bad manifest or data file exits 2."""
    try:
        return load(Path(manifest))
    except (ConfigError, InputError, ParseError, OSError) as exc:
        raise _Exit(2, f"{label}: {exc}") from None


def _outputs(args: argparse.Namespace, names: Sequence[str]) -> Path:
    """The directory `--out`, made if absent; a name may be a glob for earlier failure dumps.

    Any output already there exits 4 unless --force is given, which deletes
    them all, so a forced command that fails leaves none of an earlier one's.
    An output there that is not a regular file exits 2 before any is deleted.
    """
    out = Path(args.out)
    existing = [path for name in names for path in sorted(out.glob(name))]
    odd = [path.name for path in existing if not path.is_file()]
    if odd:
        raise _Exit(2, f"error: outputs in {out} are not regular files: {odd}")
    if existing and not args.force:
        raise _Exit(4, f"error: outputs already exist in {out}: {[p.name for p in existing]} (use --force)")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _Exit(2, f"error: --out {out} is not a directory: {exc.strerror}") from None
    for path in existing:
        path.unlink()
    return out


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text: the header line, then one line per row, each ended by a newline."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _write_dump(path: Path, problem: MatchProblem) -> None:
    """A replayable dump of a window's matching problem."""
    _atomic_write(path, problem_to_json(problem) + "\n")


def _failed(exc: FairDispatchError, out: Path, what: str) -> NoReturn:
    """Exit 3 from a failed run or sweep, dumping the window the matcher failed on."""
    if isinstance(exc, WindowSolveError):
        _write_dump(out / f"failed_window_{exc.window}.json", exc.problem)
    raise _Exit(3, f"error: {what} failed: {exc}")


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
    out = _outputs(args, ["metrics.csv", "result.json", "summary.txt", "failed_window_*.json"])
    try:
        result = run_simulation(
            scenario.config, scenario.net, scenario.partition, scenario.requests, scenario.fleet
        )
    except FairDispatchError as exc:
        _failed(exc, out, "simulation")
    rows = (row.as_row() for row in result.window_rows)
    _atomic_write(out / "metrics.csv", _csv_text(METRICS_COLUMNS, rows))
    _atomic_write(out / "result.json", json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n")
    _atomic_write(out / "summary.txt", _summary_text(result))
    print(_summary_text(result), end="")
    return 0


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
    out = _outputs(args, ["sweep.csv", "summary.txt", "failed_window_*.json"])
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
        _failed(exc, out, "sweep")
    header = ["beta", "delta", "passenger_plus", "driver_plus", *METRICS_COLUMNS]
    points = (
        [repr(r.beta), repr(r.delta), r.passenger_plus, r.driver_plus, *r.result.window_rows[-1].as_row()]
        for r in rows
    )
    _atomic_write(out / "sweep.csv", _csv_text(header, points))
    summary = _frontier_summary(rows)
    _atomic_write(out / "summary.txt", summary)
    print(summary, end="")
    return 0


def _cmd_theorem_check(args: argparse.Namespace) -> int:
    out = _outputs(args, ["theorem_report.csv", "theorem_fail_seed*.json"])
    build = (
        build_passenger_min_unfair_instance
        if args.which == "passenger"
        else build_driver_min_unfair_instance
    )
    check = check_passenger_theorem if args.which == "passenger" else check_driver_theorem

    rows = []
    failures = 0
    for seed in range(args.seeds):
        outcome = check(build(seed), ladder=DEFAULT_WEIGHT_LADDER)
        best = max(outcome.ladder_metrics.values()) if outcome.ladder_metrics else float("nan")
        baseline = repr(outcome.baseline_metric)
        rows.append([seed, outcome.unfair_at_zero, outcome.improved, baseline, repr(best), outcome.detail])
        if not outcome.passed:
            failures += 1
            _write_dump(out / f"theorem_fail_seed{seed}.json", outcome.problem)
    header = ["seed", "unfair_at_zero", "improved", "baseline", "best", "detail"]
    _atomic_write(out / "theorem_report.csv", _csv_text(header, rows))
    if failures:
        raise _Exit(5, f"{args.which} theorem check FAILED for {failures}/{args.seeds} seeds")
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
    out = _outputs(args, ["requests.csv"])
    rows = ([r.pickup, r.dropoff, repr(r.arrival)] for r in requests)
    _atomic_write(out / "requests.csv", _csv_text(["# pickup_id", "dropoff_id", "arrival_seconds"], rows))
    print(f"wrote {len(requests)} requests to {out / 'requests.csv'}")
    return 0


def _cmd_gen_network(args: argparse.Namespace) -> int:
    net, partition = _load(lambda path: network_from(read_manifest(path), path.parent), args.manifest)
    out = _outputs(args, ["network.csv", "partition.csv"])
    edges = ([u, v, int(cost) if float(cost).is_integer() else repr(cost)] for u, v, cost in net.edges)
    _atomic_write(out / "network.csv", _csv_text(["# from_id", "to_id", "cost_seconds"], edges))
    # The partition as loaded: a file may leave a location unmapped or map one off the network.
    areas = sorted(partition.area_of.items())
    _atomic_write(out / "partition.csv", _csv_text(["# location_id", "area_id"], areas))
    print(f"wrote {len(net.locations)} locations, {len(net.edges)} edges to {out}")
    return 0


def _cmd_validate_config(args: argparse.Namespace) -> int:
    scenario = _load(load_scenario, args.manifest, label="invalid")
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
    except _Exit as stop:
        print(stop, file=sys.stderr)
        return stop.code
    except ContractError as exc:
        print(f"error: internal contract violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
