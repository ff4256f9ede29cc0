"""The benchmark's workloads: inputs made from a seed, timed rounds, output checks.

Every workload is a closed loop in one process: a round runs its windows
back to back and the next round starts when the previous one has ended.
A run repeats whole rounds until the timed phase has lasted the requested
number of seconds, so every run attempts a whole number of rounds.
"""

from __future__ import annotations

import json
import random
import signal
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import fairdispatch.sim as sim_module
from fairdispatch.manifest import fleet_from, load_scenario, requests_from

import bench_checks
from bench_probes import LOOP_LAYERS, MATCHER_NAMES, DecisionProbe, LayerTracer, Patches

WINDOW_LEN = 60.0
# Windows per reference MILP when checking a simulated day.
MILP_BATCH = 120
# The per-window decision limit the roadmap sets for a city-scale day.  Only
# contended-windows enforces it: a simulated day cannot go on without the
# window's matching, so there a slow window is simply slow.
WINDOW_LIMIT_S = 1.0
FAIR_WEIGHTS = {"beta": 20.0, "delta": 20.0, "passenger_plus": True, "driver_plus": True}
DESK_RATE = 5000.0 / 1440.0  # requests per one-minute window in the desk scenario
CAPTURE_SEED = 0


def round_seed(seed: int, index: int) -> int:
    return 1000 * seed + index


def two_group_rates(scale: float) -> list[list[float]]:
    """The desk scenario's demand: a 4:1 split over two origin-destination groups."""
    per_window = scale * DESK_RATE
    return [[0, 3, 4.0 * per_window / 5.0], [2, 1, per_window / 5.0]]


def all_pairs_rates(areas: int, scale: float) -> list[list[float]]:
    per_group = scale * DESK_RATE / (areas * areas)
    return [[o, d, per_group] for o in range(areas) for d in range(areas)]


@dataclass(frozen=True)
class Scenario:
    """A grid scenario written as a `fairdispatch run` manifest."""

    grid: int
    edge_cost: float
    tile: int
    rates: list
    fleet_size: int
    windows: int
    matcher: str

    def manifest(self, seed: int) -> dict:
        return {
            "window_len": WINDOW_LEN,
            "horizon": self.windows * WINDOW_LEN,
            "seed": seed,
            "matcher": self.matcher,
            "weights": FAIR_WEIGHTS,
            "network": {"grid": {"rows": self.grid, "cols": self.grid, "edge_cost": self.edge_cost}},
            "partition": {"grid": {"rows_per_area": self.tile, "cols_per_area": self.tile}},
            "requests": {"profile": {"rates": self.rates, "seed": seed}},
            "fleet": {"random": {"size": self.fleet_size, "capacity": 2, "seed": seed + 1000}},
        }

    def load(self, seed: int, out_dir: Path, tag: str):
        path = out_dir / f"{tag}-seed{seed}.json"
        path.write_text(json.dumps(self.manifest(seed), indent=1))
        return load_scenario(path)


@dataclass
class Round:
    """One timed round: its wall time, per-window latencies and outcome counts."""

    seconds: float
    wall: float
    latencies: list[float]
    failed: list[bool]
    served: int


@dataclass
class SimWorkload:
    """Whole `run_simulation` calls; one round simulates `scenario.windows` windows.

    Set-up builds the inputs of `rounds` rounds, each from its own seed; a
    run that gets through more rounds starts over from the first.  With
    `days` set, the rounds are those seeded days in an order drawn from the
    run's seed; otherwise each round's seed is derived from the run's seed.
    """

    scenario: Scenario
    rounds: int
    check_optimum: bool
    days: tuple[int, ...] = ()

    def round_seeds(self, seed: int) -> list[int]:
        if self.days:
            order = list(self.days)
            random.Random(seed).shuffle(order)
            return order[: self.rounds]
        return [round_seed(seed, index) for index in range(self.rounds)]

    def setup(self, seed: int, out_dir: Path, name: str) -> dict:
        """Loads the first round through a manifest, then builds the others' demand and fleet."""
        first, *others = self.round_seeds(seed)
        base = self.scenario.load(first, out_dir, name)
        inputs = [(base.config, base.requests, base.fleet)]
        for rs in others:
            doc = self.scenario.manifest(rs)
            requests = requests_from(doc, out_dir, base.net, base.partition, base.config.horizon)
            inputs.append((replace(base.config, seed=rs), requests, fleet_from(doc, out_dir, base.net)))
        return {"net": base.net, "partition": base.partition, "inputs": inputs,
                "first": None, "errors": []}

    def run_round(self, state: dict, index: int, tracer: LayerTracer | None = None) -> Round:
        cfg, requests, fleet = state["inputs"][index % len(state["inputs"])]
        probe = DecisionProbe()
        with Patches() as patches:
            probe.install(patches)
            if tracer is not None:
                tracer.install(patches, LOOP_LAYERS)
            start = perf_counter()
            result = sim_module.run_simulation(
                cfg, state["net"], state["partition"], requests, fleet, record_trace=True
            )
            seconds = perf_counter() - start
        latencies = probe.latencies()
        errors = bench_checks.run_problems(result, requests, WINDOW_LEN)
        if index == 0 and state["first"] is None:
            state["first"] = result.matchings
        state["errors"].extend(f"round {index}: {e}" for e in errors)
        return Round(seconds, seconds, latencies, [False] * len(latencies), result.total_served)

    def final_checks(self, state: dict) -> tuple[list[str], dict]:
        errors = list(state["errors"])
        info: dict = {}
        if self.check_optimum:
            errors += self._optimum_checks(state, info)
        return errors, info

    def _optimum_checks(self, state: dict, info: dict) -> list[str]:
        """Replays round 0 with the problems kept and checks every window's matching."""
        cfg, requests, fleet = state["inputs"][0]
        built, matchings = [], []
        with Patches() as patches:
            patches.wrap(sim_module, "build_window_problem", keeping(built))
            for name in MATCHER_NAMES:
                patches.wrap(sim_module, name, keeping(matchings))
            replay = sim_module.run_simulation(
                cfg, state["net"], state["partition"], requests, fleet, record_trace=True
            )
        errors = []
        if replay.matchings != state["first"]:
            errors.append("replay of round 0 chose different matchings than the timed run")
        problems = [problem for problem, _ in built]
        brute_checked = 0
        for start in range(0, len(problems), MILP_BATCH):
            batch = slice(start, start + MILP_BATCH)
            verdicts = bench_checks.optimum_problems(problems[batch], matchings[batch])
            errors += [f"window {start + k}: {bad}" for k, bad in enumerate(verdicts) if bad]
        for k, (problem, matching) in enumerate(zip(problems, matchings)):
            checked, ties = bench_checks.tie_break_problems(problem, matching)
            brute_checked += checked
            errors += [f"window {k}: tie-break differs from the oracle: {t}" for t in ties]
        info["optimum_windows_checked"] = len(problems)
        info["tie_break_components_checked"] = brute_checked
        return errors


def keeping(sink: list):
    """Wrapper factory for `Patches.wrap` that appends every result to `sink`."""

    def make(fn):
        def kept(*args, **kwargs):
            out = fn(*args, **kwargs)
            sink.append(out)
            return out

        return kept

    return make


class WindowTimeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise WindowTimeout()


@dataclass(frozen=True)
class Capture:
    """The first `scenario.windows` windows of a greedy run at `CAPTURE_SEED`."""

    tag: str
    scenario: Scenario


@dataclass
class ContendedWorkload:
    """Single captured windows solved by `solve_ilp`, each under the window limit.

    The windows come from a fixed capture seed, not from the run's seed: some
    of them overrun the limit every time, and the share of failed operations
    must not depend on the seed.  The run's seed sets the solve order.
    """

    captures: tuple[Capture, ...]

    def setup(self, seed: int, out_dir: Path, name: str) -> dict:
        windows = []
        for capture in self.captures:
            scenario = capture.scenario.load(CAPTURE_SEED, out_dir, f"{name}-{capture.tag}")
            built: list = []
            with Patches() as patches:
                patches.wrap(sim_module, "build_window_problem", keeping(built))
                sim_module.run_simulation(
                    scenario.config, scenario.net, scenario.partition, scenario.requests, scenario.fleet
                )
            windows += [(capture.tag, k, problem) for k, (problem, _) in enumerate(built)]
        return {"seed": seed, "windows": windows, "results": []}

    def run_round(self, state: dict, index: int, tracer: LayerTracer | None = None) -> Round:
        windows = state["windows"]
        order = list(range(len(windows)))
        random.Random(round_seed(state["seed"], index)).shuffle(order)
        latencies = [0.0] * len(windows)
        failed = [False] * len(windows)
        chosen: list = [None] * len(windows)
        previous = signal.signal(signal.SIGALRM, _raise_timeout)
        try:
            with Patches() as patches:
                if tracer is not None:
                    tracer.install(patches, LOOP_LAYERS)
                start = perf_counter()
                for i in order:
                    problem = windows[i][2]
                    t0 = perf_counter()
                    try:
                        try:
                            signal.setitimer(signal.ITIMER_REAL, WINDOW_LIMIT_S)
                            chosen[i] = sim_module.solve_ilp(problem)
                        finally:
                            signal.setitimer(signal.ITIMER_REAL, 0)
                    except WindowTimeout:
                        chosen[i] = None
                        failed[i] = True
                        if tracer is not None:
                            tracer.record_failed_solve(problem, perf_counter() - t0)
                    latencies[i] = perf_counter() - t0
                wall = perf_counter() - start
        finally:
            signal.signal(signal.SIGALRM, previous)
        charged = bench_checks.charged(latencies, failed, WINDOW_LIMIT_S)
        seconds = wall - sum(latencies) + sum(charged)
        served = sum(len(m.served_request_ids()) for m in chosen if m is not None)
        state["results"].append(chosen)
        return Round(seconds, wall, charged, failed, served)

    def final_checks(self, state: dict) -> tuple[list[str], dict]:
        errors = []
        first = state["results"][0]
        for later in state["results"][1:]:
            if [m and m.chosen for m in later] != [m and m.chosen for m in first]:
                errors.append("a later round chose different matchings than the first")
        solved = [(w, m) for w, m in zip(state["windows"], first) if m is not None]
        verdicts = bench_checks.optimum_problems([w[2] for w, _ in solved], [m for _, m in solved])
        errors += [f"{w[0]} window {w[1]}: {bad}" for (w, _), bad in zip(solved, verdicts) if bad]
        return errors, {"optimum_windows_checked": len(solved)}


# The desk days are the first twelve day seeds, about as many as one run
# gets through, so every run covers the same days.  They are fixed because
# under the exact matcher an occasional day holds a window whose solve runs
# for seconds (day seed 32003, window 3): days drawn from the run's seed
# would be slow on some seeds and not others.  contended-windows measures
# the matcher's unbounded windows instead; day seeds 0-59 hold none.
DESK_DAYS = tuple(range(12))
DESK = Scenario(
    grid=6, edge_cost=80.0, tile=3, rates=two_group_rates(1.0),
    fleet_size=20, windows=1440, matcher="ilp",
)
CITY_GREEDY = Scenario(
    grid=40, edge_cost=40.0, tile=10, rates=all_pairs_rates(16, 10.0),
    fleet_size=200, windows=60, matcher="async_greedy",
)
CITY_S = Scenario(
    grid=10, edge_cost=80.0, tile=5, rates=two_group_rates(3.0),
    fleet_size=50, windows=120, matcher="async_greedy",
)
CITY_M = Scenario(
    grid=20, edge_cost=80.0, tile=10, rates=two_group_rates(10.0),
    fleet_size=200, windows=80, matcher="async_greedy",
)

WORKLOADS = {
    "desk-day": SimWorkload(DESK, len(DESK_DAYS), check_optimum=True, days=DESK_DAYS),
    "city-greedy": SimWorkload(CITY_GREEDY, rounds=8, check_optimum=False),
    "contended-windows": ContendedWorkload((Capture("city-S", CITY_S), Capture("city-M", CITY_M))),
}
