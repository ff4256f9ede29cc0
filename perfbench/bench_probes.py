"""Timing hooks installed from outside the program.

The end-to-end run carries only the two per-window hooks that decision
latency needs (`DecisionProbe`).  The traced run adds `LayerTracer`, which
wraps every public function that `fairdispatch.sim` calls into another
layer, plus the set-up constructors reached through `fairdispatch.manifest`.  Wrapping is
done by rebinding module attributes, so the program's own code is untouched
and a renamed function shows up as an absent layer rather than as zero time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import fairdispatch.manifest as manifest_module
import fairdispatch.network as network_module
import fairdispatch.sim as sim_module

from bench_checks import components

MATCHER_NAMES = ("solve_ilp", "async_greedy_match")

# Layer name -> the (module, attribute) pairs whose calls it times.  Every
# name is looked up in the namespace of the caller, so nested calls inside a
# layer's own module are not counted twice.
LOOP_LAYERS = {
    "fleet.enumerate": ((sim_module, "feasible_actions"),),
    "fleet.advance": ((sim_module, "advance"),),
    "scoring.score": ((sim_module, "total_score"), (sim_module, "base_score")),
    "scoring.reward": ((sim_module, "immediate_reward"),),
    "matcher.solve": tuple((sim_module, name) for name in MATCHER_NAMES),
    "metrics.history": (
        (sim_module, "update_passenger_history"),
        (sim_module, "update_driver_history"),
    ),
    "metrics.report": ((sim_module, "equity_report"),),
}
SETUP_LAYERS = {
    "network.build": ((manifest_module, "make_grid"), (network_module, "from_edges")),
    "demand.synth": ((manifest_module, "synth_requests"),),
}


class Patches:
    """Module attributes rebound to wrappers, restored in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module, name: str, make_wrapper) -> bool:
        original = getattr(module, name, None)
        if original is None:
            return False
        self._saved.append((module, name, original))
        setattr(module, name, make_wrapper(original))
        return True

    def restore(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class DecisionProbe:
    """Per-window decision latency: `build_window_problem` plus the matcher call."""

    def __init__(self) -> None:
        self.build: list[float] = []
        self.solve: list[float] = []

    def install(self, patches: Patches) -> None:
        if not patches.wrap(sim_module, "build_window_problem", self._timer(self.build)):
            raise RuntimeError("fairdispatch.sim.build_window_problem is gone")
        found = [patches.wrap(sim_module, name, self._timer(self.solve)) for name in MATCHER_NAMES]
        if not any(found):
            raise RuntimeError("no matcher function found in fairdispatch.sim")

    @staticmethod
    def _timer(sink: list[float]):
        def make(fn):
            def timed(*args, **kwargs):
                start = perf_counter()
                out = fn(*args, **kwargs)
                sink.append(perf_counter() - start)
                return out

            return timed

        return make

    def latencies(self) -> list[float]:
        if len(self.build) != len(self.solve):
            raise RuntimeError(
                f"{len(self.build)} window builds but {len(self.solve)} matcher calls"
            )
        return [b + s for b, s in zip(self.build, self.solve)]


@dataclass
class LayerTotals:
    seconds: float = 0.0
    calls: int = 0
    items: int = 0


@dataclass
class SolveRecord:
    """What the matcher saw and did in one window."""

    seconds: float
    candidates: int
    batch: int
    served: int
    component_vehicles: int


@dataclass
class LayerTracer:
    """Accumulates time, calls and output counts per layer around wrapped calls.

    Only the outermost call of a layer is timed, so a layer function that
    reaches another wrapped function of the same layer counts once.
    """

    totals: dict[str, LayerTotals] = field(default_factory=dict)
    solves: list[SolveRecord] = field(default_factory=list)
    absent: set[str] = field(default_factory=set)
    _depth: dict[str, int] = field(default_factory=dict)

    def install(self, patches: Patches, layers: dict) -> None:
        for layer, targets in layers.items():
            self.totals.setdefault(layer, LayerTotals())
            self._depth.setdefault(layer, 0)
            if not all(hasattr(module, name) for module, name in targets):
                self.absent.add(layer)
                continue
            for module, name in targets:
                patches.wrap(module, name, self._wrapper(layer))

    def _wrapper(self, layer: str):
        totals = self.totals[layer]
        depth = self._depth

        def make(fn):
            def traced(*args, **kwargs):
                if depth[layer]:
                    return fn(*args, **kwargs)
                depth[layer] = 1
                start = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    depth[layer] = 0
                    totals.seconds += elapsed
                    totals.calls += 1
                self._count(layer, args, out, elapsed)
                return out

            return traced

        return make

    def _count(self, layer: str, args: tuple, out, elapsed: float) -> None:
        if layer in ("fleet.enumerate", "demand.synth"):
            self.totals[layer].items += len(out)
        elif layer == "matcher.solve":
            self.solves.append(solve_record(args[0], out, elapsed))

    def record_failed_solve(self, problem, elapsed: float) -> None:
        self.solves.append(solve_record(problem, None, elapsed))


def solve_record(problem, matching, elapsed: float) -> SolveRecord:
    return SolveRecord(
        seconds=elapsed,
        candidates=sum(len(c) for c in problem.candidates.values()),
        batch=len(problem.batch_ids),
        served=len(matching.served_request_ids()) if matching is not None else 0,
        component_vehicles=max((len(g) for g in components(problem)), default=0),
    )
