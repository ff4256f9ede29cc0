"""Byte-identity of `metrics.csv` and of every window's problem across refactors.

Each `GOLDEN` digest is the sha256 of the `metrics.csv` that `fairdispatch
run` writes for the manifest beside it.  The first six were recorded before
scoring moved to per-window fairness snapshots; any change in how a score is
summed shows up here as a changed matching and hence a changed file.

`metrics.csv` cannot see every wrong score: a vehicle that reaches no
request is a component of its own, so its null candidate's score never
changes a matching.  Each `PROBLEM_GOLDEN` digest therefore hashes every
window's `problem_to_json` over a run, which prints each candidate's score.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import fairdispatch.sim as sim_module
from fairdispatch.cli import main
from fairdispatch.manifest import load_scenario
from fairdispatch.matcher import problem_to_json

CRITERION_8 = {
    "window_len": 60,
    "horizon": 1800,
    "seed": 12,
    "network": {"grid": {"rows": 4, "cols": 4, "edge_cost": 60}},
    "partition": {"grid": {"rows_per_area": 2, "cols_per_area": 2}},
    "requests": {"profile": {"rates": [[0, 3, 1.0], [2, 1, 0.5]], "seed": 8}},
    "fleet": {"random": {"size": 4, "capacity": 2, "seed": 2}},
    "weights": {"beta": 2.0, "delta": 1.0, "passenger_plus": True},
}


def desk(weights: dict) -> dict:
    """Two hours of the desk scenario: 6x6 grid, 20 vehicles, exact matcher.

    Seed 1 makes each of the weighted runs below differ from the unweighted one.
    """
    return {
        "window_len": 60,
        "horizon": 7200,
        "seed": 1,
        "matcher": "ilp",
        "network": {"grid": {"rows": 6, "cols": 6, "edge_cost": 80}},
        "partition": {"grid": {"rows_per_area": 3, "cols_per_area": 3}},
        "requests": {"profile": {"rates": [[0, 3, 2.78], [2, 1, 0.7]], "seed": 1}},
        "fleet": {"random": {"size": 20, "capacity": 2, "seed": 1001}},
        "weights": weights,
    }


# Four seats and bundles of three: routes of 2, 3 and 4+ stops, and 118
# three-request candidates, of which 7 are chosen.  Its digest was recorded
# before the singles of long routes moved into `reachable_requests`.
BUNDLE_3 = {
    "window_len": 60,
    "horizon": 3600,
    "seed": 1,
    "matcher": "ilp",
    "max_bundle": 3,
    "network": {"grid": {"rows": 6, "cols": 6, "edge_cost": 80}},
    "partition": {"grid": {"rows_per_area": 3, "cols_per_area": 3}},
    "requests": {"profile": {"rates": [[0, 3, 6.0], [2, 1, 1.5]], "seed": 1}},
    "fleet": {"random": {"size": 12, "capacity": 4, "seed": 1001}},
    "weights": {"beta": 20.0, "delta": 20.0, "passenger_plus": True, "driver_plus": True},
}


# Four seats, bundles of three and a 120 s detour allowance on a 12x12 grid,
# with two hours of demand over all 16 pairs of its four areas: most singles
# offered to routes of two or more stops fail, and the two reject tests in
# `reachable_requests` both fire.  Of its 5,202 long-route singles, 4,700
# have no plan: the route-deadline test rejects 3,544 of them and the
# dropoff-detour test 971 more.  Its digest was recorded before those tests.
LONG_ROUTES = {
    "window_len": 60,
    "horizon": 7200,
    "seed": 1,
    "matcher": "ilp",
    "max_bundle": 3,
    "max_detour": 120,
    "network": {"grid": {"rows": 12, "cols": 12, "edge_cost": 40}},
    "partition": {"grid": {"rows_per_area": 6, "cols_per_area": 6}},
    "requests": {"profile": {"rates": [[o, d, 0.5] for o in range(4) for d in range(4)], "seed": 1}},
    "fleet": {"random": {"size": 20, "capacity": 4, "seed": 1001}},
    "weights": {"beta": 20.0, "delta": 20.0, "passenger_plus": True, "driver_plus": True},
}


DESK_DELAY = {**desk({"beta": 20.0, "delta": 20.0}), "vfa": {"kind": "delay", "omega": 1e-3}}
DESK_TABLE = {**desk({"beta": 20.0, "delta": 20.0}), "vfa": {"kind": "table", "path": "values.csv"}}
DESK_GREEDY = {
    **desk({"beta": 20.0, "delta": 20.0, "passenger_plus": True, "driver_plus": True}),
    "matcher": "async_greedy",
}

# `DESK_TABLE`'s value table, keyed by (area, onboard count, hour bucket) over
# the desk grid's four areas, two seats and three buckets.  Every key is
# nonzero, so vehicles that reach no request score their null action above or
# below zero, except (1, 0, 0) at -0.0, which 45 such vehicle-windows hold and
# whose null score must print as 0.0.
def _table_value(area: int, onboard: int, bucket: int) -> str:
    if (area, onboard, bucket) == (1, 0, 0):
        return "-0.0"
    return repr((area + 1) * 0.3 - onboard * 0.7 + bucket * 0.11)


VALUE_TABLE = "".join(
    f"{area},{onboard},{bucket},{_table_value(area, onboard, bucket)}\n"
    for area in range(4)
    for onboard in range(3)
    for bucket in range(3)
)


def write_manifest(tmp_path: Path, manifest: dict) -> Path:
    """The manifest as `m.json`, with `DESK_TABLE`'s value table beside it."""
    (tmp_path / "values.csv").write_text(VALUE_TABLE)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    return path


GOLDEN = {
    "bundle-3": (
        BUNDLE_3,
        "a240cf7099d6412c53cc0db29620cf83c38cfc69bec7bad8329bca9827ef300d",
    ),
    "criterion-8": (
        CRITERION_8,
        "d3803dbe5dba9deab259ecf1414ea82b1222d6d33f5fc2933bc1053abe8704d1",
    ),
    "desk-zero": (
        desk({}),
        "1ac7e5a5b64953dbd1da864eebbff761b43274e851780a291832f75a92b15a87",
    ),
    "desk-beta-plus": (
        desk({"beta": 20.0, "passenger_plus": True}),
        "f1ce3b7696c883859febf278236a2828010e964db9bc0ce3d00c0331bbb3aa29",
    ),
    "desk-delta-plus": (
        desk({"delta": 20.0, "driver_plus": True}),
        "c41f6a341f261bfc53f20522403d020921d9926f9fa2f4977eb8b789c51407d4",
    ),
    "desk-both-plain": (
        desk({"beta": 20.0, "delta": 20.0}),
        "f15748c736fe803e2877d2bf4e522b3844e35e7d86e582219b03cab30dc5cb7a",
    ),
    "desk-greedy": (
        DESK_GREEDY,
        "03bd096bbc88720eaec25fb45f4e1a3d8c9aaad556e083694d8e8898b3a5f752",
    ),
    "desk-table": (
        DESK_TABLE,
        "298bd7853d58ce4703064191e78a851f9726aa106e5fde69e19ee0a07e0f2cdd",
    ),
}

PROBLEM_GOLDEN = {
    "bundle-3": (
        BUNDLE_3,
        "c825378f9ba6e876f5705e5a2bba28e33fef37f1dea08e3317390595c778fc23",
    ),
    "desk-delay": (
        DESK_DELAY,
        "4d4f59acd09b1b8ed464e97360df56f81345a9874b417b1120d87c8eda11e0be",
    ),
    "desk-table": (
        DESK_TABLE,
        "90c166cd0f7c652175493ab953d52ff54cce819287570818e111800865577d9b",
    ),
    "desk-zero": (
        desk({}),
        "4c47bac3eeee834378a6ec7581ca66b180d5ca3f2771acbe8df71dcf8c3e1e15",
    ),
    "long-routes": (
        LONG_ROUTES,
        "456f6b894d7db58ffb7df7f10db1ca1fc9ac107a84c99cfb26a3f3e3c417123f",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_metrics_csv_digest(tmp_path, name):
    manifest, digest = GOLDEN[name]
    path = write_manifest(tmp_path, manifest)
    out = tmp_path / "out"
    assert main(["run", "--manifest", str(path), "--out", str(out)]) == 0
    got = hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest()
    assert got == digest, f"{name}: metrics.csv digest {got}"


@pytest.mark.parametrize("name", sorted(PROBLEM_GOLDEN))
def test_window_problem_digest(tmp_path, monkeypatch, name):
    manifest, digest = PROBLEM_GOLDEN[name]
    scenario = load_scenario(write_manifest(tmp_path, manifest))
    hashed = hashlib.sha256()
    build = sim_module.build_window_problem

    def hashing(*args):
        problem, actions_by = build(*args)
        hashed.update(problem_to_json(problem).encode() + b"\n")
        return problem, actions_by

    monkeypatch.setattr(sim_module, "build_window_problem", hashing)
    sim_module.run_simulation(
        scenario.config, scenario.net, scenario.partition, scenario.requests, scenario.fleet
    )
    got = hashed.hexdigest()
    assert got == digest, f"{name}: window problem digest {got}"
