"""Byte-identity of `metrics.csv` across refactors of the scoring path.

Each digest is the sha256 of the `metrics.csv` that `fairdispatch run`
writes for the manifest beside it.  They were recorded before scoring moved
to per-window fairness snapshots; any change in how a score is summed shows
up here as a changed matching and hence a changed file.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from fairdispatch.cli import main

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
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_metrics_csv_digest(tmp_path, name):
    manifest, digest = GOLDEN[name]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "out"
    assert main(["run", "--manifest", str(path), "--out", str(out)]) == 0
    got = hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest()
    assert got == digest, f"{name}: metrics.csv digest {got}"
