from __future__ import annotations

import pytest

import fairdispatch.sim as sim_module
from fairdispatch.fleet import Action, VehicleState
from fairdispatch.network import grid_partition, make_grid
from fairdispatch.scoring import ScoreWeights, fairness_snapshot, total_score


def keep_route(v: VehicleState) -> Action:
    """The null action as an `Action`: serve nothing and keep the route `v` holds."""
    return Action((), tuple(v.route), 0.0)


@pytest.fixture(scope="session")
def grid3():
    return make_grid(3, 3, 1.0)


@pytest.fixture(scope="session")
def grid4_60():
    return make_grid(4, 4, 60.0)


@pytest.fixture(scope="session")
def halves4():
    # 4x4 grid split into left/right halves
    return grid_partition(4, 4, 4, 2)


@pytest.fixture
def zero_weight_scores_checked(monkeypatch):
    """Checks every window the run loop builds against the fairness objective at weights 0/0.

    Each candidate's requests and score must equal the action's and its
    `total_score` on that window's own fairness snapshot at zero weights,
    under the plain and the plus variants, scores compared by `float.hex`.
    Every vehicle's candidate 0 is checked against `keep_route`, and a
    vehicle with no entry in `actions_by` reaches no request, so that is its
    only candidate.  Returns the list of checked windows' candidate counts,
    one entry per window.
    """
    checked: list[int] = []
    build = sim_module.build_window_problem

    def checking(vehicles, batch, now, net, cfg, hist_p, hist_d, partition):
        problem, actions_by = build(vehicles, batch, now, net, cfg, hist_p, hist_d, partition)
        for plus in (False, True):
            w = ScoreWeights(0.0, 0.0, plus, plus)
            snapshot = fairness_snapshot(hist_p, hist_d, w)
            for v in vehicles:
                expected = [
                    (a.request_ids(), total_score(v, a, cfg.vfa, snapshot, w, now, partition, cfg.pricing).hex())
                    for a in [keep_route(v), *actions_by.get(v.id, [])]
                ]
                got = [(c.requests, c.score.hex()) for c in problem.candidates[v.id]]
                assert got == expected, (now, v.id)
        checked.append(sum(len(rows) for rows in problem.candidates.values()))
        return problem, actions_by

    monkeypatch.setattr(sim_module, "build_window_problem", checking)
    return checked
