from __future__ import annotations

import math

import pytest

import fairdispatch.sim as sim_module
from fairdispatch.demand import DemandProfile, Request, load_requests, synth_requests
from fairdispatch.errors import ConfigError, InputError, ParseError
from fairdispatch.fleet import VehicleState
from fairdispatch.network import GroupId, grid_partition, make_grid
from fairdispatch.sim import SimConfig, run_simulation


def test_load_requests_minimal(tmp_path, halves4, grid4_60):
    path = tmp_path / "req.csv"
    path.write_text("0,6,30\n")
    requests = load_requests(path, halves4, grid4_60, 600.0)
    assert len(requests) == 1
    r = requests[0]
    assert (r.pickup, r.dropoff, r.arrival) == (0, 6, 30.0)
    assert r.group == GroupId(0, 1)


def test_load_requests_sorted_by_arrival(tmp_path, halves4, grid4_60):
    path = tmp_path / "req.csv"
    path.write_text("0,5,120\n1,6,60\n")
    requests = load_requests(path, halves4, grid4_60, 600.0)
    assert [r.arrival for r in requests] == [60.0, 120.0]
    # ids reflect file order, not sorted order
    assert [r.id for r in requests] == [1, 0]


def test_load_requests_rejects_self_loop(tmp_path, halves4, grid4_60):
    path = tmp_path / "req.csv"
    path.write_text("4,4,10\n")
    with pytest.raises(ParseError, match=":1"):
        load_requests(path, halves4, grid4_60, 600.0)


def test_load_requests_tolerates_extra_column(tmp_path, halves4, grid4_60):
    path = tmp_path / "req.csv"
    path.write_text("0,5,30,ignored\n")
    assert len(load_requests(path, halves4, grid4_60, 600.0)) == 1


def test_request_invariants():
    with pytest.raises(InputError):
        Request(0, 3, 3, 10.0, GroupId(0, 0))
    with pytest.raises(InputError):
        Request(0, 3, 4, -1.0, GroupId(0, 0))


def test_synth_zero_rates_empty(grid4_60, halves4):
    profile = DemandProfile({GroupId(0, 1): 0.0}, horizon=600, seed=1)
    assert synth_requests(profile, grid4_60, halves4) == []


def test_synth_deterministic(grid4_60, halves4):
    profile = DemandProfile({GroupId(0, 1): 1.5, GroupId(1, 0): 0.5}, horizon=3600, seed=42)
    a = synth_requests(profile, grid4_60, halves4)
    b = synth_requests(profile, grid4_60, halves4)
    assert a == b
    assert len(a) > 0
    assert all(r.arrival < 3600 for r in a)
    assert all(r.pickup != r.dropoff for r in a)


def test_synth_poisson_concentration(grid4_60, halves4):
    # 1000 steps at rate 2.0: total within 3 standard deviations of 2000
    profile = DemandProfile({GroupId(0, 1): 2.0}, horizon=60_000, seed=9, step_seconds=60)
    total = len(synth_requests(profile, grid4_60, halves4))
    assert abs(total - 2000) <= 3 * math.sqrt(2000)


def test_synth_partial_final_step(grid4_60, halves4):
    # horizon not divisible by the step: the last window is shorter and its
    # rate scales down; arrivals must still land strictly inside the horizon
    profile = DemandProfile({GroupId(0, 1): 5.0}, horizon=90.0, seed=2, step_seconds=60.0)
    requests = synth_requests(profile, grid4_60, halves4)
    assert all(0.0 <= r.arrival < 90.0 for r in requests)
    assert requests == synth_requests(profile, grid4_60, halves4)


def test_synth_group_fields_consistent(grid4_60, halves4):
    profile = DemandProfile({GroupId(1, 1): 1.0}, horizon=1200, seed=3)
    for r in synth_requests(profile, grid4_60, halves4):
        assert halves4.area(r.pickup) == 1
        assert halves4.area(r.dropoff) == 1
        assert r.pickup != r.dropoff


def test_synth_rejects_impossible_group(grid4_60):
    from fairdispatch.network import AreaPartition

    # area 1 holds a single location: the (1, 1) group has no valid pair
    part = AreaPartition({loc: (1 if loc == 5 else 0) for loc in range(16)}, 2)
    profile = DemandProfile({GroupId(1, 1): 1.0}, horizon=600, seed=1)
    with pytest.raises(ConfigError):
        synth_requests(profile, grid4_60, part)


def test_profile_validation():
    with pytest.raises(ConfigError):
        DemandProfile({GroupId(0, 0): -1.0}, horizon=600, seed=1)
    with pytest.raises(ConfigError):
        DemandProfile({}, horizon=0, seed=1)


def make_requests(arrivals):
    return [
        Request(i, 0, 1, float(t), GroupId(0, 0))
        for i, t in enumerate(arrivals)
    ]


def window_batches(monkeypatch, requests, net, partition, fleet, horizon):
    """Each window's batch as `run_simulation` hands it to the window problem."""
    batches = []
    build = sim_module.build_window_problem

    def spy(vehicles, window_batch, *args):
        batches.append(list(window_batch))
        return build(vehicles, window_batch, *args)

    cfg = SimConfig(window_len=60.0, horizon=horizon, seed=0)
    with monkeypatch.context() as patch:
        patch.setattr(sim_module, "build_window_problem", spy)
        result = run_simulation(cfg, net, partition, requests, fleet, record_trace=True)
    return batches, result


def test_batch_boundary_semantics(monkeypatch):
    # windows are [0, 60), [60, 120), ...: a request arriving at exactly 60.0
    # belongs to window 1 and is matched there
    net = make_grid(1, 2, 30.0)
    part = grid_partition(1, 2, 1, 2)
    fleet = [VehicleState(v, 0, capacity=1) for v in range(3)]
    batches, result = window_batches(
        monkeypatch, make_requests([0, 59, 60]), net, part, fleet, horizon=180.0
    )
    assert [[r.arrival for r in b] for b in batches] == [[0.0, 59.0], [60.0], []]
    served = [sorted(rid for ids in window.values() for rid in ids) for window in result.matchings]
    assert served == [[0, 1], [2], []]


def test_batch_empty_inputs(monkeypatch):
    net = make_grid(1, 2, 30.0)
    part = grid_partition(1, 2, 1, 2)
    fleet = [VehicleState(0, 0, capacity=1)]
    batches, _ = window_batches(monkeypatch, [], net, part, fleet, horizon=120.0)
    assert batches == [[], []]
    batches, _ = window_batches(monkeypatch, make_requests([30]), net, part, fleet, horizon=120.0)
    assert [len(b) for b in batches] == [1, 0]


def test_batch_rejects_bad_window():
    with pytest.raises(ConfigError):
        SimConfig(window_len=0.0, horizon=60.0)


def test_batches_partition_sequence(monkeypatch, grid4_60, halves4):
    profile = DemandProfile({GroupId(0, 1): 1.2}, horizon=1800, seed=5)
    requests = synth_requests(profile, grid4_60, halves4)
    fleet = [VehicleState(0, 0, capacity=2)]
    windows, _ = window_batches(monkeypatch, requests, grid4_60, halves4, fleet, horizon=1800.0)
    assert len(windows) == 30
    for k, window in enumerate(windows):
        assert all(60.0 * k <= r.arrival < 60.0 * (k + 1) for r in window)
    assert [r for w in windows for r in w] == requests
