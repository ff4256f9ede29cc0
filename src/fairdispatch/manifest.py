"""Run-manifest loading: one JSON document describing a complete scenario.

A manifest mirrors the simulation config and points at (or inlines) the
network, partition, request source, fleet, optional value table and optional
pricing.  Relative paths are resolved against the manifest's directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .demand import DemandProfile, Request, load_requests, synth_requests
from .errors import ConfigError
from .fleet import VehicleState, load_fleet, random_fleet
from .network import (
    AreaPartition,
    GroupId,
    StreetNetwork,
    grid_partition,
    load_network,
    load_partition,
    make_grid,
)
from .scoring import VFA_KINDS, ScoreWeights, ValueFunction, load_pricing, load_value_table
from .sim import MATCHER_KINDS, SimConfig

_TOP_LEVEL_KEYS = {
    "window_len",
    "horizon",
    "max_wait",
    "max_detour",
    "max_bundle",
    "seed",
    "matcher",
    "incentives_enabled",
    "weights",
    "vfa",
    "network",
    "partition",
    "requests",
    "fleet",
    "pricing",
}


@dataclass
class Scenario:
    config: SimConfig
    net: StreetNetwork
    partition: AreaPartition
    requests: list[Request]
    fleet: list[VehicleState]
    grid_shape: tuple[int, int] | None = None


def _fail(where: str, message: str) -> ConfigError:
    return ConfigError(f"manifest field '{where}': {message}")


def _number(doc: dict, key: str, default: float, minimum: float | None = None) -> float:
    value = doc.get(key, default)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise _fail(key, f"expected a number, got {value!r}")
    if minimum is not None and value < minimum:
        raise _fail(key, f"must be >= {minimum}, got {value}")
    return float(value)


def read_manifest(path: str | Path) -> dict:
    """Parse the manifest JSON, reporting the line of any syntax error."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: manifest must be a JSON object")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown manifest keys {sorted(unknown)}")
    return doc


def _weights_from(doc: dict) -> ScoreWeights:
    spec = doc.get("weights", {})
    if not isinstance(spec, dict):
        raise _fail("weights", "expected an object")
    beta = _number(spec, "beta", 0.0)
    delta = _number(spec, "delta", 0.0)
    if beta < 0 or delta < 0:
        raise _fail("weights", f"beta and delta must be nonnegative, got {beta}, {delta}")
    return ScoreWeights(
        beta=beta,
        delta=delta,
        passenger_plus=bool(spec.get("passenger_plus", False)),
        driver_plus=bool(spec.get("driver_plus", False)),
    )


def _vfa_from(doc: dict, base: Path) -> ValueFunction:
    spec = doc.get("vfa", {"kind": "zero"})
    if not isinstance(spec, dict):
        raise _fail("vfa", "expected an object")
    kind = spec.get("kind", "zero")
    if kind not in VFA_KINDS:
        raise _fail("vfa.kind", f"unknown kind {kind!r}")
    table = {}
    if kind == "table":
        if "path" not in spec:
            raise _fail("vfa.path", "table value function requires a file path")
        table = load_value_table(base / spec["path"])
    return ValueFunction(
        kind=kind,
        omega=_number(spec, "omega", 1e-4),
        table=table,
        bucket_seconds=_number(spec, "bucket_seconds", 3600.0, minimum=1e-9),
    )


def network_from(doc: dict, base: Path) -> tuple[StreetNetwork, tuple[int, int] | None]:
    spec = doc.get("network")
    if not isinstance(spec, dict):
        raise _fail("network", "expected an object with 'path' or 'grid'")
    if "path" in spec:
        return load_network(base / spec["path"]), None
    if "grid" in spec:
        grid = spec["grid"]
        rows = int(_number(grid, "rows", 0, minimum=1))
        cols = int(_number(grid, "cols", 0, minimum=1))
        cost = _number(grid, "edge_cost", 60.0, minimum=1e-9)
        return make_grid(rows, cols, cost), (rows, cols)
    raise _fail("network", "needs either 'path' or 'grid'")


def partition_from(
    doc: dict, base: Path, grid_shape: tuple[int, int] | None
) -> AreaPartition:
    spec = doc.get("partition")
    if not isinstance(spec, dict):
        raise _fail("partition", "expected an object with 'path' or 'grid'")
    if "path" in spec:
        return load_partition(base / spec["path"])
    if "grid" in spec:
        if grid_shape is None:
            raise _fail("partition.grid", "grid partitions require a grid network")
        tile = spec["grid"]
        return grid_partition(
            grid_shape[0],
            grid_shape[1],
            int(_number(tile, "rows_per_area", 0, minimum=1)),
            int(_number(tile, "cols_per_area", 0, minimum=1)),
        )
    raise _fail("partition", "needs either 'path' or 'grid'")


def requests_from(
    doc: dict, base: Path, net: StreetNetwork, partition: AreaPartition, horizon: float
) -> list[Request]:
    spec = doc.get("requests")
    if not isinstance(spec, dict):
        raise _fail("requests", "expected an object with 'path' or 'profile'")
    if "path" in spec:
        return load_requests(base / spec["path"], partition)
    if "profile" in spec:
        return synth_requests(demand_profile_from(spec["profile"], horizon), net, partition)
    raise _fail("requests", "needs either 'path' or 'profile'")


def demand_profile_from(spec: dict, default_horizon: float) -> DemandProfile:
    if not isinstance(spec, dict) or "rates" not in spec:
        raise _fail("requests.profile", "expected an object with a 'rates' list")
    rates: dict[GroupId, float] = {}
    for i, entry in enumerate(spec["rates"]):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
            raise _fail(f"requests.profile.rates[{i}]", "expected [origin_area, dest_area, rate]")
        origin, dest, rate = entry
        rates[GroupId(int(origin), int(dest))] = float(rate)
    return DemandProfile(
        rates=rates,
        horizon=_number(spec, "horizon", default_horizon, minimum=1e-9),
        seed=int(_number(spec, "seed", 0)),
        step_seconds=_number(spec, "step", 60.0, minimum=1e-9),
    )


def fleet_from(doc: dict, base: Path, net: StreetNetwork) -> list[VehicleState]:
    spec = doc.get("fleet")
    if not isinstance(spec, dict):
        raise _fail("fleet", "expected an object with 'path' or 'random'")
    if "path" in spec:
        return load_fleet(base / spec["path"], net)
    if "random" in spec:
        draw = spec["random"]
        return random_fleet(
            int(_number(draw, "size", 0, minimum=1)),
            int(_number(draw, "capacity", 0, minimum=1)),
            net,
            int(_number(draw, "seed", 0)),
        )
    raise _fail("fleet", "needs either 'path' or 'random'")


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a complete scenario from a manifest file."""
    path = Path(path)
    doc = read_manifest(path)
    base = path.parent

    net, grid_shape = network_from(doc, base)
    partition = partition_from(doc, base, grid_shape)
    horizon = _number(doc, "horizon", 86400.0, minimum=1e-9)
    requests = requests_from(doc, base, net, partition, horizon)
    fleet = fleet_from(doc, base, net)

    pricing = None
    if "pricing" in doc:
        if not isinstance(doc["pricing"], dict) or "path" not in doc["pricing"]:
            raise _fail("pricing", "expected an object with 'path'")
        pricing = load_pricing(base / doc["pricing"]["path"])

    matcher = doc.get("matcher", "ilp")
    if matcher not in MATCHER_KINDS:
        raise _fail("matcher", f"unknown matcher {matcher!r}")

    config = SimConfig(
        window_len=_number(doc, "window_len", 60.0, minimum=1e-9),
        horizon=horizon,
        max_wait=_number(doc, "max_wait", 300.0, minimum=1e-9),
        max_detour=_number(doc, "max_detour", 300.0, minimum=0.0),
        max_bundle=int(_number(doc, "max_bundle", 2, minimum=1)),
        vfa=_vfa_from(doc, base),
        weights=_weights_from(doc),
        matcher=matcher,
        seed=int(_number(doc, "seed", 0)),
        incentives_enabled=bool(doc.get("incentives_enabled", True)),
        pricing=pricing,
    )
    for vehicle in fleet:
        if vehicle.location not in net:
            raise _fail("fleet", f"vehicle {vehicle.id} starts off-network at {vehicle.location}")
    return Scenario(config, net, partition, requests, fleet, grid_shape)
