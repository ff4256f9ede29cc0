"""Run-manifest loading: one JSON document describing a complete scenario.

A manifest mirrors the simulation config and points at (or inlines) the
network, partition, request source, fleet, optional value table and optional
pricing.  Relative paths are resolved against the manifest's directory.

Each section names the keys it accepts once, and `_object` refuses any other
key.  A field that fills a dataclass is passed only when the manifest sets it,
so its default is the dataclass's.  Every field is read through one typed
reader (`_number`, `_integer`, `_boolean`, `_text`, `_object`, `_path`), so a
wrong JSON type or a stray key raises a `ConfigError` naming the dotted field.
Ranges and memberships are checked by the constructors the values go to.
"""

from __future__ import annotations

import json
from collections.abc import Collection
from dataclasses import dataclass, replace
from pathlib import Path

from ._records import is_finite_number
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
from .scoring import ScoreWeights, ValueFunction, load_pricing, load_value_table
from .sim import SimConfig

@dataclass
class Scenario:
    config: SimConfig
    net: StreetNetwork
    partition: AreaPartition
    requests: list[Request]
    fleet: list[VehicleState]


def _fail(where: str, message: str) -> ConfigError:
    return ConfigError(f"manifest field '{where}': {message}")


def _read(spec: dict, field: str, default, expected: str, accept):
    """The value of dotted `field` (its last part is the key in `spec`), checked by `accept`."""
    value = spec.get(field.rpartition(".")[2], default)
    if not accept(value):
        raise _fail(field, f"expected {expected}, got {value!r}")
    return value


def _number(spec: dict, field: str, default: float | None = None) -> float:
    return float(_read(spec, field, default, "a finite number", is_finite_number))


def _is_integer(value) -> bool:
    return is_finite_number(value) and (isinstance(value, int) or value.is_integer())


def _integer(spec: dict, field: str, default: int | None = None) -> int:
    return int(_read(spec, field, default, "an integer", _is_integer))


def _boolean(spec: dict, field: str) -> bool:
    return _read(spec, field, None, "true or false", lambda v: isinstance(v, bool))


def _text(spec: dict, field: str) -> str:
    return _read(spec, field, None, "a string", lambda v: isinstance(v, str))


def _object(spec: dict, field: str, keys: Collection[str], default: dict | None = None) -> dict:
    """The object at `field`, refused if it holds a key outside `keys`."""
    value = _read(spec, field, default, "an object", lambda v: isinstance(v, dict))
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise _fail(f"{field}.{unknown[0]}", f"unknown key; '{field}' takes {', '.join(keys)}")
    return value


def _path(spec: dict, field: str, base: Path) -> Path:
    return base / _read(spec, field, None, "a file path", lambda v: isinstance(v, str))


def _fields(spec: dict, table: dict, section: str = "") -> dict:
    """The keys of `table` that `spec` sets, each read by its reader in `table`."""
    prefix = f"{section}." if section else ""
    return {key: read(spec, prefix + key) for key, read in table.items() if key in spec}


# SimConfig's scalar fields.  With the sections, each read by its own function
# below, they are the keys the top level of a manifest accepts.
_CONFIG = {
    "window_len": _number,
    "horizon": _number,
    "max_wait": _number,
    "max_detour": _number,
    "max_bundle": _integer,
    "seed": _integer,
    "matcher": _text,
}
_SECTIONS = ("weights", "vfa", "pricing", "network", "partition", "requests", "fleet")
_WEIGHTS = {"beta": _number, "delta": _number, "passenger_plus": _boolean, "driver_plus": _boolean}
_VFA = {"kind": _text, "omega": _number, "bucket_seconds": _number}
# The `vfa` keys that one kind alone reads, with that kind; `path` is the value table.
_VFA_KIND_OF = {"omega": "delay", "bucket_seconds": "table", "path": "table"}


def read_manifest(path: str | Path) -> dict:
    """Parse the manifest JSON, reporting the line of any syntax error."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: manifest must be a JSON object")
    unknown = set(doc) - {*_CONFIG, *_SECTIONS}
    if unknown:
        raise ConfigError(f"{path}: unknown manifest keys {sorted(unknown)}")
    return doc


def horizon_from(doc: dict) -> float:
    """The run's horizon in seconds, also a request profile's default horizon."""
    return _number(doc, "horizon", SimConfig.horizon)


def _vfa_from(doc: dict, base: Path) -> ValueFunction:
    spec = _object(doc, "vfa", (*_VFA, "path"), {})
    vfa = ValueFunction(**_fields(spec, _VFA, "vfa"))
    for key, kind in _VFA_KIND_OF.items():
        if key in spec and vfa.kind != kind:
            raise _fail(f"vfa.{key}", f"read only when 'kind' is '{kind}'")
    if vfa.kind == "table":
        return replace(vfa, table=load_value_table(_path(spec, "vfa.path", base)))
    return vfa


def _source(doc: dict, field: str, generator: str) -> tuple[dict, bool]:
    """The section at `field`, which holds exactly one of 'path' and `generator`, and whether 'path'."""
    spec = _object(doc, field, ("path", generator))
    if ("path" in spec) == (generator in spec):
        raise _fail(field, f"needs exactly one of 'path' and '{generator}'")
    return spec, "path" in spec


def network_from(doc: dict, base: Path) -> tuple[StreetNetwork, AreaPartition]:
    """The street network and its partition into areas."""
    spec, from_file = _source(doc, "network", "grid")
    if from_file:
        net, shape = load_network(_path(spec, "network.path", base)), None
    else:
        grid = _object(spec, "network.grid", ("rows", "cols", "edge_cost"))
        shape = (_integer(grid, "network.grid.rows"), _integer(grid, "network.grid.cols"))
        net = make_grid(*shape, _number(grid, "network.grid.edge_cost", 60.0))
    part, from_file = _source(doc, "partition", "grid")
    if from_file:
        return net, load_partition(_path(part, "partition.path", base))
    if shape is None:
        raise _fail("partition.grid", "grid partitions require a grid network")
    tile = _object(part, "partition.grid", ("rows_per_area", "cols_per_area"))
    return net, grid_partition(
        *shape,
        _integer(tile, "partition.grid.rows_per_area"),
        _integer(tile, "partition.grid.cols_per_area"),
    )


def requests_from(
    doc: dict, base: Path, net: StreetNetwork, partition: AreaPartition, horizon: float
) -> list[Request]:
    """The run's requests, each arriving in `[0, horizon)`."""
    spec, from_file = _source(doc, "requests", "profile")
    if from_file:
        return load_requests(_path(spec, "requests.path", base), partition, net, horizon)
    keys = ("rates", "horizon", "seed", "step")
    profile = _profile_from(_object(spec, "requests.profile", keys), horizon)
    if profile.horizon > horizon:
        raise _fail("requests.profile.horizon", f"{profile.horizon} is past the run's horizon {horizon}")
    return synth_requests(profile, net, partition)


def _profile_from(spec: dict, default_horizon: float) -> DemandProfile:
    rates: dict[GroupId, float] = {}
    entries = _read(spec, "requests.profile.rates", None, "a list", lambda v: isinstance(v, list))
    for i, entry in enumerate(entries):
        where = f"requests.profile.rates[{i}]"
        if not (isinstance(entry, list) and len(entry) == 3):
            raise _fail(where, "expected [origin_area, dest_area, rate]")
        fields = dict(zip(("origin_area", "dest_area", "rate"), entry))
        group = GroupId(
            _integer(fields, f"{where}.origin_area"), _integer(fields, f"{where}.dest_area")
        )
        if group in rates:
            raise _fail(where, f"repeats group {tuple(group)}")
        rates[group] = _number(fields, f"{where}.rate")
    return DemandProfile(
        rates=rates,
        horizon=_number(spec, "requests.profile.horizon", default_horizon),
        seed=_integer(spec, "requests.profile.seed", 0),
        step_seconds=_number(spec, "requests.profile.step", DemandProfile.step_seconds),
    )


def fleet_from(doc: dict, base: Path, net: StreetNetwork) -> list[VehicleState]:
    spec, from_file = _source(doc, "fleet", "random")
    if from_file:
        return load_fleet(_path(spec, "fleet.path", base), net)
    draw = _object(spec, "fleet.random", ("size", "capacity", "seed"))
    return random_fleet(
        _integer(draw, "fleet.random.size"),
        _integer(draw, "fleet.random.capacity"),
        net,
        _integer(draw, "fleet.random.seed", 0),
    )


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a complete scenario from a manifest file."""
    path = Path(path)
    doc = read_manifest(path)
    base = path.parent

    # The config first: its checks are cheap and bound the work of the rest.
    pricing = None
    if "pricing" in doc:
        pricing = load_pricing(_path(_object(doc, "pricing", ("path",)), "pricing.path", base))
    weights = _object(doc, "weights", _WEIGHTS, {})
    config = SimConfig(
        **_fields(doc, _CONFIG),
        vfa=_vfa_from(doc, base),
        weights=ScoreWeights(**_fields(weights, _WEIGHTS, "weights")),
        pricing=pricing,
    )
    net, partition = network_from(doc, base)
    if config.vfa.kind == "table":
        # The table is keyed by the area of a vehicle's location or plan end,
        # and vehicles pass through every location.
        unmapped = [loc for loc in net.locations if loc not in partition.area_of]
        if unmapped:
            raise _fail(
                "partition",
                f"vfa.kind 'table' needs an area for every network location; "
                f"location {unmapped[0]} has none ({len(unmapped)} unmapped)",
            )
    requests = requests_from(doc, base, net, partition, config.horizon)
    fleet = fleet_from(doc, base, net)
    return Scenario(config, net, partition, requests, fleet)
