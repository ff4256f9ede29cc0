from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import pytest

import fairdispatch.manifest
import fairdispatch.network
import fairdispatch.sim
from fairdispatch.cli import main
from fairdispatch.demand import load_requests
from fairdispatch.errors import ConfigError, ContractError, ParseError
from fairdispatch.fleet import load_fleet
from fairdispatch.manifest import load_scenario
from fairdispatch.matcher import MatchProblem, problem_from_json, solve_ilp
from fairdispatch.network import grid_partition, load_network, load_partition, make_grid
from fairdispatch.scoring import load_pricing, load_value_table
from fairdispatch.sim import SimConfig


def write_manifest(path: Path, **overrides) -> Path:
    doc = {
        "window_len": 60,
        "horizon": 300,
        "max_wait": 300,
        "seed": 3,
        "network": {"grid": {"rows": 3, "cols": 3, "edge_cost": 60}},
        "partition": {"grid": {"rows_per_area": 3, "cols_per_area": 3}},
        "requests": {"profile": {"rates": [[0, 0, 0.6]], "seed": 5}},
        "fleet": {"random": {"size": 2, "capacity": 2, "seed": 9}},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc, indent=2))
    return path


def test_load_scenario_happy(tmp_path):
    manifest = write_manifest(tmp_path / "m.json")
    scenario = load_scenario(manifest)
    assert len(scenario.net.locations) == 9
    assert scenario.partition.num_areas == 1
    assert len(scenario.fleet) == 2
    assert scenario.config.n_windows == 5


def test_omitted_fields_take_the_dataclass_defaults(tmp_path):
    doc = json.loads(write_manifest(tmp_path / "m.json").read_text())
    bare = {key: doc[key] for key in ("network", "partition", "requests", "fleet")}
    (tmp_path / "bare.json").write_text(json.dumps(bare))
    assert load_scenario(tmp_path / "bare.json").config == SimConfig()


def test_load_scenario_rejects_unknown_keys(tmp_path):
    manifest = write_manifest(tmp_path / "m.json", typo_key=1)
    with pytest.raises(ConfigError, match="unknown manifest keys"):
        load_scenario(manifest)


def test_load_scenario_reports_json_line(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{\n  \"window_len\": 60,\n  oops\n}")
    with pytest.raises(ConfigError, match=r":3"):
        load_scenario(path)


def test_load_scenario_from_files(tmp_path):
    (tmp_path / "net.csv").write_text("0,1,60\n1,0,60\n1,2,60\n2,1,60\n")
    (tmp_path / "part.csv").write_text("0,0\n1,0\n2,1\n")
    (tmp_path / "req.csv").write_text("0,2,30\n")
    (tmp_path / "fleet.csv").write_text("0,0,1\n")
    (tmp_path / "prices.csv").write_text("0,2.5\n")
    manifest = write_manifest(
        tmp_path / "m.json",
        network={"path": "net.csv"},
        partition={"path": "part.csv"},
        requests={"path": "req.csv"},
        fleet={"path": "fleet.csv"},
        pricing={"path": "prices.csv"},
    )
    scenario = load_scenario(manifest)
    assert scenario.config.pricing == {0: 2.5}
    assert len(scenario.requests) == 1


# Each CSV loader: how to call it, one valid record, how many records it
# read, and a well-formed record whose values it rejects (None if it checks none).
CSV_LOADERS = {
    "network": (load_network, "0,1,60", lambda net: len(net.edges), "0,1,0"),
    "partition": (load_partition, "0,0", lambda part: len(part.area_of), None),
    "fleet": (lambda path: load_fleet(path, make_grid(2, 2, 60.0)), "0,1,2", len, "0,1,0"),
    "requests": (
        lambda path: load_requests(path, grid_partition(2, 2, 1, 2), make_grid(2, 2, 60.0), 60.0),
        "0,1,30.5",
        len,
        "1,1,30.5",
    ),
    "value_table": (load_value_table, "0,1,2,0.5", len, None),
    "pricing": (load_pricing, "3,1.5", len, "3,-1.5"),
}
# The loaders whose last field is a float that only the record reader keeps
# finite (the network loader's own check refuses a NaN or infinite cost).
FINITE_ONLY_BY_READER = ("requests", "value_table", "pricing")


@pytest.mark.parametrize("kind", sorted(CSV_LOADERS))
def test_csv_loaders_skip_comments_and_name_bad_lines(tmp_path, kind):
    load, record, size, rejected = CSV_LOADERS[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_text(f"# comment\n\n{record}\n   \n  # indented comment\n")
    assert size(load(path)) == 1
    fields = record.split(",")
    for bad in (",".join(fields[:-1]), f"{record},9,9"):
        path.write_text(f"# comment\n\n{bad}\n")
        with pytest.raises(ParseError, match=rf"{kind}\.csv:3: expected '"):
            load(path)
    path.write_text(f"# comment\n{record}\n\n{','.join(fields[:-1] + ['x'])}\n")
    with pytest.raises(ParseError, match=rf"{kind}\.csv:4: non-numeric field"):
        load(path)
    if rejected is not None:
        path.write_text(f"# comment\n\n{rejected}\n")
        with pytest.raises(ParseError, match=rf"{kind}\.csv:3: "):
            load(path)
    for special in ("nan", "inf") if kind in FINITE_ONLY_BY_READER else ():
        path.write_text(f"{record}\n{','.join(fields[:-1] + [special])}\n")
        with pytest.raises(ParseError, match=rf"{kind}\.csv:2: non-finite field"):
            load(path)
    path.write_bytes(b"\xff\xfe\x00" + record.encode())
    with pytest.raises(ParseError, match=rf"{kind}\.csv: not UTF-8"):
        load(path)


def test_load_scenario_with_table_and_delay_vfa(tmp_path):
    (tmp_path / "vfa.csv").write_text("0,1,0,0.5\n")
    manifest = write_manifest(
        tmp_path / "m.json", vfa={"kind": "table", "path": "vfa.csv", "bucket_seconds": 1800}
    )
    scenario = load_scenario(manifest)
    assert scenario.config.vfa.kind == "table"
    assert scenario.config.vfa.table == {(0, 1, 0): 0.5}
    assert scenario.config.vfa.bucket_seconds == 1800

    manifest = write_manifest(tmp_path / "m2.json", vfa={"kind": "delay", "omega": 0.002})
    scenario = load_scenario(manifest)
    assert scenario.config.vfa.kind == "delay"
    assert scenario.config.vfa.omega == 0.002

    manifest = write_manifest(tmp_path / "m3.json", vfa={"kind": "table"})
    with pytest.raises(ConfigError, match="vfa.path"):
        load_scenario(manifest)


def test_validate_config_command(tmp_path, capsys):
    manifest = write_manifest(tmp_path / "m.json")
    assert main(["validate-config", "--manifest", str(manifest)]) == 0
    assert "ok:" in capsys.readouterr().out


def test_validate_config_rejects_negative_beta(tmp_path, capsys):
    manifest = write_manifest(tmp_path / "m.json", weights={"beta": -1.0})
    assert main(["validate-config", "--manifest", str(manifest)]) == 2
    assert "beta" in capsys.readouterr().err


# Malformed manifests: the overrides, the field the error must name, and
# whether gen-demand reads that field (it reads only horizon, network,
# partition and requests).
MALFORMED = {
    "string passenger_plus": (
        {"weights": {"beta": 1.0, "passenger_plus": "false"}}, "weights.passenger_plus", False
    ),
    "string driver_plus": ({"weights": {"driver_plus": "no"}}, "weights.driver_plus", False),
    "unknown incentives_enabled": ({"incentives_enabled": False}, "incentives_enabled", True),
    "number as network grid": ({"network": {"grid": 5}}, "network.grid", True),
    "number as partition grid": ({"partition": {"grid": 3}}, "partition.grid", True),
    "number as network path": ({"network": {"path": 5}}, "network.path", True),
    "number as random fleet": ({"fleet": {"random": 3}}, "fleet.random", False),
    "string rate": (
        {"requests": {"profile": {"rates": [[0, 0, "x"]], "seed": 5}}},
        "requests.profile.rates[0].rate",
        True,
    ),
    "string horizon": ({"horizon": "abc"}, "horizon", True),
    "fractional max_bundle": ({"max_bundle": 2.7}, "max_bundle", False),
    "fractional seed": ({"seed": 1.5}, "seed", False),
    "NaN beta": ({"weights": {"beta": float("nan")}}, "weights.beta", False),
    "NaN rate": (
        {"requests": {"profile": {"rates": [[0, 0, float("nan")]], "seed": 5}}},
        "requests.profile.rates[0].rate",
        True,
    ),
    "infinite max_detour": ({"max_detour": float("inf")}, "max_detour", False),
    "infinite vfa omega": ({"vfa": {"kind": "delay", "omega": float("-inf")}}, "vfa.omega", False),
    "integer beyond float range": ({"max_wait": 10**400}, "max_wait", False),
    # misspelt or stray keys, named as dotted fields
    "misspelt beta": ({"weights": {"betta": 20}}, "weights.betta", False),
    "misspelt vfa omega": ({"vfa": {"kind": "delay", "omga": 0.1}}, "vfa.omga", False),
    "misspelt edge_cost": (
        {"network": {"grid": {"rows": 3, "cols": 3, "edgecost": 60}}}, "network.grid.edgecost", True
    ),
    "stray partition grid key": (
        {"partition": {"grid": {"rows_per_area": 3, "cols_per_area": 3, "rows": 3}}},
        "partition.grid.rows",
        True,
    ),
    "misspelt profile seed": (
        {"requests": {"profile": {"rates": [[0, 0, 0.6]], "sead": 5}}}, "requests.profile.sead", True
    ),
    "misspelt profile step": (
        {"requests": {"profile": {"rates": [[0, 0, 0.6]], "stepp": 30}}}, "requests.profile.stepp", True
    ),
    "misspelt fleet seed": (
        {"fleet": {"random": {"size": 2, "capacity": 2, "sed": 9}}}, "fleet.random.sed", False
    ),
    # a section holds exactly one of its file and its generator, and a value
    # table's path goes with kind "table" alone; no file named here exists
    "network path and grid": (
        {"network": {"path": "net.csv", "grid": {"rows": 3, "cols": 3}}}, "network", True
    ),
    "network with neither": ({"network": {}}, "network", True),
    "partition path and grid": (
        {"partition": {"path": "part.csv", "grid": {"rows_per_area": 3}}}, "partition", True
    ),
    "requests path and profile": (
        {"requests": {"path": "req.csv", "profile": {"rates": [[0, 0, 0.6]]}}}, "requests", True
    ),
    "fleet path and random": (
        {"fleet": {"path": "fleet.csv", "random": {"size": 2, "capacity": 2}}}, "fleet", False
    ),
    "vfa path without kind table": (
        {"vfa": {"kind": "delay", "path": "nothing.csv"}}, "vfa.path", False
    ),
    "vfa path without kind": ({"vfa": {"path": "nothing.csv"}}, "vfa.path", False),
    # so are omega and bucket_seconds, which only "delay" and "table" read
    "vfa omega with kind zero": ({"vfa": {"kind": "zero", "omega": 5}}, "vfa.omega", False),
    "vfa omega without kind": ({"vfa": {"omega": 5}}, "vfa.omega", False),
    "vfa bucket_seconds with kind delay": (
        {"vfa": {"kind": "delay", "bucket_seconds": 60}}, "vfa.bucket_seconds", False
    ),
    # a repeated group would silently drop every rate but its last
    "profile repeats a group": (
        {"requests": {"profile": {"rates": [[0, 0, 1], [0, 0, 0]]}}}, "requests.profile.rates[1]", True
    ),
    # a profile must not draw requests after the run's horizon of 300
    "profile horizon past the run's": (
        {"requests": {"profile": {"rates": [[0, 0, 0.6]], "horizon": 1200}}},
        "requests.profile.horizon",
        True,
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_manifest_exits_2_naming_the_field(tmp_path, capsys, case):
    overrides, field, read_by_gen_demand = MALFORMED[case]
    manifest = str(write_manifest(tmp_path / "m.json", **overrides))
    commands = [["validate-config"], ["run", "--out", str(tmp_path / "run")]]
    if read_by_gen_demand:
        commands.append(["gen-demand", "--out", str(tmp_path / "gen")])
    for command in commands:
        assert main([*command, "--manifest", manifest]) == 2, command
        assert f"'{field}'" in capsys.readouterr().err, command
    assert not (tmp_path / "run").exists()


# Manifests that ask for too much work: the overrides and the text the error
# must show.  Each is refused before synthesis starts, and an oversized
# network before any all-pairs build.
OVERSIZED = {
    "windows": ({"horizon": 1e12, "window_len": 1e-3}, "window_len"),
    "demand steps": (
        {"requests": {"profile": {"rates": [[0, 0, 0.6]], "horizon": 1e8}}}, "step"
    ),
    "expected requests": ({"requests": {"profile": {"rates": [[0, 0, 1e9]]}}}, "rates"),
    "grid locations": ({"network": {"grid": {"rows": 1000, "cols": 1000}}}, "grid 1000x1000"),
    "network file locations": ({"network": {"path": "net.csv"}}, "net.csv:5001"),
    # past 2**30 s a window's sums would leave the exact time grid
    "horizon": ({"horizon": 1_080_000_000, "window_len": 3600}, "horizon 1080000000"),
    "max_wait": ({"max_wait": 1.1e9}, "max_wait 1100000000.0 exceeds the ceiling of 1073741824 s"),
    "max_detour": ({"max_detour": 1.1e9}, "max_detour 1100000000.0 exceeds the ceiling of 1073741824 s"),
}


@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_oversized_manifest_exits_2_before_any_work(tmp_path, monkeypatch, capsys, case):
    def refuse(*args, **kwargs):
        raise AssertionError("work started on an oversized manifest")

    overrides, shown = OVERSIZED[case]
    monkeypatch.setattr(fairdispatch.manifest, "synth_requests", refuse)
    if "network" in overrides:
        monkeypatch.setattr(fairdispatch.network, "dijkstra", refuse)
    (tmp_path / "net.csv").write_text("".join(f"{2 * i},{2 * i + 1},60\n" for i in range(5001)))
    manifest = str(write_manifest(tmp_path / "m.json", **overrides))
    for command in (["validate-config"], ["run", "--out", str(tmp_path / "run")]):
        assert main([*command, "--manifest", manifest]) == 2, command
        assert shown in capsys.readouterr().err, command
    assert not (tmp_path / "run").exists()


# Scenarios whose pieces disagree or that pass a ceiling: the overrides and
# the text the error must show (the field, or the request and location).
# The line network 0-1-2 below has no location 7; its partition maps 0 and 1
# to area 0 and, in "part.csv", 2 and 7 to area 1.
REFUSED = {
    "request off the network": (
        {"network": {"path": "net.csv"}, "partition": {"path": "part.csv"},
         "requests": {"path": "req.csv"}, "fleet": {"path": "fleet.csv"}},
        "req.csv:2: request 1: location 7 is not in the network",
    ),
    "request at the horizon": (
        {"requests": {"path": "late-req.csv"}},
        "late-req.csv:2: request 1: arrival 300.0 is not before the horizon 300.0",
    ),
    "table value function on a partition gap": (
        {"network": {"path": "net.csv"}, "partition": {"path": "gap.csv"},
         "requests": {"path": "gap-req.csv"}, "fleet": {"path": "fleet.csv"},
         "vfa": {"kind": "table", "path": "vfa.csv"}},
        "'partition': vfa.kind 'table' needs an area for every network location; location 2",
    ),
    "random fleet size": ({"fleet": {"random": {"size": 10_001, "capacity": 2}}}, "fleet size"),
    "fleet file size": ({"fleet": {"path": "big-fleet.csv"}}, "big-fleet.csv:10001: fleet size"),
    "random fleet capacity": ({"fleet": {"random": {"size": 2, "capacity": 7}}}, "capacity"),
    "fleet file capacity": ({"fleet": {"path": "wide-fleet.csv"}}, "wide-fleet.csv:1: vehicle 0: capacity"),
    "max_bundle": ({"max_bundle": 5}, "max_bundle must be in 1..4, got 5"),
    # times below half the 2**-20 s grid round to 0
    "edge cost below the time grid": (
        {"network": {"grid": {"rows": 3, "cols": 3, "edge_cost": 1e-9}}},
        "edge (0, 1) cost 1e-09 does not round to a positive time on the 2**-20 s grid",
    ),
    "window_len below the time grid": (
        {"window_len": 1e-9, "horizon": 1e-6}, "window_len must be positive"
    ),
    "travel time past the ceiling": (
        {"network": {"path": "far-net.csv"}, "partition": {"path": "part.csv"}},
        "far-net.csv: travel time 1200000000.0 s from 0 to 2 exceeds the ceiling of 1073741824 s",
    ),
    # a negative omega would reward added travel time instead of charging it
    "negative vfa omega": (
        {"vfa": {"kind": "delay", "omega": -5}}, "omega must be finite and nonnegative, got -5.0"
    ),
    "partition file with an area gap": (
        {"network": {"path": "net.csv"}, "partition": {"path": "skip.csv"}},
        "skip.csv: partition declares 3 areas but maps 2",
    ),
    "partition file with a negative area": (
        {"network": {"path": "net.csv"}, "partition": {"path": "negative.csv"}},
        "negative.csv: area ids must lie in [0, 1)",
    ),
    # numpy's generators take no negative seed
    "negative fleet seed": (
        {"fleet": {"random": {"size": 2, "capacity": 2, "seed": -1}}},
        "fleet seed must be nonnegative, got -1",
    ),
    "negative demand seed": (
        {"requests": {"profile": {"rates": [[0, 0, 0.6]], "seed": -3}}},
        "demand seed must be nonnegative, got -3",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_disagreeing_or_oversized_scenario_exits_2(tmp_path, capsys, case):
    (tmp_path / "net.csv").write_text("0,1,60\n1,0,60\n1,2,60\n2,1,60\n")
    (tmp_path / "part.csv").write_text("0,0\n1,0\n2,1\n7,1\n")
    (tmp_path / "req.csv").write_text("0,1,5\n0,7,10\n")
    (tmp_path / "late-req.csv").write_text("0,1,5\n0,1,300\n")
    (tmp_path / "gap.csv").write_text("0,0\n1,0\n")
    (tmp_path / "skip.csv").write_text("0,0\n1,2\n")
    (tmp_path / "negative.csv").write_text("0,0\n1,-1\n")
    (tmp_path / "gap-req.csv").write_text("0,1,10\n")
    (tmp_path / "fleet.csv").write_text("0,2,2\n")
    (tmp_path / "vfa.csv").write_text("0,1,0,0.5\n")
    (tmp_path / "big-fleet.csv").write_text("".join(f"{i},0,2\n" for i in range(10_001)))
    (tmp_path / "wide-fleet.csv").write_text("0,0,7\n")
    (tmp_path / "far-net.csv").write_text("0,1,600000000\n1,2,600000000\n2,0,600000000\n")
    overrides, shown = REFUSED[case]
    manifest = str(write_manifest(tmp_path / "m.json", **overrides))
    for command in (["validate-config"], ["run", "--out", str(tmp_path / "run")]):
        assert main([*command, "--manifest", manifest]) == 2, command
        assert shown in capsys.readouterr().err, command
    assert not (tmp_path / "run").exists()


def test_vanishing_edge_cost_exits_2(tmp_path, capsys):
    (tmp_path / "net.csv").write_text("0,1,1000\n1,2,1e-300\n2,0,1000\n")
    (tmp_path / "part.csv").write_text("0,0\n1,0\n2,0\n")
    manifest = write_manifest(
        tmp_path / "m.json", network={"path": "net.csv"}, partition={"path": "part.csv"}
    )
    assert main(["validate-config", "--manifest", str(manifest)]) == 2
    assert "net.csv: edge (1, 2) cost 1e-300 does not round to a positive time on the 2**-20 s grid" in capsys.readouterr().err


def test_non_utf8_or_non_finite_inputs_exit_2(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_bytes(b"\xff\xfe\x00")
    for command in (["validate-config"], ["run", "--out", str(tmp_path / "run")]):
        assert main([*command, "--manifest", str(manifest)]) == 2, command
        assert "not UTF-8" in capsys.readouterr().err, command
    # a NaN arrival would stop the batcher: no later request reaches a window
    (tmp_path / "req.csv").write_text("0,1,30\n1,2,nan\n2,3,90\n")
    write_manifest(manifest, requests={"path": "req.csv"})
    for command in (["validate-config"], ["run", "--out", str(tmp_path / "run")]):
        assert main([*command, "--manifest", str(manifest)]) == 2, command
        assert "req.csv:2: non-finite field" in capsys.readouterr().err, command
    assert not (tmp_path / "run").exists()


def test_run_happy_path(tmp_path, capsys):
    manifest = write_manifest(tmp_path / "m.json")
    out = tmp_path / "out"
    assert main(["run", "--manifest", str(manifest), "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()
    assert (out / "result.json").exists()
    assert (out / "summary.txt").exists()
    assert not list(out.glob("*.tmp"))
    result = json.loads((out / "result.json").read_text())
    assert 0.0 <= result["service_rate"] <= 1.0
    rows = (out / "metrics.csv").read_text().splitlines()
    assert len(rows) == 1 + 5  # header + one row per window


def test_run_refuses_overwrite_without_force(tmp_path):
    manifest = write_manifest(tmp_path / "m.json")
    out = tmp_path / "out"
    assert main(["run", "--manifest", str(manifest), "--out", str(out)]) == 0
    before = (out / "metrics.csv").read_bytes()
    assert main(["run", "--manifest", str(manifest), "--out", str(out)]) == 4
    assert (out / "metrics.csv").read_bytes() == before
    assert main(["run", "--manifest", str(manifest), "--out", str(out), "--force"]) == 0


def command_flags(command: str, manifest: Path) -> list[str]:
    """A short, passing invocation of `command`, all but its --out."""
    if command == "theorem-check":
        return [command, "--which", "driver", "--seeds", "1"]
    if command == "sweep":
        return [command, "--manifest", str(manifest), "--beta", "0", "--delta", "0", "--variant", "si"]
    return [command, "--manifest", str(manifest)]


@pytest.mark.parametrize("command", ["run", "sweep", "theorem-check", "gen-demand", "gen-network"])
def test_out_naming_a_file_exits_2(tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    argv = [*command_flags(command, write_manifest(tmp_path / "m.json")), "--out", str(taken)]
    for flags in ([], ["--force"]):
        assert main([*argv, *flags]) == 2
        assert capsys.readouterr().err.startswith(f"error: --out {taken} is not a directory: ")
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize(
    "command, dump",
    [("run", "failed_window_3.json"), ("sweep", "failed_window_0.json"), ("theorem-check", "theorem_fail_seed7.json")],
)
def test_stale_failure_dump_counts_as_an_output(tmp_path, capsys, command, dump):
    out = tmp_path / "out"
    out.mkdir()
    (out / dump).write_text("{}\n")
    argv = [*command_flags(command, write_manifest(tmp_path / "m.json", horizon=120)), "--out", str(out)]
    assert main(argv) == 4
    assert capsys.readouterr().err == f"error: outputs already exist in {out}: ['{dump}'] (use --force)\n"
    assert (out / dump).exists()
    assert main([*argv, "--force"]) == 0
    assert not (out / dump).exists()


@pytest.mark.parametrize("command, output", [("run", "metrics.csv"), ("sweep", "sweep.csv")])
def test_output_that_is_not_a_file_exits_2_and_nothing_is_deleted(tmp_path, capsys, command, output):
    out = tmp_path / "out"
    argv = [*command_flags(command, write_manifest(tmp_path / "m.json", horizon=120)), "--out", str(out)]
    assert main(argv) == 0
    (out / output).unlink()
    (out / output).mkdir()
    (out / output / "kept").write_text("kept\n")
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    assert before  # the other outputs of the earlier run
    for flags in ([], ["--force"]):
        assert main([*argv, *flags]) == 2
        assert capsys.readouterr().err == f"error: outputs in {out} are not regular files: ['{output}']\n"
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
        assert (out / output / "kept").read_text() == "kept\n"


@pytest.mark.parametrize(
    "command, outputs",
    [("run", ["metrics.csv", "result.json", "summary.txt"]), ("sweep", ["summary.txt", "sweep.csv"])],
)
def test_failed_forced_command_leaves_no_earlier_output(tmp_path, monkeypatch, capsys, command, outputs):
    out = tmp_path / "out"
    argv = [*command_flags(command, write_manifest(tmp_path / "m.json", horizon=120)), "--out", str(out)]
    assert main(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == outputs

    def broken(problem):
        raise ContractError("no matching")

    monkeypatch.setattr(fairdispatch.sim, "solve_ilp", broken)
    assert main([*argv, "--force"]) == 3
    assert capsys.readouterr().err.endswith("no matching\n")
    assert sorted(p.name for p in out.iterdir()) == ["failed_window_0.json"]
    assert problem_from_json(out / "failed_window_0.json").vehicle_ids == (0, 1)


def test_run_metrics_byte_identical_across_runs(tmp_path):
    manifest = write_manifest(tmp_path / "m.json")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--manifest", str(manifest), "--out", str(out1)]) == 0
    assert main(["run", "--manifest", str(manifest), "--out", str(out2)]) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()


def test_run_invalid_manifest_exits_2(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["run", "--manifest", str(missing), "--out", str(tmp_path / "o")]) == 2


def test_run_runtime_failure_exits_3(tmp_path, monkeypatch, capsys):
    # a failure outside the matcher stops the run and writes nothing, not even a dump
    def broken(*args, **kwargs):
        raise ContractError("vehicle 0: plan exceeds capacity")

    monkeypatch.setattr(fairdispatch.sim, "advance", broken)
    manifest = write_manifest(tmp_path / "m.json")
    out = tmp_path / "o"
    assert main(["run", "--manifest", str(manifest), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: simulation failed: vehicle 0: plan exceeds capacity\n"
    assert list(out.iterdir()) == []


def highs_failure_manifest(tmp_path: Path, monkeypatch) -> Path:
    """Desk day 32003 at beta = delta = 20 plus, with every HiGHS solve failing.

    Demand seed 32003 and fleet seed 33003: window 3 holds a 14-vehicle
    component that exceeds the exact search's budget, so HiGHS is asked.
    Every solve then ends without an optimum, as when HiGHS hits a solve error.
    """
    from scipy.optimize._highspy import _core

    failed = _core.HighsModelStatus.kSolveError
    monkeypatch.setattr(_core._Highs, "getModelStatus", lambda self: failed)
    return write_manifest(
        tmp_path / "m.json",
        window_len=60,
        horizon=240,
        seed=32003,
        matcher="ilp",
        weights={"beta": 20.0, "delta": 20.0, "passenger_plus": True, "driver_plus": True},
        network={"grid": {"rows": 6, "cols": 6, "edge_cost": 80.0}},
        partition={"grid": {"rows_per_area": 3, "cols_per_area": 3}},
        requests={"profile": {"rates": [[0, 3, 2.7777777777777777], [2, 1, 0.6944444444444444]], "seed": 32003}},
        fleet={"random": {"size": 20, "capacity": 2, "seed": 33003}},
    )


def assert_one_replayable_dump(out: Path, err: str, what: str, point: str = "") -> None:
    """The failed window 3 is dumped once, and the dump replays to the reported error.

    `point` is what the report names before the matcher's message: a sweep's grid point.
    """
    assert "HiGHS found no optimum for the component of vehicles" in err
    dumps = list(out.glob("failed_window_*.json"))
    assert [dump.name for dump in dumps] == ["failed_window_3.json"]
    with pytest.raises(ContractError) as replay:
        solve_ilp(problem_from_json(dumps[0]))
    assert err == f"error: {what} failed: {point}{replay.value}\n"


def test_run_exits_3_when_highs_fails(tmp_path, monkeypatch, capsys):
    manifest = highs_failure_manifest(tmp_path, monkeypatch)
    out = tmp_path / "o"
    assert main(["run", "--manifest", str(manifest), "--out", str(out)]) == 3
    assert_one_replayable_dump(out, capsys.readouterr().err, "simulation")


def test_sweep_exits_3_when_highs_fails(tmp_path, monkeypatch, capsys):
    # the sweep's one grid point is the run's weights, so it fails on the same window
    manifest = highs_failure_manifest(tmp_path, monkeypatch)
    out = tmp_path / "o"
    command = ["sweep", "--manifest", str(manifest), "--out", str(out)]
    assert main([*command, "--beta", "20", "--delta", "20", "--variant", "si-plus"]) == 3
    point = "beta=20.0 delta=20.0 passenger_plus=True driver_plus=True: "
    assert_one_replayable_dump(out, capsys.readouterr().err, "sweep", point)
    assert not (out / "sweep.csv").exists()


def test_sweep_degenerate_matches_run(tmp_path):
    manifest = write_manifest(tmp_path / "m.json")
    run_out, sweep_out = tmp_path / "run", tmp_path / "sweep"
    assert main(["run", "--manifest", str(manifest), "--out", str(run_out)]) == 0
    assert (
        main(
            [
                "sweep",
                "--manifest", str(manifest),
                "--out", str(sweep_out),
                "--beta", "0",
                "--delta", "0",
                "--variant", "si",
            ]
        )
        == 0
    )
    with open(sweep_out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    final_metrics = (run_out / "metrics.csv").read_text().splitlines()[-1].split(",")
    assert rows[0]["overall_service_rate"] == final_metrics[1]
    assert rows[0]["driver_var"] == final_metrics[7]


def test_sweep_default_grid_cardinality_and_order(tmp_path):
    manifest = write_manifest(
        tmp_path / "m.json",
        horizon=120,
        requests={"profile": {"rates": [[0, 0, 0.4]], "seed": 5}},
    )
    out = tmp_path / "sweep"
    assert main(["sweep", "--manifest", str(manifest), "--out", str(out), "--jobs", "2"]) == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 7 * 7 * 4
    keys = [
        (float(r["beta"]), float(r["delta"]), r["passenger_plus"], r["driver_plus"])
        for r in rows
    ]
    assert keys == sorted(keys)


def test_sweep_jobs_do_not_change_output(tmp_path):
    manifest = write_manifest(tmp_path / "m.json", horizon=120)
    o1, o2 = tmp_path / "s1", tmp_path / "s2"
    args = ["--beta", "0,1", "--delta", "0", "--variant", "both"]
    assert main(["sweep", "--manifest", str(manifest), "--out", str(o1), *args]) == 0
    assert main(["sweep", "--manifest", str(manifest), "--out", str(o2), *args, "--jobs", "2"]) == 0
    assert (o1 / "sweep.csv").read_bytes() == (o2 / "sweep.csv").read_bytes()


@pytest.mark.parametrize(
    "flags",
    [
        ["--beta", "nan"],
        ["--beta", "0,inf"],
        ["--delta", "-1"],
        ["--delta", "1,NaN"],
        ["--jobs", "0"],
        ["--jobs", "3"],  # above the CPU count of 2 patched in below
    ],
)
def test_sweep_refuses_bad_flags_before_any_run(tmp_path, monkeypatch, flags):
    import fairdispatch.cli as cli

    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    manifest = write_manifest(tmp_path / "m.json")
    out = tmp_path / "sweep"
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--manifest", str(manifest), "--out", str(out), *flags])
    assert exit_info.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["0", "-3", "100001"])
def test_theorem_check_refuses_seed_counts_below_one(tmp_path, seeds):
    out = tmp_path / "thm"
    with pytest.raises(SystemExit) as exit_info:
        main(["theorem-check", "--which", "driver", "--seeds", seeds, "--out", str(out)])
    assert exit_info.value.code == 2
    assert not out.exists()


# sha256 of theorem_report.csv at --seeds 50, recorded before the theorem
# harness moved onto the simulation's own window step.
THEOREM_REPORT_SHA256 = {
    "passenger": "00d7752ac39a8ff9470780210986ce9a8de9880ae7e8a5a421abd088fa3d32e9",
    "driver": "3be4613acbfb641ef7e89efeed86237b05b13c30aded69f6d7aa4a7e7ec5d6cd",
}


@pytest.mark.parametrize("which", ["passenger", "driver"])
def test_theorem_check_command(tmp_path, which):
    out = tmp_path / "thm"
    code = main(["theorem-check", "--which", which, "--seeds", "3", "--out", str(out)])
    assert code == 0
    report = (out / "theorem_report.csv").read_text().splitlines()
    assert len(report) == 4  # header + 3 seeds
    assert not list(out.glob("theorem_fail_seed*.json"))
    code = main(["theorem-check", "--which", which, "--seeds", "50", "--out", str(out), "--force"])
    assert code == 0
    digest = hashlib.sha256((out / "theorem_report.csv").read_bytes()).hexdigest()
    assert digest == THEOREM_REPORT_SHA256[which]


def test_theorem_check_failure_dumps_instance(tmp_path, monkeypatch):
    import fairdispatch.cli as cli
    from fairdispatch.sim import TheoremOutcome

    def always_fail(inst, ladder):
        return TheoremOutcome(True, 0.5, {1.0: 0.5}, False, MatchProblem.build({}, []))

    monkeypatch.setattr(cli, "check_passenger_theorem", always_fail)
    out = tmp_path / "thm"
    code = main(["theorem-check", "--which", "passenger", "--seeds", "2", "--out", str(out)])
    assert code == 5
    assert (out / "theorem_fail_seed0.json").exists()
    assert (out / "theorem_fail_seed1.json").exists()


def test_gen_network_and_demand_roundtrip(tmp_path):
    manifest = write_manifest(tmp_path / "m.json")
    gen = tmp_path / "gen"
    assert main(["gen-network", "--manifest", str(manifest), "--out", str(gen)]) == 0
    assert main(["gen-demand", "--manifest", str(manifest), "--out", str(gen)]) == 0

    replay = write_manifest(
        tmp_path / "replay.json",
        network={"path": "gen/network.csv"},
        partition={"path": "gen/partition.csv"},
        requests={"path": "gen/requests.csv"},
    )
    scenario = load_scenario(replay)
    original = load_scenario(manifest)
    assert scenario.net.locations == original.net.locations
    assert sorted(scenario.net.edges) == sorted(original.net.edges)
    assert [
        (r.pickup, r.dropoff, r.arrival) for r in scenario.requests
    ] == [(r.pickup, r.dropoff, r.arrival) for r in original.requests]
    out = tmp_path / "replay_out"
    assert main(["run", "--manifest", str(replay), "--out", str(out)]) == 0


@pytest.mark.parametrize(
    "records",
    [
        "0,0\n1,0\n2,1\n",  # location 3 of the 2x2 grid has no area
        "0,0\n1,0\n2,1\n3,1\n7,1\n",  # location 7 is off the network
    ],
)
def test_gen_network_writes_the_partition_it_loaded(tmp_path, records):
    (tmp_path / "part.csv").write_text(records)
    manifest = write_manifest(
        tmp_path / "m.json",
        network={"grid": {"rows": 2, "cols": 2, "edge_cost": 60}},
        partition={"path": "part.csv"},
    )
    gen = tmp_path / "gen"
    assert main(["gen-network", "--manifest", str(manifest), "--out", str(gen)]) == 0
    assert (gen / "partition.csv").read_text() == "# location_id,area_id\n" + records
    assert load_partition(gen / "partition.csv") == load_partition(tmp_path / "part.csv")


def test_gen_demand_requires_profile(tmp_path):
    (tmp_path / "req.csv").write_text("0,1,30\n")
    manifest = write_manifest(tmp_path / "m.json", requests={"path": "req.csv"})
    assert main(["gen-demand", "--manifest", str(manifest), "--out", str(tmp_path / "g")]) == 2
