import gc
import json
import math
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from pbergman import analysis, cli, kernel, solver
from pbergman.cli import main
from pbergman.lacunary import LacunarySeries

from oracles import write_series_csv

SCHEMA_DIR = Path(__file__).parent.parent / "schemas"


def _validator(name: str) -> Draft202012Validator:
    registry = Registry()
    for path in SCHEMA_DIR.glob("*.schema.json"):
        resource = Resource.from_contents(json.loads(path.read_text()))
        registry = registry.with_resource(f"pbergman/{path.name}", resource)
        registry = registry.with_resource(path.name, resource)
    schema = json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())
    return Draft202012Validator(schema, registry=registry)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_call_leaves_no_solver_cache_entry(capsys):
    before = list(solver._GRID_CACHES)  # grids other tests keep alive
    code, _, _ = _run(
        capsys, ["kernel", "--domain", "disk:1", "--p", "1.5", "--z", "0.3", "--degree", "8"]
    )
    assert code == 0
    gc.collect()
    assert all(any(grid is old for old in before) for grid in solver._GRID_CACHES)


def test_kernel_json_contract(capsys):
    code, out, _ = _run(
        capsys, ["kernel", "--domain", "disk:1", "--p", "2", "--z", "0", "--degree", "8"]
    )
    assert code == 0
    doc = json.loads(out)
    _validator("kernel").validate(doc)
    assert abs(doc["K_p"] - 1.0 / math.pi) <= 1e-3
    assert "seed" not in doc["config"] and "restarts" not in doc["config"]


def test_kernel_margin_violation_exits_one(capsys):
    code, out, err = _run(capsys, ["kernel", "--domain", "disk:1", "--p", "3", "--z", "0.99"])
    assert code == 1
    assert "margin" in err


def test_usage_error_exits_one(capsys):
    code, _, _ = _run(capsys, ["kernel", "--domain", "disk:1"])  # missing --p/--z
    assert code == 1
    code, _, _ = _run(capsys, ["no-such-command"])
    assert code == 1


def test_kernel_punctured_pole_beats_disk_value(capsys):
    code, out, _ = _run(
        capsys,
        ["kernel", "--domain", "punctured:1", "--p", "1", "--z", "0.5",
         "--degree", "12", "--nmin", "-1"],
    )
    assert code == 0
    with_pole = json.loads(out)["K_p"]
    code, out, _ = _run(
        capsys,
        ["kernel", "--domain", "punctured:1", "--p", "1", "--z", "0.5", "--degree", "12"],
    )
    without = json.loads(out)["K_p"]
    assert with_pole >= without * (1.0 - 1e-8)


def test_kernel_sweep_emits_csv(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = _run(
        capsys,
        ["kernel", "--domain", "disk:1", "--p", "2", "--z", "0,0.3",
         "--degree", "6", "--out", str(out_path)],
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1].startswith("# timestamp:")
    assert lines[2] == "p,re_z,im_z,K_p,B_p"
    assert len(lines) == 5


def test_metric_json_contract(capsys):
    code, out, _ = _run(
        capsys, ["metric", "--domain", "disk:1", "--p", "4", "--z", "0", "--degree", "8"]
    )
    assert code == 0
    doc = json.loads(out)
    _validator("metric").validate(doc)
    assert abs(doc["B_p"] - 3.0**0.25) <= 1e-3


def test_levi_gap_values(capsys):
    code, out, _ = _run(capsys, ["levi", "--domain", "disk:1", "--p", "4"])
    assert code == 0
    doc = json.loads(out)
    _validator("levi").validate(doc)
    assert abs(doc["records"][0]["gap"] - (2.0 - math.sqrt(3.0))) <= 2e-3
    assert doc["records"][0]["converged"] is True

    code, out, _ = _run(capsys, ["levi", "--domain", "disk:1", "--p", "2"])
    doc = json.loads(out)
    assert abs(doc["records"][0]["gap"]) <= 2e-3


def test_levi_applies_margin(capsys):
    # the stencil around the center needs margin + 2 * step of room
    code, out, err = _run(capsys, ["levi", "--domain", "disk:1", "--p", "2", "--margin", "0.99"])
    assert code == 1
    assert out == "" and "stencil" in err


def test_holder_applies_nmin(capsys):
    argv = ["holder", "--domain", "annulus:0.5,1", "--p", "2", "--degree", "4",
            "--grid", "32x64", "--w", "0.75", "--zprime", "0.7",
            "--radii", "0.02,0.0005", "--directions", "2"]
    slopes = []
    for extra in ([], ["--nmin", "0"]):
        code, out, _ = _run(capsys, argv + extra)
        assert code == 0
        slopes.append(json.loads(out)["slope"])
    # dropping the negative exponents changes the basis, so the slope moves
    assert abs(slopes[0] - slopes[1]) > 0.05


@pytest.mark.parametrize(
    "argv, header, rows",
    [
        (["levi", "--domain", "disk:1", "--p", "2", "--degree", "8"],
         "p,re_z,im_z,levi,bp2,gap", 1),
        (["holder", "--domain", "disk:1", "--p", "2", "--radii", "0.1,0.003",
          "--directions", "2", "--degree", "8"], "r,delta,fitted", 2),
    ],
    ids=["levi", "holder"],
)
def test_levi_and_holder_csv(capsys, tmp_path, argv, header, rows):
    out_path = tmp_path / "x.csv"
    code, _, _ = _run(capsys, argv + ["--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[2] == header
    assert len(lines) == 3 + rows


def test_holder_json_contract(capsys):
    code, out, _ = _run(
        capsys,
        ["holder", "--domain", "disk:1", "--p", "2", "--zprime", "0.2", "--w", "0.4"],
    )
    assert code == 0
    doc = json.loads(out)
    _validator("holder").validate(doc)
    assert doc["slope"] >= 0.9
    assert doc["converged"] is True


def test_limit_csv_and_json(capsys, tmp_path):
    args = ["limit", "--domain", "disk:1", "--p-list", "0.9,0.99", "--z", "0",
            "--restarts", "4", "--degree", "6"]
    code, out, _ = _run(capsys, args)
    assert code == 0
    doc = json.loads(out)
    _validator("limit").validate(doc)
    assert doc["bound"] == "lower"
    assert all(row["status"] == "ok" for row in doc["rows"])

    out_path = tmp_path / "limit.csv"
    code, _, _ = _run(capsys, args + ["--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[2] == "p,K_p,d_p,restarts"
    assert len(lines) == 5


def test_lacunary_parseval(capsys, tmp_path):
    rng = np.random.default_rng(61)
    series = LacunarySeries(
        tuple(2**k for k in range(1, 9)),
        rng.standard_normal(8) + 1j * rng.standard_normal(8),
    )
    path = tmp_path / "series.csv"
    write_series_csv(path, series)
    code, out, _ = _run(capsys, ["lacunary", "--file", str(path), "--p", "2"])
    assert code == 0
    doc = json.loads(out)
    _validator("lacunary").validate(doc)
    assert abs(doc["ratio"] - 1.0) <= 1e-6
    assert doc["integrable"] is True


def test_lacunary_above_the_direct_integral_limit_exits_one(capsys, tmp_path):
    series = LacunarySeries(tuple(2**k for k in range(14)), np.ones(14, dtype=complex))
    path = tmp_path / "series.csv"
    write_series_csv(path, series)
    code, out, err = _run(capsys, ["lacunary", "--file", str(path), "--p", "2"])
    assert (code, out) == (1, "")
    assert err.startswith("error: lambda_max 8192 is above 4096")
    assert "direct area integral" in err and "grid" not in err


@pytest.mark.parametrize(
    "row",
    ["1,1", "1.5,1,0", "1,nan,0", "1,inf,0"],
    ids=["short-row", "non-integer-lambda", "nan-coefficient", "inf-coefficient"],
)
def test_lacunary_bad_series_row_names_file_and_row(capsys, tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"lambda,re,im\n2,1,0\n{row}\n")
    code, out, err = _run(capsys, ["lacunary", "--file", str(path), "--p", "2"])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}, row 3: expected lambda,re,im")


def test_shared_parser_matches_fresh_parsers(capsys, tmp_path):
    # main builds its parser once per process; a run of commands through that
    # one parser, a usage error among them, must match runs on fresh parsers
    path = tmp_path / "series.csv"
    write_series_csv(path, LacunarySeries((1, 2, 4), np.array([1.0, 0.5j, -0.25])))
    kernel = ["kernel", "--domain", "disk:1", "--p", "1.5", "--z", "0.2", "--degree", "6"]
    argvs = [kernel, ["lacunary", "--file", str(path), "--p", "1", "--r", "0.9"],
             ["kernel", "--domain", "disk:1"], kernel]

    def runs(fresh: bool):
        out = []
        for argv in argvs:
            if fresh:
                cli.build_parser.cache_clear()
            code, stdout, stderr = _run(capsys, argv)
            lines = [line for line in stdout.splitlines() if '"timestamp"' not in line]
            out.append((code, lines, stderr))
        return out

    shared = runs(fresh=False)
    assert [code for code, _, _ in shared] == [0, 0, 1, 0]
    assert shared[0] == shared[3]
    assert shared == runs(fresh=True)


_SOLVE = ["--domain", "disk:1", "--degree", "6"]
_OUTPUT_CASES = {
    "kernel-point": (["kernel", "--p", "2", "--z", "0", *_SOLVE], "json"),
    "kernel-sweep": (["kernel", "--p", "2", "--z", "0,0.3", *_SOLVE], "csv"),
    "metric": (["metric", "--p", "2", "--z", "0", *_SOLVE], "json"),
    "levi": (["levi", "--p", "2", *_SOLVE], "by suffix"),
    "holder": (["holder", "--p", "2", "--radii", "0.1,0.003", "--directions", "2", *_SOLVE],
               "by suffix"),
    "limit": (["limit", "--p-list", "0.9", "--restarts", "2", "--grid", "32x64", *_SOLVE],
              "by suffix"),
    "lacunary": (["lacunary", "--file", "series.csv", "--p", "2", "--r", "0.9"], "json"),
}
# the echoed configuration of each command, key for key: a new option must
# show up here
_BASE_KEYS = {"command", "domain", "degree", "nmin", "grid", "margin"}
_CONFIG_KEYS = {
    "kernel": _BASE_KEYS | {"p", "z"},
    "metric": _BASE_KEYS | {"p", "z", "direction"},
    "levi": _BASE_KEYS | {"p", "direction", "step"},
    "holder": _BASE_KEYS | {"p", "zprime", "w", "radii", "directions", "quantity"},
    "limit": _BASE_KEYS | {"seed", "restarts", "p_list", "z"},
    "lacunary": {"command", "file", "p", "circle_radius"},
}


@pytest.mark.parametrize("dest", [None, "x.csv", "x.json"], ids=["stdout", "csv", "json"])
@pytest.mark.parametrize("case", list(_OUTPUT_CASES))
def test_output_rule(capsys, tmp_path, monkeypatch, case, dest):
    # CSV when the path ends in .csv ("by suffix") or always ("csv"), else JSON
    argv, rule = _OUTPUT_CASES[case]
    monkeypatch.chdir(tmp_path)
    write_series_csv(tmp_path / "series.csv", LacunarySeries((1, 2, 4), np.array([1.0, 0.5j, -0.25])))
    code, out, err = _run(capsys, argv + ([] if dest is None else ["--out", dest]))
    assert code == 0 and err == ""
    written = sorted(path.name for path in tmp_path.iterdir() if path.name != "series.csv")
    assert written == ([] if dest is None else [dest])
    if dest is None:
        text = out
    else:
        assert out == ""
        text = (tmp_path / dest).read_text()
    if rule == "csv" or (rule == "by suffix" and dest == "x.csv"):
        lines = text.splitlines()
        assert lines[0].startswith("# config: ") and lines[1].startswith("# timestamp: ")
        config = json.loads(lines[0][len("# config: "):])
        assert len({len(line.split(",")) for line in lines[2:]}) == 1
    else:
        doc = json.loads(text)
        assert list(doc)[:2] == ["config", "timestamp"]
        config = doc["config"]
        _validator(argv[0]).validate(doc)
    assert config["command"] == argv[0]
    assert set(config) == _CONFIG_KEYS[argv[0]]


def _c(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


_GRID = ["--degree", "4", "--nmin", "0", "--grid", "32X64", "--margin", "0.01"]
_GRID_ECHO = {"degree": 4, "nmin": 0, "grid": "32X64", "margin": 0.01}
# every option of every command at a value other than its default, and the
# echo it must give, key for key in parser order
_ECHO_CASES = {
    "kernel": (
        ["--domain", "disk:2", *_GRID, "--p", "1.5,3", "--z", "0.1, 0.2+0.3j"],
        {"domain": "disk:2", **_GRID_ECHO, "p": [1.5, 3.0], "z": [_c(0.1), _c(0.2 + 0.3j)]},
    ),
    "metric": (
        ["--domain", "disk:2", *_GRID, "--p", "3", "--z", "0.2j", "--direction", "1+1j"],
        {"domain": "disk:2", **_GRID_ECHO, "p": 3.0, "z": _c(0.2j), "direction": _c(1 + 1j)},
    ),
    "levi": (
        ["--domain", "disk:2", *_GRID, "--p", "2,3", "--direction", "1j", "--step", "0.02"],
        {"domain": "disk:2", **_GRID_ECHO, "p": [2.0, 3.0], "direction": _c(1j), "step": 0.02},
    ),
    "holder": (
        ["--domain", "disk:2", *_GRID, "--p", "3", "--zprime", "0.1j", "--w", "0.3",
         "--radii", "0.1,0.003", "--directions", "2", "--quantity", "hp"],
        {"domain": "disk:2", **_GRID_ECHO, "p": 3.0, "zprime": _c(0.1j), "w": _c(0.3),
         "radii": [0.1, 0.003], "directions": 2, "quantity": "hp"},
    ),
    "limit": (
        ["--domain", "disk:2", *_GRID, "--seed", "3", "--restarts", "2",
         "--p-list", "0.9,0.95", "--z", "0.1"],
        {"domain": "disk:2", **_GRID_ECHO, "seed": 3, "restarts": 2, "p_list": [0.9, 0.95],
         "z": _c(0.1)},
    ),
    "lacunary": (
        ["--file", "series.csv", "--p", "3", "--r", "0.5"],
        {"file": "series.csv", "p": 3.0, "circle_radius": 0.5},
    ),
}


@pytest.mark.parametrize("command", list(_ECHO_CASES))
def test_config_echo_is_the_parsed_arguments(capsys, tmp_path, monkeypatch, command):
    args, expected = _ECHO_CASES[command]
    argv = [command, *args, "--out", "x.json"]
    subparser = cli.build_parser()._subparsers._group_actions[0].choices[command]
    options = [a for a in subparser._actions if a.option_strings and a.dest != "help"]
    parsed = cli.build_parser().parse_args(argv)
    for action in options:
        default = action.default
        if isinstance(default, str) and action.type is not None:
            default = action.type(default)  # argparse parses a string default
        assert action.option_strings[0] in argv
        assert getattr(parsed, action.dest) != default, action.dest
    monkeypatch.chdir(tmp_path)
    write_series_csv(tmp_path / "series.csv", LacunarySeries((1, 2, 4), np.array([1.0, 0.5j, -0.25])))
    code, _, _ = _run(capsys, argv)
    assert code == 0
    text = (tmp_path / "x.json").read_text()
    if command == "kernel":  # a sweep, always CSV
        config = json.loads(text.splitlines()[0][len("# config: "):])
    else:
        config = json.loads(text)["config"]
    assert list(config.items()) == list(({"command": command} | expected).items())
    assert set(config) == _CONFIG_KEYS[command]


def test_control_characters_in_strings_round_trip(capsys, tmp_path, monkeypatch):
    # the domain parser strips the tab, the echo keeps it, escaped
    domain = "disk:1\t"
    code, out, _ = _run(capsys, ["kernel", "--domain", domain, "--p", "2", "--z", "0", "--degree", "4"])
    assert code == 0
    assert json.loads(out)["config"]["domain"] == domain

    path = tmp_path / "odd\tname\n.csv"
    write_series_csv(path, LacunarySeries((1, 2, 4), np.array([1.0, 0.5j, -0.25])))
    code, out, _ = _run(capsys, ["lacunary", "--file", str(path), "--p", "2"])
    assert code == 0
    assert json.loads(out)["config"]["file"] == str(path)

    monkeypatch.chdir(tmp_path)
    code, _, _ = _run(capsys, ["kernel", "--domain", "disk:1\n", "--p", "2", "--z", "0,0.1",
                               "--degree", "4", "--out", "x.csv"])
    assert code == 0
    lines = (tmp_path / "x.csv").read_text().splitlines()
    assert len(lines) == 5 and lines[2] == "p,re_z,im_z,K_p,B_p"
    assert json.loads(lines[0][len("# config: "):])["domain"] == "disk:1\n"


def test_metric_exits_two_when_its_kernel_solve_fails(capsys):
    # the B_p solve converges, the K_p solve it divides by does not
    code, out, _ = _run(
        capsys, ["metric", "--domain", "punctured:1", "--nmin", "-1", "--p", "1.2", "--z", "0.7"]
    )
    assert code == 2
    doc = json.loads(out)
    _validator("metric").validate(doc)
    assert doc["converged"] is False and doc["diagnostics"]["converged"] is True


def test_determinism_modulo_timestamp(capsys):
    argv = ["kernel", "--domain", "disk:1", "--p", "1.5", "--z", "0.2", "--degree", "6"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    doc1, doc2 = json.loads(out1), json.loads(out2)
    doc1.pop("timestamp")
    doc2.pop("timestamp")
    assert doc1 == doc2


_RESTART_CASES = {
    "kernel": ["kernel", "--p", "2", "--z", "0"],
    "metric": ["metric", "--p", "2", "--z", "0"],
    "levi": ["levi", "--p", "2"],
    "holder": ["holder", "--p", "2"],
    "limit": ["limit", "--p-list", "0.9", "--grid", "32x64"],
}


@pytest.mark.parametrize("flag", [["--seed", "3"], ["--restarts", "4"]], ids=["seed", "restarts"])
@pytest.mark.parametrize("command", list(_RESTART_CASES))
def test_only_limit_takes_seed_and_restarts(capsys, command, flag):
    # only limit runs restarts; the other solving commands reject both flags
    code, out, _ = _run(capsys, _RESTART_CASES[command] + ["--degree", "6"] + flag)
    if command != "limit":
        assert code == 1 and out == ""
        return
    assert code == 0
    config = json.loads(out)["config"]
    assert {"seed", "restarts"} <= set(config)
    assert config[flag[0][2:]] == int(flag[1])


@pytest.mark.parametrize("flag", [["--seed", "-1"], ["--restarts", "0"]], ids=["seed", "restarts"])
def test_limit_rejects_bad_seed_and_restarts(capsys, flag):
    # a precondition error, not a degraded row: exit 1 before any solve
    code, out, err = _run(capsys, _RESTART_CASES["limit"] + ["--degree", "6"] + flag)
    assert (code, out) == (1, "")
    assert err.startswith("error: need restarts >= 1 and seed >= 0")


@pytest.mark.parametrize(
    "argv, cause",
    [
        (["kernel", "--p", ",", "--z", "0"], "at least one value"),
        (["kernel", "--p", "2", "--z", ","], "at least one value"),
        (["levi", "--p", ","], "at least one value"),
        (["holder", "--p", "1.5", "--directions", "0"], "direction"),
        (["limit", "--p-list", "0.9", "--z", "0.99"], "margin"),
        (["kernel", "--p", "2", "--z", "0", "--tol", "1e-9"], "--tol"),
        (["kernel", "--p", "nan", "--z", "0"], "finite"),
        (["kernel", "--p", "inf", "--z", "0"], "finite"),
        (["kernel", "--p", "2", "--z", "0.999", "--margin", "nan"], "margin"),
        (["metric", "--p", "2", "--z", "0", "--direction", "nan"], "direction X must be finite"),
        (["metric", "--p", "2", "--z", "0", "--direction", "inf"], "direction X must be finite"),
        (["levi", "--p", "2", "--step", "nan"], "step must be positive and finite"),
        (["levi", "--p", "2", "--step", "inf"], "step must be positive and finite"),
        (["levi", "--p", "2", "--direction", "nan"], "direction X must be finite"),
        (["levi", "--p", "2", "--direction", "0"], "direction X must be finite and nonzero"),
        (["holder", "--p", "1.5", "--radii", "nan,0.01"], "radii must be positive and finite"),
        (["holder", "--p", "1.5", "--radii", "inf,0.01"], "radii must be positive and finite"),
        (["kernel", "--p", "2", "--z", "nan"], "point (nan+0j) is not finite"),
        (["kernel", "--p", "2", "--z", "inf"], "point (inf+0j) is not finite"),
        # degree 6 spans 6 exponents, which 6 angles alias
        (["kernel", "--p", "3", "--z", "0.3", "--grid", "8x6"], "6 angles aliases"),
    ],
    ids=["kernel-p", "kernel-z", "levi-p", "holder-directions", "limit-margin", "tol",
         "kernel-p-nan", "kernel-p-inf", "kernel-margin-nan", "metric-direction-nan",
         "metric-direction-inf", "levi-step-nan", "levi-step-inf", "levi-direction-nan",
         "levi-direction-zero", "holder-radii-nan", "holder-radii-inf", "kernel-z-nan",
         "kernel-z-inf", "kernel-grid-aliased"],
)
def test_bad_arguments_exit_one_before_solving(capsys, monkeypatch, argv, cause):
    # None in place of the solvers: any solve raises TypeError and fails the test
    monkeypatch.setattr(kernel, "minimize_pnorm", None)
    monkeypatch.setattr(analysis, "multistart_minimize", None)
    code, out, err = _run(capsys, argv + ["--degree", "6"])
    assert (code, out) == (1, "")
    assert cause in err


def test_grid_default_follows_the_kernel_constant(capsys, monkeypatch):
    # the --grid default and its help text come from kernel.DEFAULT_GRID_SHAPE
    argv = ["kernel", "--p", "2", "--z", "0"]
    assert cli.build_parser().parse_args(argv).grid == "128x256"
    monkeypatch.setattr(kernel, "DEFAULT_GRID_SHAPE", (64, 96))
    cli.build_parser.cache_clear()
    try:
        assert cli.build_parser().parse_args(argv).grid == "64x96"
        code, out, _ = _run(capsys, ["kernel", "--help"])
        assert code == 0 and "default 64x96;" in " ".join(out.split())
    finally:
        cli.build_parser.cache_clear()


def test_default_grid_config_echo(capsys):
    code, out, _ = _run(capsys, ["kernel", "--p", "2", "--z", "0", "--degree", "6"])
    assert code == 0
    assert '\n    "grid": "128x256",\n' in out


def test_output_dir_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PBERGMAN_OUTPUT_DIR", str(tmp_path))
    code, _, _ = _run(
        capsys,
        ["kernel", "--domain", "disk:1", "--p", "2", "--z", "0,0.2",
         "--degree", "6", "--out", "rel.csv"],
    )
    assert code == 0
    assert (tmp_path / "rel.csv").exists()


def _stall_solves(monkeypatch):
    monkeypatch.setattr(solver, "_MAX_ITERATIONS", 1)


def test_kernel_sweep_non_convergence_exits_two(capsys, monkeypatch):
    _stall_solves(monkeypatch)
    code, out, _ = _run(
        capsys,
        ["kernel", "--domain", "disk:1", "--p", "1", "--z", "0.3,0.4", "--degree", "6"],
    )
    assert code == 2
    assert "p,re_z,im_z,K_p,B_p" in out.splitlines()


@pytest.mark.parametrize(
    "argv, schema",
    [
        (["levi", "--domain", "disk:1", "--p", "1", "--degree", "8"], "levi"),
        (["holder", "--domain", "disk:1", "--p", "1.5", "--radii", "0.1,0.003",
          "--directions", "2", "--degree", "8"], "holder"),
    ],
    ids=["levi", "holder"],
)
def test_levi_and_holder_non_convergence_exit_two(capsys, monkeypatch, tmp_path, argv, schema):
    _stall_solves(monkeypatch)
    code, out, _ = _run(capsys, argv)
    assert code == 2
    doc = json.loads(out)
    _validator(schema).validate(doc)
    converged = doc["records"][0]["converged"] if schema == "levi" else doc["converged"]
    assert converged is False

    code, _, _ = _run(capsys, argv + ["--out", str(tmp_path / "out.csv")])
    assert code == 2


def test_floats_printed_with_17_digits(capsys):
    code, out, _ = _run(
        capsys, ["kernel", "--domain", "disk:1", "--p", "2", "--z", "0", "--degree", "6"]
    )
    doc = json.loads(out)
    # round-trip of the printed value reproduces the computed double exactly
    line = next(l for l in out.splitlines() if '"K_p"' in l)
    printed = line.split(":")[1].strip().rstrip(",")
    assert float(printed) == doc["K_p"]
