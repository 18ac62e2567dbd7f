import json
import math
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

import pbergman as pb
from pbergman.cli import main
from pbergman.lacunary import LacunarySeries, write_series_csv

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


def test_kernel_json_contract(capsys):
    code, out, _ = _run(
        capsys, ["kernel", "--domain", "disk:1", "--p", "2", "--z", "0", "--degree", "8"]
    )
    assert code == 0
    doc = json.loads(out)
    _validator("kernel").validate(doc)
    assert abs(doc["K_p"] - 1.0 / math.pi) <= 1e-3
    assert doc["config"]["seed"] == 0


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


def test_determinism_modulo_timestamp(capsys):
    argv = ["kernel", "--domain", "disk:1", "--p", "1.5", "--z", "0.2", "--degree", "6",
            "--seed", "3"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    doc1, doc2 = json.loads(out1), json.loads(out2)
    doc1.pop("timestamp")
    doc2.pop("timestamp")
    assert doc1 == doc2


def test_output_dir_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PBERGMAN_OUTPUT_DIR", str(tmp_path))
    code, _, _ = _run(
        capsys,
        ["kernel", "--domain", "disk:1", "--p", "2", "--z", "0,0.2",
         "--degree", "6", "--out", "rel.csv"],
    )
    assert code == 0
    assert (tmp_path / "rel.csv").exists()


def test_kernel_sweep_non_convergence_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(
        "pbergman.cli._solver_config", lambda args: pb.SolverConfig(max_iterations=1)
    )
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
    monkeypatch.setattr(
        "pbergman.cli._solver_config", lambda args: pb.SolverConfig(max_iterations=1)
    )
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
