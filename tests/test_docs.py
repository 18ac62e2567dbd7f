"""The documented API stays runnable: the README quickstart, command-line
block and demos execute, every layer the benchmark trace wraps still
exists, a traced run of the command line yields its layer metrics, and
every third-party module the tests import is declared in pyproject.toml,
every one the package imports as a runtime dependency, and the commands run
without scipy."""

import ast
import importlib
import importlib.util
import json
import os
import re
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pbergman as pb
from pbergman import cli

from oracles import write_series_csv

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _quickstart() -> str:
    section = (ROOT / "README.md").read_text().split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _command_lines() -> list[list[str]]:
    """The argument lists of the ``pbergman`` lines in README "Command line"."""
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("pbergman ")]


COMMAND_LINES = _command_lines()


def _writes_csv(argv: list[str]) -> bool:
    """The documented output rule: CSV for the kernel sweep, and for levi,
    holder and limit when --out ends in .csv; JSON otherwise."""
    options = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] == "kernel":
        return "," in options["--p"] + options["--z"]
    return argv[0] in ("levi", "holder", "limit") and options.get("--out", "").endswith(".csv")


def test_readme_quickstart_runs(capsys):
    exec(compile(_quickstart(), "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3


@pytest.mark.parametrize(
    "argv", COMMAND_LINES, ids=[f"{i}-{argv[0]}" for i, argv in enumerate(COMMAND_LINES)]
)
def test_readme_command_line_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    write_series_csv("series.csv", pb.LacunarySeries((1, 3, 9), np.array([1.0, 0.5j, -0.25])))
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    text = (tmp_path / argv[argv.index("--out") + 1]).read_text() if "--out" in argv else out
    if _writes_csv(argv):
        assert text.startswith("# config: ")
    else:
        assert list(json.loads(text))[:2] == ["config", "timestamp"]


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def _spans(monkeypatch):
    """The benchmark's trace module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_trace_layers_exist(monkeypatch):
    # a traced benchmark run raises TraceError on a missing layer name
    spans = _spans(monkeypatch)
    for module, functions in spans.LAYERS.items():
        program = importlib.import_module(f"pbergman.{module}")
        for function in functions:
            assert callable(getattr(program, function, None)), f"pbergman.{module}.{function}"


def test_benchmark_trace_runs(monkeypatch):
    # the trace reads iterations, converged, problem.grid.nodes and
    # problem.basis.dimension from every solve
    spans = _spans(monkeypatch)
    with spans.Tracer() as tracer:
        assert cli.main(["kernel", "--p", "1.5", "--z", "0.3", "--degree", "8"]) == 0
        assert cli.main(["levi", "--p", "2"]) == 0
    metrics = tracer.layer_metrics(1)
    assert metrics["cli.main.calls"] == 2 and metrics["cli.exit_nonzero"] == 0
    assert metrics["analysis.levi_metric_gap.calls"] == 1
    assert metrics["solver.minimize_pnorm.calls"] > 1
    assert metrics["solver.iterations"] > 0
    assert metrics["solver.converged_ratio"] == 1.0
    assert metrics["solver.dense_nd_computed"] > 0


@pytest.mark.parametrize(
    "folder, extras, expected",
    [("tests", ["test"], {"numpy", "pytest"}), ("src/pbergman", [], {"numpy"})],
    ids=["tests", "package"],
)
def test_test_imports_are_declared(folder, extras, expected):
    # the tests may import the runtime dependencies and the test extra, the
    # package only the runtime dependencies
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + [
        req for extra in extras for req in project["optional-dependencies"][extra]
    ]
    declared = {
        re.match(r"[\w.-]+", req).group().lower().replace("-", "_") for req in requirements
    }
    files = list((ROOT / folder).glob("*.py"))
    imported = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    local = {path.stem for path in files} | {"pbergman"}
    third_party = imported - local - set(sys.stdlib_module_names)
    assert expected <= third_party
    undeclared = sorted(third_party - declared)
    assert not undeclared, f"undeclared imports in {folder}: {undeclared}"


_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # every import of scipy or a submodule fails
from pbergman.cli import main
sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))
"""


def test_commands_run_without_scipy(tmp_path):
    # scipy is a test dependency only; a fresh interpreter sees lazy and
    # transitive imports, which the static pin above misses
    path = tmp_path / "series.csv"
    write_series_csv(path, pb.LacunarySeries((2, 4, 8), np.array([1.0, 0.5, 0.25], dtype=complex)))
    calls = [
        ["kernel", "--domain", "annulus:0.5,1", "--z", "0.7", "--p", "3", "--degree", "8"],
        ["lacunary", "--file", str(path), "--p", "1.5"],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(calls)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
