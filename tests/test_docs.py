"""The documented API stays runnable: the README quickstart executes, the
demos call only names the package has, and every layer the benchmark trace
wraps still exists."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

import pbergman as pb

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _quickstart() -> str:
    section = (ROOT / "README.md").read_text().split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _pb_paths(tree: ast.AST) -> set[str]:
    """Dotted names ``pb.x.y`` used in ``tree``."""
    paths = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "pb":
            paths.add(".".join(reversed(parts)))
    return paths


def test_readme_quickstart_runs(capsys):
    exec(compile(_quickstart(), "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_names_exist(path):
    paths = _pb_paths(ast.parse(path.read_text()))
    assert paths

    def resolves(dotted: str) -> bool:
        obj = pb
        for name in dotted.split("."):
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True

    assert sorted(p for p in paths if not resolves(p)) == []


def test_benchmark_trace_layers_exist(monkeypatch):
    # a traced benchmark run raises TraceError on a missing layer name
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    for module, functions in spans.LAYERS.items():
        program = importlib.import_module(f"pbergman.{module}")
        for function in functions:
            assert callable(getattr(program, function, None)), f"pbergman.{module}.{function}"
