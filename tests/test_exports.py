"""The public names: every one resolves, README calls only those, and so
does the benchmark."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import splitcut

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in splitcut.__all__ if not hasattr(splitcut, name)]
    assert missing == []


def test_readme_calls_only_exported_names():
    # a call written as `name(...)` in README names a public entry point,
    # so removing one from the package cannot leave README behind
    called = set(re.findall(r"`([A-Za-z_]\w*)\(", README.read_text()))
    assert called
    assert sorted(called - set(splitcut.__all__)) == []


def _splitcut_names(source: str) -> list[str]:
    """The dotted splitcut names a module imports or reads as attributes:
    `from splitcut.m import x` gives "splitcut.m.x", and with `import
    splitcut`, an expression `splitcut.m.x` gives "splitcut.m.x"."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "splitcut":
            names += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            chain = [node.attr]
            while isinstance(node.value, ast.Attribute):
                node = node.value
                chain.append(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id == "splitcut":
                names.append(".".join(["splitcut", *reversed(chain)]))
    return names


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part):
            try:
                importlib.import_module(".".join(parts[:i]))
            except ImportError:
                return False
        obj = getattr(obj, part)
    return True


@pytest.mark.parametrize("script", ["run.py", "workloads.py", "answers.py"])
def test_benchmark_names_resolve(script):
    # read, never run: a name the library dropped would otherwise only
    # surface when the benchmark reaches the line that uses it
    names = _splitcut_names((ROOT / "perfbench" / script).read_text())
    assert names
    assert [name for name in names if not _resolves(name)] == []
