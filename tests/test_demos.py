"""Smoke tests for the demos, the README and the export lists: the quick demos
run to completion against the package sources, every package import in any
demo or README code block resolves, and so does every name in a package's
`__all__`."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# 04 and 05 train full model stacks and take several seconds each; they stay out
QUICK_DEMOS = ["01_gradient_checking.py", "02_vae_training.py", "03_latent_transfer.py"]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_exits_cleanly(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def _sources():
    sources = {path.name: path.read_text(encoding="utf-8") for path in (ROOT / "demos").glob("*.py")}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for k, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        sources[f"README.md block {k}"] = block
    return sources


SOURCES = _sources()


def _unresolved_imports(source):
    missing = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "latent_anon":
            module = importlib.import_module(node.module)
            missing += [
                f"{node.module}.{alias.name}" for alias in node.names if not hasattr(module, alias.name)
            ]
    return missing


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_package_imports_resolve(name):
    assert _unresolved_imports(SOURCES[name]) == []


@pytest.mark.parametrize(
    "package", ["latent_anon", "latent_anon.data", "latent_anon.models", "latent_anon.nn"]
)
def test_package_exports_resolve(package):
    module = importlib.import_module(package)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
