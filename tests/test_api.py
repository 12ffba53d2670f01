"""The package API: one list, stated by the modules that define the names."""

import ast
import importlib
import re
from pathlib import Path

import nebm

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("baselines", "bench", "metropolis", "mis", "network", "qubo", "result")

# Scalar references for the tests: importable from their modules only.
MODULE_ONLY = {
    "clz24": "metropolis",
    "clz24_array": "metropolis",
    "mix64": "metropolis",
    "stream_seed": "metropolis",
    "config_hash": "bench",
}


def imported_from_nebm(source: str) -> set[str]:
    """Every name a ``from nebm import ...`` statement in ``source`` imports."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "nebm"
        for alias in node.names
    }


def test_one_api_list():
    lists = [importlib.import_module(f"nebm.{m}").__all__ for m in MODULES]
    union = [name for names in lists for name in names]
    assert len(union) == len(set(union)), "a name is listed by two modules"
    assert len(nebm.__all__) == len(set(nebm.__all__))
    assert sorted(nebm.__all__) == sorted(union)
    assert all(hasattr(nebm, name) for name in nebm.__all__)

    for name, module in MODULE_ONLY.items():
        assert name not in nebm.__all__
        assert not hasattr(nebm, name)
        assert hasattr(importlib.import_module(f"nebm.{module}"), name)

    init = ast.parse(Path(nebm.__file__).read_text(encoding="utf-8"))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    assert not [node for node in ast.walk(init) if isinstance(node, defs)]

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    sources += [p.read_text(encoding="utf-8") for p in sorted((ROOT / "demos").glob("*.py"))]
    used = set().union(*map(imported_from_nebm, sources))
    assert used, "README and demos import nothing from nebm"
    assert used <= set(nebm.__all__), sorted(used - set(nebm.__all__))
