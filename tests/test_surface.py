"""The public surface: what `diapason` exports, and who relies on it.

Removing or adding a public name is an API change; this file makes it
a visible one.
"""

import ast
import importlib
import importlib.util
import re
import types
from pathlib import Path

import pytest

import diapason
from diapason.scales import canonical

MODULES = ("exact", "means", "scales", "generator", "analysis", "cli")
BENCHMARK_FILES = ("layers.py", "workloads.py")
ROOT = Path(__file__).resolve().parents[1]

PUBLIC = [
    "CANONICAL_NAMES", "ClosureTrace", "DiapenteRecipe", "EqualComparison",
    "EqualTemperament", "FIVE_LIMIT", "Generation",
    "GeneratorConfig", "INTERVAL_NAMES", "IntervalCount", "MAGNITUDE_LIMIT",
    "MeanKind", "ONE", "Ratio", "RatioOverflowError", "Restriction", "Scale",
    "SpiralTone", "THREE_LIMIT", "TWO", "TableCell", "TableClass",
    "Transposition", "Witness", "canonical", "cents",
    "closure_order_independence", "comma_between", "compare_to_equal",
    "equal_temperament", "exact_sqrt", "exponents", "factor_identity",
    "fifths_spiral", "generate_means", "hexachord_diapente_check",
    "interval_census", "is_proportion", "is_smooth",
    "mean_arithmetic", "mean_closure", "mean_geometric", "mean_harmonic",
    "mean_of_kind", "mean_table", "parse_ratio", "pythagorean_by_diapente",
    "reduce_to_diapason", "scale_from_json_dict", "step_intervals",
]


def test_package_namespace_is_pinned():
    names = sorted(
        name for name, value in vars(diapason).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC


def _top_level_definitions(path: Path) -> set[str]:
    """Names a module binds itself: defs, classes and assignments, not imports."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("module", MODULES)
def test_all_lists_only_own_definitions(module):
    mod = importlib.import_module(f"diapason.{module}")
    assert set(mod.__all__) <= _top_level_definitions(Path(mod.__file__))


def test_no_name_is_exported_twice():
    # `from .x import *` in `__init__` lets a later module silently
    # shadow an earlier one's name; the namespace pin cannot see that.
    owners = {}
    for module in MODULES:
        for name in importlib.import_module(f"diapason.{module}").__all__:
            assert owners.setdefault(name, module) == module, (name, owners[name], module)


def _imported_names(tree: ast.Module) -> set[str]:
    """Names bound by the module's imports, `from __future__` left out."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    # `__init__` imports to re-export; every other module imports to use
    path = Path(importlib.import_module(f"diapason.{module}").__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert _imported_names(tree) - used == set()


@pytest.mark.parametrize("filename", BENCHMARK_FILES)
def test_benchmark_imports_still_exist(filename):
    tree = ast.parse((ROOT / "diapbench" / filename).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("diapason")
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        owner = importlib.import_module(module)
        assert hasattr(owner, name) or importlib.util.find_spec(f"{module}.{name}"), (module, name)


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    exec(block, namespace)
    assert "5/4 = A(1/1, 3/2)" in capsys.readouterr().out
    assert namespace["trace"].final.tones == canonical("SN1").tones
