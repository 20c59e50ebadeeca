"""README's module table names only attributes the package has."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import stochgraph

README = Path(__file__).resolve().parents[1] / "README.md"
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")


def module_table_names() -> set[str]:
    """Every backticked dotted name in a row of the module table."""
    rows = [line for line in README.read_text().splitlines() if line.startswith("| `stochgraph.")]
    return {name for row in rows for name in DOTTED.findall(row)}


def package_roots() -> dict[str, object]:
    """The package, its modules and the classes they define, by name."""
    modules = {
        info.name: importlib.import_module(f"stochgraph.{info.name}")
        for info in pkgutil.iter_modules(stochgraph.__path__)
    }
    roots: dict[str, object] = {"stochgraph": stochgraph, **modules}
    for module in modules.values():
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                roots.setdefault(name, value)
    return roots


def resolves(root: object, parts: list[str]) -> bool:
    for part in parts:
        fields = getattr(root, "__dataclass_fields__", {})
        if not hasattr(root, part) and part not in fields:
            return False
        root = getattr(root, part, None)
    return True


def test_module_table_names_resolve():
    roots = package_roots()
    checked = {}
    for name in module_table_names():
        head, *rest = name.split(".")
        if head in roots:  # np.unique, math.fsum and the like are skipped
            checked[name] = resolves(roots[head], rest)
    assert {"SplitSpace.rank", "mc.draw_classes", "stochgraph.solvers"} <= set(checked)
    assert [name for name, ok in sorted(checked.items()) if not ok] == []
