"""The package names and keyword arguments that the benchmark uses stay in place.

``perfbench/`` runs against every commit of the package, so a removed
export or parameter would first show as a benchmark that cannot start.
Its ``from rbfsurf import (...)`` statements and the calls made through
those names are read with ``ast``, never run.
"""

import ast
import inspect
from pathlib import Path

import rbfsurf

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _target(func, names):
    """The package object a call goes to (``name(...)`` or ``name.attr(...)``), or None."""
    attrs = []
    while isinstance(func, ast.Attribute):
        attrs.insert(0, func.attr)
        func = func.value
    if not isinstance(func, ast.Name) or func.id not in names:
        return None
    obj = getattr(rbfsurf, func.id)
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_benchmark_names_and_keywords_exist():
    for module in ("probes.py", "workloads.py"):
        tree = ast.parse((PERFBENCH / module).read_text(encoding="utf-8"))
        names = {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == "rbfsurf"
                 for alias in node.names}
        assert names, f"{module} no longer imports from rbfsurf"
        missing = sorted(n for n in names if n not in rbfsurf.__all__ or not hasattr(rbfsurf, n))
        assert not missing, f"{module} imports {missing}, which rbfsurf does not export"
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            target = _target(call.func, names)
            if target is None:
                continue
            positional = [None] * sum(not isinstance(a, ast.Starred) for a in call.args)
            keywords = {kw.arg: None for kw in call.keywords if kw.arg is not None}
            # raises TypeError when a parameter the benchmark passes is gone
            inspect.signature(target).bind_partial(*positional, **keywords)
