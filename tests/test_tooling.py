"""The benchmark's tracer names functions of boolfn, so a rename must show
here; and the package keeps no module-level caches."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, names in tracing.TRACED.items():
        module = importlib.import_module(f"boolfn.{module_name}")
        for dotted in names:
            owner = module
            for part in dotted.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{module_name}.{dotted}")
    assert not missing
    # the tracer hooks the chunk runner that the caller and the workers share
    assert callable(importlib.import_module("boolfn.verify")._run_chunk)


def _cache_names(statement: ast.stmt) -> set[str]:
    """What a module-level statement calls or decorates with, by name."""
    names = set()
    for node in ast.walk(statement):
        targets = [node.func] if isinstance(node, ast.Call) else getattr(node, "decorator_list", [])
        for target in targets:
            names.add(target.id if isinstance(target, ast.Name) else getattr(target, "attr", None))
    return names


def test_no_module_level_caches():
    # A cache at module level holds its results for the life of the process.
    # The DP's plan cache is the one kept: its plans are bounded by
    # chains.BLOCK_BITS, and rebuilding them per call was measured slower.
    # cached_property on a Chunk lives and dies with that chunk.
    cached = set()
    for path in sorted((ROOT / "src" / "boolfn").glob("*.py")):
        for statement in ast.parse(path.read_text()).body:
            if _cache_names(statement) & {"lru_cache", "cache"}:
                name = getattr(statement, "name", None) or ast.unparse(getattr(statement, "targets", [statement])[0])
                cached.add(f"{path.stem}.{name}")
    assert cached == {"chains._level_plan"}
