"""Span tracing of boolfn's public functions, installed from outside ``src/``.

Every traced function is replaced by a wrapper in every ``boolfn`` module
that binds it, because ``from .core import materialize`` and similar give
each importing module its own name for the same object; rebinding only the
defining module would miss those callers. Spans stay in memory until the
pass ends, and a span's self time is its duration minus the time covered by
the spans it directly caused.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import time
from pathlib import Path

# The layers are the seven modules of src/boolfn. families has no entry:
# in a timed pass it only builds the lazy compose member of analyze-n20,
# whose cost shows in core.materialize.
TRACED = {
    "core": (
        "parse",
        "serialize",
        "materialize",
        "depends_on_all",
        "is_monotone",
        "TruthTable.from_packed_int",
    ),
    "measures": (
        "sensitivity",
        "per_point_sensitivity",
        "influence",
        "block_sensitivity",
        "certificate_complexity",
        "decision_tree_depth",
        "alternation_decrease",
        "negation_complexity",
        "measure_report",
    ),
    "chains": (
        "alternation_profile",
        "max_alternation_witness",
        "monotone_decomposition",
        "alternation_along",
    ),
    "algebra": (
        "multilinear_coefficients",
        "degree",
        "fourier_transform",
        "sparsity",
        "spectral_sums",
        "spectral_sums_of",
        "influence_from_spectrum",
    ),
    "verify": ("run_check_suite",),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Tracer:
    """Records (name, start, end, child time) spans for wrapped functions."""

    def __init__(self, work_dir: Path) -> None:
        self.work_dir = work_dir
        self.pid = os.getpid()
        self.spans: list[tuple[str, float, float, float]] = []
        self._child_time: list[float] = []
        self._restore: list[tuple[object, str, object]] = []
        self._dumps = itertools.count()

    def _wrap(self, name: str, fn):
        spans = self.spans
        child_time = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                children = child_time.pop()
                if child_time:
                    child_time[-1] += end - start
                spans.append((name, start, end, children))

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a boolfn module binds it."""
        homes = {name: importlib.import_module(f"boolfn.{name}") for name in TRACED}
        core, verify = homes["core"], homes["verify"]
        modules = [m for key, m in sys.modules.items() if key == "boolfn" or key.startswith("boolfn.")]
        for mod_name, fns in TRACED.items():
            home = homes[mod_name]
            for fn_name in fns:
                span = f"{mod_name}.{fn_name}"
                if fn_name == "TruthTable.from_packed_int":
                    original = core.TruthTable.__dict__["from_packed_int"]
                    wrapped = classmethod(self._wrap(span, original.__func__))
                    self._rebind(core.TruthTable, "from_packed_int", original, wrapped)
                    continue
                original = getattr(home, fn_name)
                wrapped = self._wrap(span, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, attr, original, wrapped)
        # Pool workers inherit the wrappers through fork, but their spans
        # live in the worker's memory; this hook writes them to a file that
        # the parent merges after the pool has returned.
        original_chunk = verify._run_chunk
        self._rebind(verify, "_run_chunk", original_chunk, self._chunk_hook(original_chunk))

    def _rebind(self, owner, attr: str, original, wrapped) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _chunk_hook(self, run_chunk):
        @functools.wraps(run_chunk)
        def hook(*args, **kwargs):
            if os.getpid() == self.pid:
                return run_chunk(*args, **kwargs)
            # In a forked worker: drop the spans copied from the parent.
            self.spans.clear()
            self._child_time.clear()
            try:
                return run_chunk(*args, **kwargs)
            finally:
                path = self.work_dir / f"spans-{os.getpid()}-{next(self._dumps)}.json"
                path.write_text(json.dumps(self.summary()))

        return hook

    def summary(self) -> dict:
        """Per span name: calls and self seconds."""
        out: dict[str, dict] = {}
        for name, start, end, children in self.spans:
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - children
        return out

    def worker_summaries(self) -> list[dict]:
        """Summaries written by forked workers."""
        return [json.loads(path.read_text()) for path in sorted(self.work_dir.glob("spans-*.json"))]


def merge_summaries(parts: list[dict]) -> dict:
    out: dict[str, dict] = {}
    for part in parts:
        for name, entry in part.items():
            into = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            into["calls"] += entry["calls"]
            into["self_s"] += entry["self_s"]
    return out
