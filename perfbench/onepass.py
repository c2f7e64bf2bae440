"""One measured pass of one workload, in a fresh interpreter.

``run.py`` starts this file once per pass. Each pass must start cold:
``measures._DT_MEMO`` is module-global and unbounded, so a second pass in
the same process would time memo hits instead of decision-tree search. On a
2-core Xeon, the depth of one random n=12 table takes 29 s cold and 0.02 ms
on a repeat. A user's ``boolfn verify`` or ``boolfn analyze`` process
always starts cold too.

Usage: python3 perfbench/onepass.py --workload NAME --seed N --trace 0|1
           --work-dir DIR [--tiny]

Prints one JSON line: when the inputs were ready (``time.monotonic``, which
is system-wide, so the parent can subtract its spawn time), the wall time of
the timed pass, the reference kernel's time just before and after it,
functions processed and failed, the output digest, peak RSS, skip count
and, when traced, per-function spans.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from tracing import Tracer, merge_summaries

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SUBSET_CHECKS = ("deg-product-bound-m2", "deg-product-bound-m3")


@dataclass(frozen=True)
class Sweep:
    """``verify.run_check_suite`` over one explicit population of random tables."""

    n: int
    size: int
    tiny_size: int
    checks: Union[str, tuple[str, ...]]
    jobs: int


@dataclass(frozen=True)
class Analyze:
    """``boolfn analyze --file`` once per random table, plus one lazy member."""

    n: int
    size: int
    tiny_size: int


# Population sizes keep one pass at a few seconds, so a run holds several
# fresh-interpreter passes and reports their median.
WORKLOADS = {
    "sweep-n4": Sweep(n=4, size=1024, tiny_size=32, checks="all", jobs=1),
    "sweep-n9": Sweep(n=9, size=3, tiny_size=1, checks="all", jobs=1),
    "analyze-n20": Analyze(n=20, size=1, tiny_size=1),
    "sweep-n8-subset-j2": Sweep(n=8, size=4000, tiny_size=64, checks=SUBSET_CHECKS, jobs=2),
}

# The lazily built member of analyze-n20: AND4 composed with itself, n=16,
# which analyze must materialize point by point. It is AND16, so its values
# are known in closed form; the Walsh coefficients of 1 - 2f are
# (2**16 - 2) / 2**16 on the empty set and +-2 / 2**16 elsewhere.
COMPOSE_ARGV = ["analyze", "--family", "compose", "--base", "and4", "--power", "2"]
COMPOSE_EXPECTED = {
    "fn": "16:8" + "0" * 16383,
    "n": 16,
    "s": 16,
    "I": "1/2048",
    "alt": 1,
    "dc": 0,
    "negs": 0,
    "negs_formula": 0,
    "deg": 16,
    "deg2": 16,
    "deg_m": {"3": 16, "4": 16, "5": 16, "6": 16},
    "sparsity": 1 << 16,
    "spectral": {"l1": "49151/16384", "weighted": "16", "weighted2": "17/4096"},
    "depends_on_all": True,
}

# The documented keys of one analyze JSON object.
ANALYZE_KEYS = {
    "fn", "n", "s", "bs", "C", "I", "alt", "dc", "DT", "negs", "negs_formula",
    "skips", "deg", "deg2", "deg_m", "sparsity", "spectral", "depends_on_all",
}

ORACLE_MEMBERS = 6


def random_texts(workload: str, seed: int, n: int, count: int) -> list[str]:
    """Seeded random tables in the ``n:HEX`` text form (bit i = value at i)."""
    rng = random.Random(f"{workload}/{seed}")
    digits = ((1 << n) + 3) // 4
    return [f"{n}:{rng.getrandbits(1 << n):0{digits}X}" for _ in range(count)]


def run_sweep(spec: Sweep, population) -> dict:
    """Time one ``run_check_suite`` call, then check its report."""
    from boolfn import verify

    size = len(population.members)
    start = time.perf_counter()
    try:
        report = verify.run_check_suite(population, checks=spec.checks, jobs=spec.jobs)
    except Exception:
        traceback.print_exc()
        report = None
    wall = time.perf_counter() - start
    if report is None:
        return {"wall_s": wall, "fn": size, "failed": size, "output": b"", "skips": 0}
    names = set(verify.CHECKS) if spec.checks == "all" else set(spec.checks)
    counts_ok = set(report.checks) == names and all(
        agg["pass"] + agg["fail"] + agg["skip"] == size for agg in report.checks.values()
    )
    ok = counts_ok and not report.failed
    if not ok:
        print(f"sweep report failed its check: failed={report.failed}, counts_ok={counts_ok}", file=sys.stderr)
    return {
        "wall_s": wall,
        "fn": size,
        "failed": 0 if ok else size,
        "output": report.to_json().encode(),
        "skips": sum(
            count
            for agg in report.checks.values()
            for reason, count in agg["skip_reasons"].items()
            if "cap" in reason
        ),
    }


def setup_analyze(spec: Analyze, texts: list[str], work_dir: Path) -> list[tuple[list[str], dict]]:
    """Write one corpus file per table; pair each argv with expected fields."""
    invocations = []
    for i, text in enumerate(texts):
        path = work_dir / f"table-{i}.txt"
        path.write_text(text + "\n")
        invocations.append((["analyze", "--file", str(path)], {"fn": text, "n": spec.n}))
    invocations.append((COMPOSE_ARGV, COMPOSE_EXPECTED))
    return invocations


def analyze_output_ok(rc: int, out: str, expected: dict) -> bool:
    if rc != 0:
        return False
    try:
        payload = json.loads(out)
    except ValueError:
        return False
    capped = {"bs", "C", "DT"}
    return (
        set(payload) == ANALYZE_KEYS
        and set(payload["skips"]) == capped
        and all(payload[k] is None for k in capped)
        and all(payload[k] == v for k, v in expected.items())
    )


def run_analyze(spec: Analyze, invocations) -> dict:
    """Time each in-process ``cli.main`` call; check each output after it."""
    from boolfn import cli

    wall = 0.0
    failed = skips = 0
    outputs = []
    for argv, expected in invocations:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = -1
        wall += time.perf_counter() - start
        out = buf.getvalue()
        outputs.append(out)
        if analyze_output_ok(rc, out, expected):
            skips += len(json.loads(out)["skips"])
        else:
            print(f"analyze output failed its check: {argv[:3]} rc={rc}", file=sys.stderr)
            failed += 1
    return {
        "wall_s": wall,
        "fn": len(invocations),
        "failed": failed,
        "output": "".join(outputs).encode(),
        "skips": skips,
    }


def oracle_mismatches(workload: str, seed: int) -> list[str]:
    """Compare library measures with the brute-force oracles on n=4 tables."""
    from boolfn import algebra, core, measures

    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)

    bad = []
    for text in random_texts(f"{workload}/oracle", seed, 4, ORACLE_MEMBERS):
        t = core.parse(text)
        ad = measures.alternation_decrease(t)
        poly = algebra.multilinear_coefficients(t).coeffs
        spec_ = algebra.fourier_transform(t).scaled
        pairs = {
            "s": (measures.sensitivity(t), oracles.brute_sensitivity(t)),
            "I": (measures.influence(t), oracles.brute_influence(t)),
            "bs": (measures.block_sensitivity(t), oracles.brute_block_sensitivity(t)),
            "C": (measures.certificate_complexity(t), oracles.brute_certificate(t)),
            "DT": (measures.decision_tree_depth(t), oracles.brute_decision_tree_depth(t)),
            "alt": (ad.alt, oracles.brute_alternation(t)),
            "dc": (ad.dc, oracles.brute_decrease(t)),
            "deg2": (algebra.degree(t, 2), oracles.brute_degree(t, 2)),
            "monotone": (core.is_monotone(t), oracles.brute_monotone(t)),
            "mobius": (
                {algebra.subset_of_index(i, 4): int(c) for i, c in enumerate(poly)},
                oracles.brute_mobius(t),
            ),
            "walsh": (
                {algebra.subset_of_index(i, 4): int(c) for i, c in enumerate(spec_)},
                oracles.brute_fourier_scaled(t),
            ),
        }
        bad.extend(f"{text} {name}: {got} != {want}" for name, (got, want) in pairs.items() if got != want)
    return bad


def reference_s() -> float:
    """Median time of a fixed kernel: how fast this machine runs right now.

    Like the workloads, the kernel mixes interpreted integer and dict work
    with small numpy operations. ``run.py`` scales throughput by it.
    """
    import numpy

    times = []
    for _ in range(3):
        start = time.perf_counter()
        total, seen = 0, {}
        for i in range(240_000):
            total += i * i
            seen[i & 255] = total
        a = numpy.arange(1024)
        for _ in range(800):
            a = a ^ (a >> 1)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Largest peak RSS among this interpreter and its finished workers.

    Forked workers share the parent's pages copy-on-write and count them in
    their own RSS, so a sum would count those pages twice.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    import boolfn
    import numpy
    from boolfn import verify

    if not Path(boolfn.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"boolfn imported from {boolfn.__file__}, not from {ROOT / 'src'}")

    spec = WORKLOADS[args.workload]
    count = spec.tiny_size if args.tiny else spec.size
    texts = random_texts(args.workload, args.seed, spec.n, count)
    if isinstance(spec, Sweep):
        inputs = verify.Population(kind="explicit", members=tuple(texts))
        timed = run_sweep
    else:
        inputs = setup_analyze(spec, texts, args.work_dir)
        timed = run_analyze
    ready = time.monotonic()

    before = reference_s()
    tracer = None
    if args.trace:
        tracer = Tracer(args.work_dir)
        tracer.install()
    try:
        result = timed(spec, inputs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss = peak_rss_mb()
    after = reference_s()

    try:
        mismatches = oracle_mismatches(args.workload, args.seed)
    except Exception:
        traceback.print_exc()
        mismatches = ["the oracle comparison raised"]
    for line in mismatches:
        print(f"oracle mismatch: {line}", file=sys.stderr)
    failed = result["fn"] if mismatches else result["failed"]

    out = {
        "ready": ready,
        "wall_s": result["wall_s"],
        "reference_s": (before + after) / 2,
        "fn": result["fn"],
        "failed": failed,
        "digest": hashlib.sha256(result["output"]).hexdigest(),
        "peak_rss_mb": rss,
        "skips": result["skips"],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        out["spans"] = merge_summaries([tracer.summary(), *tracer.worker_summaries()])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
