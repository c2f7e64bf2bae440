"""boolfn benchmark: one workload, several fresh-interpreter passes, one result.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-n4 --seed 1 --seconds 30 --trace 0

Each pass runs ``perfbench/onepass.py`` in a new interpreter (see its
docstring for why a pass may not reuse a process). Passes repeat until one
more pass of average length would overrun ``--seconds``, and at least
``MIN_PASSES`` run. Every pass gets the same inputs, made from ``--seed``,
so the passes of one run must also produce byte-identical output. At
``DEFAULT_SEED`` the output must match the digest stored in
``digests.json``.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, each
the median over passes, with times scaled to ``REFERENCE_S``. With ``--trace 1`` traced and untraced passes
alternate, and the last line holds the per-layer metrics. The line before
it records the machine, versions, seed, ``src/`` line count and
``error_share``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from onepass import WORKLOADS  # noqa: E402
from tracing import SPAN_NAMES  # noqa: E402

DEFAULT_SEED = 1
MIN_PASSES = 3
# fn_per_s and setup_s are quoted at the machine speed where the reference
# kernel of onepass.py takes this long, its typical time on the 2-core Xeon
# the baselines in README.md were measured on. This host's single-thread
# speed drifts by up to 1.6x within a minute; scaling each pass by the
# kernel's time around it removes most of that drift from the comparison.
REFERENCE_S = 0.030
# A whole run must end within 180 s, so a hung pass is killed well before.
PASS_TIMEOUT_S = 150
# Functions whose repeated calls per analysed function are worth watching.
CALLS_PER_FN = (
    "chains.alternation_profile",
    "algebra.multilinear_coefficients",
    "algebra.fourier_transform",
    "measures.per_point_sensitivity",
)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def expected_digest(workload: str, seed: int, tiny: bool) -> str | None:
    if seed != DEFAULT_SEED:
        return None
    stored = json.loads((HERE / "digests.json").read_text())
    return stored["tiny" if tiny else "full"][workload]


def src_line_count() -> int:
    return sum(
        path.read_bytes().count(b"\n") for path in sorted((ROOT / "src" / "boolfn").glob("**/*.py"))
    )


def run_pass(workload: str, seed: int, traced: bool, tiny: bool, pass_dir: Path) -> dict:
    pass_dir.mkdir()
    cmd = [
        sys.executable,
        str(HERE / "onepass.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", "1" if traced else "0",
        "--work-dir", str(pass_dir),
    ] + (["--tiny"] if tiny else [])
    spawned = time.monotonic()
    # A session of its own lets a timeout kill the pass and its pool workers.
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"pass timed out after {PASS_TIMEOUT_S} s: {' '.join(cmd)}") from None
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"pass exited with code {proc.returncode}: {' '.join(cmd)}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    result["traced"] = traced
    return result


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    metrics = {}
    first = traced[0]
    for name in SPAN_NAMES:
        calls = first["spans"].get(name, {}).get("calls", 0)
        self_s = statistics.median(p["spans"].get(name, {}).get("self_s", 0.0) for p in traced)
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        if name in CALLS_PER_FN:
            metrics[f"{name}.calls_per_fn"] = {"value": calls / first["fn"], "unit": "calls/fn"}
    metrics["verify.skips"] = {"value": first["skips"], "unit": "count"}
    overhead = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in untraced
    )
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def fn_per_s(p: dict) -> float:
    """Throughput of one pass, scaled to the reference machine speed."""
    return p["fn"] / p["wall_s"] * p["reference_s"] / REFERENCE_S


def setup_s(p: dict) -> float:
    """Set-up time of one pass, scaled to the reference machine speed."""
    return p["setup_s"] * REFERENCE_S / p["reference_s"]


def end_to_end(passes: list[dict], error_share: float) -> dict:
    return {
        "fn_per_s": {"value": statistics.median(fn_per_s(p) for p in passes), "unit": "fn/s"},
        "setup_s": {"value": statistics.median(setup_s(p) for p in passes), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes), "unit": "MB"},
        "ok_share": {"value": 1.0 - error_share, "unit": "share"},
    }


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    digest: str | None = None,
) -> tuple[dict, dict]:
    """Run the passes of one workload; return (result line, info line).

    ``digest`` is the output digest every pass must produce; by default the
    stored one at ``DEFAULT_SEED`` and the first pass's otherwise.
    """
    if not (ROOT / "src" / "boolfn" / "__init__.py").is_file() or not (
        ROOT / "tests" / "oracles.py"
    ).is_file():
        raise BenchError(f"{ROOT} does not hold src/boolfn and tests/oracles.py")
    if digest is None:
        digest = expected_digest(workload, seed, tiny)
    work_dir = ROOT / ".perfbench-work" / str(os.getpid())
    work_dir.mkdir(parents=True)
    passes: list[dict] = []
    start = time.monotonic()
    elapsed = 0.0
    try:
        while len(passes) < MIN_PASSES or elapsed * (len(passes) + 1) / len(passes) <= seconds:
            traced = trace and len(passes) % 2 == 0
            passes.append(run_pass(workload, seed, traced, tiny, work_dir / f"pass-{len(passes)}"))
            elapsed = time.monotonic() - start
    finally:
        shutil.rmtree(work_dir)
        if not any(work_dir.parent.iterdir()):
            work_dir.parent.rmdir()

    traced_passes = [p for p in passes if p["traced"]]
    untraced_passes = [p for p in passes if not p["traced"]]
    reference = digest or passes[0]["digest"]

    def calls(p: dict) -> dict:
        return {name: span["calls"] for name, span in p["spans"].items()}

    def failed_in(p: dict) -> int:
        # Output that differs from the reference, or call counts that differ
        # between traced passes, discredits the whole pass.
        if p["digest"] != reference or (p["traced"] and calls(p) != calls(traced_passes[0])):
            return p["fn"]
        return p["failed"]

    attempted = sum(p["fn"] for p in passes)
    failed = sum(failed_in(p) for p in passes)
    error_share = failed / attempted
    if trace:
        metrics = per_layer(traced_passes, untraced_passes)
    else:
        metrics = end_to_end(passes, error_share)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    info = {
        "workload": workload,
        "seed": seed,
        "tiny": tiny,
        "passes": len(passes),
        "traced_passes": len(traced_passes),
        "error_share": error_share,
        "digest": passes[0]["digest"],
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": passes[0]["numpy"],
        "src_lines": src_line_count(),
        "fn_per_s_passes": [fn_per_s(p) for p in untraced_passes],
        "unscaled_fn_per_s_passes": [p["fn"] / p["wall_s"] for p in untraced_passes],
        "reference_s_passes": [p["reference_s"] for p in untraced_passes],
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="boolfn benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small populations, for the self-test")
    args = parser.parse_args(argv)
    try:
        result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("perfbench " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
