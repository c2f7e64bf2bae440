"""Inequality and identity harness over function populations.

Checks are data: a name, a kind (``assert`` for proven statements, ``ratio``
for observed-constant reports, ``report`` for parametrized implications), and
a predicate over one function's :class:`~boolfn.measures.MeasureContext`, the
lazy per-function record that computes each measure at most once. One
registry feeds both the test suite and the CLI, populations are enumerated or
sampled deterministically, and each check's :class:`Aggregate` merges
commutatively so parallel runs match serial ones.

A worker builds only the members of its own index range, and reads them
through :func:`boolfn.measures.records`, so the four stacked kernels run
once per chunk of up to ``measures.CHUNK_CELLS`` cells, not once per
function. Population parameters are checked when the population is made,
before any sweep.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import algebra, chains, measures
from .core import TruthTable, dense_cap, parse, serialize
from .measures import MeasureContext

__all__ = [
    "CHECKS",
    "REGISTRY_VERSION",
    "Aggregate",
    "Check",
    "CheckResult",
    "MeasureContext",
    "Population",
    "SweepReport",
    "enumerate_functions",
    "measure_matrix_rows",
    "resolve_checks",
    "run_check_suite",
    "run_single_check",
    "sample_functions",
]

REGISTRY_VERSION = "1"

DEFAULT_FAIL_LIMIT = 5


def enumerate_functions(n: int) -> Iterator[TruthTable]:
    """All 2**(2**n) truth tables on n variables, in packed-index order."""
    return Population.exhaustive(n).tables()


def sample_functions(n: int, count: int, seed: int) -> Iterator[TruthTable]:
    """Deterministic pseudorandom tables: same seed, same stream."""
    return Population.sample(n, count, seed).tables()


def standard_family_instances() -> list[TruthTable]:
    """Dense instances of every generated family at comfortable sizes.

    These ride along with sampled populations so the sweeps always include
    the structured witnesses, not just random tables.
    """
    from . import families

    out: list[TruthTable] = []
    for k in (1, 2, 3, 4):
        fn, _ = families.gap_family(k)
        if isinstance(fn, TruthTable):
            out.append(fn)
    for t in (1, 2):
        out.append(families.address(t))
    for n in range(1, 9):
        out.append(families.named_basics("parity", n))
        out.append(families.named_basics("or", n))
        out.append(families.named_basics("and", n))
    for n in (1, 3, 5, 7):
        out.append(families.named_basics("majority", n))
    for n in (4, 6):
        out.append(families.named_basics("threshold", n, threshold=n // 2))
    return out


@dataclass(frozen=True)
class Population:
    """Deterministic stream of functions: exhaustive, sampled, or explicit.

    A bad arity or count is a ``ValueError`` when the population is made.
    """

    kind: str  # "exhaustive" | "sample" | "explicit"
    n: Optional[int] = None
    count: Optional[int] = None
    seed: Optional[int] = None
    members: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("exhaustive", "sample", "explicit"):
            raise ValueError(f"unknown population kind {self.kind!r}")
        if self.kind == "exhaustive" and not 0 <= self.n <= 4:
            raise ValueError("exhaustive enumeration is limited to 0 <= n <= 4")
        if self.kind == "sample" and not 0 <= self.n <= dense_cap():
            raise ValueError(f"arity {self.n} is outside 0..{dense_cap()}, the dense cap")
        if self.kind == "sample" and self.count < 0:
            raise ValueError(f"count {self.count} is negative")

    @classmethod
    def exhaustive(cls, n: int) -> "Population":
        return cls(kind="exhaustive", n=n)

    @classmethod
    def sample(cls, n: int, count: int, seed: int) -> "Population":
        return cls(kind="sample", n=n, count=count, seed=seed)

    @classmethod
    def explicit(cls, tables: Iterable[TruthTable]) -> "Population":
        return cls(kind="explicit", members=tuple(serialize(t) for t in tables))

    def tables(self, start: int = 0, stop: Optional[int] = None) -> Iterator[TruthTable]:
        """Members ``start`` to ``stop`` (default: the end). None before
        ``start`` is built: a sampled stream draws their bits only."""
        stop = self.size() if stop is None else min(stop, self.size())
        if self.kind == "explicit":
            return map(parse, self.members[start:stop])
        packed = range(start, stop)
        if self.kind == "sample":
            rng = random.Random(self.seed)
            for _ in range(start):
                rng.getrandbits(1 << self.n)
            packed = (rng.getrandbits(1 << self.n) for _ in packed)
        return (TruthTable.from_packed_int(self.n, p) for p in packed)

    def size(self) -> int:
        if self.kind == "exhaustive":
            return 1 << (1 << self.n)
        if self.kind == "sample":
            return self.count
        return len(self.members)

    def descriptor(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == "exhaustive":
            out["n"] = self.n
        elif self.kind == "sample":
            out.update(n=self.n, count=self.count, seed=self.seed)
        else:
            out["members"] = list(self.members)
        return out


Outcome = tuple[str, dict]  # status in {"pass", "fail", "skip"}, observed values


@dataclass(frozen=True)
class Check:
    """A named registered check over one function's measures."""

    name: str
    kind: str  # "assert" | "ratio" | "report"
    description: str
    run: Callable[[MeasureContext], Outcome]


@dataclass
class CheckResult:
    """Outcome of one check on one function; failures carry the witness."""

    check: str
    fn_id: str
    status: str
    observed: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "fn": self.fn_id,
            "status": self.status,
            "observed": {k: str(v) for k, v in self.observed.items()},
        }


def _check_s_le_bs(ctx: MeasureContext) -> Outcome:
    bs = ctx.bs()
    if bs is None:
        return "skip", {"reason": f"bs above cap {ctx.bs_cap}"}
    s = ctx.s()
    return ("pass" if s <= bs else "fail"), {"s": s, "bs": bs}


def _check_deg_bs_sandwich(ctx: MeasureContext) -> Outcome:
    bs = ctx.bs()
    if bs is None:
        return "skip", {"reason": f"bs above cap {ctx.bs_cap}"}
    deg = ctx.deg()
    ok = bs <= deg * deg and deg <= bs**3
    return ("pass" if ok else "fail"), {"bs": bs, "deg": deg}


def _check_influence_le_s(ctx: MeasureContext) -> Outcome:
    ok = ctx.influence() <= ctx.s()
    return ("pass" if ok else "fail"), {"I": ctx.influence(), "s": ctx.s()}


def _check_influence_le_deg(ctx: MeasureContext) -> Outcome:
    ok = ctx.influence() <= ctx.deg()
    return ("pass" if ok else "fail"), {"I": ctx.influence(), "deg": ctx.deg()}


def _dt_check(name: str, bound: Callable[[int], int]) -> Callable[[MeasureContext], Outcome]:
    """The measure ``name`` at most ``bound(DT)``; skipped above the DT cap."""
    def run(ctx: MeasureContext) -> Outcome:
        dt = ctx.dt()
        if dt is None:
            return "skip", {"reason": f"DT above cap {ctx.dt_cap}"}
        value = getattr(ctx, name)()
        return ("pass" if value <= bound(dt) else "fail"), {name: value, "DT": dt}

    return run


def _check_alt_dc(ctx: MeasureContext) -> Outcome:
    alt, dc = ctx.alt(), ctx.dc()
    ok = alt in (2 * dc - 1, 2 * dc, 2 * dc + 1)
    return ("pass" if ok else "fail"), {"alt": alt, "dc": dc}


def _check_cert_ge_bs(ctx: MeasureContext) -> Outcome:
    cert = ctx.cert()
    bs = ctx.bs()
    if cert is None or bs is None:
        return "skip", {"reason": f"bs/C above caps {ctx.bs_cap}/{ctx.cert_cap}"}
    # every certificate hits each disjoint sensitive block, so C >= bs >= s
    ok = ctx.s() <= bs <= cert
    return ("pass" if ok else "fail"), {"s": ctx.s(), "bs": bs, "C": cert}


def _check_negs_consistency(ctx: MeasureContext) -> Outcome:
    dc = ctx.dc()
    negs, negs_formula = ctx.negs()
    expected = math.ceil(math.log2(1 + dc)) if dc else 0
    ok = negs == expected and negs_formula == dc
    return ("pass" if ok else "fail"), {"dc": dc, "negs": negs, "negs_formula": negs_formula}


def _deg_product_check(m: int) -> Callable[[MeasureContext], Outcome]:
    def run(ctx: MeasureContext) -> Outcome:
        deg = ctx.deg()
        bound = ctx.alt() * ctx.deg2() * ctx.degm(m)
        ok = deg <= bound
        return ("pass" if ok else "fail"), {
            "deg": deg,
            "alt": ctx.alt(),
            "deg2": ctx.deg2(),
            f"deg_{m}": ctx.degm(m),
        }

    return run


def _check_log_sparsity_le_2deg(ctx: MeasureContext) -> Outcome:
    ok = ctx.sparsity() <= 1 << (2 * ctx.deg())
    return ("pass" if ok else "fail"), {"sparsity": ctx.sparsity(), "deg": ctx.deg()}


def _check_deg2_le_log_sparsity(ctx: MeasureContext) -> Outcome:
    d2 = ctx.deg2()
    if d2 <= 1:
        return "skip", {"reason": "deg2 <= 1"}
    ok = (1 << d2) <= ctx.sparsity()
    return ("pass" if ok else "fail"), {"deg2": d2, "sparsity": ctx.sparsity()}


def _check_weighted_ge_n(ctx: MeasureContext) -> Outcome:
    if not ctx.depends_all():
        return "skip", {"reason": "does not depend on all inputs"}
    w = ctx.sums().weighted
    ok = w >= ctx.n
    return ("pass" if ok else "fail"), {"weighted": w, "n": ctx.n}


def _check_s_sqrt_sparsity(ctx: MeasureContext) -> Outcome:
    if not ctx.depends_all():
        return "skip", {"reason": "does not depend on all inputs"}
    s, sp = ctx.s(), ctx.sparsity()
    ok = s * s * sp >= ctx.n * ctx.n
    return ("pass" if ok else "fail"), {"s": s, "sparsity": sp, "n": ctx.n}


def _check_deg_exp_deg2(ctx: MeasureContext) -> Outcome:
    if not ctx.depends_all():
        return "skip", {"reason": "does not depend on all inputs"}
    ok = ctx.deg() * (1 << ctx.deg2()) >= ctx.n
    return ("pass" if ok else "fail"), {"deg": ctx.deg(), "deg2": ctx.deg2(), "n": ctx.n}


def _check_influence_le_alt_sqrt_n(ctx: MeasureContext) -> Outcome:
    i = ctx.influence()
    alt = ctx.alt()
    ok = i * i <= alt * alt * ctx.n
    return ("pass" if ok else "fail"), {"I": i, "alt": alt, "n": ctx.n}


def _check_influence_le_alt_deg2sq(ctx: MeasureContext) -> Outcome:
    i = ctx.influence()
    ok = i <= ctx.alt() * ctx.deg2() ** 2
    return ("pass" if ok else "fail"), {"I": i, "alt": ctx.alt(), "deg2": ctx.deg2()}


def _check_influence_fourier(ctx: MeasureContext) -> Outcome:
    lhs = ctx.influence()
    rhs = algebra.influence_from_spectrum(ctx.spectrum())
    return ("pass" if lhs == rhs else "fail"), {"I": lhs, "spectral": rhs}


def _check_weighted2_identity(ctx: MeasureContext) -> Outcome:
    lhs = ctx.sums().weighted2
    rhs = ctx.avg_s2()
    return ("pass" if lhs == rhs else "fail"), {"weighted2": lhs, "avg_s2": rhs}


def _check_parseval(ctx: MeasureContext) -> Outcome:
    scaled = algebra.exact_terms(ctx.spectrum().scaled, ctx.n)
    total = int((scaled * scaled).sum())
    ok = total == 1 << (2 * ctx.n)
    return ("pass" if ok else "fail"), {"sum_sq": total, "n": ctx.n}


def _check_witness_valid(ctx: MeasureContext) -> Outcome:
    w = ctx.witness()
    got = chains.alternation_along(ctx.table, w)
    ok = got == ctx.alt()
    return ("pass" if ok else "fail"), {"witness_alt": got, "alt": ctx.alt()}


def _check_decomposition(ctx: MeasureContext) -> Outcome:
    parts, negate = chains.monotone_decomposition(ctx.table, profile=ctx.profile())
    ok = len(parts) == ctx.alt()
    return ("pass" if ok else "fail"), {"parts": len(parts), "alt": ctx.alt(), "negated": negate}


def _ratio_bs(ctx: MeasureContext) -> Outcome:
    bs = ctx.bs()
    if bs is None:
        return "skip", {"reason": f"bs above cap {ctx.bs_cap}"}
    s, alt = ctx.s(), ctx.alt()
    denom = s * alt * alt
    if denom == 0:
        return "skip", {"reason": "s * alt^2 = 0"}
    return "pass", {"ratio": Fraction(bs, denom), "bs": bs, "s": s, "alt": alt}


def _ratio_sens_log(ctx: MeasureContext) -> Outcome:
    if not ctx.depends_all():
        return "skip", {"reason": "does not depend on all inputs"}
    if ctx.n < 2:
        return "skip", {"reason": "log2(n) = 0"}
    ratio = ctx.s() / math.log2(ctx.n)
    return "pass", {"ratio": ratio, "s": ctx.s(), "n": ctx.n}


def _report_deg_sparsity_exponent(c: float) -> Callable[[MeasureContext], Outcome]:
    # Tiny-n counterexamples exist (the implication needs large n), so this
    # stays a report rather than an assertion.
    def run(ctx: MeasureContext) -> Outcome:
        if ctx.n < 2:
            return "skip", {"reason": "log2(n) = 0"}
        deg = ctx.deg()
        if deg > math.log2(ctx.n) ** c:
            return "skip", {"reason": "hypothesis deg <= (log2 n)^c fails", "deg": deg}
        sp = ctx.sparsity()
        concl = deg <= (math.log2(sp) ** c if sp > 1 else 0.0)
        return ("pass" if concl else "fail"), {"deg": deg, "sparsity": sp, "c": c}

    return run


def _build_registry(sparsity_exponent: float = 2.0) -> dict[str, Check]:
    def A(name: str, description: str, run) -> Check:
        return Check(name=name, kind="assert", description=description, run=run)

    checks = [
        A("s-le-bs", "sensitivity at most block sensitivity", _check_s_le_bs),
        A("deg-bs-sandwich", "sqrt(bs) <= deg <= bs^3", _check_deg_bs_sandwich),
        A("influence-le-s", "influence at most sensitivity", _check_influence_le_s),
        A("influence-le-deg", "influence at most degree", _check_influence_le_deg),
        A("deg-le-dt", "degree at most decision-tree depth", _dt_check("deg", lambda dt: dt)),
        A("cert-ge-bs", "certificate complexity dominates block sensitivity", _check_cert_ge_bs),
        A("alt-dc-relation", "alt in {2dc-1, 2dc, 2dc+1}", _check_alt_dc),
        A("alt-le-exp-dt", "alt <= 2^(DT+1) - 1", _dt_check("alt", lambda dt: (1 << (dt + 1)) - 1)),
        A("dc-le-exp-dt", "dc <= 2^DT - 1", _dt_check("dc", lambda dt: (1 << dt) - 1)),
        A("negs-from-decrease", "negation counts consistent with decrease", _check_negs_consistency),
        A("log-sparsity-le-2deg", "log2 sparsity at most twice degree", _check_log_sparsity_le_2deg),
        A(
            "deg2-le-log-sparsity",
            "deg2 at most log2 sparsity when deg2 > 1",
            _check_deg2_le_log_sparsity,
        ),
        A("spectral-weight-ge-n", "weighted spectral sum at least n", _check_weighted_ge_n),
        A("sens-sqrt-sparsity", "s * sqrt(sparsity) at least n", _check_s_sqrt_sparsity),
        A("deg-exp-deg2-lower", "deg at least n / 2^deg2", _check_deg_exp_deg2),
        A("influence-le-alt-sqrt-n", "influence at most alt * sqrt(n)", _check_influence_le_alt_sqrt_n),
        A("influence-le-alt-deg2sq", "influence at most alt * deg2^2", _check_influence_le_alt_deg2sq),
        A(
            "influence-fourier-identity",
            "influence equals the weighted spectral square sum",
            _check_influence_fourier,
        ),
        A(
            "sens-square-identity",
            "weighted2 spectral sum equals the mean squared sensitivity",
            _check_weighted2_identity,
        ),
        A("parseval", "scaled spectrum squares sum to 4^n", _check_parseval),
        A("witness-valid", "DP witness chain achieves alt", _check_witness_valid),
        A(
            "monotone-decomposition",
            "alt-many monotone parts reconstruct the function",
            _check_decomposition,
        ),
        *(
            A(f"deg-product-bound-m{m}", f"deg <= alt * deg2 * deg_{m}", _deg_product_check(m))
            for m in range(2, 7)
        ),
        Check("bs-ratio", "ratio", "observed bs / (s * alt^2)", _ratio_bs),
        Check(
            "sens-log-ratio",
            "ratio",
            "observed s / log2(n) on fully-dependent functions",
            _ratio_sens_log,
        ),
        Check(
            "deg-sparsity-exponent",
            "report",
            "implication: deg <= (log2 n)^c gives deg <= (log2 sparsity)^c",
            _report_deg_sparsity_exponent(sparsity_exponent),
        ),
    ]
    return {c.name: c for c in checks}


CHECKS: dict[str, Check] = _build_registry()


def resolve_checks(checks: Sequence[str] | str = "all") -> list[Check]:
    if checks == "all":
        return list(CHECKS.values())
    for name in checks:
        if name not in CHECKS:
            raise ValueError(f"unknown check name {name!r}")
    return [CHECKS[name] for name in checks]


def run_single_check(check: Check | str, table: TruthTable, **caps) -> CheckResult:
    """Run one check on one function (counterexample reproduction path)."""
    if isinstance(check, str):
        check = resolve_checks([check])[0]
    ctx = MeasureContext(table, **caps)
    status, observed = check.run(ctx)
    return CheckResult(check=check.name, fn_id=ctx.fn_id(), status=status, observed=observed)


@dataclass
class SweepReport:
    """Aggregated outcome of running checks over one population."""

    registry_version: str
    population: dict
    checks: dict

    @property
    def failed(self) -> bool:
        return any(
            agg["fail"] > 0 and agg["kind"] == "assert" for agg in self.checks.values()
        )

    def to_json_dict(self) -> dict:
        return {
            "registry_version": self.registry_version,
            "population": self.population,
            "checks": self.checks,
            "failed": self.failed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [f"population: {json.dumps(self.population, sort_keys=True)}"]
        for name in sorted(self.checks):
            agg = self.checks[name]
            line = (
                f"{name:28s} [{agg['kind']:6s}] pass={agg['pass']} "
                f"fail={agg['fail']} skip={agg['skip']}"
            )
            if agg.get("max_ratio") is not None:
                line += f" max_ratio={agg['max_ratio_float']:.4f} at {agg.get('max_ratio_fn')}"
            lines.append(line)
            for failure in agg.get("failures", []):
                lines.append(f"    counterexample {failure['fn']}: {failure['observed']}")
        lines.append("RESULT: " + ("FAIL" if self.failed else "OK"))
        return "\n".join(lines)


@dataclass
class Aggregate:
    """Running outcome of one check over part of a population.

    ``merge`` is commutative: counts add, the retained failures are the
    first ``fail_limit`` by function id, and the maximum ratio breaks ties
    by the smaller function id. Workers return these, pickled.
    """

    kind: str
    fail_limit: int = DEFAULT_FAIL_LIMIT
    counts: dict = field(default_factory=lambda: {"pass": 0, "fail": 0, "skip": 0})
    failures: list = field(default_factory=list)
    skip_reasons: dict = field(default_factory=dict)
    max_ratio: Optional[Fraction] = None
    max_ratio_fn: Optional[str] = None

    def add(self, fn_id: str, status: str, observed: dict) -> None:
        self.counts[status] += 1
        if status == "fail":
            self._keep_failures([{"fn": fn_id, "observed": {k: str(v) for k, v in observed.items()}}])
        elif status == "skip":
            self._count_skips({str(observed.get("reason", "unspecified")): 1})
        elif self.kind == "ratio":
            self._offer_ratio(observed["ratio"], fn_id)

    def merge(self, other: "Aggregate") -> "Aggregate":
        for status, count in other.counts.items():
            self.counts[status] += count
        self._keep_failures(other.failures)
        self._count_skips(other.skip_reasons)
        if other.max_ratio is not None:
            self._offer_ratio(other.max_ratio, other.max_ratio_fn)
        return self

    def _keep_failures(self, failures: list) -> None:
        self.failures.extend(failures)
        if len(self.failures) > 4 * self.fail_limit:
            self.failures.sort(key=lambda item: item["fn"])
            del self.failures[self.fail_limit :]

    def _count_skips(self, reasons: dict) -> None:
        for reason, count in reasons.items():
            self.skip_reasons[reason] = self.skip_reasons.get(reason, 0) + count

    def _offer_ratio(self, ratio: Fraction, fn_id: str) -> None:
        # The larger ratio wins; a tie goes to the smaller function id.
        if self.max_ratio is None or (ratio, self.max_ratio_fn) > (self.max_ratio, fn_id):
            self.max_ratio, self.max_ratio_fn = ratio, fn_id

    def finalize(self) -> dict:
        """The report entry: JSON-ready, independent of the merge order."""
        entry = {
            "kind": self.kind,
            **self.counts,
            "failures": sorted(self.failures, key=lambda item: item["fn"])[: self.fail_limit],
            "skip_reasons": dict(sorted(self.skip_reasons.items())),
            "max_ratio": None,
        }
        if self.max_ratio is not None:
            entry["max_ratio"] = str(self.max_ratio)
            entry["max_ratio_float"] = float(self.max_ratio)
            entry["max_ratio_fn"] = self.max_ratio_fn
        return entry


def _run_chunk(
    population: Population,
    check_names,
    start: int,
    stop: Optional[int],
    caps: dict,
    fail_limit: int,
) -> dict[str, Aggregate]:
    selected = resolve_checks(check_names)
    aggregates = {c.name: Aggregate(c.kind, fail_limit) for c in selected}
    for ctx in measures.records(population.tables(start, stop), **caps):
        fn_id = ctx.fn_id()
        for check in selected:
            aggregates[check.name].add(fn_id, *check.run(ctx))
    return aggregates


def _sweep_report(population: Population, partials: list[dict[str, Aggregate]]) -> SweepReport:
    """The report of the chunk runs ``partials``, which cover the population."""
    aggregates = partials[0]
    for part in partials[1:]:
        for name, agg in part.items():
            aggregates[name].merge(agg)
    return SweepReport(
        registry_version=REGISTRY_VERSION,
        population=population.descriptor(),
        checks={name: aggregates[name].finalize() for name in sorted(aggregates)},
    )


def run_check_suite(
    population: Population,
    checks: Sequence[str] | str = "all",
    jobs: int = 1,
    fail_limit: int = DEFAULT_FAIL_LIMIT,
    bs_cap: int = measures.BS_CAP_DEFAULT,
    cert_cap: int = measures.CERT_CAP_DEFAULT,
    dt_cap: int = measures.DT_CAP_DEFAULT,
) -> SweepReport:
    """Run the named checks on every population member and aggregate.

    Aggregation is commutative (counts add, extrema and retained witnesses
    are order-independent), so fanning out over workers produces the same
    report as a serial run, and the worker count is clamped to the CPU count.
    """
    MeasureContext.check_caps(bs_cap, cert_cap, dt_cap)
    jobs = min(jobs, os.cpu_count() or 1)
    selected = resolve_checks(checks)
    names = "all" if checks == "all" else tuple(c.name for c in selected)
    caps = {"bs_cap": bs_cap, "cert_cap": cert_cap, "dt_cap": dt_cap}
    total = population.size()
    if jobs <= 1 or total < 2 * jobs:
        return _sweep_report(population, [_run_chunk(population, names, 0, None, caps, fail_limit)])
    import multiprocessing as mp

    # total >= 2 * jobs, so no chunk is empty
    bounds = [(total * i) // jobs for i in range(jobs + 1)]
    args = [(population, names, lo, hi, caps, fail_limit) for lo, hi in zip(bounds, bounds[1:])]
    # fork where the platform has it; elsewhere the default start method,
    # which works too, as _run_chunk and its arguments pickle
    ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else None)
    with ctx.Pool(processes=len(args)) as pool:
        return _sweep_report(population, pool.starmap(_run_chunk, args))


def measure_matrix_rows(
    population: Population,
    bs_cap: int = measures.BS_CAP_DEFAULT,
    cert_cap: int = measures.CERT_CAP_DEFAULT,
    dt_cap: int = measures.DT_CAP_DEFAULT,
) -> Iterator[list]:
    """Per-function measure matrix (header row first), for CSV export."""
    yield list(measures.COLUMNS)
    caps = {"bs_cap": bs_cap, "cert_cap": cert_cap, "dt_cap": dt_cap}
    for record in measures.records(population.tables(), **caps):
        yield record.row()
