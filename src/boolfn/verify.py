"""Inequality and identity harness over function populations.

Checks are data: a name, a kind (``assert`` for proven statements, ``ratio``
for observed-constant reports, ``report`` for parametrized implications),
and one formula over the measure columns of a
:class:`~boolfn.measures.Chunk`. Each check is one row of the ``CHECKS``
table: its skip conditions, each written once with its reason, the observed
values it keeps, by their ``measures.VALUES`` names, and the formula.
``Check.outcomes`` is the one evaluation: per row of a chunk, the first
skip that holds, and where the formula holds or the ratio's terms, all on
whole columns. A sweep's :class:`Aggregate` takes those outcomes as masks:
counts are mask sums, and only the failures it keeps and the ratio's best
row are read as records. ``Check.run`` reads one function's row of them.
One registry feeds both the test suite and the CLI, populations are
enumerated or sampled deterministically, and aggregates merge commutatively
so parallel runs match serial ones.

A sweep with ``jobs > 1`` splits the population into index ranges: the
calling process runs the first, and one worker process each of the rest
(:func:`run_check_suite`). Each decodes only the members of its own range,
straight into read-only stacks of up to ``measures.CHUNK_CELLS`` cells
(:meth:`Population.stacks`), one :class:`~boolfn.measures.Chunk` each, so
every measure is computed once per chunk, not once per function, and no
member is built as a table of its own. Explicit members are checked and
decoded a run at a time, exhaustive and sampled ones from their packed
integers. Population parameters are checked when the population is made,
before any sweep.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import measures
from .core import TruthTable, dense_cap, parse, serialize, table_values, unpack_rows
from .measures import MeasureContext

__all__ = [
    "CHECKS",
    "REGISTRY_VERSION",
    "Aggregate",
    "Check",
    "CheckResult",
    "MeasureContext",
    "Population",
    "Skip",
    "SweepReport",
    "measure_matrix_rows",
    "resolve_checks",
    "run_check_suite",
    "run_single_check",
]

REGISTRY_VERSION = "1"

DEFAULT_FAIL_LIMIT = 5


def standard_family_instances() -> list[TruthTable]:
    """Dense instances of every generated family at comfortable sizes.

    These ride along with sampled populations so the sweeps always include
    the structured witnesses, not just random tables.
    """
    from . import families

    out = [fn for fn, _ in map(families.gap_family, (1, 2, 3, 4)) if isinstance(fn, TruthTable)]
    out += [families.address(t) for t in (1, 2)]
    out += [families.named_basics(name, n) for n in range(1, 9) for name in ("parity", "or", "and")]
    out += [families.named_basics("majority", n) for n in (1, 3, 5, 7)]
    return out + [families.named_basics("threshold", n, threshold=n // 2) for n in (4, 6)]


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

    def stacks(self, start: int = 0, stop: Optional[int] = None) -> Iterator[np.ndarray]:
        """Members ``start`` to ``stop`` (default: the end) as read-only
        ``(N, 2**n)`` uint8 stacks: consecutive members of one arity n, at
        most ``max(1, CHUNK_CELLS >> n)`` to a stack, each unpacked by one
        :func:`~boolfn.core.unpack_rows`. None before ``start`` is decoded:
        a sampled stream draws their bits only."""
        stop = self.size() if stop is None else min(stop, self.size())
        if self.kind == "explicit":
            yield from _explicit_stacks(self.members[start:stop])
            return
        size, width = 1 << self.n, ((1 << self.n) + 7) // 8
        if self.kind == "sample":
            rng = random.Random(self.seed)
            for _ in range(start):
                rng.getrandbits(size)
        step = max(1, measures.CHUNK_CELLS >> self.n)
        for lo in range(start, stop, step):
            hi = min(lo + step, stop)
            if self.kind == "exhaustive":  # member i is the table packed as i
                packed = np.arange(lo, hi, dtype=f"<u{width}").view(np.uint8)
            else:
                packed = b"".join(rng.getrandbits(size).to_bytes(width, "little") for _ in range(lo, hi))
            yield unpack_rows(self.n, packed)

    def tables(self, start: int = 0, stop: Optional[int] = None) -> Iterator[TruthTable]:
        """Members ``start`` to ``stop``, each a row of its :meth:`stacks` stack."""
        return (TruthTable._row(row) for stack in self.stacks(start, stop) for row in stack)

    def size(self) -> int:
        if self.kind == "exhaustive":
            return 1 << (1 << self.n)
        if self.kind == "sample":
            return self.count
        return len(self.members)

    def descriptor(self) -> dict:
        if self.kind == "explicit":
            return {"kind": self.kind, "members": list(self.members)}
        keys = ("n",) if self.kind == "exhaustive" else ("n", "count", "seed")
        return {"kind": self.kind, **{key: getattr(self, key) for key in keys}}


_ARITY = re.compile(r"([0-9]{1,2}):")  # the arity of a member in canonical form


def _explicit_stacks(members: Sequence[str]) -> Iterator[np.ndarray]:
    """The explicit ``members`` as :meth:`Population.stacks` gives them.

    The members are joined as the lines of one text. A run of well-formed
    members of one arity, as many as the stack has room for, is checked and
    decoded at once by :func:`_decoded`. Any other member (space-padded,
    above the dense cap, malformed) is parsed alone, so bad text raises
    what :func:`~boolfn.core.parse` raises, at the same member.
    """
    text = "\n".join(members) + "\n"
    lines = text.count("\n") == len(members)  # no member holds a line break
    held, held_n, count, i, pos = [], None, 0, 0, 0  # the stack being made: its parts, arity, rows
    while i < len(members):
        head = _ARITY.match(members[i]) if lines else None
        n, rows = int(head[1]) if head else None, None
        if n is not None and n <= dense_cap():
            rows = _decoded(n, text, pos, max(1, measures.CHUNK_CELLS >> n) - (count if n == held_n else 0))
        if rows is None:
            rows = parse(members[i]).values[None]
            n = table_values(rows)[0]
        if held and n != held_n:
            yield _joined(held)
            held, count = [], 0
        held.append(rows)
        # the decoded members all have the length of the first
        held_n, count, pos, i = n, count + len(rows), pos + len(rows) * (len(members[i]) + 1), i + len(rows)
        if count == max(1, measures.CHUNK_CELLS >> n):
            yield _joined(held)
            held, count = [], 0
    if held:
        yield _joined(held)


def _decoded(n: int, text: str, pos: int, room: int) -> Optional[np.ndarray]:
    """The stack of the well-formed members of arity n, one a line, that
    ``text`` holds from ``pos`` on, at most ``room`` of them; ``None`` if
    there is none.

    A well-formed member is its arity, a colon and ceil(2**n / 4) hex digits
    that leave the bits past 2**n clear. The run is found by columns of the
    text: the lines of a member's length that start with its prefix and end
    with a line break. The columns are read over a window that widens
    while the run fills it, so a short run costs little. ``bytes.fromhex``
    skips whitespace and rejects any other character but a hex digit, so
    the run is well-formed if it gives each member all its bytes.
    """
    prefix, digits = f"{n}:", ((1 << n) + 3) // 4
    line = len(prefix) + digits + 1
    count = window = 0
    while count == window < room:
        window = min(room, 4 * window + 16)
        count = window
        for j, char in [(line - 1, "\n"), *enumerate(prefix)]:
            column = text[pos + j : pos + window * line : line]
            count = min(count, len(column) - len(column.lstrip(char)))
    block = text[pos : pos + count * line]
    try:  # a lone digit is padded to a byte
        raw = bytes.fromhex(block.replace(prefix, "0" * (digits % 2)))
    except ValueError:
        return None
    if not count or len(raw) != count * ((digits + 1) // 2):
        return None
    if n < 2 and max(raw) >> (1 << n):  # padding bits set
        return None
    # each member's bytes come most significant first
    return unpack_rows(n, np.frombuffer(raw, dtype=np.uint8).reshape(count, -1)[:, ::-1])


def _joined(stacks: list[np.ndarray]) -> np.ndarray:
    """One read-only stack of the rows of ``stacks``, in order."""
    if len(stacks) == 1:
        return stacks[0]
    joined = np.concatenate(stacks)
    joined.setflags(write=False)
    return joined


Outcome = tuple[str, dict]  # status in {"pass", "fail", "skip"}, observed values


class Skip(NamedTuple):
    """A skip condition over columns: its reason, formatted with the caps,
    where it holds, and the observed values a skip keeps besides the reason."""

    reason: str
    holds: Callable
    observed: tuple[str, ...] = ()


BS_CAPPED = Skip("bs above cap {0.bs_cap}", lambda c: c.n > c.bs_cap)
DT_CAPPED = Skip("DT above cap {0.dt_cap}", lambda c: c.n > c.dt_cap)
BS_C_CAPPED = Skip("bs/C above caps {0.bs_cap}/{0.cert_cap}", lambda c: c.n > min(c.bs_cap, c.cert_cap))
PARTIAL = Skip("does not depend on all inputs", lambda c: np.logical_not(c.depends_all))
LOG_N_ZERO = Skip("log2(n) = 0", lambda c: c.n < 2)
DEG2_LE_1 = Skip("deg2 <= 1", lambda c: c.degm(2) <= 1)
NO_BS_DENOMINATOR = Skip("s * alt^2 = 0", lambda c: c.s * c.alt == 0)

def _ratio(num, den):
    """The ratio value a report carries: exact for integers, else a float."""
    return Fraction(num, den) if isinstance(den, int) else num / den


@dataclass(frozen=True)
class Check:
    """A named check: one formula over the columns of a :class:`measures.Chunk`.

    ``holds`` reads columns by name and gives where an assert or report
    holds, or a ratio's (numerator, denominator). Skips come first, in
    order, and the first that holds decides a row's reason; ``observed``
    names the ``measures.VALUES`` a row keeps. :meth:`outcomes` evaluates
    it on a whole chunk, and :meth:`run` reads one record's row of that.
    """

    name: str
    kind: str  # "assert" | "ratio" | "report"
    description: str
    holds: Callable
    observed: tuple[str, ...] = ()
    skips: tuple[Skip, ...] = ()

    def outcomes(self, chunk: measures.Chunk) -> tuple[np.ndarray, object]:
        """Per row, the index of the first skip that holds (``len(skips)``
        if none); and where the formula holds, or the ratio's (num, den),
        as whole columns. Each skip is read only while rows are open, and
        the formula only when some row is not skipped (``None`` if none), so
        a capped column is never computed."""
        first = np.full(len(chunk), len(self.skips))
        for i, skip in enumerate(self.skips):
            if (open_ := first == len(self.skips)).any():
                first[open_ & skip.holds(chunk)] = i
        if (first < len(self.skips)).all():
            return first, None
        holds = self.holds(chunk)
        if self.kind == "ratio":
            return first, tuple(np.full(len(first), a) for a in holds)
        return first, np.full(len(first), holds, dtype=bool)

    def run(self, record: MeasureContext) -> Outcome:
        """The outcome on one record: its row of the chunk's outcomes,
        which the chunk keeps for its other records."""
        first, result = record.chunk.keep(self, self.outcomes)
        row, skip = record.row, int(first[record.row])
        if skip < len(self.skips):
            reason = self.skips[skip].reason.format(record.chunk)
            return "skip", {"reason": reason, **_values(record, self.skips[skip].observed)}
        values = _values(record, self.observed)
        if self.kind == "ratio":
            num, den = result
            return "pass", {"ratio": _ratio(num.item(row), den.item(row)), **values}
        return ("pass" if result[row] else "fail"), values


def _values(record: MeasureContext, names: Sequence[str]) -> dict:
    return {name: record.value(name) for name in names}


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


def _declare(
    name: str, kind: str, description: str, observed: str, holds: Callable, *skips: Skip
) -> Check:
    """A check from one table row: unless one of ``skips`` holds, an assert
    passes iff ``holds``, and a ratio check always passes and keeps its
    ratio ahead of the values named in ``observed``."""
    return Check(name, kind, description, holds, tuple(observed.split()), skips)


def _decomposes(c):
    """Part i of f's monotone decomposition is [A >= i], A the alternation
    profile, so the parts are monotone iff A is non-decreasing along every
    axis, and their XOR is A mod 2, which must be f xor f(0^n)."""
    A, v = c.profile, c.stack
    ok = (A % 2 == v ^ v[:, :1]).all(axis=-1)
    for p in range(c.n):
        halves = A.reshape(len(A), -1, 2, 1 << p)
        ok &= (halves[:, :, 0] <= halves[:, :, 1]).all(axis=(1, 2))
    return ok


def _ceil_log2_1p(dc: int) -> int:
    """ceil(log2(1 + dc)), the circuit negation count the decrease gives."""
    return math.ceil(math.log2(1 + dc)) if dc else 0


def _log2_power(x: int) -> float:
    """(log2 x)^c, the sparsity exponent's bound at x, 0 for x <= 1."""
    return math.log2(x) ** measures.SPARSITY_EXPONENT if x > 1 else 0.0


DEG_ABOVE_LOG_N = Skip(
    "hypothesis deg <= (log2 n)^c fails", lambda c: c.deg > _log2_power(c.n), ("deg",)
)


# The registry: one row per check. Rationals are compared through their
# numerators: I_num is I * 2**n, and so on (see measures.Chunk).
CHECKS: dict[str, Check] = {
    check.name: check
    for check in [
        _declare("s-le-bs", "assert", "sensitivity at most block sensitivity", "s bs",
                 lambda c: c.s <= c.bs, BS_CAPPED),
        _declare("deg-bs-sandwich", "assert", "sqrt(bs) <= deg <= bs^3", "bs deg",
                 lambda c: (c.bs <= c.deg * c.deg) & (c.deg <= c.bs**3), BS_CAPPED),
        _declare("influence-le-s", "assert", "influence at most sensitivity", "I s",
                 lambda c: c.I_num <= c.s << c.n),
        _declare("influence-le-deg", "assert", "influence at most degree", "I deg",
                 lambda c: c.I_num <= c.deg << c.n),
        _declare("deg-le-dt", "assert", "degree at most decision-tree depth", "deg DT",
                 lambda c: c.deg <= c.dt, DT_CAPPED),
        # every certificate hits each disjoint sensitive block, so C >= bs >= s
        _declare("cert-ge-bs", "assert", "certificate complexity dominates block sensitivity",
                 "s bs C", lambda c: (c.s <= c.bs) & (c.bs <= c.cert), BS_C_CAPPED),
        _declare("alt-dc-relation", "assert", "alt in {2dc-1, 2dc, 2dc+1}", "alt dc",
                 lambda c: abs(c.alt - 2 * c.dc) <= 1),
        _declare("alt-le-exp-dt", "assert", "alt <= 2^(DT+1) - 1", "alt DT",
                 lambda c: c.alt <= (1 << (c.dt + 1)) - 1, DT_CAPPED),
        _declare("dc-le-exp-dt", "assert", "dc <= 2^DT - 1", "dc DT",
                 lambda c: c.dc <= (1 << c.dt) - 1, DT_CAPPED),
        _declare("negs-from-decrease", "assert", "negation counts consistent with decrease",
                 "dc negs negs_formula",
                 lambda c: c.negs == measures.per_value(_ceil_log2_1p, c.dc)),
        _declare("log-sparsity-le-2deg", "assert", "log2 sparsity at most twice degree", "sparsity deg",
                 lambda c: c.sparsity <= 1 << (2 * c.deg)),
        _declare("deg2-le-log-sparsity", "assert", "deg2 at most log2 sparsity when deg2 > 1",
                 "deg2 sparsity", lambda c: (1 << c.degm(2)) <= c.sparsity, DEG2_LE_1),
        _declare("spectral-weight-ge-n", "assert", "weighted spectral sum at least n", "weighted n",
                 lambda c: c.sums["weighted"] >= c.n << c.n, PARTIAL),
        _declare("sens-sqrt-sparsity", "assert", "s * sqrt(sparsity) at least n", "s sparsity n",
                 lambda c: c.s * c.s * c.sparsity >= c.n * c.n, PARTIAL),
        _declare("deg-exp-deg2-lower", "assert", "deg at least n / 2^deg2", "deg deg2 n",
                 lambda c: c.deg * (1 << c.degm(2)) >= c.n, PARTIAL),
        _declare("influence-le-alt-sqrt-n", "assert", "influence at most alt * sqrt(n)", "I alt n",
                 lambda c: c.I_num**2 <= (c.alt * c.alt * c.n) << (2 * c.n)),
        _declare("influence-le-alt-deg2sq", "assert", "influence at most alt * deg2^2", "I alt deg2",
                 lambda c: c.I_num <= (c.alt * c.degm(2) ** 2) << c.n),
        _declare("influence-fourier-identity", "assert",
                 "influence equals the weighted spectral square sum",
                 "I spectral", lambda c: c.I_num << c.n == c.sums["spectral"]),
        _declare("sens-square-identity", "assert",
                 "weighted2 spectral sum equals the mean squared sensitivity",
                 "weighted2 avg_s2", lambda c: c.sums["weighted2"] == c.avg_s2_num << c.n),
        _declare("parseval", "assert", "scaled spectrum squares sum to 4^n", "sum_sq n",
                 lambda c: c.sums["sum_sq"] == 1 << (2 * c.n)),
        _declare("witness-valid", "assert", "DP witness chain achieves alt", "witness_alt alt",
                 lambda c: c.witness_alt == c.alt),
        _declare("monotone-decomposition", "assert", "alt-many monotone parts reconstruct the function",
                 "parts alt negated", _decomposes),
        *(
            _declare(f"deg-product-bound-m{m}", "assert", f"deg <= alt * deg2 * deg_{m}",
                     f"deg alt deg2 deg_{m}", lambda c, m=m: c.deg <= c.alt * c.degm(2) * c.degm(m))
            for m in range(2, 7)
        ),
        _declare("bs-ratio", "ratio", "observed bs / (s * alt^2)", "bs s alt",
                 lambda c: (c.bs, c.s * c.alt * c.alt), BS_CAPPED, NO_BS_DENOMINATOR),
        _declare("sens-log-ratio", "ratio", "observed s / log2(n) on fully-dependent functions", "s n",
                 lambda c: (c.s, math.log2(c.n)), PARTIAL, LOG_N_ZERO),
        # Tiny-n counterexamples exist (the implication needs large n), so this
        # stays a report rather than an assertion.
        _declare("deg-sparsity-exponent", "report",
                 "implication: deg <= (log2 n)^c gives deg <= (log2 sparsity)^c", "deg sparsity c",
                 lambda c: c.deg <= measures.per_value(_log2_power, c.sparsity),
                 LOG_N_ZERO, DEG_ABOVE_LOG_N),
    ]
}


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
        return {**vars(self), "failed": self.failed}

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

    def add_chunk(self, chunk: measures.Chunk, check: Check) -> None:
        """Add every row of ``chunk`` from the check's column outcomes:
        counts are mask sums, and only the kept failures and the ratio's
        best row are read as records."""
        first, result = check.outcomes(chunk)
        *skipped, opened = np.bincount(first, minlength=len(check.skips) + 1).tolist()
        self.counts["skip"] += len(chunk) - opened
        self._count_skips({skip.reason.format(chunk): k for skip, k in zip(check.skips, skipped) if k})
        if result is None:
            return
        open_ = first == len(check.skips)
        if check.kind == "ratio":
            self.counts["pass"] += opened
            (num, den), rows = result, np.flatnonzero(open_)
            (best,) = chunk.first_rows(rows[_largest(num[rows], den[rows])], 1)
            self._offer_ratio(_ratio(num.item(best), den.item(best)), serialize(chunk.table(best)))
            return
        failed = np.flatnonzero(open_ & ~result)
        self.counts["pass"] += opened - len(failed)
        self.counts["fail"] += len(failed)
        kept = (chunk.record(row) for row in chunk.first_rows(failed, self.fail_limit).tolist())
        self._keep_failures([_failure(r.fn_id(), _values(r, check.observed)) for r in kept])

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


def _failure(fn_id: str, observed: dict) -> dict:
    return {"fn": fn_id, "observed": {k: str(v) for k, v in observed.items()}}


def _largest(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """The indices of the largest num / den (all den > 0), by
    cross-multiplication from the float estimate's best. It is exact on
    integer columns; a float denominator depends on n alone, so within a
    chunk it is one value and the numerators decide."""
    best = int(np.argmax(num / den))
    while True:
        diff = num * den[best] - num[best] * den
        above = np.flatnonzero(diff > 0)
        if not len(above):
            return np.flatnonzero(diff == 0)
        best = above[0]


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
    for stack in population.stacks(start, stop):
        chunk = measures.Chunk(stack, **caps)
        for check in selected:
            aggregates[check.name].add_chunk(chunk, check)
    return aggregates


def _worker(conn, *args) -> None:
    """Run one share (``_run_chunk``'s arguments) in a worker process and
    send ``(aggregates, None)`` down ``conn``, or ``(exception, its
    traceback)`` if it raised."""
    try:
        result = (_run_chunk(*args), None)
    except Exception as exc:
        import traceback

        result = (exc, traceback.format_exc())
    conn.send(result)
    conn.close()


def _receive(conn, worker) -> dict[str, Aggregate]:
    """A worker's share, or what it raised, with the worker's traceback as
    its cause; a worker that ends without sending either raises
    ``RuntimeError``."""
    try:
        value, trace = conn.recv()
    except EOFError:
        worker.join()
        raise RuntimeError(f"sweep worker exited with code {worker.exitcode} without a result") from None
    if trace is not None:
        raise value from RuntimeError(f"raised in a sweep worker:\n{trace}")
    return value


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
    report as a serial run. ``jobs`` is clamped to the CPU count, and a
    population of fewer than ``2 * jobs`` members runs serially. Otherwise
    the members split into ``jobs`` shares: the calling process runs the
    first, one worker process each of the rest, each sending its aggregates
    back over a pipe of its own. A worker's exception is raised here, and
    a worker that ends without a result raises ``RuntimeError``; no worker
    outlives the call.
    """
    measures.check_caps(bs_cap, cert_cap, dt_cap)
    if fail_limit < 0:
        raise ValueError(f"fail_limit {fail_limit} is negative")
    jobs = min(jobs, os.cpu_count() or 1)
    selected = resolve_checks(checks)
    names = "all" if checks == "all" else tuple(c.name for c in selected)
    caps = {"bs_cap": bs_cap, "cert_cap": cert_cap, "dt_cap": dt_cap}
    total = population.size()
    if jobs <= 1 or total < 2 * jobs:
        return _sweep_report(population, [_run_chunk(population, names, 0, None, caps, fail_limit)])
    import multiprocessing as mp

    # total >= 2 * jobs, so no share is empty
    bounds = [(total * i) // jobs for i in range(jobs + 1)]
    # fork where the platform has it; elsewhere the default start method,
    # which works too, as _worker and its arguments pickle
    ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else None)
    pipes, workers = [], []
    try:
        for lo, hi in zip(bounds[1:], bounds[2:]):
            receiver, sender = ctx.Pipe(duplex=False)
            pipes.append(receiver)
            worker = ctx.Process(target=_worker, args=(sender, population, names, lo, hi, caps, fail_limit))
            try:
                worker.start()
            finally:
                # the worker holds the one sender left, so its end ends the pipe
                sender.close()
            workers.append(worker)
        partials = [_run_chunk(population, names, 0, bounds[1], caps, fail_limit)]
        partials.extend(_receive(receiver, worker) for receiver, worker in zip(pipes, workers))
    finally:
        for receiver in pipes:
            receiver.close()
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
            worker.join()
    return _sweep_report(population, partials)


def measure_matrix_rows(
    population: Population,
    bs_cap: int = measures.BS_CAP_DEFAULT,
    cert_cap: int = measures.CERT_CAP_DEFAULT,
    dt_cap: int = measures.DT_CAP_DEFAULT,
) -> Iterator[list]:
    """Per-function measure matrix (header row first), for CSV export: each
    chunk's ``measures.COLUMNS`` zipped; a capped cell is ``None``, which
    the CSV writer leaves empty."""
    yield list(measures.COLUMNS)
    caps = {"bs_cap": bs_cap, "cert_cap": cert_cap, "dt_cap": dt_cap}
    for stack in population.stacks():
        chunk = measures.Chunk(stack, **caps)
        yield from map(list, zip(*map(chunk.values, measures.COLUMNS)))
