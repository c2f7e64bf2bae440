"""Exact combinatorial complexity measures, and the record that holds them.

Sensitivity, block sensitivity, certificate complexity, influence,
alternation/decrease (via the hypercube DP), decision-tree depth, and the
negation counts that follow from the decrease value. Everything is exact.

Decision-tree depth and certificate complexity are both read from one
subcube table (:func:`subcube_table`): f's constant value on each of the
3**n subcubes, or ``FREE`` where f is not constant. Block sensitivity reads
it too: C(f, x) for every x, with s(f), bounds its search, so only points
with s(f) < C(f, x) get the O(n * 2**n) minimal-block scan. The table's
3**n bytes bound the bs, C and DT caps by ``SUBCUBE_MAX_ARITY``.

:class:`MeasureContext` is the lazy per-function record that computes each
measure at most once, the algebraic ones included. The check registry,
``boolfn analyze`` and the measure matrix all read it, through the one
column schema ``COLUMNS``; :func:`measure_report` returns it.

The four kernels that every function needs (the alternation DP, Moebius,
Walsh and per-point sensitivity) run per :class:`Chunk`: consecutive
same-arity tables, at most ``CHUNK_CELLS`` cells in all, whose records
share one run of each kernel on the stacked ``(N, 2**n)`` matrix. Sweeps
build their records with :func:`records`; a lone record is a chunk of one.
The subcube table, C, DT, bs and the degree columns stay per record.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import algebra, chains
from .core import (
    BooleanFunction,
    CapExceededError,
    Point,
    Tables,
    TruthTable,
    depends_on_all,
    materialize,
    point_index,
    serialize,
    table_values,
)

__all__ = [
    "BS_CAP_DEFAULT",
    "CERT_CAP_DEFAULT",
    "CHUNK_CELLS",
    "DT_CAP_DEFAULT",
    "FREE",
    "SUBCUBE_MAX_ARITY",
    "COLUMNS",
    "AltDecrease",
    "Chunk",
    "MeasureContext",
    "alternation_decrease",
    "block_sensitivity",
    "certificate_complexity",
    "decision_tree_depth",
    "influence",
    "measure_report",
    "negation_complexity",
    "per_point_certificate",
    "per_point_sensitivity",
    "records",
    "sensitivity",
    "subcube_table",
]

BS_CAP_DEFAULT = 12
CERT_CAP_DEFAULT = 12
DT_CAP_DEFAULT = 15
# The subcube table takes 3**n bytes and the DT rounds about 1.5 times that
# again (36 MB at n = 15, 110 MB at n = 16); no bs, C or DT cap may exceed this.
SUBCUBE_MAX_ARITY = 16
FREE = 2  # a subcube digit leaving its variable free; a cell where f varies
# A chunk stacks at most this many table cells (256 tables at n = 8), which
# bounds each stacked kernel array; a table above it is a chunk of one.
CHUNK_CELLS = 1 << 16


def per_point_sensitivity(f: Tables) -> np.ndarray:
    """s(f, x) for every point x (of every row, for a stack), one butterfly
    pass per variable: the two points of a pair differing in that variable
    are both sensitive to it or both not."""
    n, v = table_values(f)
    s = np.zeros(v.shape, dtype=np.int32)
    for p in range(n):
        pairs = v.reshape(-1, 2, 1 << p)
        halves = s.reshape(-1, 2, 1 << p)
        halves += pairs[:, :1] != pairs[:, 1:]
    s.setflags(write=False)
    return s


def sensitivity(f: TruthTable, x: Optional[Point] = None) -> int:
    """Number of sensitive bits at x, or the maximum over all inputs."""
    if x is None:
        return MeasureContext(f).s()
    i = point_index(x, f.n)
    v = f.values
    return int(sum(v[i ^ (1 << p)] != v[i] for p in range(f.n)))


def _max_disjoint(blocks: list[int], floor: int = 0, ceiling: Optional[int] = None) -> int:
    """Exact maximum number of pairwise-disjoint masks, branch and bound.

    Reports at least ``floor``, and stops once a packing reaches
    ``ceiling``, a known upper bound.
    """
    blocks = sorted(blocks, key=int.bit_count)
    total = len(blocks)
    top = total if ceiling is None else ceiling
    best = floor

    def rec(i: int, used: int, count: int) -> None:
        nonlocal best
        best = max(best, count)
        for j in range(i, total):
            if best >= top or count + (total - j) <= best:
                return
            b = blocks[j]
            if not b & used:
                rec(j + 1, used | b, count + 1)

    rec(0, 0, 0)
    return best


def _minimal_from_sens(f: TruthTable, i: int) -> list[int]:
    """The inclusion-minimal blocks whose flip changes f at point i.

    ``reach[B]`` marks blocks with a sensitive submask; a sensitive block is
    minimal iff no single-element deletion still reaches one.
    """
    v = f.values
    sens = v[np.arange(1 << f.n) ^ i] != v[i]
    reach, minimal = sens.copy(), sens
    for p in range(f.n):
        halves = reach.reshape(-1, 2, 1 << p)
        halves[:, 1] |= halves[:, 0]
    for p in range(f.n):
        minimal.reshape(-1, 2, 1 << p)[:, 1] &= ~reach.reshape(-1, 2, 1 << p)[:, 0]
    return np.flatnonzero(minimal).tolist()


def block_sensitivity(
    f: TruthTable,
    x: Optional[Point] = None,
    cap: int = BS_CAP_DEFAULT,
    cubes: Optional[np.ndarray] = None,
    bounds: Optional[tuple[int, np.ndarray]] = None,
) -> int:
    """Maximum number of disjoint blocks whose joint flip changes f.

    bs(f, x) packs the inclusion-minimal sensitive blocks at x by branch and
    bound. The maximum over x starts at s(f) and uses bs(f, x) <= C(f, x),
    as every certificate for x fixes a variable in each disjoint sensitive
    block: it visits points in decreasing C(f, x), stops at the first with
    C(f, x) <= best, and stops each packing once it reaches C(f, x).
    ``bounds`` is (s(f), C(f, x) for every x) when the caller holds them;
    otherwise C is read from ``cubes``, built if absent.
    """
    n = f.n
    if n > cap:
        raise CapExceededError(f"arity {n} exceeds block-sensitivity cap {cap}")
    if x is not None:
        return _max_disjoint(_minimal_from_sens(f, point_index(x, n)))
    best, certs = bounds or (int(per_point_sensitivity(f).max()), per_point_certificate(f, cubes))
    for i in np.argsort(certs, kind="stable")[::-1].tolist():
        if certs[i] <= best:
            break
        best = _max_disjoint(_minimal_from_sens(f, i), best, int(certs[i]))
    return best


def subcube_table(f: TruthTable) -> np.ndarray:
    """f's constant value on every subcube, or ``FREE`` where f varies.

    Cell c of the flat 3**n array has base-3 digits c_1 ... c_n, with c_1
    the most significant, as x_1 is the top bit of a point. Digit 0 or 1
    fixes x_j and ``FREE`` leaves it free, so the last cell is the whole
    cube. One pass per variable splits each cell on x_j into its two halves
    and the cell where x_j is free.
    """
    n = f.n
    if n > SUBCUBE_MAX_ARITY:
        raise CapExceededError(f"arity {n} exceeds subcube ceiling {SUBCUBE_MAX_ARITY}")
    cube = f.values
    for j in range(n):
        halves = cube.reshape(3**j, 2, -1)
        lo, hi = halves[:, :1], halves[:, 1:]
        cube = np.concatenate([halves, np.where(lo == hi, lo, FREE)], axis=1)
    cube = cube.reshape(-1)
    cube.setflags(write=False)
    return cube


def per_point_certificate(f: TruthTable, cubes: Optional[np.ndarray] = None) -> np.ndarray:
    """C(f, x) for every point x, read from the subcube table ``cubes``.

    C(f, x) is the fewest fixed variables of a constant subcube that holds
    x. The sweep over x_j gives each cell fixing x_j the better of its own
    count plus one and the count of its cell with x_j free, then drops the
    free cells; after n sweeps the 2**n cells left hold C(f, x) for every x.
    """
    n = f.n
    cubes = subcube_table(f) if cubes is None else cubes
    size = np.where(cubes == FREE, np.uint8(n + 1), np.uint8(0))
    for j in range(n):
        cells = size.reshape(2**j, 3, -1)
        size = np.minimum(cells[:, :FREE] + 1, cells[:, FREE:])
    return size.reshape(-1)


def certificate_complexity(
    f: TruthTable,
    x: Optional[Point] = None,
    cap: int = CERT_CAP_DEFAULT,
    cubes: Optional[np.ndarray] = None,
) -> int:
    """Size of the smallest forcing set at x, or the maximum over inputs."""
    if f.n > cap:
        raise CapExceededError(f"arity {f.n} exceeds certificate cap {cap}")
    size = per_point_certificate(f, cubes)
    return int(size[point_index(x, f.n)] if x is not None else size.max())


def influence(f: TruthTable) -> Fraction:
    """Average per-input sensitivity, as an exact rational."""
    return MeasureContext(f).influence()


@dataclass(frozen=True)
class AltDecrease:
    """Alternation, decrease, and a chain witnessing the alternation."""

    alt: int
    dc: int
    witness: chains.Chain


def alternation_decrease(f: BooleanFunction, cap: Optional[int] = None) -> AltDecrease:
    """Alternation and decrease via the full-hypercube DP, plus a witness."""
    record = MeasureContext(materialize(f, cap))
    return AltDecrease(record.alt(), record.dc(), record.witness())


def decision_tree_depth(
    f: TruthTable, cap: int = DT_CAP_DEFAULT, cubes: Optional[np.ndarray] = None
) -> int:
    """Depth of the shallowest decision tree, exact.

    Round d marks the subcubes that a depth-d tree decides: the constant
    ones, and those with a free x_j whose two halves on x_j were marked in
    round d - 1. The depth is the first round that marks the whole cube.
    """
    n = f.n
    if n > cap:
        raise CapExceededError(f"arity {n} exceeds decision-tree cap {cap}")
    decided = (subcube_table(f) if cubes is None else cubes) != FREE
    before = np.empty_like(decided)
    splits = [(decided.reshape(3**j, 3, -1), before.reshape(3**j, 3, -1)) for j in range(n)]
    splits = [(cells[:, FREE], prev[:, 0], prev[:, 1]) for cells, prev in splits]
    depth = 0
    while not decided[-1]:
        before[:] = decided
        for free, lo, hi in splits:
            free |= lo & hi
        depth += 1
    return depth


def negation_complexity(f: BooleanFunction, cap: Optional[int] = None) -> tuple[int, int]:
    """(circuit, formula) negation counts derived from the decrease value."""
    return MeasureContext(materialize(f, cap)).negs()


def _memoized(method):
    """Cache a record accessor's value per record and per argument."""
    name = method.__name__

    @wraps(method)
    def get(self, *args):
        key = (name, *args)
        if key not in self._cache:
            self._cache[key] = method(self, *args)
        return self._cache[key]

    return get


class Chunk:
    """Same-arity tables whose records share the once-per-function kernels.

    The alternation DP, Moebius, Walsh and per-point sensitivity each run at
    most once per chunk, on the ``(N, 2**n)`` stack of its tables, at the
    first read by any of its records; each record reads its own row.
    """

    def __init__(self, tables: Sequence[TruthTable]) -> None:
        self.tables = tables
        self._cache: dict = {}

    @_memoized
    def stack(self) -> np.ndarray:
        return np.stack([t.values for t in self.tables])

    @_memoized
    def per_point_s(self) -> np.ndarray:
        return per_point_sensitivity(self.stack())

    @_memoized
    def profile(self) -> np.ndarray:
        return chains.alternation_profile(self.stack())

    @_memoized
    def coeffs(self) -> np.ndarray:
        return algebra.multilinear_coefficients(self.stack()).coeffs

    @_memoized
    def spectrum(self) -> np.ndarray:
        return algebra.fourier_transform(self.stack()).scaled


class MeasureContext:
    """Lazy record of one function's measures, shared by every consumer.

    The checks, ``boolfn analyze`` and the measure matrix all read it, and
    it is the only caller of the measure kernels, so each kernel runs at
    most once per function (per ``chunk``, for the four stacked ones; the
    record is row ``row`` of it) and only when some accessor needs it. A
    measure above its cap reads ``None``. A bs, C or DT cap above
    ``SUBCUBE_MAX_ARITY`` is rejected up front.
    """

    def __init__(
        self,
        table: TruthTable,
        bs_cap: int = BS_CAP_DEFAULT,
        cert_cap: int = CERT_CAP_DEFAULT,
        dt_cap: int = DT_CAP_DEFAULT,
        chunk: Optional[Chunk] = None,
        row: int = 0,
    ) -> None:
        self.check_caps(bs_cap, cert_cap, dt_cap)
        self.table = table
        self.n = table.n
        self.bs_cap = bs_cap
        self.cert_cap = cert_cap
        self.dt_cap = dt_cap
        self._chunk = Chunk([table]) if chunk is None else chunk
        self._row = row
        self._cache: dict = {}

    @staticmethod
    def check_caps(bs_cap: int, cert_cap: int, dt_cap: int) -> None:
        """Reject a bs, C or DT cap whose subcube table would be too large."""
        if max(bs_cap, cert_cap, dt_cap) > SUBCUBE_MAX_ARITY:
            raise CapExceededError(f"bs, C and DT caps must not exceed {SUBCUBE_MAX_ARITY}")

    @_memoized
    def fn_id(self) -> str:
        return serialize(self.table)

    @_memoized
    def depends_all(self) -> bool:
        return depends_on_all(self.table)

    # One per-point sensitivity pass: s, I and the mean squared sensitivity.
    def per_point_s(self) -> np.ndarray:
        return self._chunk.per_point_s()[self._row]

    def per_point(self) -> dict:
        return {"s": self.per_point_s().tolist()}

    @_memoized
    def s(self) -> int:
        return int(self.per_point_s().max())

    @_memoized
    def influence(self) -> Fraction:
        return Fraction(int(self.per_point_s().sum()), 1 << self.n)

    @_memoized
    def avg_s2(self) -> Fraction:
        pps = self.per_point_s().astype(np.int64)
        return Fraction(int((pps * pps).sum()), 1 << self.n)

    # The capped measures read one subcube table: DT, and C(f, x) for every
    # x, which with s(f) bounds the bs search.
    @_memoized
    def cubes(self) -> np.ndarray:
        return subcube_table(self.table)

    @_memoized
    def per_point_cert(self) -> np.ndarray:
        return per_point_certificate(self.table, self.cubes())

    @_memoized
    def bs(self) -> Optional[int]:
        if self.n > self.bs_cap:
            return None
        bounds = self.s(), self.per_point_cert()
        return block_sensitivity(self.table, cap=self.bs_cap, bounds=bounds)

    @_memoized
    def cert(self) -> Optional[int]:
        if self.n > self.cert_cap:
            return None
        return int(self.per_point_cert().max())

    @_memoized
    def dt(self) -> Optional[int]:
        if self.n > self.dt_cap:
            return None
        return decision_tree_depth(self.table, cap=self.dt_cap, cubes=self.cubes())

    def skips(self) -> dict[str, str]:
        caps = {"bs": self.bs_cap, "C": self.cert_cap, "DT": self.dt_cap}
        return {k: f"arity {self.n} above cap {cap}" for k, cap in caps.items() if self.n > cap}

    # One alternation DP: alt, dc, the negation counts and the witness.
    def profile(self) -> np.ndarray:
        return self._chunk.profile()[self._row]

    @_memoized
    def alt(self) -> int:
        return int(self.profile()[-1])

    @_memoized
    def dc(self) -> int:
        v = self.table.values
        return chains.decrease(self.alt(), int(v[-1]), int(v[0]))

    def negs(self) -> tuple[int, int]:
        """(circuit, formula) negation counts: ceil(log2(1 + dc)) and dc."""
        return self.dc().bit_length(), self.dc()

    @_memoized
    def witness(self) -> chains.Chain:
        return chains.max_alternation_witness(self.table, self.profile())

    # One Moebius transform: the degree over Z and over every Z_m.
    @_memoized
    def poly(self) -> algebra.MultilinearPoly:
        return algebra.MultilinearPoly(self.n, self._chunk.coeffs()[self._row])

    @_memoized
    def deg(self) -> int:
        return self.poly().degree()

    @_memoized
    def degm(self, m: int) -> int:
        return algebra.MultilinearPoly(self.n, self.poly().coeffs % m, m).degree()

    def deg2(self) -> int:
        return self.degm(2)

    # One Walsh transform: sparsity and the spectral sums.
    @_memoized
    def spectrum(self) -> algebra.FourierSpectrum:
        return algebra.FourierSpectrum(self.n, self._chunk.spectrum()[self._row])

    @_memoized
    def sparsity(self) -> int:
        return self.spectrum().sparsity()

    @_memoized
    def sums(self) -> algebra.SpectralSums:
        return algebra.spectral_sums_of(self.spectrum())

    def row(self) -> list:
        """The measure-matrix row, in ``COLUMNS`` order; capped cells are empty."""
        return ["" if v is None else _cell(v) for v in (get(self) for get in COLUMNS.values())]

    def to_json_dict(self) -> dict:
        """The ``boolfn analyze`` object, without the per-point table."""
        out = {name: _cell(get(self)) for name, get in COLUMNS.items()}
        out["deg_m"] = {str(m): self.degm(m) for m in (3, 4, 5, 6)}
        out["spectral"] = {name: str(value) for name, value in vars(self.sums()).items()}
        out["depends_on_all"] = self.depends_all()
        if self.skips():
            out["skips"] = self.skips()
        return out


# The one column schema: the measure-matrix CSV columns in order, which are
# also the scalar fields of the analyze JSON.
COLUMNS: dict[str, Callable[[MeasureContext], object]] = {
    "fn": MeasureContext.fn_id,
    "n": lambda r: r.n,
    "s": MeasureContext.s,
    "bs": MeasureContext.bs,
    "C": MeasureContext.cert,
    "I": MeasureContext.influence,
    "alt": MeasureContext.alt,
    "dc": MeasureContext.dc,
    "DT": MeasureContext.dt,
    "negs": lambda r: r.negs()[0],
    "negs_formula": lambda r: r.negs()[1],
    "deg": MeasureContext.deg,
    "deg2": MeasureContext.deg2,
    "sparsity": MeasureContext.sparsity,
}


def records(tables: Iterable[TruthTable], **caps) -> Iterator[MeasureContext]:
    """One record per table, in order, with the measure caps ``caps``.

    Consecutive tables of one arity n share a :class:`Chunk` of at most
    ``max(1, CHUNK_CELLS >> n)`` tables, so the stacked kernels run once
    per chunk rather than once per table.
    """
    for n, same in itertools.groupby(tables, key=lambda t: t.n):
        while batch := list(itertools.islice(same, max(1, CHUNK_CELLS >> n))):
            chunk = Chunk(batch)
            yield from (MeasureContext(t, **caps, chunk=chunk, row=i) for i, t in enumerate(batch))


def _cell(value):
    """A column value as JSON and CSV carry it: exact rationals as text."""
    return str(value) if isinstance(value, Fraction) else value


def measure_report(
    f: BooleanFunction,
    bs_cap: int = BS_CAP_DEFAULT,
    cert_cap: int = CERT_CAP_DEFAULT,
    dt_cap: int = DT_CAP_DEFAULT,
) -> MeasureContext:
    """The record of every measure of one function, honoring the caps."""
    return MeasureContext(materialize(f), bs_cap, cert_cap, dt_cap)
