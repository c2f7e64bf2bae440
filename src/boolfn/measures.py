"""Exact combinatorial complexity measures, as columns of a chunk of functions.

Sensitivity, block sensitivity, certificate complexity, influence,
alternation/decrease (via the hypercube DP), decision-tree depth, and the
negation counts that follow from the decrease value. Everything is exact.

Decision-tree depth and certificate complexity are read from f's constancy
planes (:func:`constancy_planes`), one bit per row and subcube, eight rows
to a byte, and block sensitivity reads C: C(f, x) for every x, with s(f),
bounds its search. A table's 3**n bytes of planes bound the bs, C and DT
caps by ``SUBCUBE_MAX_ARITY``. Building the planes, the C sweep and the DT
rounds each cut any stack into :func:`core.blocks` of rows, in its own budget.
The value planes, each DT round and per-point sensitivity are each one
sweep of one pass per variable (:func:`core.digit_sweep`), whose passes on
the last few variables run on block copies with the cells transposed.

Every measure is a column of a :class:`Chunk` of same-arity tables,
computed once for all its rows; only block sensitivity searches row by row.
The Moebius and Walsh transforms are reduced where they are made, never kept.
A chunk settles what a proven bound fixes before it runs a kernel: bs where
s = C, and DT, full dependence and the deg-product checks (:meth:`Chunk.settle`).
Every value a report carries is named once, in ``VALUES``, with its
whole-chunk column of Python values, which the check registry and the
measure matrix read. The record of one function, :class:`MeasureContext`,
is a view of one row of its chunk; a lone function's record,
:func:`measure_report`, is a chunk of one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from . import algebra, chains
from .core import (
    CHUNK_CELLS,
    BooleanFunction,
    CapExceededError,
    Point,
    Tables,
    TruthTable,
    blocks,
    depends_on_all,
    digit_sweep,
    materialize,
    point_index,
    serialize,
    serialize_rows,
    table_values,
)

__all__ = [
    "BS_CAP_DEFAULT",
    "CERT_CAP_DEFAULT",
    "CHUNK_CELLS",
    "DT_CAP_DEFAULT",
    "FREE",
    "SPARSITY_EXPONENT",
    "SUBCUBE_MAX_ARITY",
    "COLUMNS",
    "VALUES",
    "AltDecrease",
    "Chunk",
    "MeasureContext",
    "alternation_decrease",
    "block_sensitivity",
    "certificate_complexity",
    "check_caps",
    "chunks",
    "constancy_planes",
    "decision_tree_depth",
    "influence",
    "measure_report",
    "negation_complexity",
    "per_point_certificate",
    "per_point_sensitivity",
    "per_value",
    "records",
    "sensitivity",
    "stack_size",
]

BS_CAP_DEFAULT = 12
CERT_CAP_DEFAULT = 12
DT_CAP_DEFAULT = 15
# No bs, C or DT cap may exceed this arity. A chunk keeps the constancy
# planes of its N tables, ceil(N / 8) * 3**n bytes: 43 MB for one table at
# n = 16, at most 4.8 MB below; building them and a block of the C sweep or
# of the DT rounds each take a few more arrays of that size or less.
SUBCUBE_MAX_ARITY = 16
FREE = 2  # a subcube digit leaving its variable free
# A DT step ANDs the marks of a digit's two halves in blocks of at most this
# many cells, so its temporary stays small next to a large table's marks.
DT_BLOCK_CELLS = 1 << 19
SPARSITY_EXPONENT = 2.0  # the c of the deg-sparsity-exponent check


def _count_flips(cells: np.ndarray) -> np.ndarray:
    """Add one to the count in the low 7 bits of both cells of each pair on
    a digit whose values, in the top bit, differ."""
    flips = cells[:, :1] ^ cells[:, 1:]
    flips >>= 7
    cells += flips
    return cells


def per_point_sensitivity(f: Tables) -> np.ndarray:
    """s(f, x) for every point x (of every row, for a stack), as uint8.

    One :func:`core.digit_sweep` of butterfly passes: the two points of a
    pair differing in a variable are both sensitive to it or both not. Each
    uint8 cell holds f(x) in its top bit and counts s(f, x) <= n < 128 below.
    """
    n, v = table_values(f)
    s = digit_sweep(_count_flips, n, v << 7)
    s &= 127
    s.setflags(write=False)
    return s


def sensitivity(f: TruthTable, x: Optional[Point] = None) -> int:
    """Number of sensitive bits at x, or the maximum over all inputs."""
    if x is None:
        return measure_report(f).value("s")
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


def block_sensitivity(f: TruthTable, x: Optional[Point] = None, cap: int = BS_CAP_DEFAULT) -> int:
    """Maximum number of disjoint blocks whose joint flip changes f.

    bs(f, x) packs the inclusion-minimal sensitive blocks at x by branch and
    bound; bs(f) is the record's (:attr:`Chunk.bs`).
    """
    if f.n > cap:
        raise CapExceededError(f"arity {f.n} exceeds block-sensitivity cap {cap}")
    if x is not None:
        return _max_disjoint(_minimal_from_sens(f, point_index(x, f.n)))
    return measure_report(f, bs_cap=f.n).value("bs")


def _split_on_digit(halves: np.ndarray) -> np.ndarray:
    """The cells fixing x_j to 0 and to 1, and after them the cell leaving
    it free: constant 1 where both halves are, and constant 0 where both
    are, so its bits are the AND of theirs."""
    return np.concatenate([halves, halves[:, :1] & halves[:, 1:]], axis=1)


def _lanes(planes: np.ndarray, rows: range) -> np.ndarray:
    """Rows ``rows`` of the planes, a byte per row and cell: row r is bit r % 8 of byte r // 8."""
    bits = np.empty((len(rows), planes.shape[-1]), np.uint8)
    for i, r in enumerate(rows[:8]):
        lane = bits[i::8]
        np.right_shift(planes[r // 8 : r // 8 + len(lane)], r % 8, out=lane)
        lane &= 1
    return bits


def constancy_planes(f: Tables) -> np.ndarray:
    """Where f is constant, eight rows to a byte: ``(ceil(N/8), 3**n)``
    uint8, bit i of byte r, cell c set iff row 8r + i of the stack is
    constant on subcube c (one byte row for a table).

    Cell c of the flat 3**n array has base-3 digits c_1 ... c_n, with c_1
    the most significant, as x_1 is the top bit of a point. Digit 0 or 1
    fixes x_j and ``FREE`` leaves it free, so the last cell is the whole
    cube. The planes are the OR of each row's two bits in f's value planes,
    four rows to a byte, bit i set where row 4r + i is constant 1 on the
    subcube and bit 4 + i where it is constant 0 (padding lanes hold a
    constant-0 row), then two such bytes in one. The value planes are one
    sweep (:func:`core.digit_sweep`) of one pass per variable, which splits
    each cell on x_j into its two halves and the cell where x_j is free,
    on :func:`core.blocks` of byte rows of ``2 * CHUNK_CELLS`` bytes each.
    """
    n, values = table_values(f)
    if n > SUBCUBE_MAX_ARITY:
        raise CapExceededError(f"arity {n} exceeds subcube ceiling {SUBCUBE_MAX_ARITY}")
    rows, parts = values.reshape(-1, 1 << n), []
    for part in blocks(-(-len(rows) // 8) or 1, 3**n, 2 * CHUNK_CELLS):  # an empty stack is one empty block
        block = rows[8 * part.start : 8 * part.stop]
        ones = np.packbits(block, axis=0, bitorder="little")
        quads = np.stack([ones & 15, ones >> 4], axis=1).reshape(-1, 1 << n)[: -(-len(block) // 4)]
        quads |= (quads ^ 15) << 4
        quads = digit_sweep(_split_on_digit, n, quads, base=3)
        quads |= quads >> 4
        quads &= 15
        parts.append(np.ascontiguousarray(quads[::2]))
        parts[-1][: len(quads) // 2] |= quads[1::2] << 4
    planes = parts[0] if len(parts) == 1 else np.concatenate(parts)
    planes.setflags(write=False)
    return planes


def per_point_certificate(f: Tables, *, planes: Optional[np.ndarray] = None) -> np.ndarray:
    """C(f, x) for every point x (of every row, for a stack), read from its
    constancy planes ``planes`` (:func:`constancy_planes`).

    C(f, x) is the fewest fixed variables of a constant subcube that holds
    x. Each row's counts start at 0 on its constant cells and n + 1 on the
    others. The sweep over x_j gives each cell fixing x_j the better of its
    own count plus one and the count of its cell with x_j free, then drops
    the free cells; after n sweeps the 2**n cells left hold C(f, x) for
    every x. Rows go in :func:`core.blocks` of ``8 * CHUNK_CELLS`` cells,
    which may start inside a byte of the planes.
    """
    n, values = table_values(f)
    planes = constancy_planes(f) if planes is None else planes
    certs = np.empty((values.size >> n, 1 << n), np.uint8)
    for part in blocks(len(certs), 3**n, 8 * CHUNK_CELLS):
        size = _lanes(planes, range(part.start, part.stop))
        size ^= 1
        size *= n + 1
        for j in range(n):
            cells = size.reshape(-1, 2**j, 3, 3 ** (n - 1 - j))
            size = cells[..., :FREE, :] + 1
            np.minimum(size, cells[..., FREE:, :], out=size)
        certs[part] = size.reshape(-1, 1 << n)
    return certs.reshape(values.shape)


def certificate_complexity(
    f: TruthTable,
    x: Optional[Point] = None,
    cap: int = CERT_CAP_DEFAULT,
) -> int:
    """Size of the smallest forcing set at x, or the maximum over inputs."""
    if f.n > cap:
        raise CapExceededError(f"arity {f.n} exceeds certificate cap {cap}")
    size = per_point_certificate(f)
    return int(size[point_index(x, f.n)] if x is not None else size.max())


def influence(f: TruthTable) -> Fraction:
    """Average per-input sensitivity, as an exact rational."""
    return measure_report(f).value("I")


@dataclass(frozen=True)
class AltDecrease:
    """Alternation, decrease, and a chain witnessing the alternation."""

    alt: int
    dc: int
    witness: chains.Chain


def alternation_decrease(f: BooleanFunction) -> AltDecrease:
    """Alternation and decrease via the full-hypercube DP, plus a witness."""
    record = measure_report(f)
    return AltDecrease(record.value("alt"), record.value("dc"), record.witness())


def _decide_on_digit(decided: np.ndarray, before: np.ndarray) -> np.ndarray:
    """Mark each cell leaving x_j free whose two halves on x_j were marked
    ``before``, in 2-D :func:`core.blocks` of ``DT_BLOCK_CELLS`` cells."""
    outer, _, inner = decided.shape
    if outer * inner <= DT_BLOCK_CELLS:  # one block
        decided[:, FREE] |= before[:, 0] & before[:, 1]
        return decided
    for o, i in itertools.product(blocks(outer, inner, DT_BLOCK_CELLS), blocks(inner, 1, DT_BLOCK_CELLS)):
        decided[o, FREE, i] |= before[o, 0, i] & before[o, 1, i]
    return decided


def decision_tree_depth(f: Tables, cap: int = DT_CAP_DEFAULT, *, planes: Optional[np.ndarray] = None):
    """Depth of the shallowest decision tree, exact; for a stack, the
    depth of every row.

    Round d marks the subcubes that a depth-d tree decides: the constant
    ones (the constancy planes ``planes``, :func:`constancy_planes`), and
    those with a free x_j whose two halves on x_j were marked in round
    d - 1. Each round reads the marks of the round before and is one
    :func:`core.digit_sweep` of bitwise steps on the marks of eight rows to
    a byte. The depth is the first round that marks the whole cube; a cube
    still open after round n - 1 has depth n, as every f has DT <= n, so
    round n is never run. Each of the :func:`core.blocks` of byte rows of
    the planes, of ``CHUNK_CELLS`` bytes, runs its own rounds.
    """
    n, values = table_values(f)
    if n > cap:
        raise CapExceededError(f"arity {n} exceeds decision-tree cap {cap}")
    planes = constancy_planes(f) if planes is None else planes
    depth = np.zeros(values.size >> n, dtype=np.int64)
    for part in blocks(len(planes), 3**n, CHUNK_CELLS):
        decided, block = planes[part].copy(), depth[8 * part.start : 8 * part.stop]
        for d in range(n):
            open_rows = np.unpackbits(decided[:, -1], count=len(block), bitorder="little") ^ 1
            if not open_rows.any():
                break
            block += open_rows
            if d < n - 1:
                digit_sweep(_decide_on_digit, n, decided, radix=3, jacobi=True)
    return depth if values.ndim > 1 else int(depth[0])


def negation_complexity(f: BooleanFunction) -> tuple[int, int]:
    """(circuit, formula) negation counts derived from the decrease value."""
    record = measure_report(f)
    return record.value("negs"), record.value("negs_formula")


def check_caps(bs_cap: int, cert_cap: int, dt_cap: int) -> None:
    """Reject a bs, C or DT cap whose subcube table would be too large."""
    if max(bs_cap, cert_cap, dt_cap) > SUBCUBE_MAX_ARITY:
        raise CapExceededError(f"bs, C and DT caps must not exceed {SUBCUBE_MAX_ARITY}")


def per_value(fn: Callable, column: np.ndarray) -> np.ndarray:
    """``fn`` of every entry of an integer column, run in Python once per
    distinct value, on that value as a Python int, so a float formula gives
    the bits it gives there."""
    distinct, inverse = np.unique(column, return_inverse=True)
    return np.array([fn(v) for v in distinct.tolist()])[inverse]


def _exact_column(compute: Callable[["Chunk"], np.ndarray]) -> cached_property:
    """A per-row chunk column, computed once, as exact integers."""
    return cached_property(lambda c: algebra.exact_terms(compute(c), c.n))


class Chunk:
    """Same-arity tables whose measures are columns, each computed once.

    The chunk holds its tables as one read-only ``(N, 2**n)`` uint8
    ``stack`` of at most ``CHUNK_CELLS`` cells (or one table); a row is read
    as a :class:`TruthTable` view (:meth:`table`) only by a record, the bs
    search and the function ids. A column is computed at its first read,
    for all rows, and kept. The per-point columns (``per_point_s``,
    ``profile``, the witness chain orders ``witness``) come from one kernel
    run on the stack, and ``per_point_cert`` and ``dt`` from one run each
    on its constancy ``planes``, one array, each kernel in blocks of its
    own bound. ``degrees`` and ``sums`` reduce their transform as it is
    made, so a large record holds two bytes per point: the uint8 s and A.
    A chunk whose rows a proven bound settles runs no kernel (:meth:`settle`):
    deg = n gives DT = n and full dependence (deg <= DT <= n, and x_1...x_n has
    a nonzero coefficient), and deg <= deg2 * deg_m the deg-product checks.
    The per-row measures are exact integers (``algebra.exact_terms``):
    ``degrees``, one Moebius scan, holds the degree over Z and over each
    Z_m of ``algebra.MODULI`` that ``deg`` and :meth:`degm` read, and a
    rational measure is kept as its numerator (``I_num`` and ``avg_s2_num``
    over 2**n, the spectral ``sums``, with the ``sparsity`` count). The
    degrees and the sums build the popcounts they read. :meth:`values` gives a
    column of ``VALUES`` as Python values, and :meth:`record` a view of one
    row. No reader asks for a measure above its cap.
    """

    def __init__(
        self,
        stack: np.ndarray,
        bs_cap: int = BS_CAP_DEFAULT,
        cert_cap: int = CERT_CAP_DEFAULT,
        dt_cap: int = DT_CAP_DEFAULT,
    ) -> None:
        check_caps(bs_cap, cert_cap, dt_cap)
        self.stack = stack.view()  # read-only, as its rows are the tables
        self.stack.setflags(write=False)
        self.n = table_values(stack)[0]
        self.bs_cap, self.cert_cap, self.dt_cap = bs_cap, cert_cap, dt_cap
        self._kept: dict = {}

    def __len__(self) -> int:
        return len(self.stack)

    def table(self, row: int) -> TruthTable:
        """The table of row ``row``: a read-only view of its stack row."""
        return TruthTable._row(self.stack[row])

    def keep(self, key, compute: Callable[["Chunk"], object]):
        """``compute(self)``, computed at the first call with ``key`` and kept."""
        if key not in self._kept:
            self._kept[key] = compute(self)
        return self._kept[key]

    def values(self, name: str) -> list:
        """The ``VALUES`` column ``name``: one Python value per row."""
        return self.keep(name, VALUES[name])

    def record(self, row: int) -> "MeasureContext":
        return MeasureContext(self, row)

    def records(self) -> Iterator["MeasureContext"]:
        return map(self.record, range(len(self)))

    def first_rows(self, rows: np.ndarray, k: int) -> np.ndarray:
        """The (at most) ``k`` of ``rows`` with the smallest function ids,
        equal tables in their order in ``rows``. Within one arity, ``serialize``
        order is that of the packed tables as little-endian integers, so the
        rows sort on their bytes, the last one first, and no id is built."""
        if len(rows) > k:
            packed = np.packbits(self.stack[rows], axis=-1, bitorder="little")
            rows = rows[np.lexsort(packed.T)[:k]]
        return rows

    # The per-point columns: one kernel run each on the stack.
    per_point_s = cached_property(lambda c: per_point_sensitivity(c.stack))
    profile = cached_property(lambda c: chains.alternation_profile(c.stack))
    witness = cached_property(lambda c: chains.witness_orders(c.stack, c.profile))
    planes = cached_property(lambda c: constancy_planes(c.stack))
    per_point_cert = cached_property(lambda c: per_point_certificate(c.stack, planes=c.planes))

    def settle(self, sure: np.ndarray, value, kernel: Callable[[], np.ndarray]) -> np.ndarray:
        """``value`` on every row if ``sure`` holds on all, else ``kernel()``."""
        return np.full(len(self), value) if np.all(sure) else kernel()

    # From the per-point sensitivity: s, I and the mean squared sensitivity.
    s = _exact_column(lambda c: c.per_point_s.max(axis=-1))
    I_num = _exact_column(lambda c: c.per_point_s.sum(axis=-1, dtype=np.int64))
    # einsum casts the uint8 s(f, x) to int64 in small buffers: no full-size square
    avg_s2_num = _exact_column(lambda c: np.einsum("...i,...i", c.per_point_s, c.per_point_s, dtype=np.int64))

    # From the constancy planes: C and DT, and bs, which C bounds.
    cert = _exact_column(lambda c: c.per_point_cert.max(axis=-1))
    dt = _exact_column(
        lambda c: c.settle(c.deg == c.n, c.n, lambda: decision_tree_depth(c.stack, cap=c.dt_cap, planes=c.planes))
    )

    @cached_property
    def bs(self) -> np.ndarray:
        """bs(f): s, searched only on the rows where s < C, as s <= bs <= C.
        bs(f, x) <= C(f, x), as a certificate for x fixes a variable in each
        disjoint sensitive block, so the search visits points in decreasing
        C(f, x), stops at the first with C(f, x) <= best, and stops each
        packing of the minimal sensitive blocks at x once it reaches C(f, x)."""
        bs = self.s.copy()
        for row in np.flatnonzero(self.s < self.cert).tolist():
            table, certs, best = self.table(row), self.per_point_cert[row], int(self.s[row])
            for i in np.argsort(certs, kind="stable")[::-1].tolist():
                if certs[i] <= best:
                    break
                best = _max_disjoint(_minimal_from_sens(table, i), best, int(certs[i]))
            bs[row] = best
        return bs

    # From the profile: alt, dc, the circuit negation count, and the
    # alternation along each row's witness chain.
    alt = _exact_column(lambda c: c.profile[:, -1])
    dc = _exact_column(lambda c: chains.decrease(c.alt, c.stack[:, -1], c.stack[:, 0]))
    negs = _exact_column(lambda c: per_value(int.bit_length, c.dc))
    witness_alt = _exact_column(lambda c: chains.alternations_along(c.stack, c.witness))

    # From the Moebius coefficients, made here and dropped: the degrees over Z and each Z_m, one scan.
    degrees = _exact_column(lambda c: algebra.degrees(algebra.multilinear_coefficients(c.stack), c.n))
    deg = cached_property(lambda c: c.degrees[:, 0])
    # settled once the degrees are read: at n = 20 their Moebius pass costs more than the kernel
    depends_all = cached_property(
        lambda c: c.settle("degrees" in vars(c) and c.deg == c.n, True, lambda: depends_on_all(c.stack))
    )

    def degm(self, m: int) -> np.ndarray:
        return self.degrees[:, 1 + algebra.MODULI.index(m)]

    # From the Walsh spectrum, made here and dropped: the spectral sums' numerators and the sparsity.
    sums = cached_property(lambda c: algebra.spectral_numerators(algebra.fourier_transform(c.stack), c.n))
    sparsity = cached_property(lambda c: c.sums["sparsity"])


class MeasureContext:
    """The record of one function: a view of row ``row`` of its chunk.

    ``boolfn analyze``, ``Check.run`` and the library functions read it.
    A measure is read by its ``VALUES`` name (:meth:`value`), as the
    record's entry of that whole-chunk column, so each measure is computed
    once per chunk, and only when some reader needs it. A measure above its
    cap reads ``None``. A lone function's record is :func:`measure_report`.
    """

    def __init__(self, chunk: Chunk, row: int) -> None:
        self.chunk, self.row = chunk, row
        self.table, self.n = chunk.table(row), chunk.n

    def value(self, name: str):
        """The record's entry of the ``VALUES`` column ``name``."""
        return self.chunk.values(name)[self.row]

    def fn_id(self) -> str:
        return serialize(self.table)

    def skips(self) -> dict[str, str]:
        caps = {"bs": self.chunk.bs_cap, "C": self.chunk.cert_cap, "DT": self.chunk.dt_cap}
        return {k: f"arity {self.n} above cap {cap}" for k, cap in caps.items() if self.n > cap}

    def per_point(self) -> dict:
        return {"s": self.chunk.per_point_s[self.row].tolist()}

    def witness(self) -> chains.Chain:
        return chains.Chain(self.n, tuple(self.chunk.witness[self.row].tolist()))

    def poly(self) -> algebra.MultilinearPoly:
        """The table's Moebius coefficients, from their kernel run again: the chunk keeps none."""
        return algebra.multilinear_coefficients(self.table)

    def spectrum(self) -> algebra.FourierSpectrum:
        """The table's Walsh spectrum, from its kernel run again."""
        return algebra.fourier_transform(self.table)

    def to_json_dict(self) -> dict:
        """The ``boolfn analyze`` object, without the per-point table."""
        out = {name: _cell(self.value(name)) for name in COLUMNS}
        out["deg_m"] = {str(m): self.value(f"deg_{m}") for m in (3, 4, 5, 6)}
        out["spectral"] = {name: str(self.value(name)) for name in ("l1", "weighted", "weighted2")}
        out["depends_on_all"] = self.value("depends_on_all")
        if self.skips():
            out["skips"] = self.skips()
        return out


def _capped(cap: str, column: Callable[[Chunk], np.ndarray]) -> Callable[[Chunk], list]:
    """An integer column as Python ints, or ``None`` on every row when the
    arity is above the chunk's ``cap``."""
    return lambda c: [None] * len(c) if c.n > getattr(c, cap) else column(c).tolist()


def _over(numerators: Callable[[Chunk], np.ndarray], power: int) -> Callable[[Chunk], list]:
    """A rational column: its numerators over 2**(n * power), as Fractions."""
    return lambda c: [Fraction(v, 1 << (c.n * power)) for v in numerators(c).tolist()]


# The one value schema: each report name and its whole-chunk column of Python
# values (int, Fraction, bool, or None above a cap). The first 14 names are
# the measure-matrix CSV columns, in order, and the scalar fields of the
# analyze JSON; the rest are the deg_m and spectral fields of that JSON and
# the values checks keep.
VALUES: dict[str, Callable[[Chunk], list]] = {
    "fn": lambda c: serialize_rows(c.stack),
    "n": lambda c: [c.n] * len(c),
    "s": lambda c: c.s.tolist(),
    "bs": _capped("bs_cap", lambda c: c.bs),
    "C": _capped("cert_cap", lambda c: c.cert),
    "I": _over(lambda c: c.I_num, 1),
    "alt": lambda c: c.alt.tolist(),
    "dc": lambda c: c.dc.tolist(),
    "DT": _capped("dt_cap", lambda c: c.dt),
    "negs": lambda c: c.negs.tolist(),
    "negs_formula": lambda c: c.dc.tolist(),
    "deg": lambda c: c.deg.tolist(),
    "deg2": lambda c: c.degm(2).tolist(),
    "sparsity": lambda c: c.sparsity.tolist(),
    **{f"deg_{m}": (lambda c, m=m: c.degm(m).tolist()) for m in algebra.MODULI},
    "l1": _over(lambda c: c.sums["l1"], 1),
    "weighted": _over(lambda c: c.sums["weighted"], 1),
    "weighted2": _over(lambda c: c.sums["weighted2"], 2),
    "spectral": _over(lambda c: c.sums["spectral"], 2),
    "sum_sq": lambda c: c.sums["sum_sq"].tolist(),
    "avg_s2": _over(lambda c: c.avg_s2_num, 1),
    "depends_on_all": lambda c: c.depends_all.tolist(),
    "witness_alt": lambda c: c.witness_alt.tolist(),
    "parts": lambda c: c.alt.tolist(),
    "negated": lambda c: c.stack[:, 0].astype(bool).tolist(),
    "c": lambda c: [SPARSITY_EXPONENT] * len(c),
}
COLUMNS = tuple(VALUES)[:14]


def stack_size(n: int) -> int:
    """The most tables of arity n to one stack: those whose cells fit in
    ``CHUNK_CELLS`` (read at each call), and at least one."""
    return max(1, CHUNK_CELLS >> n)


def chunks(tables: Iterable[TruthTable], **caps) -> Iterator[Chunk]:
    """The tables, in order, as chunks with the measure caps ``caps``.

    Consecutive tables of one arity n share a :class:`Chunk` of at most
    ``stack_size(n)`` tables, so every column is computed once per chunk
    rather than once per table. Each chunk stacks its tables' values once,
    and a chunk of one table is a view of its values, with no copy; a
    population decodes its stacks with no tables
    (``verify.Population.stacks``).
    """
    for n, same in itertools.groupby(tables, key=lambda t: t.n):
        while batch := list(itertools.islice(same, stack_size(n))):
            stack = batch[0].values[None] if len(batch) == 1 else np.stack([t.values for t in batch])
            yield Chunk(stack, **caps)


def records(tables: Iterable[TruthTable], **caps) -> Iterator[MeasureContext]:
    """One record per table, in order, each a row of its :func:`chunks` chunk."""
    for chunk in chunks(tables, **caps):
        yield from chunk.records()


def _cell(value):
    """A value as the analyze JSON carries it: exact rationals as text."""
    return str(value) if isinstance(value, Fraction) else value


def measure_report(
    f: BooleanFunction,
    bs_cap: int = BS_CAP_DEFAULT,
    cert_cap: int = CERT_CAP_DEFAULT,
    dt_cap: int = DT_CAP_DEFAULT,
) -> MeasureContext:
    """The record of one function: row 0 of a chunk of one, with the caps;
    a bs, C or DT cap above ``SUBCUBE_MAX_ARITY`` is rejected up front."""
    return Chunk(materialize(f).values[None], bs_cap, cert_cap, dt_cap).record(0)
