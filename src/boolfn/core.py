"""Exact representations of Boolean functions.

Dense truth tables (the value at every one of the 2**n inputs) and lazy
point-evaluation rules, plus the operations everything else builds on:
evaluation, composition, materialization, and text serialization. A lazy
function is evaluated point by point; one built by :func:`compose` also
carries a table rule, so materializing it costs one table of each part and
a few numpy gathers rather than one interpreted call per point.

Conventions used throughout the package:

* An input point is an integer index in ``[0, 2**n)``. Variable ``x_1`` is
  the most significant bit of the index and ``x_n`` the least significant,
  so the bit string ``"101000"`` denotes ``x_1=1, x_2=0, x_3=1, ...`` and
  equals ``int("101000", 2)``.
* ``TruthTable.values[i]`` is f at the point with index ``i``.
* Text form is ``n:HEX`` where HEX packs the 2**n values little-endian by
  input index into exactly ``ceil(2**n / 4)`` hex digits. This module owns
  it: :func:`serialize_rows` writes a stack of tables and
  :func:`packed_rows` reads canonical texts of one arity, and
  :func:`serialize` and :func:`parse` are their one-table cases.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np

__all__ = [
    "CHUNK_CELLS",
    "DEFAULT_DENSE_CAP",
    "DENSE_CAP_ENV",
    "ArityMismatchError",
    "CapExceededError",
    "FormatError",
    "LazyFunction",
    "TruthTable",
    "blocks",
    "compose",
    "dense_cap",
    "depends_on_all",
    "digit_sweep",
    "halves_hold",
    "is_monotone",
    "materialize",
    "packed_rows",
    "parse",
    "parse_corpus",
    "point_index",
    "popcounts",
    "serialize",
    "serialize_rows",
    "table_values",
    "unpack_rows",
]

DEFAULT_DENSE_CAP = 24
DENSE_CAP_ENV = "BOOLFN_DENSE_CAP"
# A chunk stacks at most this many table cells (256 tables at n = 8); a
# table above it is a chunk of one. It also bounds the blocks of
# algebra.spectral_numerators and of digit_sweep, whose low phase has the
# largest l with 9**l <= CHUNK_CELLS digits (5) and runs the butterflies in
# int8, exact up to 6 digits (Walsh entries reach 2**l): so CHUNK_CELLS < 9**7.
CHUNK_CELLS = 1 << 16

_TEXT_RE = re.compile(r"^([0-9]+):([0-9A-Fa-f]+)$")


class FormatError(ValueError):
    """Malformed truth-table text."""


class ArityMismatchError(ValueError):
    """A point's width does not match the function's arity."""


class CapExceededError(ValueError):
    """An operation would materialize a table above the dense cap."""


def dense_cap() -> int:
    """Current dense materialization cap; BOOLFN_DENSE_CAP overrides it."""
    raw = os.environ.get(DENSE_CAP_ENV)
    return int(raw) if raw else DEFAULT_DENSE_CAP


def _check_arity(n: int) -> None:
    """Reject an arity no dense table may have, before anything is allocated."""
    if n < 0:
        raise ValueError("arity must be nonnegative")
    cap = dense_cap()
    if n > cap:
        raise CapExceededError(f"arity {n} exceeds dense cap {cap}")


def popcounts(n: int) -> np.ndarray:
    """Read-only array of Hamming weights for all indices in [0, 2**n)."""
    _check_arity(n)
    pc = np.zeros(1 << n, dtype=np.uint8)
    # The indices in [2**p, 2**(p+1)) are those below 2**p with bit p set.
    for p in range(n):
        np.add(pc[: 1 << p], 1, out=pc[1 << p : 2 << p])
    pc.setflags(write=False)
    return pc


Point = Union[int, str, Sequence[int]]


def point_index(x: Point, n: int) -> int:
    """Normalize a point (index, bit string, or bit sequence) to an index."""
    if isinstance(x, (int, np.integer)):
        i = int(x)
        if not 0 <= i < (1 << n):
            raise ArityMismatchError(f"point {x!r} out of range for arity {n}")
        return i
    if isinstance(x, str):
        if len(x) != n or (n and any(c not in "01" for c in x)):
            raise ArityMismatchError(f"point {x!r} is not an {n}-bit string")
        return int(x, 2) if n else 0
    bits = [int(b) for b in x]
    if len(bits) != n or any(b not in (0, 1) for b in bits):
        raise ArityMismatchError(f"point {x!r} is not an {n}-bit sequence")
    return sum(b << (n - 1 - j) for j, b in enumerate(bits))


class TruthTable:
    """Dense table of a total Boolean function on ``n`` variables.

    Immutable once constructed; the value array is read-only and safe to
    share across workers.
    """

    __slots__ = ("n", "values")

    def __init__(self, n: int, values) -> None:
        _check_arity(n)
        arr = np.array(values, dtype=np.uint8, copy=True).ravel()
        if arr.shape != (1 << n,):
            raise ValueError(f"expected {1 << n} values for arity {n}, got {arr.size}")
        if arr.size and arr.max() > 1:
            raise ValueError("table entries must be bits")
        arr.setflags(write=False)
        self.n = n
        self.values = arr

    @property
    def arity(self) -> int:
        return self.n

    @classmethod
    def from_packed_int(cls, n: int, packed: int) -> "TruthTable":
        """Build from an integer whose bit ``i`` is the value at index ``i``."""
        _check_arity(n)
        if packed < 0 or packed >> (1 << n):
            raise ValueError(f"packed value out of range for arity {n}")
        return cls._row(unpack_rows(n, packed.to_bytes(((1 << n) + 7) // 8, "little"))[0])

    @classmethod
    def _row(cls, values: np.ndarray) -> "TruthTable":
        """The table whose values are ``values`` itself, not a copy: a row
        of a read-only uint8 stack of tables."""
        table = cls.__new__(cls)
        table.n, table.values = values.size.bit_length() - 1, values
        return table

    @classmethod
    def from_evaluator(cls, n: int, fn: Callable[[int], int]) -> "TruthTable":
        return cls(n, [fn(i) & 1 for i in range(1 << n)])

    @classmethod
    def constant(cls, n: int, bit: int) -> "TruthTable":
        return cls(n, np.full(1 << n, bit & 1, dtype=np.uint8))

    def evaluate(self, x: Point) -> int:
        return int(self.values[point_index(x, self.n)])

    def negate(self) -> "TruthTable":
        return TruthTable(self.n, 1 - self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.values, other.values))

    def __hash__(self) -> int:
        return hash((self.n, self.values.tobytes()))

    def __repr__(self) -> str:
        return f"TruthTable({serialize(self)!r})" if self.n <= 6 else f"TruthTable(n={self.n})"


def unpack_rows(n: int, packed) -> np.ndarray:
    """The read-only ``(N, 2**n)`` stack of N packed tables of arity n.

    ``packed`` (bytes, or a uint8 array of ``ceil(2**n / 8)`` columns) holds
    each table's values little-endian by input index in ``ceil(2**n / 8)``
    bytes, one table after the other. Bits past 2**n are dropped.
    """
    size = 1 << n
    raw = np.frombuffer(packed, dtype=np.uint8) if isinstance(packed, bytes) else packed
    rows = np.unpackbits(raw.reshape(-1, (size + 7) // 8), axis=-1, count=size, bitorder="little")
    rows.setflags(write=False)
    return rows


Tables = Union[TruthTable, np.ndarray]


def table_values(f: Tables) -> tuple[int, np.ndarray]:
    """Arity and values of a table, or of an ``(N, 2**n)`` stack of tables.

    The kernels that run once per function work along the last axis and
    take either: one table gets its own value (an int, a bool, a result
    object or a 1-D array), and a stack arrays whose row i is table i's.
    """
    if isinstance(f, TruthTable):
        return f.n, f.values
    return f.shape[-1].bit_length() - 1, f


@dataclass(frozen=True)
class LazyFunction:
    """Arity plus a pure point-evaluation rule.

    Holds compositions too large to tabulate; ``descriptor`` is an optional
    JSON-able summary of how the function was built. ``evaluator`` takes one
    point index, a plain int. ``tabulate``, when set, returns all ``2**arity``
    values at once; :func:`materialize` uses it in place of one ``evaluator``
    call per point. It takes no part in equality or the repr.
    """

    arity: int
    evaluator: Callable[[int], int]
    descriptor: dict | None = None
    tabulate: Callable[[], np.ndarray] | None = field(default=None, compare=False, repr=False)

    @property
    def n(self) -> int:
        return self.arity

    def evaluate(self, x: Point) -> int:
        return int(self.evaluator(point_index(x, self.arity))) & 1


BooleanFunction = Union[TruthTable, LazyFunction]


def compose(f: BooleanFunction, g: BooleanFunction) -> LazyFunction:
    """Block composition: ``f`` applied to ``g`` on m contiguous n-bit blocks.

    Block i of the mn-bit input feeds the i-th argument of ``f``; blocks are
    ordered most-significant first, matching the variable numbering.

    Points are evaluated lazily, one evaluation of ``f`` and m of ``g`` each.
    The table rule materializes ``f`` and ``g`` once (2**m + 2**n part
    evaluations at most) and then needs m numpy gathers, no Python per point.
    """
    m, n = f.arity, g.arity
    if m < 1 or n < 1:
        raise ValueError("composition requires arity >= 1 on both sides")
    mask = (1 << n) - 1
    f_eval = f.evaluate
    g_eval = g.evaluate

    def ev(x: int) -> int:
        y = 0
        for i in range(m):
            block = (x >> ((m - 1 - i) * n)) & mask
            y = (y << 1) | g_eval(block)
        return f_eval(y)

    def table() -> np.ndarray:
        inner = materialize(g).values
        # t[r] tabulates f, its leading arguments fixed to the bits of r, over
        # the trailing blocks expanded so far. Each step expands the last
        # argument left: the value of g on its block picks the row for 0 or 1.
        t = materialize(f).values.reshape(1 << m, 1)
        for _ in range(m):
            t = t.reshape(-1, 2, t.shape[1])[:, inner, :].reshape(t.shape[0] // 2, -1)
        return t.ravel()

    desc = {"kind": "compose", "outer": describe(f), "inner": describe(g)}
    return LazyFunction(m * n, ev, desc, table)


def describe(f: BooleanFunction) -> dict:
    """JSON-able descriptor of a function (inline table text when dense)."""
    if isinstance(f, TruthTable):
        return {"kind": "table", "text": serialize(f)}
    return f.descriptor or {"kind": "opaque", "arity": f.arity}


def materialize(f: BooleanFunction) -> TruthTable:
    """Tabulate a lazy function (identity on dense tables).

    The arity is checked first, against the dense cap. A function with a
    table rule (every composition) is tabulated by it; any other is
    evaluated at every point in turn.
    """
    if isinstance(f, TruthTable):
        return f
    _check_arity(f.arity)
    if f.tabulate is not None:
        return TruthTable(f.arity, f.tabulate())
    return TruthTable.from_evaluator(f.arity, f.evaluator)


def digit_sweep(
    step: Callable, n: int, a: np.ndarray, radix: int = 2, base: int = 0, dtype=None, jacobi: bool = False,
    int16_passes: int = 0,
) -> np.ndarray:
    """``a`` after ``step`` has run once on each digit of its cell index.

    ``a`` is a table or a stack of them, whose cells have n digits in base
    ``radix``. ``step(cells)`` gets the cells viewed along one digit as
    ``(outer, radix, inner)`` and returns them with that digit in base
    ``base`` (``radix`` if not given), in place when the two agree. With
    ``jacobi``, ``step(cells, before)`` also gets the same view of ``a`` as
    it was before the sweep. The result is in ``dtype`` (``a``'s if not
    given); if neither base nor dtype changes, it is ``a``, updated in place.

    The low digits, whose passes on ``a`` would have inner extents of a few
    cells, run first, in ``a``'s own dtype, on transposed copies with cells
    ``(low, rows, high)`` (:func:`_low_blocks`); a block's own copy is its
    ``before``. At any stack size they are the last l digits, l the largest
    with 9**l <= ``CHUNK_CELLS`` (5), or all n if fewer. The cells then
    move back, widened, and the high digits run on the natural layout.
    If the entries stay within int16 for ``int16_passes`` passes (``base``
    equal to ``radix``, ``dtype`` wider), the lowest high digits up to that
    pass run in int16, in the first half of the result's own buffer, which
    :func:`_widen` then widens in place.
    """

    def passes(cells, before, digits, tail):
        for j in range(digits):
            shape = (-1, radix, radix ** (digits - j - 1) * tail)
            cells = step(*(x.reshape(shape) for x in (cells, before) if x is not None))
        return cells

    base, dtype = base or radix, dtype or a.dtype
    lead, rows = a.shape[:-1], len(a) if a.ndim > 1 else 1
    if not rows:  # an empty stack
        return a.astype(dtype, copy=False).reshape(*lead, base**n)
    low = _low_digits(n)
    mid = max(0, min(n, int16_passes) - low)
    before = a.copy() if jacobi and low < n else None
    cells = a.reshape(rows, -1, radix**low)
    if mid:
        wide = np.empty(a.size, dtype)
        a = wide.view(np.int16)[: a.size].reshape(cells.shape)
    else:
        in_place = base == radix and dtype == a.dtype
        a = cells if in_place else np.empty((rows, cells.shape[1], base**low), dtype)
    for part, block in _low_blocks(cells, base**low):
        block = passes(block, block.copy() if jacobi else None, low, block[0].size)
        a[:, part] = block.reshape(base**low, rows, -1).transpose(1, 2, 0)
    if mid:
        _widen(wide, passes(a, before, mid, base**low).reshape(-1))
        a = wide
    return passes(a.astype(dtype, copy=False), before, n - low - mid, radix**mid * base**low).reshape(*lead, -1)


def _widen(wide: np.ndarray, narrow: np.ndarray) -> None:
    """Cast ``narrow``, the first half (or quarter) of the bytes of ``wide``,
    into ``wide``. numpy does not see the overlap of a casting assignment, so
    blocks of ``CHUNK_CELLS`` cells go top down, each onto cells already read,
    and block 0, which lands on itself, is copied first."""
    first = narrow[:CHUNK_CELLS].copy()
    for start in reversed(range(CHUNK_CELLS, len(narrow), CHUNK_CELLS)):
        wide[start : start + CHUNK_CELLS] = narrow[start : start + CHUNK_CELLS]
    wide[: len(first)] = first


def _low_digits(n: int) -> int:
    """How many of n digits :func:`digit_sweep` runs on transposed blocks."""
    return min(n, max(l for l in range(8) if 9**l <= CHUNK_CELLS))


def blocks(count: int, size: int, budget: int) -> Iterator[slice]:
    """Consecutive slices of ``count`` items of ``size`` cells each: as many
    items to a slice as ``budget`` cells hold, and at least one."""
    width = max(1, budget // max(1, size))
    return (slice(start, min(start + width, count)) for start in range(0, count, width))


def _low_blocks(cells: np.ndarray, size: int) -> Iterator[tuple[slice, np.ndarray]]:
    """The ``(rows, high, low)`` cells as C-contiguous ``(low, rows, width)``
    copies of consecutive high cells, each with its slice of them, in
    :func:`blocks` of ``CHUNK_CELLS`` cells of ``size`` per row; copies even
    where the transpose is contiguous, as the sweeps write them and their
    input may be a read-only view of a table."""
    for part in blocks(cells.shape[1], len(cells) * size, CHUNK_CELLS):
        yield part, cells[:, part].transpose(2, 0, 1).copy()


def halves_hold(rows: np.ndarray, n: int, holds: Callable) -> np.ndarray:
    """Whether ``holds`` holds across each variable, for each row of the
    ``(N, 2**n)`` stack ``rows``: an ``(n, N)`` bool array, whose entry
    ``[j, r]`` is True iff the elementwise ``holds(lo, hi)`` is True at
    every pair of cells of row r that differ only in x_(j+1), ``lo`` the
    cell with x_(j+1) = 0 and ``hi`` the one with x_(j+1) = 1."""
    out = np.ones((n, len(rows)), dtype=bool)
    low = _low_digits(n)
    for _, block in _low_blocks(rows.reshape(len(rows), 1 << (n - low), 1 << low), 1 << low):
        # the low cells first, a whole (rows, high) plane per step, so numpy's loops are long
        cells = block.reshape(1 << low, -1)
        hold = np.empty((low, cells.shape[1]), dtype=bool)
        for j in range(low):
            halves = cells.reshape(1 << j, 2, -1)
            np.logical_and.reduce(holds(halves[:, 0], halves[:, 1]).reshape(1 << (low - 1), -1), out=hold[j])
        out[n - low :] &= hold.reshape(low, *block.shape[1:]).all(axis=-1)
    for j in range(n - low):
        halves = rows.reshape(len(rows), 1 << j, 2, 1 << (n - j - 1))
        out[j] = holds(halves[:, :, 0], halves[:, :, 1]).all(axis=(1, 2))
    return out


def depends_on_all(f: Tables):
    """True iff every variable has some input where flipping it flips f; for
    an ``(N, 2**n)`` stack of tables, that flag of every row."""
    n, v = table_values(f)
    out = ~halves_hold(v.reshape(-1, 1 << n), n, np.equal).any(axis=0)
    out = out.reshape(v.shape[:-1])
    return bool(out) if out.ndim == 0 else out


def is_monotone(f: TruthTable) -> bool:
    """True iff no single-bit increase of the input ever decreases f."""
    return bool(halves_hold(f.values[None], f.n, np.less_equal).all())


def serialize(f: TruthTable) -> str:
    """Canonical text form ``n:HEX`` of one table (:func:`serialize_rows`)."""
    return serialize_rows(f.values[None])[0]


def serialize_rows(rows: np.ndarray) -> list[str]:
    """The canonical text of each row of an ``(N, 2**n)`` stack: ``n:HEX``,
    the row's values packed little-endian by index, the packed bytes in
    reverse order as hex, trimmed to ceil(2**n / 4) digits. The rows share
    one hex string, of which a row keeps its last digits."""
    n = table_values(rows)[0]
    packed = np.packbits(rows, axis=-1, bitorder="little")[:, ::-1]
    text, width, digits = packed.tobytes().hex().upper(), 2 * packed.shape[1], ((1 << n) + 3) // 4
    return [f"{n}:{text[end - digits : end]}" for end in range(width, len(text) + 1, width)]


def packed_rows(n: int, texts: Sequence[str]) -> np.ndarray | None:
    """The ``(N, ceil(2**n / 8))`` packed rows of ``texts``, as
    :func:`unpack_rows` reads them, if each is canonical text of arity n at
    most the dense cap: the arity, a colon and ceil(2**n / 4) hex digits
    that leave the bits past 2**n clear; else ``None``.

    The texts are joined one a line, and each column of a line break or a
    prefix character must hold it throughout; it is then blanked to a
    space. ``bytes.fromhex`` skips whitespace between bytes and rejects any
    other character but a hex digit, so the digits are canonical if they
    give each text all its bytes: a line break or a space inside a text
    takes the place of a digit.
    """
    if n > dense_cap():
        return None
    prefix, digits = f"{n}:", ((1 << n) + 3) // 4
    line, count = len(prefix) + digits + 1, len(texts)
    try:  # ValueError: a character that is not ASCII, or not a hex digit or whitespace
        text = bytearray("\n".join(texts) + "\n", "ascii")
        for j, char in [(line - 1, "\n"), *enumerate(prefix)]:
            if text[j::line] != (char * count).encode():
                return None
            text[j::line] = b" " * count
        if digits % 2:  # a lone digit is padded to a byte
            text[len(prefix) - 1 :: line] = b"0" * count
        raw = bytes.fromhex(text.decode())
    except ValueError:
        return None
    if len(raw) != count * ((digits + 1) // 2) or (n < 2 and max(raw) >> (1 << n)):  # padding bits set
        return None
    # each text's bytes come most significant first
    return np.frombuffer(raw, dtype=np.uint8).reshape(count, -1)[:, ::-1]


def parse(text: str) -> TruthTable:
    """Inverse of :func:`serialize`; rejects malformed input with a
    :class:`FormatError`, and an arity above the dense cap with a
    :class:`CapExceededError`. The hex digits may be lowercase, and the
    text padded with whitespace."""
    m = _TEXT_RE.match(text.strip())
    if not m:
        raise FormatError(f"malformed table text: {text!r}")
    n, hexpart = int(m.group(1)), m.group(2)
    packed = packed_rows(n, [f"{n}:{hexpart}"])
    if packed is None:  # the cap, the digit count or the padding bits
        _check_arity(n)
        digits = ((1 << n) + 3) // 4
        if len(hexpart) != digits:
            raise FormatError(f"expected {digits} hex digits for arity {n}, got {len(hexpart)}")
        raise FormatError(f"padding bits set in {text!r}")
    return TruthTable._row(unpack_rows(n, packed)[0])


def parse_corpus(lines: Iterable[str]) -> Iterator[TruthTable]:
    """Parse a corpus: one table per line, blank lines and # comments skipped."""
    for line in lines:
        body = line.split("#", 1)[0].strip()
        if body:
            yield parse(body)
