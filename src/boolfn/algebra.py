"""Exact polynomial and Fourier algebra on dense truth tables.

Multilinear coefficients over the integers, the degrees they induce over Z
and over each Z_m of ``MODULI`` (one scan, :func:`degrees`) or any other
m (:func:`degree`), the integer-scaled Walsh spectrum of the +/-1-valued
version of a function, sparsity, and the weighted spectral sums. All
arithmetic is exact: the spectrum carries numerators at denominator 2**n
and rationals appear only at reporting time.

The Moebius and Walsh transforms take one table or an ``(N, 2**n)`` stack
of same-arity tables and transform every row in one :func:`core.digit_sweep`
of butterflies on the 0/1 values, read as int8 with no copy; the spectrum
of 1 - 2f is then 2**n [S = {}] - 2 W. After p passes a Walsh entry W is
within 2**p and a Moebius entry within 2**(p - 1), so the passes run in
int8 on the last five variables' blocks, in int16 up to pass 14 (Walsh) or
15 (Moebius), and then in ``_exact_dtype(n)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Iterator, Optional

import numpy as np

from .core import CHUNK_CELLS, Tables, TruthTable, blocks, digit_sweep, popcounts, table_values

__all__ = [
    "MODULI",
    "FourierSpectrum",
    "MultilinearPoly",
    "SpectralSums",
    "degree",
    "degrees",
    "fourier_transform",
    "influence_from_spectrum",
    "multilinear_coefficients",
    "sparsity",
    "spectral_numerators",
    "spectral_sums",
    "subset_of_index",
]

def subset_of_index(t: int, n: int) -> tuple[int, ...]:
    """Variable subset named by a coefficient index (x_1 = most significant)."""
    return tuple(j for j in range(1, n + 1) if t & (1 << (n - j)))


def _index_of_subset(vars_: Iterator[int], n: int) -> int:
    t = 0
    for j in vars_:
        if not 1 <= j <= n:
            raise ValueError(f"variable {j} out of range for arity {n}")
        t |= 1 << (n - j)
    return t


def _moebius_step(cells: np.ndarray) -> np.ndarray:
    """hi - lo into hi along one digit. After a sweep of this step, c_S =
    sum over T <= S of (-1)**|S - T| f(T); after p passes, a sum of 2**p
    such terms, half of either sign, so within 2**(p - 1)."""
    np.subtract(cells[:, 1], cells[:, 0], out=cells[:, 1])
    return cells


def _walsh_step(cells: np.ndarray) -> np.ndarray:
    """(lo + hi, (lo + hi) - 2 * hi) along one digit, in place with no
    temporary. After pass p no entry of 0/1 values is above 2**p in size,
    nor is any intermediate: lo + hi is the new lo, and 2 * hi is twice an
    entry of pass p - 1. So int16 holds passes 1 to 14 exactly."""
    lo, hi = cells[:, 0], cells[:, 1]
    lo += hi
    hi *= -2
    hi += lo
    return cells


def _exact_dtype(n: int):
    """The Moebius and Walsh entries' dtype at arity n: they stay within
    2**n, so int32 up to ``INT64_EXACT_MAX_ARITY`` and int64 above."""
    return np.int32 if n <= INT64_EXACT_MAX_ARITY else np.int64


@dataclass(frozen=True)
class MultilinearPoly:
    """Exact coefficients of one table's unique multilinear representation.

    ``coeffs[t]`` is the coefficient of the monomial over the variables in
    ``subset_of_index(t, n)``; a stack's coefficients are a plain array.
    """

    n: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if self.coeffs.shape != (1 << self.n,):
            raise ValueError(f"one table's coefficients have shape ({1 << self.n},), not {self.coeffs.shape}")

    def coefficient(self, vars_) -> int:
        return int(self.coeffs[_index_of_subset(iter(vars_), self.n)])

    def items(self) -> Iterator[tuple[tuple[int, ...], int]]:
        for t in np.nonzero(self.coeffs)[0]:
            yield subset_of_index(int(t), self.n), int(self.coeffs[t])

    def to_json_dict(self) -> dict:
        nz = np.nonzero(self.coeffs)[0]
        return {str(int(t)): int(self.coeffs[t]) for t in nz}


def multilinear_coefficients(f: Tables) -> MultilinearPoly | np.ndarray:
    """Moebius transform over Z of one table, or the read-only ``(N, 2**n)``
    coefficient array of a stack; one pass serves Z and every Z_m.

    The zeta matrix is unipotent, so the canonical multilinear coefficients
    reduced mod m are the unique total-agreement representation over Z_m.
    """
    n, values = table_values(f)
    coeffs = digit_sweep(_moebius_step, n, values.view(np.int8), dtype=_exact_dtype(n), int16_passes=15)
    coeffs.setflags(write=False)
    return MultilinearPoly(n, coeffs) if values.ndim == 1 else coeffs


def degree(f: TruthTable, m: Optional[int] = None) -> int:
    """Degree of the multilinear representation over Z, or over Z_m for
    ``m`` >= 2: the degree over Z of the coefficients reduced mod m, block
    by block (:func:`core.blocks`), into uint8 or uint16 where m allows.
    Every coefficient is within 2**(n - 1) (1 at n = 0), so an m above that
    divides a coefficient only if it is 0: the coefficients are then read
    as they are, unreduced."""
    if m is not None and (m := int(m)) < 2:
        raise ValueError("modulus must be >= 2")
    coeffs = multilinear_coefficients(f).coeffs
    if m is not None and m <= 1 << max(f.n - 1, 0):
        residues = np.empty(coeffs.shape, min(coeffs.dtype, np.min_scalar_type(m - 1), key=lambda t: t.itemsize))
        for part in blocks(coeffs.size, 1, CHUNK_CELLS):
            np.remainder(coeffs[part], m, out=residues[part], casting="unsafe")
        coeffs = residues
    return int(degrees(coeffs, f.n)[0])


def _levels_from_top(n: int) -> Iterator[np.ndarray]:
    """The indices of popcount n, n - 1, ..., 1, as the complements of those
    of popcount 0, 1, ...: x with lowest set bit t (t = n for x = 0) makes
    x + 2**b of the next popcount for every b < t, so each index once."""
    level, low = np.zeros(1, dtype=np.int64), np.full(1, n)
    for _ in range(n):
        yield level ^ ((1 << n) - 1)
        ends = np.cumsum(low)
        b = np.arange(ends[-1]) - np.repeat(ends - low, low)
        level, low = np.repeat(level, low) | (1 << b), b


# The moduli m of the deg_m that :func:`degrees` gives after the degree over Z,
# and per residue below their lcm, bit i + 1 set iff MODULI[i] does not divide it.
MODULI = (2, 3, 4, 5, 6)
_RESIDUE_BITS = sum((np.arange(lcm(*MODULI)) % m != 0).astype(np.uint8) << i for i, m in enumerate(MODULI, 1))
_BITS = np.arange(1 + len(MODULI), dtype=np.uint8)


def _nonzero_bits(c: np.ndarray) -> np.ndarray:
    """Per coefficient, bit 0 set iff it is nonzero and bit i + 1 iff ``MODULI[i]`` does not divide it."""
    residue = c - c // len(_RESIDUE_BITS) * len(_RESIDUE_BITS)  # a floor division is far faster than %
    return _RESIDUE_BITS.take(residue) | (c != 0)


def degrees(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Of every coefficient row (along the last axis), the degree over Z and
    over each Z_m of ``MODULI``, the largest monomial whose coefficient is
    nonzero (mod m), along a new last axis in that order, as uint8.

    The popcount levels are scanned from n down, each coefficient read once
    for all six as a bit mask (:func:`_nonzero_bits`), until a row has all
    six. Before the scan would read 1/32 of all the coefficients, the open
    rows take a full pass instead: per degree still open, the largest
    popcount (``popcounts(n)``, built here) where its bit is set, in
    :func:`core.blocks` of the open rows' columns, of ``CHUNK_CELLS`` cells.
    """
    rows = coeffs.reshape(-1, 1 << n)
    deg = np.zeros((len(rows), len(_BITS)), np.uint8)
    todo, found, budget = np.arange(len(rows)), np.zeros(len(rows), np.uint8), rows.size >> 5
    levels = _levels_from_top(n)
    for w in range(n, 0, -1):
        budget -= todo.size * comb(n, w)
        if budget < 0:  # a block's masks transposed, so each max is over rows of them
            weights = popcounts(n)
            open_bits = np.flatnonzero((np.bitwise_and.reduce(found) >> _BITS & 1) == 0).tolist()
            for part in blocks(1 << n, todo.size, CHUNK_CELLS):
                block = rows[:, part] if todo.size == len(rows) else rows[todo, part]  # no gather if all are open
                bits = _nonzero_bits(np.ascontiguousarray(block.T))
                for b in open_bits:
                    deg[todo, b] = np.maximum(deg[todo, b], ((bits >> b & 1) * weights[part, None]).max(axis=0))
            break
        hit = np.bitwise_or.reduce(_nonzero_bits(rows[todo[:, None], next(levels)]), axis=-1)
        deg[todo] += ((hit & ~found)[:, None] >> _BITS & 1) * np.uint8(w)
        found |= hit
        keep = found != (1 << len(_BITS)) - 1
        todo, found = todo[keep], found[keep]
        if not todo.size:
            break
    return deg.reshape(*coeffs.shape[:-1], len(_BITS))


@dataclass(frozen=True)
class FourierSpectrum:
    """Integer-scaled spectrum of one table's 1 - 2f: ``scaled[t]`` equals
    2**n * fhat(S).

    Index convention matches :class:`MultilinearPoly`; the true coefficient
    of the character on subset S is ``scaled[t] / 2**n``.
    """

    n: int
    scaled: np.ndarray

    def __post_init__(self) -> None:
        if self.scaled.shape != (1 << self.n,):
            raise ValueError(f"one table's spectrum has shape ({1 << self.n},), not {self.scaled.shape}")

    def coefficient(self, vars_) -> Fraction:
        return Fraction(int(self.scaled[_index_of_subset(iter(vars_), self.n)]), 1 << self.n)

    def support(self) -> Iterator[tuple[tuple[int, ...], int]]:
        for t in np.nonzero(self.scaled)[0]:
            yield subset_of_index(int(t), self.n), int(self.scaled[t])

    def sparsity(self) -> int:
        return int(np.count_nonzero(self.scaled))

    def csv_rows(self) -> Iterator[list]:
        """CSV export: header then one (subset-mask, scaled-coefficient) row
        per nonzero entry; the true coefficient is scaled / 2**n."""
        yield ["subset-mask", "scaled-coefficient"]
        for t in np.nonzero(self.scaled)[0]:
            yield [int(t), int(self.scaled[t])]


def fourier_transform(f: Tables) -> FourierSpectrum | np.ndarray:
    """Exact integer Walsh transform of the +/-1 value vector 1 - 2f of one
    table, or the read-only ``(N, 2**n)`` spectrum array of a stack: the
    transform W of the 0/1 values, mapped in place to 2**n [S = {}] - 2 W."""
    n, values = table_values(f)
    scaled = digit_sweep(_walsh_step, n, values.view(np.int8), dtype=_exact_dtype(n), int16_passes=14)
    scaled *= -2
    scaled[..., 0] += 1 << n
    scaled.setflags(write=False)
    return FourierSpectrum(n, scaled) if values.ndim == 1 else scaled


def sparsity(f: TruthTable) -> int:
    """Number of nonzero spectrum entries of 1 - 2f."""
    return fourier_transform(f).sparsity()


# Exact integer columns and sums are int64 up to this arity and Python ints
# above it. Parseval bounds every spectral sum by n**2 * 4**n, below 2**63 up
# to n = 26, but the check formulas multiply measures up to (n + 1)**2 * n *
# 4**n (alt**2 * n against I**2, both scaled by 4**n), which passes 2**63 at
# n = 25, so the tighter bound decides for both.
INT64_EXACT_MAX_ARITY = 24


def exact_terms(a: np.ndarray, n: int) -> np.ndarray:
    """``a`` as exact integers for arity n: int64 (``a`` itself, if it is
    int64) up to ``INT64_EXACT_MAX_ARITY``, Python ints above."""
    return a.astype(np.int64 if n <= INT64_EXACT_MAX_ARITY else object, copy=False)


@dataclass(frozen=True)
class SpectralSums:
    """Exact rationals: sum |fhat|, sum |fhat||S|, and sum |S|^2 fhat^2."""

    l1: Fraction
    weighted: Fraction
    weighted2: Fraction


def spectral_numerators(scaled: np.ndarray, n: int) -> dict[str, np.ndarray]:
    """The ``sparsity`` (nonzero count) and the exact numerators of the
    spectral sums over S, along the last axis of a spectrum or a stack, with
    the weight vector |S|, ``popcounts(n)``. Over 2**n: ``l1``, sum
    |scaled[S]|, and ``weighted``, sum |scaled[S]| |S|. Over 4**n: sum
    scaled[S]**2 times |S|**2 (``weighted2``), |S| (``spectral``, the
    influence) or 1 (``sum_sq``, 4**n by Parseval).

    The columns go in :func:`core.blocks` of ``CHUNK_CELLS`` cells, whose
    sums are added up per row, so no full-size copy of the spectrum or of
    the weights is made. The sums stay in integers, as weighted2 passes
    2**53 at n = 23."""
    weights = popcounts(n)
    rows = scaled.reshape(-1, 1 << n)
    sums = dict.fromkeys(("l1", "weighted", "sum_sq", "weighted2", "spectral", "sparsity"), 0)
    for part in blocks(1 << n, len(rows), CHUNK_CELLS):
        block = _block_numerators(rows[:, part], weights[part], n)
        for key in sums:
            sums[key] += block[key]
    return {key: total.reshape(scaled.shape[:-1]) for key, total in sums.items()}


def _block_numerators(part: np.ndarray, weights: np.ndarray, n: int) -> dict[str, np.ndarray]:
    """The five sums and the nonzero count of a block of spectrum columns,
    from one ``abs`` (taken straight into the exact dtype), one square and
    one product. The weights are cast to that dtype in the small buffers of
    the in-place product and of ``einsum``, never as a block-sized copy."""
    a = np.abs(part, dtype=np.int64) if n <= INT64_EXACT_MAX_ARITY else np.abs(exact_terms(part, n))
    dot = lambda x: np.einsum("...i,i->...", x, weights, dtype=a.dtype)
    sums = {"l1": a.sum(axis=-1), "weighted": dot(a), "sparsity": np.count_nonzero(part, axis=-1).astype(a.dtype)}
    a *= a
    sums["sum_sq"] = a.sum(axis=-1)
    a *= weights
    return {**sums, "weighted2": dot(a), "spectral": a.sum(axis=-1)}


def spectral_sums(f: TruthTable) -> SpectralSums:
    return spectral_sums_of(fourier_transform(f))


def spectral_sums_of(spec: FourierSpectrum) -> SpectralSums:
    nums, denom = spectral_numerators(spec.scaled, spec.n), 1 << spec.n
    l1, weighted, weighted2 = (int(nums[k]) for k in ("l1", "weighted", "weighted2"))
    return SpectralSums(Fraction(l1, denom), Fraction(weighted, denom), Fraction(weighted2, denom**2))


def influence_from_spectrum(spec: FourierSpectrum) -> Fraction:
    """Influence via the spectral identity sum |S| fhat(S)^2."""
    return Fraction(int(spectral_numerators(spec.scaled, spec.n)["spectral"]), 1 << (2 * spec.n))
