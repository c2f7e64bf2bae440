"""Independent brute-force oracles used to pin down derived expected values.

Everything here recomputes measures from their definitions with none of the
library's shortcuts (no DP, no minimal-block reduction, no memoization), so
the tests can check the fast paths against first principles.
"""

from itertools import combinations, permutations, product
from typing import Mapping

import numpy as np

from boolfn.core import TruthTable


def restrict(f: TruthTable, fixed: Mapping[int, int]) -> TruthTable:
    """Subfunction with the variables that ``fixed`` maps (1-based) set to
    their bits. Surviving variables are renumbered in increasing original
    order."""
    n = f.n
    for j in fixed:
        if not 1 <= j <= n:
            raise ValueError(f"restriction index {j} out of range for arity {n}")
    arr = f.values
    m = n
    # Fix highest-numbered variables first so smaller indices stay valid.
    for j in sorted(fixed, reverse=True):
        b = fixed[j] & 1
        arr = arr.reshape(1 << (j - 1), 2, 1 << (m - j))[:, b, :].ravel()
        m -= 1
    return TruthTable(m, arr)


def bit(table: TruthTable, i: int) -> int:
    return int(table.values[i])


def brute_sensitivity_at(table: TruthTable, x: int) -> int:
    n = table.n
    return sum(bit(table, x ^ (1 << p)) != bit(table, x) for p in range(n))


def brute_sensitivity(table: TruthTable) -> int:
    return max(brute_sensitivity_at(table, x) for x in range(1 << table.n))


def brute_influence(table: TruthTable):
    from fractions import Fraction

    total = sum(brute_sensitivity_at(table, x) for x in range(1 << table.n))
    return Fraction(total, 1 << table.n)


def brute_block_sensitivity_at(table: TruthTable, x: int) -> int:
    """Max disjoint sensitive family over all block subsets, by recursion."""
    n = table.n
    fx = bit(table, x)
    sensitive = [b for b in range(1, 1 << n) if bit(table, x ^ b) != fx]

    def best(blocks, used):
        top = 0
        for i, b in enumerate(blocks):
            if not b & used:
                top = max(top, 1 + best(blocks[i + 1 :], used | b))
        return top

    return best(sensitive, 0)


def brute_block_sensitivity(table: TruthTable) -> int:
    return max(brute_block_sensitivity_at(table, x) for x in range(1 << table.n))


def brute_certificate_at(table: TruthTable, x: int) -> int:
    """Smallest forcing subset, checked against every completion."""
    n = table.n
    fx = bit(table, x)
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            mask = 0
            for p in combo:
                mask |= 1 << p
            forced = True
            for y in range(1 << n):
                if (y & mask) == (x & mask) and bit(table, y) != fx:
                    forced = False
                    break
            if forced:
                return size
    return n


def brute_certificate(table: TruthTable) -> int:
    return max(brute_certificate_at(table, x) for x in range(1 << table.n))


def brute_subcube_table(table: TruthTable) -> list:
    """f's value on every subcube, or 2 where f varies, one cell at a time.

    Cell c's base-3 digits, most significant first, fix x_1 ... x_n to 0 or
    1 or leave them free (2); f is read on every point of the subcube.
    """
    n = table.n
    cells = []
    for digits in product((0, 1, 2), repeat=n):
        seen = {
            bit(table, x)
            for x in range(1 << n)
            if all(d == 2 or (x >> (n - 1 - j)) & 1 == d for j, d in enumerate(digits))
        }
        cells.append(seen.pop() if len(seen) == 1 else 2)
    return cells


def chain_points(order, n):
    x = 0
    pts = [0]
    for j in order:
        x |= 1 << (n - j)
        pts.append(x)
    return pts


def brute_alternation(table: TruthTable) -> int:
    """Max alternation over every one of the n! maximal chains."""
    n = table.n
    best = 0
    for order in permutations(range(1, n + 1)):
        vals = [bit(table, x) for x in chain_points(order, n)]
        best = max(best, sum(a != b for a, b in zip(vals, vals[1:])))
    return best


def brute_decrease(table: TruthTable) -> int:
    n = table.n
    best = 0
    for order in permutations(range(1, n + 1)):
        vals = [bit(table, x) for x in chain_points(order, n)]
        best = max(best, sum(a == 1 and b == 0 for a, b in zip(vals, vals[1:])))
    return best


def brute_decision_tree_depth(table: TruthTable) -> int:
    """Plain min-max recursion over every variable, no memo, no pruning."""
    vals = table.values
    if all(v == vals[0] for v in vals):
        return 0
    n = table.n

    def rec(t: TruthTable) -> int:
        v = t.values
        if all(x == v[0] for x in v):
            return 0
        return 1 + min(
            max(rec(restrict(t, {j: 0})), rec(restrict(t, {j: 1})))
            for j in range(1, t.n + 1)
        )

    return rec(table)


def brute_mobius(table: TruthTable, modulus=None) -> dict:
    """Coefficient of each variable subset straight from the summation."""
    n = table.n
    coeffs = {}
    for s_vars in _all_subsets(n):
        total = 0
        for t_vars in _subsets_of(s_vars):
            idx = 0
            for j in t_vars:
                idx |= 1 << (n - j)
            sign = -1 if (len(s_vars) - len(t_vars)) % 2 else 1
            total += sign * bit(table, idx)
        if modulus is not None:
            total %= modulus
        coeffs[s_vars] = total
    return coeffs


def zeta(coeffs, n: int) -> np.ndarray:
    """The values at every 0/1 point of the multilinear polynomial with
    coefficients ``coeffs``: the sum of c_T over the subsets T of each point
    (the zeta transform, the inverse of the Moebius transform)."""
    values = np.array(coeffs, dtype=np.int64)
    for p in range(n):
        halves = values.reshape(-1, 2, 1 << p)
        halves[:, 1] += halves[:, 0]
    return values


def moebius_int64(values: np.ndarray, n: int) -> np.ndarray:
    """The Moebius transform of a table's values, or of each row of a stack,
    as a one-layout loop in int64: every butterfly pass on the natural cell
    order."""
    a = values.astype(np.int64)
    for p in range(n):
        shaped = a.reshape(-1, 2, 1 << p)
        np.subtract(shaped[:, 1, :], shaped[:, 0, :], out=shaped[:, 1, :])
    return a


def walsh_int64(values: np.ndarray, n: int) -> np.ndarray:
    """The Walsh transform of 1 - 2f, as :func:`moebius_int64` gives the
    Moebius one; each pass ping-pongs between two buffers."""
    a = np.subtract(1, 2 * values, dtype=np.int64)
    b = np.empty_like(a)
    for _ in range(n):
        top, out = a.reshape(-1, 2, 1 << (n - 1)), b.reshape(-1, 1 << (n - 1), 2)
        np.add(top[:, 0], top[:, 1], out=out[..., 0])
        np.subtract(top[:, 0], top[:, 1], out=out[..., 1])
        a, b = b, a
    return a


def packed_int(table: TruthTable) -> int:
    """The table's values packed little-endian by input index into one integer."""
    return int.from_bytes(np.packbits(table.values, bitorder="little").tobytes(), "little")


def brute_degree(table: TruthTable, modulus=None) -> int:
    coeffs = brute_mobius(table, modulus)
    return max((len(s) for s, c in coeffs.items() if c != 0), default=0)


def brute_fourier_scaled(table: TruthTable) -> dict:
    """2**n times each coefficient of 1 - 2f, from the defining sum."""
    n = table.n
    out = {}
    for s_vars in _all_subsets(n):
        total = 0
        for x in range(1 << n):
            chi = 1
            for j in s_vars:
                if x & (1 << (n - j)):
                    chi = -chi
            total += (1 - 2 * bit(table, x)) * chi
        out[s_vars] = total
    return out


def brute_monotone(table: TruthTable) -> bool:
    n = table.n
    for x in range(1 << n):
        for y in range(1 << n):
            if x & y == x and bit(table, x) > bit(table, y):
                return False
    return True


def _all_subsets(n):
    out = []
    for mask in range(1 << n):
        out.append(tuple(j for j in range(1, n + 1) if mask & (1 << (n - j))))
    return out


def _subsets_of(vars_):
    vars_ = tuple(vars_)
    for mask in range(1 << len(vars_)):
        yield tuple(v for i, v in enumerate(vars_) if mask & (1 << i))
