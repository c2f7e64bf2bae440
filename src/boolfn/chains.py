"""Maximal hypercube chains and the constructive chain procedures.

A chain walks from the all-zeros point to the all-ones point adding one bit
per step, so it is exactly a permutation of the variables. This module holds
the chain object, the level-by-level longest-alternation DP with witness
extraction, the recursive full-tree witness chain, the glued chain for block
compositions, and the XOR-of-monotone decomposition built on the same DP.

The DP computes only the alternation profile A, for one table or for a
stack of same-arity tables at once. A path to x changes value an odd
number of times iff g(x) = f(x) xor f(0^n) is 1, so A(x) = g(x) mod 2 and
A(y) + [f(y) != f(x)] is A(y) rounded up to the parity of g(x). Rounding
up is monotone, so A(x) is the max of A over x's predecessors, rounded up.
The decrease profile D needs no second DP: along every increasing path
from 0^n to x, rises - drops = f(x) - f(0^n), so the path with the most
changes also has the most drops, and D = (A - f + f(0^n)) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from .core import (
    ArityMismatchError,
    BooleanFunction,
    Tables,
    TruthTable,
    materialize,
    popcounts,
    table_values,
)
from .families import DecisionTreeShape

__all__ = [
    "Chain",
    "alternation_along",
    "alternations_along",
    "alternation_profile",
    "decrease",
    "gap_family_chain",
    "glued_composition_chain",
    "max_alternation_witness",
    "monotone_decomposition",
    "witness_orders",
]


@dataclass(frozen=True)
class Chain:
    """Maximal increasing path 0^n -> 1^n stored as a permutation of [n].

    Point i of the induced sequence has exactly the variables
    ``order[0..i-1]`` set.
    """

    arity: int
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        # an int, not a bool or a float equal to one, as points() shifts by it
        if not all(type(j) is int for j in self.order) or sorted(self.order) != list(range(1, self.arity + 1)):
            raise ValueError("chain order must be a permutation of 1..n")

    def points(self) -> Iterator[int]:
        """The n+1 point indices of the chain, bottom to top."""
        x = 0
        yield x
        for j in self.order:
            x |= 1 << (self.arity - j)
            yield x

    def to_json(self) -> list[int]:
        return list(self.order)

    @classmethod
    def from_json(cls, data, arity: Optional[int] = None) -> "Chain":
        """The chain of a parsed JSON list of integers (no bools, floats or strings)."""
        if not isinstance(data, list):
            raise ValueError("chain JSON must be an array of 1-based variable indices")
        return cls(arity if arity is not None else len(data), tuple(data))


def alternation_along(f: BooleanFunction, c: Chain) -> int:
    """Number of value changes of f along the n+1 chain points."""
    if f.arity != c.arity:
        raise ArityMismatchError(
            f"function arity {f.arity} != chain arity {c.arity}"
        )
    values = [f.evaluate(x) for x in c.points()]
    return sum(a != b for a, b in zip(values, values[1:]))


# The DP runs on blocks of the low BLOCK_BITS bits of a point (read at call
# time); only the gather plans of at most BLOCK_BITS bits are kept.
BLOCK_BITS = 10


def _plan(n: int):
    """The DP's gather plan over n bits. Per Hamming weight w it holds the
    points T of that weight (point 0 as a slice) and a ``(w, len(T))`` array
    of their predecessors: row j clears each point's j-th set bit."""
    pc, idx, bits = popcounts(n), np.arange(1 << n), 1 << np.arange(n)
    plan = [(slice(0, 1), ())]
    for T in (idx[pc == w][:, None] for w in range(1, n + 1)):
        preds = (T ^ bits)[T & bits != 0].reshape(len(T), -1)
        plan.append((T.ravel(), np.ascontiguousarray(preds.T)))
    return tuple(plan)


_level_plan = lru_cache(maxsize=None)(_plan)


def _low_first(blocks: np.ndarray) -> np.ndarray:
    """``(rows, tables, 2**k)`` blocks as ``(2**k, columns)``; one column as a vector."""
    a = np.ascontiguousarray(blocks.transpose(2, 0, 1))
    return a.ravel() if a.size == len(a) else a.reshape(len(a), a.size // len(a))


def alternation_profile(f: Tables) -> np.ndarray:
    """Longest-alternation DP over the hypercube, level by Hamming weight.

    For every point x, ``A[x]`` is the maximum number of value changes of f
    along any increasing path from 0^n to x, as uint8 (A <= n); an
    ``(N, 2**n)`` stack of tables gives the ``(N, 2**n)`` stack of their
    profiles. The points that share their high n - k bits, k = min(n,
    ``BLOCK_BITS``), form a block, and blocks go by the Hamming weight of
    their high part h. A level's blocks take the max of ``A[h ^ e_p]`` over
    their high predecessors, one gather of whole blocks each; then each low
    level, from 0 up, takes the max over its low predecessors too and rounds
    up to the parity of g (module docstring). O(n * 2**n) time, O(2**n)
    memory, and gather plans of at most ``BLOCK_BITS`` bits.
    """
    n, v = table_values(f)
    k, shape = min(n, BLOCK_BITS), v.shape
    # (high parts, tables, low parts): a leading-axis gather moves blocks.
    v = v.reshape(-1, 1 << (n - k), 1 << k).transpose(1, 0, 2)
    v0 = v[0, :, :1]  # f(0^n) of each table
    A = np.zeros(v.shape, dtype=np.uint8)  # A <= n
    for T, P in (_level_plan if n - k <= BLOCK_BITS else _plan)(n - k):
        at = A[T]
        for pred in P:
            np.maximum(at, A[pred], out=at)
        a, g = _low_first(at), _low_first(v[T] ^ v0)
        for t, p in _level_plan(k):
            m = np.maximum(a[t], a[p].max(axis=0)) if len(p) else a[t]
            m += (m ^ g[t]) & 1
            a[t] = m
        A[T] = a.reshape(1 << k, len(at), v.shape[1]).transpose(1, 2, 0)
    A = np.ascontiguousarray(A.transpose(1, 0, 2)).reshape(shape)
    A.setflags(write=False)
    return A


def decrease(alt, value, value0):
    """D at x from A at x (``alt``), f(x) and f(0^n); scalars or whole
    profiles. See the module docstring for why this holds."""
    return (alt - value + value0) // 2


def witness_orders(f: Tables, profile: np.ndarray) -> np.ndarray:
    """The order of a chain achieving the maximum alternation, for one table
    or for every row of a stack, recovered by backtracking from 1^n through
    its alternation profile ``profile`` (:func:`alternation_profile`).

    Each step back from x clears the lowest-numbered set variable x_j whose
    predecessor y is consistent with the profile, A(y) + [f(y) != f(x)] =
    A(x), which the DP guarantees for some j; x_j is the chain's step into x.
    The n steps run on all rows at once, n candidates each.
    """
    n, v = table_values(f)
    shape, v, A = v.shape, v.reshape(-1), profile.reshape(-1)
    rows = np.arange(len(v) >> n)
    bits = 1 << np.arange(n - 1, -1, -1)  # x_1 first
    x = (rows << n) + (1 << n) - 1  # flat: point x of row r is r * 2**n + x
    order = np.zeros((len(rows), n), dtype=np.int64)
    for step in range(n - 1, -1, -1):
        here, y = x[:, None], x[:, None] ^ bits
        fits = (y < here) & (A[y] + (v[y] != v[here]) == A[here])
        j = fits.argmax(axis=1)
        order[:, step] = j + 1
        x = y[rows, j]
    return order.reshape(*shape[:-1], n)


def max_alternation_witness(f: TruthTable) -> Chain:
    """A chain achieving the maximum alternation, recovered by backtracking."""
    return Chain(f.n, tuple(witness_orders(f, alternation_profile(f)).tolist()))


def alternations_along(f: Tables, orders: np.ndarray) -> np.ndarray:
    """Number of value changes of every row of a stack along its own chain,
    row i of ``orders`` (as from :func:`witness_orders`)."""
    n, v = table_values(f)
    points = np.cumsum(1 << (n - orders), axis=-1)
    values = np.concatenate([v[:, :1], v[np.arange(len(v))[:, None], points]], axis=-1)
    return (values[:, 1:] != values[:, :-1]).sum(axis=-1)


def gap_family_chain(tree: DecisionTreeShape) -> Chain:
    """Witness chain for a full-tree function, built on the tree itself.

    Recursively: left-subtree chain, then the root variable, then the
    right-subtree chain. For a depth-k tree the result alternates 2**k - 1
    times, the maximum; :class:`Chain` rejects a repeated or missing variable.
    """
    order = _collect_order(tree)
    return Chain(len(order), tuple(order))


def _collect_order(node: DecisionTreeShape) -> list[int]:
    if node.is_leaf or node.var is None:
        raise ValueError("malformed tree: expected an internal node")
    if node.low is None or node.high is None:
        raise ValueError("malformed tree: internal node missing children")
    if node.low.is_leaf or node.high.is_leaf:
        if not (node.low.is_leaf and node.high.is_leaf):
            raise ValueError("malformed tree: children at one node must match")
        if node.low.value != 0 or node.high.value != 1:
            raise ValueError("malformed tree: bottom leaves must be 0 (left) / 1 (right)")
        return [node.var]
    return _collect_order(node.low) + [node.var] + _collect_order(node.high)


def glued_composition_chain(f_chain: Chain, g_chain: Chain, g: BooleanFunction) -> Chain:
    """Chain for the block composition built by gluing copies of g's chain.

    Sweeps the blocks in f-chain order, walking g's chain inside each block;
    earlier blocks sit at all-ones, later ones at all-zeros. Requires
    g(0^n) != g(1^n); when g(0^n) = 1 the sweep order is reversed (the
    negated-g bookkeeping), and the returned chain is still for the original
    composition. Alternation along it is at least the product of the two
    chain alternations.
    """
    n = g_chain.arity
    if g.arity != n:
        raise ArityMismatchError(f"g arity {g.arity} != chain arity {n}")
    c0 = g.evaluate(0)
    c1 = g.evaluate((1 << n) - 1)
    if c0 == c1:
        raise ValueError("gluing requires g(0^n) != g(1^n)")
    blocks = f_chain.order if c0 == 0 else tuple(reversed(f_chain.order))
    order = tuple((b - 1) * n + p for b in blocks for p in g_chain.order)
    return Chain(f_chain.arity * n, order)


def monotone_decomposition(f: BooleanFunction) -> tuple[list[TruthTable], bool]:
    """Split f into alt(f) monotone functions whose XOR reconstructs f.

    Part i is [A >= i] for i = 1 .. alt(f), with A the alternation profile.
    A is non-decreasing along every axis, so each part is monotone; the
    parts that hold at x are the first A(x), so their XOR is A(x) mod 2,
    which is f(x) xor f(0^n). The flag is f(0^n): when it is set, the XOR
    gives the negation of f. The ``monotone-decomposition`` check of the
    registry tests both facts on A.
    """
    table = materialize(f)
    A = alternation_profile(table)
    parts = [TruthTable(table.n, (A >= i).astype(np.uint8)) for i in range(1, int(A[-1]) + 1)]
    return parts, bool(table.values[0])
