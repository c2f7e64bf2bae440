"""Generators for the witness function families and standard baselines.

The headline generator builds the function defined by a full binary decision
tree of depth k on 2**k - 1 distinct variables whose bottom-level nodes have
leaf children 0 (left branch) and 1 (right branch); its alternation meets the
2**k - 1 ceiling for depth-k trees. The address (multiplexer) family and the
usual parity/and/or/majority/threshold baselines live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .core import (
    BooleanFunction,
    LazyFunction,
    TruthTable,
    _check_arity,
    compose,
    dense_cap,
    describe,
    materialize,
    popcounts,
)

__all__ = [
    "FK_MAX_DEPTH",
    "DecisionTreeShape",
    "address",
    "compose_power",
    "gap_family",
    "named_basics",
]

# f_k builds its 2**k - 1 node tree and order eagerly: 0.2 s and 50 MB at k = 16.
FK_MAX_DEPTH = 16


@dataclass(frozen=True)
class DecisionTreeShape:
    """Node of a full binary decision tree.

    Internal nodes carry ``var`` (1-based) and two children; leaves carry
    ``value``. ``low`` is the branch taken when the variable is 0.
    """

    var: Optional[int] = None
    value: Optional[int] = None
    low: Optional["DecisionTreeShape"] = None
    high: Optional["DecisionTreeShape"] = None

    @property
    def is_leaf(self) -> bool:
        return self.var is None

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(self.low.depth(), self.high.depth())

    def variables(self) -> list[int]:
        if self.is_leaf:
            return []
        return self.low.variables() + [self.var] + self.high.variables()

    def evaluate(self, x: int, n: int) -> int:
        node = self
        while not node.is_leaf:
            bit = (x >> (n - node.var)) & 1
            node = node.high if bit else node.low
        return node.value


def _leaf(value: int) -> DecisionTreeShape:
    return DecisionTreeShape(value=value)


def gap_family(
    k: int, variable_order: Optional[Sequence[int]] = None
) -> tuple[BooleanFunction, DecisionTreeShape]:
    """Depth-k full-tree function on n = 2**k - 1 distinct variables.

    Internal nodes take variables in breadth-first order (root = x_1) unless
    ``variable_order`` supplies a different permutation of [n]; every
    bottom-level node has leaf children 0 (left) and 1 (right). Returns the
    function (dense when n fits the dense cap, lazy otherwise) together
    with its defining tree.
    """
    if not 1 <= k <= FK_MAX_DEPTH:
        raise ValueError(f"k must be between 1 and {FK_MAX_DEPTH}")
    n = (1 << k) - 1
    if variable_order is None:
        order = tuple(range(1, n + 1))
    else:
        order = tuple(int(v) for v in variable_order)
        if sorted(order) != list(range(1, n + 1)):
            raise ValueError("variable_order must be a permutation of 1..n")

    def build(rank: int, depth: int) -> DecisionTreeShape:
        var = order[rank - 1]
        if depth == k - 1:
            return DecisionTreeShape(var=var, low=_leaf(0), high=_leaf(1))
        return DecisionTreeShape(
            var=var, low=build(2 * rank, depth + 1), high=build(2 * rank + 1, depth + 1)
        )

    tree = build(1, 0)
    ev = partial(tree.evaluate, n=n)
    if n <= dense_cap():
        fn: BooleanFunction = TruthTable.from_evaluator(n, ev)
    else:
        desc = {"kind": "fk", "k": k, "arity": n}
        if variable_order is not None:
            desc["order"] = list(order)
        fn = LazyFunction(n, ev, desc)
    return fn, tree


def address(t: int) -> TruthTable:
    """Multiplexer on t + 2**t bits: the t address bits (MSB-first) select
    which of the 2**t data bits is returned; an arity above the dense cap is
    rejected before any table is built."""
    if t < 1:
        raise ValueError("t must be >= 1")
    n = t + (1 << t)
    _check_arity(n)
    idx = np.arange(1 << n, dtype=np.int64)
    addr = idx >> (1 << t)
    # Data bit y_addr is variable t+1+addr, i.e. index bit 2**t - 1 - addr.
    vals = (idx >> ((1 << t) - 1 - addr)) & 1
    return TruthTable(n, vals)


def named_basics(name: str, n: int, threshold: Optional[int] = None) -> TruthTable:
    """Standard baseline functions: parity | and | or | majority | threshold."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if name == "majority" and n % 2 == 0:
        raise ValueError("majority requires odd n")
    if name == "threshold" and (threshold is None or not 0 <= threshold <= n + 1):
        raise ValueError("threshold requires 0 <= k <= n+1")
    pc = popcounts(n)
    rules = {"parity": lambda: pc & 1, "and": lambda: pc == n, "or": lambda: pc > 0,
             "majority": lambda: pc > n // 2, "threshold": lambda: pc >= threshold}
    if name not in rules:
        raise ValueError(f"unknown basic function {name!r}")
    return TruthTable(n, rules[name]())


def compose_power(h: BooleanFunction, k: int) -> LazyFunction:
    """k-fold block self-composition of ``h`` (arity n**k <= 2**16).

    Points are evaluated lazily; when materialized, the power is tabulated
    from the table of its base, one composition step at a time.
    """
    if not 1 <= k <= FK_MAX_DEPTH:
        raise ValueError(f"k must be between 1 and {FK_MAX_DEPTH}")
    if h.arity < 1:
        raise ValueError("base arity must be >= 1")
    if h.arity**k > 1 << FK_MAX_DEPTH:
        raise ValueError(f"arity {h.arity}**{k} exceeds 2**{FK_MAX_DEPTH}")
    if k == 1:
        desc = {"kind": "power", "power": 1, "base": describe(h)}
        return LazyFunction(h.arity, h.evaluate, desc, lambda: materialize(h).values)
    acc: BooleanFunction = h
    for _ in range(k - 1):
        acc = compose(acc, h)
    desc = {"kind": "power", "power": k, "base": describe(h), "arity": acc.arity}
    return LazyFunction(acc.arity, acc.evaluator, desc, acc.tabulate)
