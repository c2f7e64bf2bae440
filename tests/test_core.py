"""Representation, evaluation, restriction, composition, serialization."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boolfn import core, families, measures, verify
from boolfn.core import (
    ArityMismatchError,
    CapExceededError,
    FormatError,
    TruthTable,
    compose,
    corpus_texts,
    depends_on_all,
    materialize,
    parse,
    serialize,
)

import oracles
from oracles import restrict


def random_table(rng, n):
    return TruthTable.from_packed_int(n, rng.getrandbits(1 << n))


def test_evaluate_examples():
    parity3 = families.named_basics("parity", 3)
    assert parity3.evaluate("101") == 0
    addr2 = families.address(2)
    assert addr2.evaluate("101000") == 0  # address 10 selects y_2 = 0
    const0 = oracles.constant_table(3, 0)
    for x in range(8):
        assert const0.evaluate(x) == 0


def test_evaluate_arity_mismatch():
    parity3 = families.named_basics("parity", 3)
    with pytest.raises(ArityMismatchError):
        parity3.evaluate("10")
    with pytest.raises(ArityMismatchError):
        parity3.evaluate(8)


def test_points_as_bit_sequences():
    parity3 = families.named_basics("parity", 3)
    assert core.point_index([1, 0, 1], 3) == core.point_index((True, False, True), 3) == 5
    assert parity3.evaluate([1, 1, 0]) == 0 and parity3.evaluate((1, 0, 0)) == 1
    for bad in ([1, 0], [1, 0, 2], (1, 1, 1, 1), [-1, 0, 0]):
        with pytest.raises(ArityMismatchError, match="3-bit sequence"):
            core.point_index(bad, 3)


def test_truth_table_equality_hash_and_repr():
    t, same = parse("3:96"), TruthTable.from_packed_int(3, 0x96)
    assert t == same and hash(t) == hash(same) and len({t, same, TruthTable(3, 1 - t.values)}) == 2
    assert t.__eq__(0x96) is NotImplemented and t != 0x96
    assert t != TruthTable.from_packed_int(2, 0x6)  # same low bits, another arity
    assert repr(t) == "TruthTable('3:96')"
    assert repr(oracles.constant_table(6, 1)) == "TruthTable('6:FFFFFFFFFFFFFFFF')"
    assert repr(oracles.constant_table(7, 0)) == "TruthTable(n=7)"


def test_restrict_examples():
    and2 = families.named_basics("and", 2)
    assert restrict(and2, {1: 0}) == oracles.constant_table(1, 0)
    # fixing the first input of AND to 1 leaves the identity on the second
    assert restrict(and2, {1: 1}) == parse("1:2")

    f2, _ = families.gap_family(2)
    left = restrict(f2, {1: 0})
    assert serialize(left) == "2:C"
    # brute-force the same subfunction straight from the table
    expected = [f2.evaluate((0 << 2) | (a << 1) | b) for a in (0, 1) for b in (0, 1)]
    assert list(left.values) == expected


def test_restrict_errors():
    and2 = families.named_basics("and", 2)
    with pytest.raises(ValueError):
        restrict(and2, {3: 0})
    with pytest.raises(ValueError):
        restrict(and2, {0: 0})


def test_restrict_commutes():
    rng = random.Random(424)
    for _ in range(40):
        n = rng.randrange(2, 9)
        f = random_table(rng, n)
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        bi, bj = rng.randrange(2), rng.randrange(2)
        a = restrict(restrict(f, {i: bi}), {j - 1: bj})
        b = restrict(restrict(f, {j: bj}), {i: bi})
        assert a == b
        both = restrict(f, {i: bi, j: bj})
        assert a == both


def test_compose_examples():
    p2 = families.named_basics("parity", 2)
    comp = compose(p2, p2)
    assert materialize(comp) == families.named_basics("parity", 4)

    addr2 = families.address(2)
    g2 = compose(addr2, addr2)
    assert g2.arity == 36

    ident = parse("1:2")
    p3 = families.named_basics("parity", 3)
    assert materialize(compose(ident, p3)) == p3


def test_compose_rejects_an_arity_0_side():
    p2, const = families.named_basics("parity", 2), oracles.constant_table(0, 1)
    lazy = families.gap_family(5)[0]
    assert lazy.n == lazy.arity == 31
    for f, g in ((const, p2), (p2, const), (const, const), (const, lazy)):
        with pytest.raises(ValueError, match="arity >= 1 on both sides"):
            compose(f, g)


def test_compose_pointwise_random():
    rng = random.Random(99)
    for _ in range(30):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 5)
        if m * n > 12:
            continue
        f = random_table(rng, m)
        g = random_table(rng, n)
        comp = materialize(compose(f, g))
        for x in range(1 << (m * n)):
            blocks = [(x >> ((m - 1 - i) * n)) & ((1 << n) - 1) for i in range(m)]
            y = 0
            for b in blocks:
                y = (y << 1) | g.evaluate(b)
            assert comp.evaluate(x) == f.evaluate(y)


def test_materialize_examples():
    p3 = core.LazyFunction(3, lambda x: x.bit_count() & 1)
    table = materialize(p3)
    assert list(table.values) == [0, 1, 1, 0, 1, 0, 0, 1]

    addr2 = families.address(2)
    lazy_addr = core.LazyFunction(6, addr2.evaluate)
    assert materialize(lazy_addr) == addr2

    big = compose(families.address(2), families.address(2))
    with pytest.raises(CapExceededError, match="24"):
        materialize(big)


def scalar_only(table, calls=None):
    """A lazy copy of ``table`` whose evaluator takes one plain int; it
    counts its calls in ``calls`` when given."""
    packed = oracles.packed_int(table)

    def ev(x):
        assert type(x) is int
        if calls is not None:
            calls.append(x)
        return (packed >> x) & 1

    return core.LazyFunction(table.n, ev)


def draw_part(data, max_arity):
    n = data.draw(st.integers(1, max_arity))
    table = TruthTable.from_packed_int(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
    return scalar_only(table) if data.draw(st.booleans()) else table


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_composition_table_rule_matches_point_loop(data):
    f, g = draw_part(data, 4), draw_part(data, 4)
    fg = compose(f, g)
    functions = [fg]
    if fg.arity * g.arity <= 12:
        functions.append(compose(fg, g))
    for base in (f, fg):
        functions += [families.compose_power(base, k) for k in (1, 2, 3) if base.arity**k <= 12]
    for fn in functions:
        assert fn.tabulate is not None
        assert materialize(fn) == TruthTable.from_evaluator(fn.arity, fn.evaluator)


def test_composition_materializes_each_part_once():
    rng = random.Random(8)
    f_calls, g_calls = [], []
    f = scalar_only(random_table(rng, 3), f_calls)
    g = scalar_only(random_table(rng, 4), g_calls)
    table = materialize(compose(f, g))
    assert len(f_calls) <= 1 << 3 and len(g_calls) <= 1 << 4
    assert table == TruthTable.from_evaluator(12, compose(f, g).evaluator)
    # h is tabulated k times: as the inner part of each of the k - 1
    # compositions, and as the outer part of the innermost one
    h_calls = []
    materialize(families.compose_power(scalar_only(random_table(rng, 2), h_calls), 3))
    assert len(h_calls) <= 3 * (1 << 2)


def test_composition_above_the_cap_fails_before_its_rule(monkeypatch):
    calls = []
    f = scalar_only(oracles.constant_table(5, 1), calls)
    with pytest.raises(CapExceededError, match="25"):
        materialize(compose(f, f))
    monkeypatch.setenv(core.DENSE_CAP_ENV, "4")
    with pytest.raises(CapExceededError, match="4"):
        materialize(compose(scalar_only(parse("2:8"), calls), parse("3:80")))
    assert calls == []
    rule = core.LazyFunction(5, lambda x: calls.append(x), tabulate=lambda: calls.append("rule"))
    with pytest.raises(CapExceededError):
        materialize(rule)
    assert calls == []


def test_materialize_respects_env_cap(monkeypatch):
    monkeypatch.setenv(core.DENSE_CAP_ENV, "4")
    lazy = core.LazyFunction(5, lambda x: 0)
    with pytest.raises(CapExceededError, match="4"):
        materialize(lazy)
    monkeypatch.delenv(core.DENSE_CAP_ENV)
    assert materialize(lazy).n == 5


def test_depends_on_all():
    assert depends_on_all(families.named_basics("parity", 5))
    projection = parse("2:C")  # f(x1, x2) = x1
    assert not depends_on_all(projection)
    for k in (1, 2, 3):
        fk, _ = families.gap_family(k)
        assert depends_on_all(materialize(fk))


def reference_depends_on_all(values: np.ndarray, n: int) -> np.ndarray:
    """One comparison of the halves per variable on the natural cell order:
    the reference for the tests below."""
    out = np.ones(values.shape[:-1], dtype=bool)
    for j in range(1, n + 1):
        halves = values.reshape(*values.shape[:-1], 1 << (j - 1), 2, 1 << (n - j))
        out &= (halves[..., 0, :] != halves[..., 1, :]).any(axis=(-2, -1))
    return out


def rows_ignoring_one_variable(gen: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Constant and parity rows, random rows that ignore x_j for every j
    in turn, and random rows, ``count`` (at least n + 3) in all."""
    x = np.arange(1 << n)
    rows = gen.integers(0, 2, (max(count, n + 3), 1 << n), dtype=np.uint8)
    rows[0], rows[1] = 0, core.popcounts(n) & 1
    for j in range(1, n + 1):
        rows[j + 1] = rows[j + 1][x & ~(1 << (n - j))]
    return rows


def assert_depends_on_all_matches(stack: np.ndarray, n: int) -> None:
    want = reference_depends_on_all(stack, n)
    got = depends_on_all(stack)
    assert got.dtype == bool and np.array_equal(got, want)
    assert want[2 : n + 2].sum() == 0 and (n == 0 or want[1])
    for row in (0, 1, 2, n + 1, len(stack) - 1):
        alone = depends_on_all(TruthTable(n, stack[row]))
        assert type(alone) is bool and alone == want[row]


def test_depends_on_all_matches_the_one_layout_loop():
    # n = 0..12 on stacks of 1.5 * CHUNK_CELLS cells, so the comparisons on
    # the last five variables run in transposed blocks, two at n = 12. Short
    # stacks take the same blocks: 208 rows at n = 4, and 3 rows at n = 9 (a
    # sweep-n9 chunk) of parity, a row that ignores x_9 and a random row.
    gen = np.random.default_rng(17)
    for n in range(13):
        assert_depends_on_all_matches(rows_ignoring_one_variable(gen, n, 3 * core.CHUNK_CELLS // 2 >> n), n)
    assert_depends_on_all_matches(rows_ignoring_one_variable(gen, 4, 208), 4)
    # full and short chunks from n = 6 up, whose blocks hold few high cells
    for n, count in ((6, 1024), (6, 100), (8, 256)):
        assert_depends_on_all_matches(rows_ignoring_one_variable(gen, n, count), n)
    stack = rows_ignoring_one_variable(gen, 9, 0)[[1, 10, 11]]
    got = depends_on_all(stack)
    assert got.tolist() == reference_depends_on_all(stack, 9).tolist() == [True, False, True]
    assert [depends_on_all(TruthTable(9, row)) for row in stack] == got.tolist()


@pytest.mark.parametrize("n", range(16, 21))
def test_depends_on_all_of_large_tables_matches_the_one_layout_loop(n):
    assert_depends_on_all_matches(rows_ignoring_one_variable(np.random.default_rng(n), n, 0), n)


@pytest.mark.parametrize("n", range(1, 13))
def test_a_planted_violation_fails_along_its_own_variable(n):
    # popcounts(n) is non-decreasing along every variable. Adding 2 at
    # 1^n xor e_j, whose only upward neighbour is 1^n, along x_j, breaks
    # that along x_j alone, at a transposed low digit or a natural high one.
    for j in range(n):
        point = (1 << n) - 1 ^ 1 << (n - 1 - j)
        planted = core.popcounts(n).astype(np.int32)
        planted[point] += 2
        got = core.halves_hold(planted[None], n, np.less_equal)
        assert got.shape == (n, 1) and got[:, 0].tolist() == [i != j for i in range(n)], j
        assert not core.is_monotone(TruthTable(n, np.arange(1 << n) == point))
        # parity's profile is popcounts(n), and the planted one keeps its parity
        for profile, status in ((core.popcounts(n), "pass"), (planted, "fail")):
            chunk = measures.Chunk(core.popcounts(n)[None] & 1)
            chunk.profile = profile[None].astype(np.int32)
            assert verify.CHECKS["monotone-decomposition"].run(chunk.record(0))[0] == status, j


def test_low_digits_is_the_largest_power_of_9_in_a_chunk(monkeypatch):
    # the transposed blocks take the largest l with 9**l <= CHUNK_CELLS
    # digits, or all n if fewer, at any stack size: five at the default
    for n in range(25):
        assert core._low_digits(n) == min(n, 5), n
    # also when CHUNK_CELLS is exactly a power of 9
    for l in range(1, 7):
        for cells, want in ((9**l - 1, l - 1), (9**l, l), (9**l + 1, l)):
            monkeypatch.setattr(core, "CHUNK_CELLS", cells)
            assert core._low_digits(8) == want, cells


def spans(parts, count: int) -> list[tuple[int, int]]:
    """The (start, stop) of each slice, its stop clipped to ``count``."""
    return [(part.start, min(part.stop, count)) for part in parts]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 400), st.integers(0, 5000), st.integers(1, 1 << 20))
def test_blocks_tile_the_items_within_the_budget(count, size, budget):
    parts = list(core.blocks(count, size, budget))
    assert [i for part in parts for i in range(part.start, part.stop)] == list(range(count))
    for k, part in enumerate(parts):
        items = part.stop - part.start
        assert items >= 1 and (items == 1 or items * size <= budget), part
        # as many items as the budget holds: only the last slice is short
        assert k == len(parts) - 1 or not size or (items + 1) * size > budget, part
    assert list(core.blocks(0, size, budget)) == []


# The block formulas each kernel wrote out before core.blocks, as (start,
# stop) spans of its items; ``cells`` is its module's CHUNK_CELLS.
def parent_low_blocks(rows, high, size, cells):
    width = max(1, cells // ((rows or 1) * size))
    return [(s, min(s + width, high)) for s in range(0, high, width)]


def parent_column_blocks(rows, columns, cells):
    width = max(1, cells // max(1, rows))
    return [(s, min(s + width, columns)) for s in range(0, columns, width)]


def parent_planes_rows(rows, n, cells):
    step = 8 * max(1, 2 * cells // 3**n)
    return [(i, min(i + step, rows)) for i in range(0, rows or 1, step)]


def parent_certificate_rows(rows, n, cells):
    step = max(1, 8 * cells // 3**n)
    return [(s, min(rows, s + step)) for s in range(0, rows, step)]


def parent_tree_byte_rows(byte_rows, n, cells):
    step = max(1, cells // 3**n)
    return [(s, min(s + step, byte_rows)) for s in range(0, byte_rows, step)]


def parent_tree_step(outer, inner, cells):
    rows, width = max(1, cells // inner), min(inner, cells)
    return [
        ((o, min(o + rows, outer)), (i, min(i + width, inner)))
        for o, i in itertools.product(range(0, outer, rows), range(0, inner, width))
    ]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 600), st.integers(0, 16), st.integers(1, 1 << 20),
    st.integers(0, 400), st.sampled_from([2**l for l in range(6)] + [3**l for l in range(6)]),
)
def test_blocks_cut_every_kernel_as_its_own_formula_did(rows, n, cells, high, size):
    # the arguments each kernel passes to core.blocks, against its old formula
    if rows:  # on an empty stack the old low blocks differ only in how many empty ones
        assert spans(core.blocks(high, rows * size, cells), high) == parent_low_blocks(rows, high, size, cells)
    columns = 1 << min(n, 12)
    assert spans(core.blocks(columns, rows, cells), columns) == parent_column_blocks(rows, columns, cells)
    planes = core.blocks(-(-rows // 8) or 1, 3**n, 2 * cells)
    assert [(8 * p.start, min(8 * p.stop, rows)) for p in planes] == parent_planes_rows(rows, n, cells)
    assert spans(core.blocks(rows, 3**n, 8 * cells), rows) == parent_certificate_rows(rows, n, cells)
    byte_rows = -(-rows // 8)
    assert spans(core.blocks(byte_rows, 3**n, cells), byte_rows) == parent_tree_byte_rows(byte_rows, n, cells)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 300), st.integers(1, 1 << 20), st.integers(1, 1 << 19))
def test_blocks_cut_the_tree_step_as_its_own_formula_did(outer, inner, cells):
    # measures._decide_on_digit's 2-D blocks of DT_BLOCK_CELLS cells
    assume(-(-outer // max(1, cells // inner)) * -(-inner // cells) <= 5000)
    got = itertools.product(core.blocks(outer, inner, cells), core.blocks(inner, 1, cells))
    assert [(spans([o], outer)[0], spans([i], inner)[0]) for o, i in got] == parent_tree_step(outer, inner, cells)


def test_serialize_examples():
    assert serialize(families.named_basics("and", 2)) == "2:8"
    assert serialize(oracles.constant_table(2, 1)) == "2:F"
    for text, message in (
        ("3:G1", "malformed table text: '3:G1'"),
        ("3:9", "expected 2 hex digits for arity 3, got 1"),
        ("4:123", "expected 4 hex digits for arity 4, got 3"),
        ("2:10", "expected 1 hex digits for arity 2, got 2"),
        ("1:4", "padding bits set in '1:4'"),
        ("0:2", "padding bits set in '0:2'"),
        ("nonsense", "malformed table text: 'nonsense'"),
        ("\u0663:AC", "malformed table text: '\u0663:AC'"),  # the arity is ASCII digits only
    ):
        with pytest.raises(FormatError) as err:
            parse(text)
        assert str(err.value) == message


def test_serialize_round_trip_random():
    rng = random.Random(1234)
    for _ in range(60):
        f = random_table(rng, rng.randrange(0, 11))
        assert parse(serialize(f)) == f


def int_serialize(f: TruthTable) -> str:
    """The text form through the packed 2**n-bit Python int."""
    return f"{f.n}:{oracles.packed_int(f):0{((1 << f.n) + 3) // 4}X}"


def int_parse(text: str) -> TruthTable:
    n, digits = text.split(":")
    return TruthTable.from_packed_int(int(n), int(digits, 16))


def test_text_form_matches_the_packed_int():
    rng = random.Random(41)
    tables = [TruthTable.from_packed_int(n, p) for n in range(4) for p in range(1 << (1 << n))]
    tables += [random_table(rng, n) for n in (*range(4, 13), 20) for _ in range(3)]
    for f in tables:
        text = serialize(f)
        assert text == int_serialize(f)
        for form in (text, text.lower()):
            g = parse(form)
            assert g == f == int_parse(form) and not g.values.flags.writeable


def test_corpus_texts():
    text = "# header\n2:8\n\n  2:f  # trailing comment\r\n1:1\x0c1:2\n"
    assert corpus_texts(text) == ["2:8", "2:f", "1:1\x0c1:2"]  # a line ends at a line feed only
    assert [serialize(parse(t)) for t in corpus_texts(text)[:2]] == ["2:8", "2:F"]


def test_truth_table_validation():
    with pytest.raises(ValueError):
        TruthTable(2, [0, 1, 1])
    with pytest.raises(ValueError):
        TruthTable(1, [0, 2])
    # a value that is not 0 or 1 in its own dtype is not truncated or wrapped to a bit
    for values in ([0.5, 1.0], [-1, 0], [256, 1], [np.nan, 0]):
        with pytest.raises(ValueError, match="table entries must be bits"):
            TruthTable(1, values)
    assert TruthTable(1, [True, False]) == TruthTable(1, [1.0, 0.0]) == TruthTable(1, np.array([1, 0], np.int64))
    with pytest.raises(CapExceededError):
        TruthTable(30, [])
    with pytest.raises(ValueError, match="nonnegative"):
        TruthTable(-1, [])
    for n, packed in ((2, 16), (2, -1), (-1, 0)):
        with pytest.raises(ValueError):
            TruthTable.from_packed_int(n, packed)
    with pytest.raises(CapExceededError):
        TruthTable.from_packed_int(30, 0)


def test_parse_checks_the_cap_once_before_reading_the_digits(monkeypatch):
    reads = []
    cap = core.dense_cap
    monkeypatch.setattr(core, "dense_cap", lambda: reads.append(1) or cap())
    table = parse("3:96")
    assert reads == [1]
    assert not table.values.flags.writeable
    assert table == families.named_basics("parity", 3)
    with pytest.raises(CapExceededError):
        parse("40:" + "F" * 10)  # the digit count is wrong too: the cap comes first


def test_popcounts_match_bit_count():
    for n in range(13):
        pc = core.popcounts(n)
        assert pc.dtype == np.uint8 and not pc.flags.writeable
        assert pc.tolist() == [i.bit_count() for i in range(1 << n)]
