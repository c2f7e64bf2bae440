"""Combinatorial measures against definitions and brute-force oracles."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolfn import algebra, chains, core, families, measures
from boolfn.core import CapExceededError, TruthTable, compose, is_monotone, materialize
from boolfn.measures import (
    alternation_decrease,
    block_sensitivity,
    certificate_complexity,
    decision_tree_depth,
    influence,
    measure_report,
    negation_complexity,
    per_point_sensitivity,
    sensitivity,
)

import oracles
from test_chains import traced_bytes


def random_table(rng, n):
    return TruthTable.from_packed_int(n, rng.getrandbits(1 << n))


def test_sensitivity_examples():
    assert sensitivity(families.named_basics("parity", 3)) == 3
    assert sensitivity(families.address(2)) == 3
    assert sensitivity(TruthTable.constant(4, 0)) == 0
    maj3 = families.named_basics("majority", 3)
    assert sensitivity(maj3, "110") == oracles.brute_sensitivity_at(maj3, 0b110)


def test_sensitivity_matches_oracle():
    rng = random.Random(7)
    for _ in range(25):
        f = random_table(rng, rng.randrange(1, 6))
        assert sensitivity(f) == oracles.brute_sensitivity(f)


def test_block_sensitivity_examples():
    for n in (1, 2, 3, 4):
        assert block_sensitivity(families.named_basics("parity", n)) == n
    maj3 = families.named_basics("majority", 3)
    assert oracles.brute_block_sensitivity_at(maj3, 0b110) == 2
    assert block_sensitivity(maj3, "110") == 2
    and2 = families.named_basics("and", 2)
    assert block_sensitivity(and2, "11") == 2


def test_block_sensitivity_matches_oracle():
    rng = random.Random(17)
    for _ in range(40):
        f = random_table(rng, rng.randrange(1, 5))
        assert block_sensitivity(f) == oracles.brute_block_sensitivity(f)


def test_block_sensitivity_cap():
    with pytest.raises(CapExceededError):
        block_sensitivity(families.address(2), cap=5)


def test_block_sensitivity_above_the_subcube_ceiling():
    # bs(f) is the record's, and no record's cap may exceed SUBCUBE_MAX_ARITY;
    # the point path reads no record
    parity17 = families.named_basics("parity", 17)
    with pytest.raises(CapExceededError, match="caps must not exceed 16"):
        block_sensitivity(parity17, cap=20)
    assert block_sensitivity(parity17, 0, cap=20) == 17
    rng = random.Random(20)
    for n in range(7):
        f = random_table(rng, n)
        for x in range(1 << n):
            assert block_sensitivity(f, x) == oracles.brute_block_sensitivity_at(f, x)


def test_certificate_complexity_cap():
    addr2 = families.address(2)
    with pytest.raises(CapExceededError, match="arity 6 exceeds certificate cap 5"):
        certificate_complexity(addr2, cap=5)
    assert certificate_complexity(addr2, cap=6) == oracles.brute_certificate(addr2) == 3


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_block_sensitivity_matches_oracles(data):
    n = data.draw(st.integers(0, 6))
    f = TruthTable.from_packed_int(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
    x = data.draw(st.integers(0, (1 << n) - 1))
    bs = oracles.brute_block_sensitivity(f)
    assert block_sensitivity(f) == measure_report(f).value("bs") == bs
    assert block_sensitivity(f, x) == oracles.brute_block_sensitivity_at(f, x)


def n4_sensitivity_and_max_certificate() -> tuple[np.ndarray, np.ndarray]:
    """s(f) and max_x C(f, x) of every n = 4 table, straight from the
    definitions: C(f, x) is the fewest fixed positions S such that f is
    constant on every y that agrees with x on S."""
    points = np.arange(16)
    vals = (np.arange(1 << 16)[:, None] >> points) & 1
    s = sum(vals[:, points ^ (1 << p)] != vals for p in range(4)).max(axis=1)
    cert = np.full((1 << 16, 16), 4)
    for fixed in range(16):
        for x in points:
            agree = points[(points & fixed) == (x & fixed)]
            forced = (vals[:, agree] == vals[:, [x]]).all(axis=1)
            cert[forced, x] = np.minimum(cert[forced, x], fixed.bit_count())
    return s, cert.max(axis=1)


def test_block_sensitivity_search_cases_match_oracle():
    # Only tables with s(f) < max C(f, x) reach the per-point search.
    s, cert = n4_sensitivity_and_max_certificate()
    searched = np.flatnonzero(s < cert).tolist()
    assert len(searched) == 24
    for packed in searched:
        f = TruthTable.from_packed_int(4, packed)
        bs = oracles.brute_block_sensitivity(f)
        assert block_sensitivity(f) == measure_report(f).value("bs") == bs, packed


def test_packing_floor_and_ceiling():
    blocks = [0b001, 0b010, 0b100, 0b011]
    assert measures._max_disjoint(blocks) == 3
    assert measures._max_disjoint(blocks, ceiling=2) == 2
    assert measures._max_disjoint(blocks, floor=4) == 4


def count_scans(monkeypatch) -> list:
    scans = []
    scan = measures._minimal_from_sens
    monkeypatch.setattr(measures, "_minimal_from_sens", lambda *a: scans.append(1) or scan(*a))
    return scans


def rubinstein(blocks: int, width: int) -> TruthTable:
    """OR over blocks of g, where g(y) = 1 iff y's ones are exactly the
    positions 2j - 1 and 2j for some j (Rubinstein, Combinatorica 1995)."""
    pairs = {0b11 << (width - 2 * j) for j in range(1, width // 2 + 1)}
    mask = (1 << width) - 1
    return TruthTable.from_evaluator(
        blocks * width, lambda x: any((x >> (width * b)) & mask in pairs for b in range(blocks))
    )


def test_block_sensitivity_rubinstein(monkeypatch):
    f = rubinstein(3, 4)
    scans = count_scans(monkeypatch)
    record = measure_report(f)
    assert (record.value("s"), record.value("bs"), record.value("C")) == (4, 6, 6)
    assert len(scans) == 1  # the first point with C(f, x) = 6 reaches it
    assert block_sensitivity(f, "0" * 12) == 6


def test_block_sensitivity_random_n9_needs_no_scan(monkeypatch):
    f = random_table(random.Random(9), 9)
    scans = count_scans(monkeypatch)
    assert measure_report(f).value("bs") == block_sensitivity(f) == sensitivity(f)
    assert scans == []


def test_certificate_examples():
    and2 = families.named_basics("and", 2)
    assert certificate_complexity(and2, "00") == 1
    assert certificate_complexity(and2, "11") == 2
    f3, _ = families.gap_family(3)
    assert certificate_complexity(materialize(f3)) == 3
    assert certificate_complexity(families.named_basics("parity", 12)) == 12
    assert certificate_complexity(families.named_basics("and", 12), "0" * 12) == 1
    assert certificate_complexity(families.address(3)) == 4
    f4, _ = families.gap_family(4)  # n = 15
    assert certificate_complexity(materialize(f4), cap=15) == 4


def test_certificate_matches_oracle():
    rng = random.Random(27)
    for _ in range(30):
        f = random_table(rng, rng.randrange(1, 5))
        assert certificate_complexity(f) == oracles.brute_certificate(f)
        x = rng.randrange(1 << f.n)
        assert certificate_complexity(f, x) == oracles.brute_certificate_at(f, x)


def test_influence_examples():
    for n in (1, 3, 5):
        assert influence(families.named_basics("parity", n)) == n
    maj3 = families.named_basics("majority", 3)
    assert oracles.brute_influence(maj3) == Fraction(3, 2)
    assert influence(maj3) == Fraction(3, 2)
    assert influence(TruthTable.constant(5, 1)) == 0


def test_alternation_examples():
    maj3 = families.named_basics("majority", 3)
    assert alternation_decrease(maj3).alt == 1
    f3, _ = families.gap_family(3)
    assert alternation_decrease(f3).alt == 7
    addr = alternation_decrease(families.address(2))
    assert (addr.alt, addr.dc) == (5, 2)


def test_alternation_dp_matches_chain_oracle():
    rng = random.Random(37)
    for _ in range(30):
        f = random_table(rng, rng.randrange(1, 5))
        result = alternation_decrease(f)
        assert result.alt == oracles.brute_alternation(f)
        assert result.dc == oracles.brute_decrease(f)


def test_witness_is_valid_and_tight():
    rng = random.Random(47)
    for _ in range(25):
        f = random_table(rng, rng.randrange(1, 7))
        result = alternation_decrease(f)
        # constructor enforces the bijection; alternation must meet the max
        assert chains.alternation_along(f, result.witness) == result.alt


def test_monotone_iff_alt_low():
    rng = random.Random(57)
    for _ in range(60):
        f = random_table(rng, rng.randrange(1, 8))
        result = alternation_decrease(f)
        v0 = f.evaluate(0)
        v1 = f.evaluate((1 << f.n) - 1)
        assert is_monotone(f) == (result.alt <= 1 and v0 <= v1)
        assert is_monotone(f) == oracles.brute_monotone(f)


def test_decision_tree_examples():
    assert decision_tree_depth(TruthTable.constant(3, 1)) == 0
    for n in (1, 2, 3, 4):
        assert decision_tree_depth(families.named_basics("parity", n)) == n
    for k in (1, 2, 3):
        fk, _ = families.gap_family(k)
        assert decision_tree_depth(materialize(fk)) == k
    assert decision_tree_depth(families.named_basics("parity", 12)) == 12
    assert decision_tree_depth(families.named_basics("or", 13)) == 13
    assert decision_tree_depth(families.address(3)) == 4
    f4, _ = families.gap_family(4)  # n = 15
    assert decision_tree_depth(materialize(f4)) == 4


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_subcube_measures_match_oracles(data):
    n = data.draw(st.integers(0, 6))
    f = TruthTable.from_packed_int(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))
    x = data.draw(st.integers(0, (1 << n) - 1))
    planes = measures.constancy_planes(f)
    assert decision_tree_depth(f, planes=planes) == oracles.brute_decision_tree_depth(f)
    certs = measures.per_point_certificate(f, planes=planes)
    assert certs.max() == certificate_complexity(f) == oracles.brute_certificate(f)
    assert certs[x] == certificate_complexity(f, x) == oracles.brute_certificate_at(f, x)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_degree_at_most_sensitivity_squared(data):
    # Huang, Annals of Math. 2019: deg(f) <= s(f)^2 for every Boolean f.
    # Random tables have s close to n; block compositions reach lower s.
    def table(n):
        return TruthTable.from_packed_int(n, data.draw(st.integers(0, (1 << (1 << n)) - 1)))

    if data.draw(st.booleans()):
        f = table(data.draw(st.integers(0, 8)))
    else:
        m = data.draw(st.integers(1, 4))
        f = materialize(compose(table(m), table(data.draw(st.integers(1, 8 // m)))))
    assert algebra.degree(f) <= sensitivity(f) ** 2


def test_subcube_ceiling():
    ceiling = measures.SUBCUBE_MAX_ARITY
    defaults = (measures.BS_CAP_DEFAULT, measures.CERT_CAP_DEFAULT, measures.DT_CAP_DEFAULT)
    assert ceiling >= max(defaults)
    with pytest.raises(CapExceededError):
        measures.constancy_planes(TruthTable.constant(ceiling + 1, 0))
    for caps in ({"bs_cap": ceiling + 1}, {"cert_cap": ceiling + 1}, {"dt_cap": ceiling + 1}):
        with pytest.raises(CapExceededError):
            measure_report(TruthTable.constant(2, 0), **caps)


def test_decision_tree_matches_oracle():
    rng = random.Random(67)
    for _ in range(25):
        f = random_table(rng, rng.randrange(1, 5))
        assert decision_tree_depth(f) == oracles.brute_decision_tree_depth(f)


def test_decision_tree_cap():
    with pytest.raises(CapExceededError):
        decision_tree_depth(families.named_basics("parity", 4), cap=3)


def test_negation_complexity_examples():
    assert negation_complexity(families.named_basics("majority", 3)) == (0, 0)
    assert negation_complexity(families.named_basics("and", 4)) == (0, 0)
    assert negation_complexity(families.named_basics("parity", 3)) == (1, 1)
    f3, _ = families.gap_family(3)
    assert negation_complexity(f3) == (2, 3)


def test_measure_report_fields_and_invariants():
    addr2 = families.address(2)
    report = measure_report(addr2)
    data = report.to_json_dict()
    assert data["s"] == 3 and data["alt"] == 5 and data["dc"] == 2
    assert data["negs"] == 2 and data["negs_formula"] == 2
    assert report.value("I") <= report.value("s") <= report.value("bs")
    dc = report.value("dc")
    assert report.value("alt") in (2 * dc - 1, 2 * dc, 2 * dc + 1)


def test_measure_report_honors_caps():
    f = families.named_basics("parity", 6)
    report = measure_report(f, bs_cap=4, cert_cap=4, dt_cap=4)
    assert report.value("bs") is None and report.value("C") is None and report.value("DT") is None
    assert set(report.skips()) == {"bs", "C", "DT"}


def test_per_point_table():
    maj3 = families.named_basics("majority", 3)
    report = measure_report(maj3)
    assert report.per_point()["s"] == [0, 2, 2, 2, 2, 2, 2, 0]


def reference_per_point_sensitivity(values: np.ndarray, n: int) -> np.ndarray:
    """Per-point sensitivity as a one-layout loop in int32, every butterfly
    pass on the natural cell order: the reference for the tests below."""
    s = np.zeros(values.shape, dtype=np.int32)
    for p in range(n):
        pairs = values.reshape(-1, 2, 1 << p)
        halves = s.reshape(-1, 2, 1 << p)
        halves += pairs[:, :1] != pairs[:, 1:]
    return s


def mixed_stack(rng: random.Random, n: int, count: int = 0) -> np.ndarray:
    """Constant, dictator and parity rows of arity n, then seeded random
    rows up to ``count`` rows in all."""
    x = np.arange(1 << n)
    rows = np.stack([x * 0, x >> max(n - 1, 0), core.popcounts(n) & 1, x & 1, x * 0 + 1])
    random_rows = np.random.default_rng(rng.getrandbits(32)).integers(0, 2, (max(3, count - 5), 1 << n))
    return np.concatenate([rows, random_rows]).astype(np.uint8)


def assert_sensitivity_matches(stack: np.ndarray, n: int) -> None:
    """The stack's per-point sensitivity and each row's alone equal the
    reference loop by value, as read-only uint8."""
    want = reference_per_point_sensitivity(stack, n)
    got = per_point_sensitivity(stack)
    assert got.dtype == np.uint8 and not got.flags.writeable
    assert np.array_equal(got, want)
    for row in {0, 2, 4, len(stack) - 1} & set(range(len(stack))):
        assert np.array_equal(per_point_sensitivity(TruthTable(n, stack[row])), want[row])


def test_per_point_sensitivity_matches_the_one_layout_loop():
    # n = 0..12 spans fewer, as many and more bits than the sweep's five
    # low ones, on stacks of 1.5 * CHUNK_CELLS cells, so above n = 5 the low
    # passes run in blocks (two at n = 12). Short stacks take the same low
    # passes: 3 rows at n = 9 (a sweep-n9 chunk) and 208 rows at n = 4.
    rng = random.Random(14)
    for n in range(13):
        assert_sensitivity_matches(mixed_stack(rng, n, 3 * measures.CHUNK_CELLS // 2 >> n), n)
    assert_sensitivity_matches(mixed_stack(rng, 9)[[2, 5, 6]], 9)  # parity and two random rows
    assert_sensitivity_matches(mixed_stack(rng, 4, 208), 4)


@pytest.mark.parametrize("n", [16, 20])
def test_per_point_sensitivity_of_large_tables_matches_the_one_layout_loop(n):
    stack = mixed_stack(random.Random(n), n)
    assert_sensitivity_matches(stack, n)
    assert per_point_sensitivity(stack).max(axis=-1).tolist()[:3] == [0, 1, n]


# The subcube kernels as one-layout loops, every digit pass on the natural
# cell order and every DT round up to the one that decides the whole cube:
# references for the differential tests below.
FREE = measures.FREE


def reference_subcube_table(values: np.ndarray, n: int) -> np.ndarray:
    cube, lead = values, values.shape[:-1]
    for j in range(n):
        halves = cube.reshape(*lead, 3**j, 2, -1)
        lo, hi = halves[..., :1, :], halves[..., 1:, :]
        cube = np.concatenate([halves, np.where(lo == hi, lo, FREE)], axis=-2)
    return cube.reshape(*lead, -1)


def reference_decision_tree_depth(cubes: np.ndarray, n: int):
    decided = cubes != FREE
    lead = decided.shape[:-1]
    before = np.empty_like(decided)
    cells = [decided.reshape(*lead, 3**j, 3, -1) for j in range(n)]
    prevs = [before.reshape(*lead, 3**j, 3, -1) for j in range(n)]
    splits = [(cell[..., FREE, :], prev[..., 0, :], prev[..., 1, :]) for cell, prev in zip(cells, prevs)]
    depth = np.zeros(lead, dtype=np.int64)
    while not decided[..., -1].all():
        depth += ~decided[..., -1]
        before[:] = decided
        for free, lo, hi in splits:
            free |= lo & hi
    return depth if lead else int(depth)


def reference_per_point_certificate(cubes: np.ndarray, n: int) -> np.ndarray:
    lead = cubes.shape[:-1]
    size = np.where(cubes == FREE, np.uint8(n + 1), np.uint8(0))
    for j in range(n):
        cells = size.reshape(*lead, 2**j, 3, -1)
        size = np.minimum(cells[..., :FREE, :] + 1, cells[..., FREE:, :])
    return size.reshape(*lead, -1)


def assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def subcube_kernels(f) -> tuple:
    """Where a table or a stack is constant, as bools shaped like it, its DT
    and every C(f, x), all read from its constancy planes."""
    planes = measures.constancy_planes(f)
    n, values = core.table_values(f)
    constant = measures._lanes(planes, range(values.size >> n)).view(bool).reshape(*values.shape[:-1], -1)
    dt = decision_tree_depth(f, planes=planes)
    return constant, dt, measures.per_point_certificate(f, planes=planes)


def assert_subcube_kernels(tables: list, constant: np.ndarray, dt: np.ndarray, certs: np.ndarray) -> None:
    """The kernels on the stack of ``tables`` and on each table alone give
    these arrays: the stack's bytes and dtypes, and each table's rows of
    them, its DT as an int."""
    stack = np.stack([t.values for t in tables])
    for got, want in zip(subcube_kernels(stack), (constant, dt, certs)):
        assert_same_array(got, want)
    for i, table in enumerate(tables):
        one_constant, one_dt, one_certs = subcube_kernels(table)
        assert_same_array(one_constant, constant[i])
        assert type(one_dt) is int and one_dt == dt[i]
        assert_same_array(one_certs, certs[i])


def test_subcube_kernels_match_oracles():
    # every table at n <= 3 (the 256 n = 3 tables run on transposed blocks),
    # and seeded random tables at n = 4..6
    rng = random.Random(2024)
    for n in range(7):
        tables = (
            [TruthTable.from_packed_int(n, i) for i in range(1 << (1 << n))]
            if n <= 3
            else [random_table(rng, n) for _ in range(3)]
        )
        cubes = np.array([oracles.brute_subcube_table(t) for t in tables], dtype=np.uint8)
        dt = np.array([oracles.brute_decision_tree_depth(t) for t in tables], dtype=np.int64)
        certs = [[oracles.brute_certificate_at(t, x) for x in range(1 << n)] for t in tables]
        certs = np.array(certs, dtype=np.uint8)
        assert_subcube_kernels(tables, cubes != FREE, dt, certs)


def mixed_tables(rng: random.Random, n: int) -> list:
    """Constant, dictator, parity, DT < n and random rows of arity n."""
    x = np.arange(1 << n)
    rows = [
        np.zeros(1 << n, dtype=np.uint8),
        x >> (n - 1),
        core.popcounts(n) & 1,
        (x >> (n - 1)) & (x >> (n - 2)) & 1,  # x_1 and x_2: DT 2
        random_table(rng, n - 2).values[x >> 2],  # a function of x_1 ... x_{n-2}
        random_table(rng, n).values,
        random_table(rng, n).values,
    ]
    return [TruthTable(n, row) for row in rows]


def test_subcube_kernels_match_the_one_layout_loops():
    rng = random.Random(77)
    for n in range(7, 13):
        tables = mixed_tables(rng, n)
        cubes = reference_subcube_table(np.stack([t.values for t in tables]), n)
        dt = reference_decision_tree_depth(cubes, n)
        assert dt[:4].tolist() == [0, 1, n, 2] and dt[4] <= n - 2
        assert_subcube_kernels(tables, cubes != FREE, dt, reference_per_point_certificate(cubes, n))


def test_decision_tree_rounds_stop_early_or_exit_at_n(monkeypatch):
    # Round d reads only the marks of round d - 1, and a cube open after
    # round n - 1 has DT = n without round n. A stack whose rows are all
    # decided early stops at its deepest row; one with a parity row runs
    # n - 1 rounds.
    n = 5
    rounds = []
    sweep = measures.digit_sweep
    monkeypatch.setattr(measures, "digit_sweep", lambda *a, **kw: rounds.append(a[0]) or sweep(*a, **kw))
    x = np.arange(1 << n)
    early = [TruthTable.constant(n, 1), TruthTable(n, x & 1), TruthTable(n, (x >> 1) & x & 1)]
    parity = families.named_basics("parity", n)
    for tables, want, want_rounds in ((early, [0, 1, 2], 2), (early + [parity], [0, 1, 2, n], n - 1)):
        stack = np.stack([t.values for t in tables])
        cubes = reference_subcube_table(stack, n)
        planes = measures.constancy_planes(stack)
        rounds.clear()
        dt = decision_tree_depth(stack, planes=planes)
        assert dt.tolist() == want == [oracles.brute_decision_tree_depth(t) for t in tables]
        assert len(rounds) == want_rounds
        assert_same_array(dt, reference_decision_tree_depth(cubes, n))


# The packed planes hold eight rows to a byte (four in the value planes), so
# a stack's row count decides which lanes of its last byte are padding.


def lane_rows(rng: random.Random, n: int) -> np.ndarray:
    """The ``mixed_tables`` rows and ten seeded random rows of arity n: 17."""
    tables = mixed_tables(rng, n) + [random_table(rng, n) for _ in range(10)]
    return np.stack([t.values for t in tables])


@pytest.mark.parametrize("n", range(7, 13))
def test_packed_lanes_match_the_one_layout_loops(n):
    # 1, 7, 8, 9 and 17 rows: one lane, a byte but one, a byte, a byte and
    # one lane, two bytes and one lane; each stack takes its rows from the
    # same 17 in a seeded order, and its lone row runs as a table too.
    rng = random.Random(1900 + n)
    pool = lane_rows(rng, n)
    cubes = reference_subcube_table(pool, n)
    want = cubes != FREE, reference_decision_tree_depth(cubes, n), reference_per_point_certificate(cubes, n)
    for count in (1, 7, 8, 9, 17):
        rows = rng.sample(range(len(pool)), count)
        for got, expected in zip(subcube_kernels(pool[rows]), want):
            assert_same_array(got, expected[rows])
    (row,) = rng.sample(range(len(pool)), 1)
    one_constant, one_dt, one_certs = subcube_kernels(TruthTable(n, pool[row]))
    assert_same_array(one_constant, want[0][row])
    assert type(one_dt) is int and one_dt == want[1][row]
    assert_same_array(one_certs, want[2][row])


def kernel_blocks(monkeypatch) -> dict:
    """The blocks of each later kernel run, in order: the value-plane rows of
    each block of the planes build ("planes"), the rows each block of the C
    sweep unpacks ("C") and the plane byte rows of each block of DT rounds
    ("DT")."""
    blocks, decided = {"planes": [], "C": [], "DT": []}, []
    lanes, sweep = measures._lanes, measures.digit_sweep

    def seen_lanes(planes, rows):
        blocks["C"].append(rows)
        return lanes(planes, rows)

    def seen_sweep(step, n, a, **kw):
        if step is measures._split_on_digit:
            blocks["planes"].append(len(a))
        elif not (decided and decided[-1] is a):  # a block's first DT round
            decided.append(a)
            blocks["DT"].append(len(a))
        return sweep(step, n, a, **kw)

    monkeypatch.setattr(measures, "_lanes", seen_lanes)
    monkeypatch.setattr(measures, "digit_sweep", seen_sweep)
    return blocks


@pytest.mark.parametrize(
    "cells, plane_rows, dt_bytes, c_rows",
    [
        (3**7 + 300, [16, 13], [1, 1, 1, 1], [9, 9, 9, 2]),
        (3**7 + 1400, [24, 5], [1, 1, 1, 1], [13, 13, 3]),
        (2 * 3**7 + 500, [29], [2, 2], [17, 12]),
        (3 * 3**7 + 1000, [29], [3, 1], [27, 2]),
    ],
    ids=["dt1-c9", "dt1-c13", "dt2-c17", "dt3-c27"],
)
def test_kernel_blocks_that_split_a_byte_lane(monkeypatch, cells, plane_rows, dt_bytes, c_rows):
    # CHUNK_CELLS set so that the planes of 29 rows (4 byte rows, the last
    # with 5 rows) are built in one or two blocks, a DT block holds 1 to 3 of
    # their byte rows and a C block 9, 13, 17 or 27 rows, so the C blocks
    # start inside a byte and the last block of each kernel is partial. The
    # DT steps run in blocks of a few hundred cells. A chunk and a library
    # call on the stack run the same blocks.
    n = 7
    rng = random.Random(cells)
    pool = np.concatenate([lane_rows(rng, n), [random_table(rng, n).values for _ in range(12)]])
    cubes = reference_subcube_table(pool, n)
    certs, dt = reference_per_point_certificate(cubes, n), reference_decision_tree_depth(cubes, n)
    monkeypatch.setattr(measures, "CHUNK_CELLS", cells)
    monkeypatch.setattr(measures, "DT_BLOCK_CELLS", 300)
    blocks = kernel_blocks(monkeypatch)
    starts = np.cumsum([0, *c_rows[:-1]]).tolist()
    planes = [-(-rows // 4) for rows in plane_rows]
    c = [range(start, start + rows) for start, rows in zip(starts, c_rows)]
    chunk = measures.Chunk(pool)
    assert_same_array(chunk.per_point_cert, certs)
    assert chunk.dt.tolist() == dt.tolist() and chunk.cert.tolist() == certs.max(axis=1).tolist()
    assert blocks == {"planes": planes, "C": c, "DT": dt_bytes}
    assert chunk.planes.shape == (4, 3**n)
    assert_same_array(measures._lanes(chunk.planes, range(len(pool))), (cubes != FREE).view(np.uint8))
    for kernel, want, kind in ((measures.per_point_certificate, certs, "C"), (decision_tree_depth, dt, "DT")):
        blocks.update(planes=[], C=[], DT=[])
        assert_same_array(kernel(pool), want)
        assert blocks == {"planes": planes, "C": [], "DT": [], kind: c if kind == "C" else dt_bytes}


def test_padding_lanes_never_change_a_real_row():
    # 9 rows fill one byte of the constancy planes and one lane of the next,
    # and two value-plane bytes and one lane of a third. The value planes'
    # padding lanes hold constant-0 rows, so lanes 9 to 11 of the constancy
    # planes read constant; whatever the padding lanes hold, each real row's
    # DT and C are the same.
    n, count = 7, 9
    stack = lane_rows(random.Random(9), n)[:count]
    planes = measures.constancy_planes(stack)
    assert (measures._lanes(planes, range(12))[count:] == 1).all()
    dt = decision_tree_depth(stack, planes=planes)
    certs = measures.per_point_certificate(stack, planes=planes)
    padded = np.concatenate([stack, np.zeros((16 - count, 1 << n), np.uint8)])
    assert_same_array(decision_tree_depth(padded)[:count], dt)
    assert_same_array(measures.per_point_certificate(padded)[:count], certs)
    padding = np.zeros_like(planes)
    padding[1] = 0xFF ^ 1  # the lanes of rows 9 to 15
    for lanes in (planes | padding, planes & ~padding):
        assert_same_array(decision_tree_depth(stack, planes=lanes), dt)
        assert_same_array(measures.per_point_certificate(stack, planes=lanes), certs)


@pytest.mark.parametrize(
    "n, rows, byte_tables_peak",
    [(14, 1, 15_993_126), (8, 256, 2_040_245), (12, 16, 9_462_495), (13, 8, 15_476_341)],
)
def test_subcube_columns_peak_no_higher_than_on_byte_tables(n, rows, byte_tables_peak):
    """C and DT of a lone n = 14 table and of a 256-row n = 8 chunk peak at
    most where they did when a chunk kept ``(N, 3**n)`` byte subcube tables:
    the bounds are those peaks, as this test measured them then, after the
    rest of this file (run alone, 16_065_905 and 2_051_885 bytes). The full
    n = 12 and n = 13 chunks peak at most where they did when a chunk built
    its planes in parts of at most 2**19 cells, one table each at these
    arities: the bounds are those peaks, measured the same way."""
    stack = np.random.default_rng(n).integers(0, 2, (rows, 1 << n), dtype=np.uint8)
    chunk = measures.Chunk(stack)
    _, peak = traced_bytes(lambda: (chunk.cert, chunk.dt))
    assert peak <= byte_tables_peak, f"{peak} bytes at the peak"
    assert chunk.planes.shape == (-(-rows // 8), 3**n)
