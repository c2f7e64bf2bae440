"""Chain objects, the three constructions, and the monotone decomposition."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from boolfn import chains, families, measures
from boolfn.chains import (
    Chain,
    alternation_along,
    gap_family_chain,
    glued_composition_chain,
    monotone_decomposition,
)
from boolfn.core import (
    ArityMismatchError,
    TruthTable,
    compose,
    is_monotone,
    materialize,
    popcounts,
    serialize,
)


def random_table(rng, n):
    return TruthTable.from_packed_int(n, rng.getrandbits(1 << n))


def point_order_profile(values, n: int) -> list[int]:
    """The alternation DP in plain index order, one point at a time: every
    predecessor x ^ e_p of x is a smaller index, so it is already done."""
    A = [0] * (1 << n)
    for x in range(1, 1 << n):
        preds = (x ^ (1 << p) for p in range(n) if x >> p & 1)
        A[x] = max(A[y] + int(values[y] != values[x]) for y in preds)
    return A


def check_profiles(tables):
    """The profile of each table alone and of their stack: equal, read-only,
    and equal to the point-order DP."""
    stack = chains.alternation_profile(np.stack([t.values for t in tables]))
    assert not stack.flags.writeable and stack.dtype == np.uint8
    for row, t in zip(stack, tables):
        single = chains.alternation_profile(t)
        assert not single.flags.writeable
        assert np.array_equal(row, single)
        assert single.tolist() == point_order_profile(t.values, t.n)
    return stack


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_blocked_dp_matches_oracles_at_every_block_size(data):
    """Blocks of 0 to 3 low bits put the cross-block step, and plans above
    BLOCK_BITS bits, on tables small enough for the brute-force oracle."""
    n = data.draw(st.integers(0, 6))
    packed = data.draw(st.lists(st.integers(0, (1 << (1 << n)) - 1), min_size=1, max_size=4))
    tables = [TruthTable.from_packed_int(n, p) for p in packed]
    alts = [oracles.brute_alternation(t) for t in tables]
    with pytest.MonkeyPatch.context() as mp:
        for bits in (0, 1, 2, 3):
            mp.setattr(chains, "BLOCK_BITS", bits)
            assert check_profiles(tables)[:, -1].tolist() == alts


@pytest.mark.parametrize("block_bits", [4, chains.BLOCK_BITS])
def test_blocked_dp_matches_point_order_at_n12(block_bits, monkeypatch):
    monkeypatch.setattr(chains, "BLOCK_BITS", block_bits)
    rng = random.Random(12)
    tables = [random_table(rng, 12) for _ in range(3)]
    tables += [families.named_basics(name, 12) for name in ("parity", "and", "or")]
    tables.append(TruthTable.constant(12, 1))
    check_profiles(tables)


def test_profile_of_parity_at_n20_is_the_hamming_weight():
    # A is built and returned in uint8 (A <= n), with no widening copy
    parity = families.named_basics("parity", 20)
    profile = chains.alternation_profile(parity)
    assert profile.dtype == np.uint8 and np.array_equal(profile, popcounts(20))


def assert_profiles_exact(rows: np.ndarray) -> None:
    """The profiles of a stack, and of each row alone, satisfy the DP's
    defining recurrence exactly: A(0) = 0, and A(x) = max over the set bits
    i of x of A(x ^ e_i) + [f(x ^ e_i) != f(x)]. Each cell packs its flat
    index, A and f, so the halves along each variable pair every x with
    each predecessor; the max is attained where some step is tight."""
    n = rows.shape[-1].bit_length() - 1
    A = chains.alternation_profile(rows)
    assert A.dtype == np.uint8 and not A.flags.writeable
    for row, a in zip(rows, A):
        assert np.array_equal(chains.alternation_profile(TruthTable(n, row)), a)
    code = np.arange(rows.size, dtype=np.int32).reshape(rows.shape) << 6 | A << 1 | rows
    tight = np.zeros(rows.size, dtype=bool)
    for j in range(n):
        halves = code.reshape(len(code), 1 << j, 2, -1)
        lo, hi = halves[:, :, 0], halves[:, :, 1]
        step = (hi >> 1 & 31) - (lo >> 1 & 31) - ((lo ^ hi) & 1)
        assert (step >= 0).all(), n
        tight[(hi >> 6)[step == 0]] = True
    assert (A[:, 0] == 0).all() and tight.reshape(rows.shape)[:, 1:].all(), n


@pytest.mark.parametrize("n", range(7, 21))
def test_profiles_satisfy_the_recurrence_exactly(n):
    # above BLOCK_BITS = 10 bits the high blocks' low level 0 is more than
    # the point 0^n, so a missed round-up there shows
    rng = np.random.default_rng(n)
    rows = [rng.integers(0, 2, 1 << n, dtype=np.uint8) for _ in range(2)]
    rows += [(families.named_basics(name, n).values) for name in ("parity", "and")]
    rows += [np.zeros(1 << n, dtype=np.uint8), np.ones(1 << n, dtype=np.uint8)]
    if n == 7:
        rows.append(families.gap_family(3)[0].values)
    assert_profiles_exact(np.stack(rows))


def test_profiles_of_every_small_table_match_the_brute_force():
    for n in range(4):
        tables = [TruthTable.from_packed_int(n, p) for p in range(1 << (1 << n))]
        alts = chains.alternation_profile(np.stack([t.values for t in tables]))[:, -1]
        assert alts.tolist() == [oracles.brute_alternation(t) for t in tables]
        assert [int(chains.alternation_profile(t)[-1]) for t in tables] == alts.tolist()


def test_max_alternation_witness_is_the_record_witness():
    rng = random.Random(190)
    for n in range(11):
        f = random_table(rng, n)
        chain, record = chains.max_alternation_witness(f), measures.alternation_decrease(f)
        assert chain == record.witness and alternation_along(f, chain) == record.alt
        if n <= 6:
            assert record.alt == oracles.brute_alternation(f)


def traced_bytes(f, *args):
    """(held, peak): the bytes that ``f(*args)`` leaves allocated, and the
    most it had allocated at once."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        f(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held - before, peak - before


def test_alternation_profile_memory_is_linear_in_the_table(monkeypatch):
    """Peak memory is the uint8 profile and one level of blocks, under 4
    bytes per point; what stays after a call is only the kept plans of at
    most BLOCK_BITS bits, also when the high part has more bits than that."""
    rng = random.Random(18)
    t16, t18 = random_table(rng, 16), random_table(rng, 18)
    _, peak = traced_bytes(chains.alternation_profile, t18)
    assert peak <= 4 << 18, f"{peak / (1 << 18):.2f} bytes per point at the peak for n = 18"
    for block_bits in (chains.BLOCK_BITS, 4):
        monkeypatch.setattr(chains, "BLOCK_BITS", block_bits)
        chains._level_plan.cache_clear()
        held, _ = traced_bytes(chains.alternation_profile, t16)
        assert held < 1 << 16, f"{held / (1 << 16):.2f} bytes per point held after n = 16"


def test_chain_validation_and_points():
    c = Chain(3, (2, 1, 3))
    assert list(c.points()) == [0b000, 0b010, 0b110, 0b111]
    with pytest.raises(ValueError):
        Chain(3, (1, 1, 2))
    with pytest.raises(ValueError):
        Chain(3, (1, 2))


def test_chain_json_round_trip():
    c = Chain(4, (4, 2, 1, 3))
    assert Chain.from_json(c.to_json()) == c


@pytest.mark.parametrize("data", [7, "21", [2.9, 1], [True, 2], [1.5, 2], {}, None], ids=repr)
def test_chain_json_is_a_list_of_integers(data):
    # a string, a float or a bool is not read as an index, not even one that
    # would truncate to a valid order
    with pytest.raises(ValueError, match="chain JSON must be an array"):
        Chain.from_json(data, 2)


def test_alternation_along_examples():
    rng = random.Random(73)
    for n in (2, 3, 5):
        p = families.named_basics("parity", n)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        assert alternation_along(p, Chain(n, tuple(order))) == n

    addr2 = families.address(2)
    paper_chain = Chain(6, (3, 1, 5, 2, 6, 4))  # adds y_0, x_1, y_2, x_2, y_3, y_1
    points = [f"{p:06b}" for p in paper_chain.points()]
    assert points == ["000000", "001000", "101000", "101010", "111010", "111011", "111111"]
    assert alternation_along(addr2, paper_chain) == 5

    const = TruthTable.constant(3, 1)
    assert alternation_along(const, Chain(3, (1, 2, 3))) == 0


def test_alternation_along_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        alternation_along(families.named_basics("parity", 3), Chain(2, (1, 2)))


def test_gap_family_chain_examples():
    f1, tree1 = families.gap_family(1)
    assert gap_family_chain(tree1).order == (1,)
    assert alternation_along(f1, gap_family_chain(tree1)) == 1

    f3, tree3 = families.gap_family(3)
    chain3 = gap_family_chain(tree3)
    assert sorted(chain3.order) == list(range(1, 8))
    assert alternation_along(f3, chain3) == 7

    f6, tree6 = families.gap_family(6)  # n = 63, lazy
    chain6 = gap_family_chain(tree6)
    assert alternation_along(f6, chain6) == 63


def test_gap_family_chain_matches_dp_optimum():
    for k in (1, 2, 3, 4):
        fk, tree = families.gap_family(k)
        constructed = alternation_along(fk, gap_family_chain(tree))
        assert constructed == measures.alternation_decrease(fk).alt == (1 << k) - 1


def test_gap_family_chain_rejects_malformed():
    from boolfn.families import DecisionTreeShape

    bad_leaf = DecisionTreeShape(
        var=1,
        low=DecisionTreeShape(value=1),
        high=DecisionTreeShape(value=0),
    )
    with pytest.raises(ValueError):
        gap_family_chain(bad_leaf)
    with pytest.raises(ValueError):
        gap_family_chain(DecisionTreeShape(value=0))


def test_gap_family_chain_names_each_malformed_node():
    from boolfn.families import DecisionTreeShape

    leaf0, leaf1 = DecisionTreeShape(value=0), DecisionTreeShape(value=1)
    missing = DecisionTreeShape(var=1, low=leaf0)
    with pytest.raises(ValueError, match="missing children"):
        gap_family_chain(missing)
    mixed = DecisionTreeShape(var=1, low=leaf0, high=DecisionTreeShape(var=2, low=leaf0, high=leaf1))
    with pytest.raises(ValueError, match="must match"):
        gap_family_chain(mixed)


def test_glued_chain_parity_full():
    p2 = families.named_basics("parity", 2)
    p3 = families.named_basics("parity", 3)
    f_chain = measures.alternation_decrease(p2).witness
    g_chain = measures.alternation_decrease(p3).witness
    glued = glued_composition_chain(f_chain, g_chain, p3)
    assert alternation_along(compose(p2, p3), glued) == 6


def test_glued_chain_addr_self_composition():
    addr2 = families.address(2)
    w = measures.alternation_decrease(addr2).witness
    glued = glued_composition_chain(w, w, addr2)
    g2 = families.compose_power(addr2, 2)
    assert glued.arity == 36
    assert alternation_along(g2, glued) >= 25


def test_glued_chain_rejects_constant_inner():
    p2 = families.named_basics("parity", 2)
    const = TruthTable.constant(3, 0)
    w = measures.alternation_decrease(p2).witness
    c3 = Chain(3, (1, 2, 3))
    with pytest.raises(ValueError):
        glued_composition_chain(w, c3, const)


def test_glued_chain_rejects_an_arity_mismatch():
    p2, p3 = families.named_basics("parity", 2), families.named_basics("parity", 3)
    chain3 = measures.alternation_decrease(p3).witness
    with pytest.raises(ArityMismatchError, match="g arity 2 != chain arity 3"):
        glued_composition_chain(chain3, chain3, p2)


def test_glued_chain_product_bound_random():
    rng = random.Random(83)
    done = 0
    while done < 80:
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        if m * n > 16:
            continue
        f = random_table(rng, m)
        g = random_table(rng, n)
        if g.evaluate(0) == g.evaluate((1 << n) - 1):
            continue
        rf = measures.alternation_decrease(f)
        rg = measures.alternation_decrease(g)
        glued = glued_composition_chain(rf.witness, rg.witness, g)
        # Chain construction validates the bijection; the point sequence is
        # strictly increasing by construction of points().
        pts = list(glued.points())
        assert all(a & b == a and a != b for a, b in zip(pts, pts[1:]))
        got = alternation_along(compose(f, g), glued)
        assert got >= rf.alt * rg.alt
        done += 1


def test_glued_chain_strictness_example():
    """OR_2 over parity_3: the DP value exceeds the product bound."""
    or2 = families.named_basics("or", 2)
    p3 = families.named_basics("parity", 3)
    product = (
        measures.alternation_decrease(or2).alt * measures.alternation_decrease(p3).alt
    )
    composed = materialize(compose(or2, p3))
    full = measures.alternation_decrease(composed).alt
    assert product == 3
    assert full == 5  # frozen from the DP; endpoints differ so 6 is impossible
    assert full > product


def test_self_glue_power_bound():
    addr2 = families.address(2)
    w = measures.alternation_decrease(addr2).witness
    glued = glued_composition_chain(w, w, addr2)
    alt_addr = measures.alternation_decrease(addr2).alt
    g2 = families.compose_power(addr2, 2)
    assert alternation_along(g2, glued) >= alt_addr**2


def test_monotone_decomposition_examples():
    maj3 = families.named_basics("majority", 3)
    parts, negated = monotone_decomposition(maj3)
    assert [serialize(p) for p in parts] == [serialize(maj3)]
    assert not negated

    p3 = families.named_basics("parity", 3)
    parts, negated = monotone_decomposition(p3)
    assert len(parts) == 3 and not negated
    acc = TruthTable.constant(3, 0).values.copy()
    for part in parts:
        assert is_monotone(part)
        acc = acc ^ part.values
    assert list(acc) == list(p3.values)

    parts, negated = monotone_decomposition(TruthTable.constant(2, 1))
    assert parts == [] and negated


def test_monotone_decomposition_random():
    rng = random.Random(93)
    for _ in range(40):
        f = random_table(rng, rng.randrange(1, 7))
        parts, negated = monotone_decomposition(f)
        assert len(parts) == measures.alternation_decrease(f).alt
        acc = 0
        for part in parts:
            assert is_monotone(part)
            acc = acc ^ oracles.packed_int(part)
        if negated:
            acc ^= (1 << (1 << f.n)) - 1
        assert acc == oracles.packed_int(f)
        assert negated == bool(f.evaluate(0))
