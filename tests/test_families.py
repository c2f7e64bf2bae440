"""Family generators: full-tree gap family, address, basics, compositions."""

import random
import time
from fractions import Fraction

import pytest

from boolfn import algebra, families, measures
from boolfn.core import CapExceededError, LazyFunction, materialize, parse
from boolfn.families import FK_MAX_DEPTH, address, compose_power, gap_family, named_basics


def test_gap_family_k1_is_identity():
    f1, tree = gap_family(1)
    assert f1 == parse("1:2")  # identity on x_1
    assert tree.depth() == 1
    assert tree.variables() == [1]


def test_gap_family_k3_measures():
    f3, tree = gap_family(3)
    table = materialize(f3)
    assert table.n == 7
    assert measures.alternation_decrease(table).alt == 7
    assert measures.decision_tree_depth(table) == 3
    assert algebra.degree(table) == 3
    assert tree.depth() == 3
    assert sorted(tree.variables()) == list(range(1, 8))


def test_gap_family_k4_sparsity():
    f4, _ = gap_family(4)
    table = materialize(f4)
    assert table.n == 15
    assert algebra.sparsity(table) >= 16


def test_gap_family_tree_matches_function():
    for k in (1, 2, 3):
        fk, tree = gap_family(k)
        table = materialize(fk)
        for x in range(1 << table.n):
            assert tree.evaluate(x, table.n) == table.evaluate(x)


def test_gap_family_closed_forms():
    for k in range(1, 5):
        record = measures.measure_report(gap_family(k)[0], bs_cap=16, cert_cap=16, dt_cap=16)
        for name in ("s", "bs", "C", "DT", "deg", *(f"deg_{m}" for m in range(2, 7))):
            assert record.value(name) == k, (k, name)
        assert [record.value(name) for name in ("alt", "dc", "negs")] == [(1 << k) - 1, (1 << (k - 1)) - 1, k - 1]
        assert record.value("sparsity") == 4 ** (k - 1)
        assert record.value("I") == Fraction(k + 1, 2)
        assert record.value("depends_on_all") is True


def test_gap_family_lazy_above_cap():
    f5, _ = gap_family(5)
    assert isinstance(f5, LazyFunction)
    assert f5.arity == 31
    f6, _ = gap_family(6)
    assert f6.arity == 63


def test_lazy_gap_family_descriptor_keeps_its_variable_order():
    order = list(range(31, 0, -1))
    f, tree = gap_family(5, variable_order=order)
    assert isinstance(f, LazyFunction) and tree.var == 31
    assert f.descriptor == {"kind": "fk", "k": 5, "arity": 31, "order": order}
    assert "order" not in gap_family(5)[0].descriptor


def test_gap_family_invariance_under_renaming():
    rng = random.Random(3)
    for k in (2, 3):
        n = (1 << k) - 1
        base = materialize(gap_family(k)[0])
        want = (
            measures.alternation_decrease(base).alt,
            measures.sensitivity(base),
            measures.block_sensitivity(base),
            measures.decision_tree_depth(base),
            algebra.degree(base),
            algebra.sparsity(base),
        )
        for _ in range(3):
            order = list(range(1, n + 1))
            rng.shuffle(order)
            shuffled = materialize(gap_family(k, variable_order=order)[0])
            got = (
                measures.alternation_decrease(shuffled).alt,
                measures.sensitivity(shuffled),
                measures.block_sensitivity(shuffled),
                measures.decision_tree_depth(shuffled),
                algebra.degree(shuffled),
                algebra.sparsity(shuffled),
            )
            assert got == want


def test_gap_family_validation():
    with pytest.raises(ValueError):
        gap_family(0)
    with pytest.raises(ValueError):
        gap_family(2, variable_order=[1, 2, 2])


def test_address_t1_multiplexer():
    mux = address(1)
    assert mux.n == 3
    for x1 in (0, 1):
        for y0 in (0, 1):
            for y1 in (0, 1):
                point = (x1 << 2) | (y0 << 1) | y1
                assert mux.evaluate(point) == (y1 if x1 else y0)


def test_address_t2_separation_inputs():
    addr2 = address(2)
    assert addr2.n == 6
    assert measures.sensitivity(addr2) == 3
    assert measures.alternation_decrease(addr2).alt == 5
    assert addr2.evaluate(0) == 0
    assert addr2.evaluate(0b111111) == 1


def test_address_paper_chain_values():
    addr2 = address(2)
    points = ["000000", "001000", "101000", "101010", "111010", "111011", "111111"]
    values = [addr2.evaluate(p) for p in points]
    assert values == [0, 1, 0, 1, 0, 1, 1]
    assert sum(a != b for a, b in zip(values, values[1:])) == 5


def test_address_cap():
    with pytest.raises(CapExceededError):
        address(5)  # 5 + 32 = 37 > 24


def test_address_validation():
    for t in (0, -1):
        with pytest.raises(ValueError, match="t must be >= 1"):
            address(t)


def test_named_basics_examples():
    assert list(named_basics("parity", 3).values) == [0, 1, 1, 0, 1, 0, 0, 1]
    assert measures.alternation_decrease(named_basics("majority", 3)).alt == 1
    assert named_basics("threshold", 2, threshold=1) == named_basics("or", 2)
    assert named_basics("threshold", 3, threshold=3) == named_basics("and", 3)


def test_named_basics_validation():
    with pytest.raises(ValueError):
        named_basics("majority", 4)
    with pytest.raises(ValueError):
        named_basics("threshold", 3)
    with pytest.raises(ValueError):
        named_basics("xnorish", 3)


def test_compose_power_examples():
    p2 = named_basics("parity", 2)
    assert materialize(compose_power(p2, 2)) == named_basics("parity", 4)

    g2 = compose_power(address(2), 2)
    assert g2.arity == 36
    assert g2.descriptor["power"] == 2

    ident = parse("1:2")
    tower = compose_power(ident, 5)
    assert tower.arity == 1
    assert materialize(tower) == ident


def test_compose_power_materializes_from_its_base():
    and4 = named_basics("and", 4)
    power = compose_power(and4, 2)
    start = time.perf_counter()
    table = materialize(power)
    assert time.perf_counter() - start < 0.02  # the point loop took about 0.3 s
    assert table == named_basics("and", 16)
    assert compose_power(and4, 1).tabulate is not None


def test_compose_power_bounds():
    and2 = named_basics("and", 2)
    assert compose_power(and2, FK_MAX_DEPTH).arity == 1 << FK_MAX_DEPTH
    parity3 = named_basics("parity", 3)
    for base, k in ((and2, 0), (and2, FK_MAX_DEPTH + 1), (parity3, 11)):  # 3**11 > 2**16
        with pytest.raises(ValueError):
            compose_power(base, k)


def test_compose_power_rejects_an_arity_0_base():
    with pytest.raises(ValueError, match="base arity must be >= 1"):
        compose_power(parse("0:1"), 2)


def test_compose_power_sensitivity_base_case():
    # the k=1 instance is checkable exactly; higher powers are out of dense reach
    g1 = materialize(compose_power(address(2), 1))
    assert measures.sensitivity(g1) == 3
