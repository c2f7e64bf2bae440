"""Combinatorial measures against definitions and brute-force oracles."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolfn import chains, families, measures
from boolfn.core import CapExceededError, TruthTable, is_monotone, materialize
from boolfn.measures import (
    alternation_decrease,
    block_sensitivity,
    certificate_complexity,
    decision_tree_depth,
    influence,
    measure_report,
    negation_complexity,
    sensitivity,
)

import oracles


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
    cubes = measures.subcube_table(f)
    assert decision_tree_depth(f, cubes=cubes) == oracles.brute_decision_tree_depth(f)
    assert certificate_complexity(f, cubes=cubes) == oracles.brute_certificate(f)
    assert certificate_complexity(f, x, cubes=cubes) == oracles.brute_certificate_at(f, x)


def test_subcube_ceiling():
    ceiling = measures.SUBCUBE_MAX_ARITY
    assert ceiling >= max(measures.CERT_CAP_DEFAULT, measures.DT_CAP_DEFAULT)
    with pytest.raises(CapExceededError):
        measures.subcube_table(TruthTable.constant(ceiling + 1, 0))
    for caps in ({"cert_cap": ceiling + 1}, {"dt_cap": ceiling + 1}):
        with pytest.raises(CapExceededError):
            measures.MeasureContext(TruthTable.constant(2, 0), **caps)


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
    assert report.I <= report.s <= report.bs
    assert report.alt in (2 * report.dc - 1, 2 * report.dc, 2 * report.dc + 1)


def test_measure_report_honors_caps():
    f = families.named_basics("parity", 6)
    report = measure_report(f, bs_cap=4, cert_cap=4, dt_cap=4)
    assert report.bs is None and report.C is None and report.DT is None
    assert set(report.skips) == {"bs", "C", "DT"}


def test_per_point_table():
    maj3 = families.named_basics("majority", 3)
    report = measure_report(maj3, per_point=True)
    assert report.per_point["s"] == [0, 2, 2, 2, 2, 2, 2, 0]
