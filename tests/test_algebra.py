"""Polynomial and spectral algebra: transforms, degrees, exact identities."""

import random
import timeit
from fractions import Fraction

import numpy as np
import pytest

from boolfn import algebra, core, families, measures, verify
from boolfn.algebra import (
    degree,
    fourier_transform,
    influence_from_spectrum,
    multilinear_coefficients,
    sparsity,
    spectral_sums,
)
from boolfn.core import CHUNK_CELLS, TruthTable, materialize, popcounts

import oracles
from test_chains import traced_bytes


def random_table(rng, n):
    return TruthTable.from_packed_int(n, rng.getrandbits(1 << n))


def reduced(f, modulus=None):
    """f's multilinear polynomial over Z, or its coefficients reduced mod m."""
    coeffs = multilinear_coefficients(f).coeffs
    return algebra.MultilinearPoly(f.n, coeffs if modulus is None else coeffs % modulus)


def test_mobius_examples():
    and2 = families.named_basics("and", 2)
    poly = multilinear_coefficients(and2)
    assert dict(poly.items()) == {(1, 2): 1}
    assert poly.coefficient(()) == 0 and poly.coefficient((1,)) == 0

    p2 = families.named_basics("parity", 2)
    poly = multilinear_coefficients(p2)
    assert dict(poly.items()) == {(1,): 1, (2,): 1, (1, 2): -2}

    mod2 = reduced(p2, 2)
    assert dict(mod2.items()) == {(1,): 1, (2,): 1}


def test_mobius_modulus_validation():
    p2 = families.named_basics("parity", 2)
    with pytest.raises(ValueError):
        degree(p2, 1)


def test_mobius_matches_oracle():
    rng = random.Random(11)
    for _ in range(15):
        f = random_table(rng, rng.randrange(1, 5))
        for modulus in (None, 2, 3, 6):
            got = reduced(f, modulus)
            want = oracles.brute_mobius(f, modulus)
            assert {s: c for s, c in want.items() if c != 0} == dict(got.items())
            assert degree(f, modulus) == oracles.brute_degree(f, modulus)


def test_mobius_zeta_round_trip():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randrange(0, 11)
        f = random_table(rng, n)
        for modulus in (None, 2, 3, 4, 5, 6):
            values = oracles.zeta(reduced(f, modulus).coeffs, n)
            if modulus is not None:
                values %= modulus
            # bits are their own residues mod m >= 2, so both cases compare equal
            assert list(values) == list(f.values)


def test_degree_examples():
    for k in (1, 2, 3, 4):
        fk, _ = families.gap_family(k)
        assert degree(materialize(fk)) == k
    for n in (2, 3, 5):
        p = families.named_basics("parity", n)
        assert degree(p) == n
        assert degree(p, 2) == 1
    maj3 = families.named_basics("majority", 3)
    assert oracles.brute_degree(maj3, 2) == 2
    assert degree(maj3, 2) == 2


def full_pass_degrees(coeffs, n, m=None):
    """Every row's degree from one pass over all its coefficients."""
    return np.where((coeffs if m is None else coeffs % m) != 0, popcounts(n), 0).max(-1)


# The moduli of the columns of algebra.degrees, None for the degree over Z.
MODULI = (None, *algebra.MODULI)


def vanishing_top_row(rng, n, m):
    """A random table whose top coefficient is nonzero but 0 mod m."""
    while True:
        values = random_table(rng, n).values
        top = int(multilinear_coefficients(values).coeffs[-1])
        if top and top % m == 0:
            return values


def and_of_first(n, j):
    """AND of the first j variables: degree j, reached only by the full pass."""
    return (np.arange(1 << n) >> (n - j) == (1 << j) - 1).astype(np.uint8)


@pytest.mark.parametrize("m", MODULI)
def test_top_down_degrees_match_the_full_pass(m):
    column = MODULI.index(m)
    stack = np.stack([TruthTable.from_packed_int(3, p).values for p in range(256)])
    coeffs = multilinear_coefficients(stack)
    assert np.array_equal(algebra.degrees(coeffs, 3)[:, column], full_pass_degrees(coeffs, 3, m))
    rng = random.Random(8 if m is None else m)
    special = [
        TruthTable.constant(8, 0).values,
        TruthTable.constant(8, 1).values,
        families.named_basics("parity", 8).values,
        *(and_of_first(8, j) for j in (1, 2, 3)),
        vanishing_top_row(rng, 8, m or 2),
    ]
    for rows in (special, special[:6]):
        for _ in range(3):
            mixed = [random_table(rng, 8).values for _ in range(rng.randrange(0, 40))] + rows
            rng.shuffle(mixed)
            coeffs = multilinear_coefficients(np.stack(mixed))
            got = algebra.degrees(coeffs, 8)[:, column]
            assert got.tolist() == full_pass_degrees(coeffs, 8, m).tolist()
            for row, deg in zip(coeffs, got):
                assert algebra.degrees(row, 8)[column] == deg


def test_top_down_degrees_cost_about_a_full_pass_on_low_degree_rows():
    """A constant is the scan's worst case: no level above 0 has a nonzero
    coefficient, so it falls back to the full pass after a few levels. That
    pass finds all six degrees at about the cost of one modulus's."""
    n = 18
    coeffs = np.zeros(1 << n, dtype=np.int64)
    coeffs[0] = 1
    full = min(timeit.repeat(lambda: full_pass_degrees(coeffs, n, 3), number=1, repeat=7))
    top_down = min(timeit.repeat(lambda: algebra.degrees(coeffs, n), number=1, repeat=7))
    assert algebra.degrees(coeffs, n).tolist() == [0] * len(MODULI)
    assert top_down <= 3 * full, f"top-down {top_down * 1e3:.2f} ms, full pass {full * 1e3:.2f} ms"


def brute_degrees(t):
    return [oracles.brute_degree(t, m) for m in MODULI]


def test_degrees_of_every_small_table_match_the_oracle():
    for n in range(4):
        tables = [TruthTable.from_packed_int(n, p) for p in range(1 << (1 << n))]
        got = algebra.degrees(multilinear_coefficients(np.stack([t.values for t in tables])), n)
        assert got.tolist() == [brute_degrees(t) for t in tables]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_degrees_of_seeded_tables_match_the_oracle(n):
    rng = random.Random(n)
    tables = [random_table(rng, n) for _ in range(12)] + [TruthTable(n, and_of_first(n, j)) for j in (1, n)]
    got = algebra.degrees(multilinear_coefficients(np.stack([t.values for t in tables])), n)
    assert got.tolist() == [brute_degrees(t) for t in tables]
    assert [[degree(t, m) for m in MODULI] for t in tables] == got.tolist()


@pytest.mark.parametrize("n", [8, 18])
def test_low_degree_and_vanishing_top_rows_match_the_full_pass(n):
    rng = random.Random(n)
    rows = [
        TruthTable.constant(n, 0).values,
        TruthTable.constant(n, 1).values,
        families.named_basics("parity", n).values,
        *(and_of_first(n, j) for j in (1, 2, 3)),
        *(vanishing_top_row(rng, n, m) for m in algebra.MODULI),
    ]
    # alone, as a lone record's chunk scans them, and stacked, where the
    # open rows share one full pass
    stacks = [row[None] for row in rows] + [np.stack(rows)]
    for stack in stacks:
        coeffs = multilinear_coefficients(stack)
        want = np.stack([full_pass_degrees(coeffs, n, m) for m in MODULI], axis=-1)
        assert algebra.degrees(coeffs, n).tolist() == want.tolist()


@pytest.mark.parametrize("n", [3, 8])
def test_degrees_read_every_residue_of_a_coefficient(n):
    """Rows of coefficients, not of a table: a constant term and one top
    coefficient c, for every c in -130..130, so each residue mod 60 and
    nonzero multiples of 60 occur, and each row's degrees are n or 0."""
    top = np.arange(-130, 131)
    coeffs = np.zeros((len(top), 1 << n), dtype=np.int32)
    coeffs[:, 0], coeffs[:, -1] = 1, top
    want = [[n if (c if m is None else c % m) else 0 for m in MODULI] for c in top.tolist()]
    assert algebra.degrees(coeffs, n).tolist() == want
    assert [algebra.degrees(row, n).tolist() for row in coeffs] == want


def inner_product(n):
    """The inner product mod 2 of a point's top n // 2 bits with its low
    n // 2 bits (the middle bit unused at odd n): degree 2 over Z_2 from
    n = 2 up, and 2 * (n // 2) over Z."""
    x, k = np.arange(1 << n), n // 2
    return popcounts(n)[x >> (n - k) & x & ((1 << k) - 1)] & 1


@pytest.mark.parametrize("cells", [1, 7, 64])
def test_blocked_full_pass_matches_the_oracle_and_the_whole_row_formula(monkeypatch, cells):
    # The scan's budget runs out at once below n = 5, and on parity's and the
    # inner product's low deg_2 above, so the open rows take the full pass.
    # Its blocks of 1, 7 or 64 cells split each row's columns, over one open
    # row or several (1 or 2 columns at 7 cells), the last block short.
    monkeypatch.setattr(algebra, "CHUNK_CELLS", cells)
    rng = random.Random(cells)
    for n in range(13):
        tables = [families.named_basics(name, n) for name in ("parity", "and")] if n else []
        tables += [TruthTable(n, inner_product(n))] + [random_table(rng, n) for _ in range(3)]
        coeffs = multilinear_coefficients(np.stack([t.values for t in tables]))
        got = algebra.degrees(coeffs, n)
        want = np.stack([full_pass_degrees(coeffs, n, m) for m in MODULI], axis=-1)
        assert got.tolist() == want.tolist(), n
        assert [algebra.degrees(row, n).tolist() for row in coeffs] == want.tolist(), n
        if n <= 6:
            assert got.tolist() == [brute_degrees(t) for t in tables], n


def test_degrees_full_pass_peak_is_bounded_by_blocks():
    """Parity's deg_2 is 1, so the scan leaves it open and the full pass
    reads every coefficient of the n = 18 row, in blocks of at most
    CHUNK_CELLS cells: its uint8 popcounts, copies, residues and masks peak
    at a few int64 blocks, whatever 2**n is, not at a transposed copy of the
    row."""
    n = 18
    coeffs = multilinear_coefficients(families.named_basics("parity", n)).coeffs
    _, peak = traced_bytes(algebra.degrees, coeffs, n)
    # parity's coefficient on S is (-2)**(|S| - 1): odd only at |S| = 1, 0 mod 4 above |S| = 2
    assert algebra.degrees(coeffs, n).tolist() == [n, 1, n, 2, n, n]
    assert peak <= 3 * 8 * CHUNK_CELLS, f"{peak / (1 << n):.2f} bytes per point at the peak"


def test_degree_takes_any_modulus():
    rng = random.Random(7)
    for n in (3, 5):
        for _ in range(5):
            t = random_table(rng, n)
            for m in (7, 8, 9, 10, 12, 60, 97):
                assert degree(t, m) == oracles.brute_degree(t, m)


def test_degree_above_every_coefficient_is_the_degree_over_z():
    # every coefficient is within 2**(n - 1), so no such m divides a nonzero one
    rng = random.Random(31)
    for n in range(9):
        for t in (TruthTable(n, popcounts(n) & 1), TruthTable(n, popcounts(n) == n), random_table(rng, n)):
            for m in (1 << 31, (1 << 31) + 1, 1 << 40, 1 << 64):
                assert degree(t, m) == degree(t), (n, m)


def test_degree_at_the_moduli_around_the_largest_coefficient():
    # parity's coefficient on S is (-2)**(|S| - 1): its top one is 2**(n - 1) in size
    for n in range(1, 13):
        t = families.named_basics("parity", n)
        coeffs = multilinear_coefficients(t).coeffs.tolist()
        for m in sorted({1 << (n - 1), (1 << (n - 1)) + 1, (1 << n) - 1, 1 << n} - {1}):
            want = int(algebra.degrees(np.array([c % m for c in coeffs]), n)[0])
            assert degree(t, m) == want, (n, m)
            if n <= 5:
                assert want == oracles.brute_degree(t, m), (n, m)


MODULI_OF_DEGREE = (2, 3, 4, 5, 6, 7, 60, 61, 255, 256, 257, 65537, (1 << 31) - 1)


@pytest.mark.parametrize("cells", [CHUNK_CELLS, 7])
def test_degree_mod_m_matches_the_whole_array_reduction_and_the_oracle(monkeypatch, cells):
    # at 7 cells the residues are reduced in blocks of 7 coefficients, the
    # last one short; they are uint8 up to m = 256 and uint16 above. Above
    # 2**(n - 1), the bound of every coefficient, none is made: the scan
    # reads the coefficients themselves, in their own dtype
    monkeypatch.setattr(algebra, "CHUNK_CELLS", cells)
    scanned, degrees = [], algebra.degrees
    monkeypatch.setattr(algebra, "degrees", lambda coeffs, n: scanned.append(coeffs.dtype) or degrees(coeffs, n))
    rng = random.Random(cells)
    for n in range(13):
        tables = [families.named_basics(name, n) for name in ("parity", "and")] if n else []
        tables += [TruthTable(n, inner_product(n)), random_table(rng, n)]
        for t in tables:
            coeffs = multilinear_coefficients(t).coeffs
            for m in MODULI_OF_DEGREE:
                scanned.clear()
                got = degree(t, m)
                assert got == int(degrees(coeffs % m, n)[0]), (n, m)
                residues = np.uint8 if m <= 256 else np.uint16
                assert scanned == [coeffs.dtype if m > 1 << max(n - 1, 0) else residues], (n, m)
                if n <= 5:
                    assert got == oracles.brute_degree(t, m), (n, m)


@pytest.mark.parametrize("m", [2, 7, 256])
def test_degree_mod_m_peak_per_point(m):
    """degree(f, m) holds the int32 coefficients, their uint8 residues and,
    where the scan takes the full pass (parity), the uint8 weights: about 6
    bytes per point at n = 18, not a second int32 array of residues."""
    n = 18
    for t in (random_table(random.Random(18), n), families.named_basics("parity", n)):
        _, peak = traced_bytes(degree, t, m)
        assert peak / (1 << n) <= 6.5, f"{peak / (1 << n):.2f} bytes per point at the peak"


def test_degree_reduces_only_within_the_largest_coefficient(monkeypatch):
    # parity's top coefficient is (-2)**(n - 1): m = 2**(n - 1) divides it,
    # so deg_m = n - 1 there, and it is the largest m whose residues are made
    scanned, degrees = [], algebra.degrees
    monkeypatch.setattr(algebra, "degrees", lambda coeffs, n: scanned.append(coeffs.dtype) or degrees(coeffs, n))
    for n in range(1, 13):
        t, top = families.named_basics("parity", n), 1 << (n - 1)
        if top > 1:
            assert (degree(t, top), scanned.pop()) == (n - 1, np.uint8 if top <= 256 else np.uint16), n
        assert (degree(t, top + 1), scanned.pop()) == (n, np.int32), n


def test_degree_above_the_largest_coefficient_peak_per_point():
    """Above 2**(n - 1) no residues are made: degree(f, m) holds the int32
    coefficients and the scan's blocks, under 5 bytes per point at n = 18."""
    n = 18
    _, peak = traced_bytes(degree, random_table(random.Random(18), n), (1 << 31) - 1)
    assert peak <= 5 << n, f"{peak / (1 << n):.2f} bytes per point at the peak"


def test_fourier_examples():
    for n in (1, 2, 4):
        p = families.named_basics("parity", n)
        spec = fourier_transform(p)
        assert spec.sparsity() == 1
        assert abs(spec.coefficient(range(1, n + 1))) == 1

    and2 = families.named_basics("and", 2)
    spec = fourier_transform(and2)
    assert spec.sparsity() == 4
    # every coefficient of AND_2 has magnitude 1/2, i.e. scaled magnitude 2
    assert all(abs(scaled) == 2 for _, scaled in spec.support())
    assert oracles.brute_fourier_scaled(and2) == {
        (): 2, (1,): 2, (2,): 2, (1, 2): -2,
    }

    const0 = TruthTable.constant(3, 0)
    spec = fourier_transform(const0)
    assert spec.coefficient(()) == 1
    assert spec.sparsity() == 1


@pytest.mark.parametrize("n", [0, 1])
def test_fourier_at_arity_0_and_1(n):
    tables = [TruthTable.from_packed_int(n, p) for p in range(1 << (1 << n))]
    stack = fourier_transform(np.stack([t.values for t in tables]))
    assert not stack.flags.writeable
    for row, t in zip(stack, tables):
        spec = fourier_transform(t)
        assert not spec.scaled.flags.writeable
        assert np.array_equal(spec.scaled, row)
        want = oracles.brute_fourier_scaled(t)
        assert {subset: int(c) for subset, c in zip(want, row)} == want
        assert dict(spec.support()) == {s: c for s, c in want.items() if c}


def test_fourier_matches_oracle():
    rng = random.Random(31)
    for _ in range(15):
        f = random_table(rng, rng.randrange(1, 5))
        spec = fourier_transform(f)
        want = oracles.brute_fourier_scaled(f)
        got = {s: c for s, c in spec.support()}
        assert got == {s: c for s, c in want.items() if c != 0}


def test_sparsity_examples():
    assert sparsity(families.named_basics("parity", 5)) == 1
    assert sparsity(families.named_basics("and", 2)) == 4
    f4, _ = families.gap_family(4)
    assert sparsity(materialize(f4)) >= 16


def test_parseval_random():
    rng = random.Random(41)
    for _ in range(30):
        f = random_table(rng, rng.randrange(0, 11))
        scaled = fourier_transform(f).scaled
        assert int((scaled.astype("int64") ** 2).sum()) == 1 << (2 * f.n)


def test_spectral_sums_examples():
    for n in (1, 3, 5):
        p = families.named_basics("parity", n)
        sums = spectral_sums(p)
        assert sums.weighted == n  # single weight-n coefficient, tight
    maj3 = families.named_basics("majority", 3)
    sums = spectral_sums(maj3)
    per_point = measures.per_point_sensitivity(maj3)
    assert sums.weighted2 == Fraction(int((per_point.astype("int64") ** 2).sum()), 8) == 3
    assert spectral_sums(TruthTable.constant(4, 0)).weighted == 0


def test_influence_identity_random():
    rng = random.Random(51)
    for _ in range(30):
        f = random_table(rng, rng.randrange(0, 11))
        spec = fourier_transform(f)
        assert influence_from_spectrum(spec) == measures.influence(f)


def test_weighted2_identity_random():
    rng = random.Random(61)
    for _ in range(30):
        f = random_table(rng, rng.randrange(1, 11))
        sums = spectral_sums(f)
        pps = measures.per_point_sensitivity(f).astype("int64")
        assert sums.weighted2 == Fraction(int((pps * pps).sum()), 1 << f.n)


def test_poly_export():
    and2 = families.named_basics("and", 2)
    assert multilinear_coefficients(and2).to_json_dict() == {"3": 1}


def test_coefficients_reject_a_variable_out_of_range():
    and2 = families.named_basics("and", 2)
    poly, spectrum = multilinear_coefficients(and2), fourier_transform(and2)
    assert poly.coefficient([1, 2]) == 1 and spectrum.coefficient([1, 2]) == Fraction(-1, 2)
    for vars_ in ([3], [0], [1, -1]):
        for coefficients in (poly, spectrum):
            with pytest.raises(ValueError, match="out of range for arity 2"):
                coefficients.coefficient(vars_)


def python_int_sums(spec):
    """(l1, weighted, weighted2, influence, sum of squares) numerators, as
    Python ints over the spectrum's support."""
    l1 = weighted = weighted2 = infl = squares = 0
    for subset, c in spec.support():
        k = len(subset)
        l1 += abs(c)
        weighted += abs(c) * k
        weighted2 += c * c * k * k
        infl += c * c * k
        squares += c * c
    return l1, weighted, weighted2, infl, squares


LARGE_TABLES = [
    *[(f"random{n}", n) for n in range(17, 21)],
    ("parity18", 18),
    ("and18", 18),
]


@pytest.mark.parametrize("name,n", LARGE_TABLES, ids=[name for name, _ in LARGE_TABLES])
def test_spectral_sums_above_16_match_python_ints(name, n):
    if name.startswith("random"):
        table = random_table(random.Random(n), n)
    else:
        table = families.named_basics(name[:-2], n)
    spec = fourier_transform(table)
    l1, weighted, weighted2, infl, squares = python_int_sums(spec)
    denom = 1 << n
    sums = spectral_sums(table)
    assert (sums.l1, sums.weighted, sums.weighted2) == (
        Fraction(l1, denom),
        Fraction(weighted, denom),
        Fraction(weighted2, denom * denom),
    )
    assert influence_from_spectrum(spec) == Fraction(infl, denom * denom)
    status, observed = verify.CHECKS["parseval"].run(measures.measure_report(table))
    assert (status, observed["sum_sq"]) == ("pass", squares) and squares == 4**n


def test_exact_terms_guard_above_int64_arity():
    limit = algebra.INT64_EXACT_MAX_ARITY
    # the largest product a check formula forms, (n + 1)**2 * n * 4**n, fits up to the limit
    assert (limit + 1) ** 2 * limit * 4**limit < 2**63 <= (limit + 2) ** 2 * (limit + 1) * 4 ** (limit + 1)
    a = np.array([3**39, -(3**39), 5], dtype=np.int64)  # squares overflow int64
    assert algebra.exact_terms(a, limit) is a
    exact = algebra.exact_terms(a, limit + 1)
    assert exact.dtype == object
    assert int((exact * exact).sum()) == 2 * 3**78 + 25


def mixed_rows(rng: random.Random, n: int, count: int = 0) -> np.ndarray:
    """Constant, dictator and parity rows of arity n, then seeded random
    rows up to ``count`` rows in all."""
    x = np.arange(1 << n)
    rows = np.stack([x * 0, x * 0 + 1, x >> max(n - 1, 0), x & 1, popcounts(n) & 1])
    random_rows = np.random.default_rng(rng.getrandbits(32)).integers(0, 2, (max(3, count - 5), 1 << n))
    return np.concatenate([rows, random_rows]).astype(np.uint8)


def assert_transforms_match(stack: np.ndarray, n: int, wide: bool = False) -> None:
    """Moebius and Walsh of the stack and of each row alone equal the
    reference loops by value, in int32 (int64 if ``wide``)."""
    for transform, field, reference in (
        (multilinear_coefficients, "coeffs", oracles.moebius_int64),
        (fourier_transform, "scaled", oracles.walsh_int64),
    ):
        want = reference(stack, n)
        got = transform(stack)
        assert got.dtype == (np.int64 if wide else np.int32) and not got.flags.writeable
        assert np.array_equal(got, want)
        for row in {0, 2, 4, len(stack) - 1} & set(range(len(stack))):
            assert np.array_equal(getattr(transform(TruthTable(n, stack[row])), field), want[row])


def test_transforms_match_the_one_layout_loops():
    # n = 0..12 spans fewer, as many and more bits than the sweep's five
    # low ones; each stack holds 1.5 * CHUNK_CELLS cells, so above n = 5 its
    # low passes run in blocks, two of them at n = 12 (24 rows of 128 high
    # cells, in blocks of 85). Stacks of one and three rows take the same
    # low digits, and from n = 6 up the int16 passes after them.
    rng = random.Random(13)
    for n in range(13):
        stack = mixed_rows(rng, n, 3 * measures.CHUNK_CELLS // 2 >> n)
        assert_transforms_match(stack, n)
        assert_transforms_match(stack[-1:], n)
        assert_transforms_match(stack[3:6], n)  # dictator, parity, random


@pytest.mark.parametrize("n", [16, 20])
def test_transforms_of_large_tables_match_the_one_layout_loops(n):
    stack = mixed_rows(random.Random(n), n)
    assert_transforms_match(stack, n)
    # the all-zero table's Walsh entry at the empty set is 2**n, and the
    # parity's top Moebius coefficient is (-2)**(n - 1)
    assert fourier_transform(TruthTable(n, stack[0])).scaled[0] == 1 << n
    assert multilinear_coefficients(TruthTable(n, stack[4])).coeffs[-1] == (-2) ** (n - 1)


def test_kernels_at_n_against_themselves_at_n_minus_1():
    """Split f on x_b into f0 = f|x_b=0 and f1 = f|x_b=1. Then W_f(S) is
    W_f0(S') + W_f1(S') if b is not in S and W_f0(S') - W_f1(S') if it is;
    c_f(S) is c_f0(S') and c_f1(S') - c_f0(S'); and s(f, x) is
    s(f_{x_b}, x_-b) + [f(x) != f(x + e_b)]. From n = 13 to 20 the halves
    and f cross the int16 pass limits (14 and 15), the in-place widening
    and the transposed low digits, where no oracle runs."""
    rng = random.Random(13)
    for n in range(13, 21):
        # OR's 0/1 Walsh entries reach 2**15 at pass 15, one pass past what int16 holds
        for f in (random_table(rng, n), *(families.named_basics(name, n) for name in ("parity", "and", "or"))):
            walsh, moebius = fourier_transform(f).scaled, multilinear_coefficients(f).coeffs
            s = measures.per_point_sensitivity(f)
            for b in (1, (n + 1) // 2, n):
                split = lambda a: a.reshape(1 << (b - 1), 2, 1 << (n - b))
                f0, f1 = (oracles.restrict(f, {b: bit}) for bit in (0, 1))
                w0, w1 = (fourier_transform(h).scaled.reshape(1 << (b - 1), -1) for h in (f0, f1))
                assert np.array_equal(split(walsh), np.stack([w0 + w1, w0 - w1], axis=1)), (n, b)
                c0, c1 = (multilinear_coefficients(h).coeffs.reshape(1 << (b - 1), -1) for h in (f0, f1))
                assert np.array_equal(split(moebius), np.stack([c0, c1 - c0], axis=1)), (n, b)
                s0, s1 = (measures.per_point_sensitivity(h).reshape(1 << (b - 1), -1) for h in (f0, f1))
                flips = split(f.values)[:, 0] != split(f.values)[:, 1]
                assert np.array_equal(split(s), np.stack([s0 + flips, s1 + flips], axis=1)), (n, b)


def test_one_row_transforms_leave_the_table_as_it_was():
    """Up to n = 5 a lone row is one low block, whose transposed view is
    contiguous: the sweep still works on a copy of it, so the transforms,
    which read the table itself, leave a writable row as it was and take a
    read-only table."""
    rng = random.Random(5)
    for n in range(6):
        for row in mixed_rows(rng, n)[:, None]:
            was = row.copy()
            for transform, field, reference in (
                (multilinear_coefficients, "coeffs", oracles.moebius_int64),
                (fourier_transform, "scaled", oracles.walsh_int64),
            ):
                assert np.array_equal(transform(row), reference(was, n)), n
                assert np.array_equal(getattr(transform(TruthTable(n, was[0])), field), reference(was[0], n)), n
                assert np.array_equal(row, was), n


def test_transforms_take_int64_above_the_exact_arity(monkeypatch):
    monkeypatch.setattr(algebra, "INT64_EXACT_MAX_ARITY", 7)
    stack = mixed_rows(random.Random(8), 8, 300)
    assert_transforms_match(stack, 8, wide=True)
    assert_transforms_match(mixed_rows(random.Random(7), 7, 300), 7)


def extreme_stacks():
    """(n, transform, field, reference, stack) for the entries that reach the edge
    of the transforms' int16 passes, each stack with a random row between
    its two extremes. A constant table's Walsh entry at the empty set is
    +/-2**p after p passes: 2**14 at pass 14, the last in int16. Parity's
    top Moebius coefficient is (-2)**(n - 1), and its complement's the
    negation: 2**14 at n = 15, and 2**15, past int16, at n = 16."""
    rng = np.random.default_rng(16)
    for n in (*range(13, 18), 20):
        const = np.zeros(1 << n, dtype=np.uint8)
        yield n, fourier_transform, "scaled", oracles.walsh_int64, np.stack(
            [const, rng.integers(0, 2, 1 << n, dtype=np.uint8), const + 1]
        )
    for n in range(14, 18):
        parity = popcounts(n) & 1
        yield n, multilinear_coefficients, "coeffs", oracles.moebius_int64, np.stack(
            [parity, rng.integers(0, 2, 1 << n, dtype=np.uint8), parity ^ 1]
        )


@pytest.mark.parametrize("cells", [CHUNK_CELLS, 3000])
def test_int16_passes_hold_the_extreme_entries(monkeypatch, cells):
    # at 3000 cells the widening runs in blocks of 3000 cells, several of
    # them with a partial one on top, after three low digits
    monkeypatch.setattr(core, "CHUNK_CELLS", cells)
    for n, transform, field, reference, stack in extreme_stacks():
        want = reference(stack, n)
        got = transform(stack)
        assert got.dtype == np.int32 and np.array_equal(got, want), n
        for row, wanted in zip(stack, want):
            assert np.array_equal(getattr(transform(TruthTable(n, row)), field), wanted), n


def reference_numerators(scaled: np.ndarray, n: int) -> dict:
    """The spectral numerators and the nonzero count from whole-array
    copies of |scaled| and of the weights, in the exact dtype: the
    reference for the blocked sums."""
    weights = algebra.exact_terms(popcounts(n), n)
    a = np.abs(algebra.exact_terms(scaled.astype(np.int64), n))
    sums = {"l1": a.sum(axis=-1), "weighted": a @ weights, "sparsity": (a != 0).sum(axis=-1).astype(a.dtype)}
    a *= a
    sums["sum_sq"] = a.sum(axis=-1)
    a *= weights
    return {**sums, "weighted2": a @ weights, "spectral": a.sum(axis=-1)}


def assert_numerators_match(scaled: np.ndarray, n: int) -> None:
    """The blocked numerators equal the whole-array ones, in int64 up to
    ``INT64_EXACT_MAX_ARITY`` (Python ints above), with Parseval per row."""
    got, want = algebra.spectral_numerators(scaled, n), reference_numerators(scaled, n)
    assert got.keys() == want.keys()
    exact = np.int64 if n <= algebra.INT64_EXACT_MAX_ARITY else object
    for key in want:
        assert got[key].dtype == exact and got[key].shape == scaled.shape[:-1]
        assert np.array_equal(got[key], want[key]), key
    assert (got["sum_sq"] == 4**n).all()


@pytest.mark.parametrize("cells", [1, 7, 64])
def test_blocked_spectral_numerators_match_the_whole_array_formula(monkeypatch, cells):
    # a block of the 8-row stacks spans all rows and holds 1 column (8 at
    # 64 cells); the lone row goes in blocks of 1, 7 (the last one short)
    # or 64 columns, so above n = 0 its blocks split it
    monkeypatch.setattr(algebra, "CHUNK_CELLS", cells)
    rng = random.Random(cells)
    for n in range(13):
        scaled = fourier_transform(mixed_rows(rng, n, 8))
        assert_numerators_match(scaled, n)
        assert_numerators_match(scaled[2], n)


@pytest.mark.parametrize("n", [16, 20])
def test_blocked_spectral_numerators_of_large_tables(n):
    scaled = fourier_transform(mixed_rows(random.Random(n), n)[-1]).scaled
    assert_numerators_match(scaled, n)


def test_blocked_spectral_numerators_above_the_int64_arity(monkeypatch):
    monkeypatch.setattr(algebra, "INT64_EXACT_MAX_ARITY", 7)
    monkeypatch.setattr(algebra, "CHUNK_CELLS", 100)
    rng = random.Random(24)
    for n in (6, 7, 8, 10):
        assert_numerators_match(fourier_transform(mixed_rows(rng, n, 8)), n)


def test_spectral_numerators_peak_is_bounded_by_a_block():
    """No full-size copy of the spectrum or of the weights: the peak of
    the sums over one n = 18 spectrum is the uint8 popcounts they build and
    a few blocks of CHUNK_CELLS int64 cells, whatever 2**n is."""
    n = 18
    scaled = fourier_transform(random_table(random.Random(18), n)).scaled
    _, peak = traced_bytes(algebra.spectral_numerators, scaled, n)
    assert peak <= 3 * 8 * CHUNK_CELLS, f"{peak / (1 << n):.2f} bytes per point at the peak"


def test_fourier_transform_peak_per_point():
    """The Walsh step runs in place with no half-size temporary, on the
    table's own 0/1 values, and the map to the spectrum of 1 - 2f is in
    place too, so the peak of one n = 18 transform is its int32 result and
    the sweep's blocks: under 5 bytes per point."""
    n = 18
    _, peak = traced_bytes(fourier_transform, random_table(random.Random(18), n))
    assert peak <= 5 << n, f"{peak / (1 << n):.2f} bytes per point at the peak"


def test_multilinear_coefficients_peak_per_point():
    """The Moebius sweep's int16 passes run in the first half of its own
    int32 result, and it reads the table's own values, so the peak of one
    n = 18 transform is that result and the sweep's blocks: under 5 bytes
    per point."""
    n = 18
    _, peak = traced_bytes(multilinear_coefficients, random_table(random.Random(18), n))
    assert peak <= 5 << n, f"{peak / (1 << n):.2f} bytes per point at the peak"


def test_spectral_numerators_of_int32_and_int64_spectra_agree():
    rng = random.Random(32)
    for n in (0, 1, 5, 9, 16):
        scaled = fourier_transform(mixed_rows(rng, n))
        assert scaled.dtype == np.int32
        narrow = algebra.spectral_numerators(scaled, n)
        wide = algebra.spectral_numerators(scaled.astype(np.int64), n)
        assert narrow.keys() == wide.keys()
        for key in narrow:
            assert narrow[key].dtype == wide[key].dtype == np.int64
            assert np.array_equal(narrow[key], wide[key])
        assert (narrow["sum_sq"] == 4**n).all()
