"""The stacked kernels and the chunked sweep: every row of a stack equals the
single-table kernel and the oracles, a chunk of one is the per-function
reference path, and each kernel runs once per chunk."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from boolfn import algebra, chains, measures, verify
from boolfn.core import TruthTable, restrict
from boolfn.verify import Population, run_check_suite
from test_record import count_calls

STACKED = (
    (chains, "alternation_profile"),
    (algebra, "multilinear_coefficients"),
    (algebra, "fourier_transform"),
    (measures, "per_point_sensitivity"),
)


def below(t: TruthTable, x: int) -> TruthTable:
    """f on the subcube of points below x: every variable not set in x fixed to 0."""
    return restrict(t, {j: 0 for j in range(1, t.n + 1) if not x >> (t.n - j) & 1})


def by_subset(row: np.ndarray, n: int) -> dict:
    return {algebra.subset_of_index(i, n): int(c) for i, c in enumerate(row)}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_stacked_kernels_match_single_table_and_oracles(data):
    n = data.draw(st.integers(0, 6))
    packed = data.draw(st.lists(st.integers(0, (1 << (1 << n)) - 1), min_size=1, max_size=5))
    tables = [TruthTable.from_packed_int(n, p) for p in packed]
    stack = np.stack([t.values for t in tables])
    A = chains.alternation_profile(stack)
    D = chains.decrease(A, stack, stack[:, :1])
    coeffs = algebra.multilinear_coefficients(stack).coeffs
    scaled = algebra.fourier_transform(stack).scaled
    s = measures.per_point_sensitivity(stack)
    for i, t in enumerate(tables):
        assert np.array_equal(A[i], chains.alternation_profile(t))
        assert np.array_equal(coeffs[i], algebra.multilinear_coefficients(t).coeffs)
        assert np.array_equal(scaled[i], algebra.fourier_transform(t).scaled)
        assert np.array_equal(s[i], measures.per_point_sensitivity(t))
        assert (A[i, -1], D[i, -1]) == (oracles.brute_alternation(t), oracles.brute_decrease(t))
        assert by_subset(coeffs[i], n) == oracles.brute_mobius(t)
        assert by_subset(scaled[i], n) == oracles.brute_fourier_scaled(t)
        assert s[i].tolist() == [oracles.brute_sensitivity_at(t, x) for x in range(1 << n)]
        if n <= 4:  # every point: the longest paths to x stay below x
            for x in range(1 << n):
                g = below(t, x)
                assert (A[i, x], D[i, x]) == (oracles.brute_alternation(g), oracles.brute_decrease(g))


def test_stacked_results_serve_only_their_rows():
    tables = [TruthTable.from_packed_int(3, p) for p in (0x80, 0x96)]
    stack = np.stack([t.values for t in tables])
    poly = algebra.multilinear_coefficients(stack)
    spec = algebra.fourier_transform(stack)
    whole = [
        poly.degree, poly.to_json_dict, lambda: list(poly.items()), lambda: poly.coefficient([1]),
        spec.sparsity, lambda: list(spec.support()), lambda: list(spec.csv_rows()),
        lambda: spec.coefficient([1]), lambda: algebra.spectral_sums_of(spec),
        lambda: algebra.influence_from_spectrum(spec),
    ]
    for read in whole:
        with pytest.raises(ValueError, match="stack"):
            read()
    for i, t in enumerate(tables):
        assert algebra.MultilinearPoly(3, poly.coeffs[i]).degree() == algebra.degree(t)
        assert algebra.FourierSpectrum(3, spec.scaled[i]).sparsity() == algebra.sparsity(t)


POPULATIONS = {
    "exhaustive3": Population.exhaustive(3),
    "sample5": Population.sample(5, 300, 7),
    "families": Population.explicit(verify.standard_family_instances()),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(POPULATIONS))
def test_chunk_of_one_gives_the_same_bytes(monkeypatch, name, jobs):
    population = POPULATIONS[name]
    chunked = run_check_suite(population, jobs=jobs).to_json()
    rows = list(verify.measure_matrix_rows(population))
    monkeypatch.setattr(measures, "CHUNK_CELLS", 1)
    assert run_check_suite(population, jobs=jobs).to_json() == chunked
    assert list(verify.measure_matrix_rows(population)) == rows


def test_kernels_run_once_per_chunk(monkeypatch):
    calls = count_calls(monkeypatch, STACKED)
    report = run_check_suite(
        Population.sample(8, 600, 1),
        checks=["alt-dc-relation", "influence-le-deg", "log-sparsity-le-2deg"],
    )
    assert not report.failed
    # 600 tables of 2**8 cells: chunks of 256, 256 and 88
    assert calls == {name: 3 for _, name in STACKED}


def test_chunks_split_at_arity_changes_and_the_cell_budget(monkeypatch):
    monkeypatch.setattr(measures, "CHUNK_CELLS", 8)  # two tables at n = 2, one at n = 3
    tables = [TruthTable.from_packed_int(n, i) for i, n in enumerate((2, 2, 2, 3, 3, 2))]
    records = list(measures.records(tables))
    assert [r.table for r in records] == tables
    chunks = dict.fromkeys(r._chunk for r in records)
    assert [len(c.tables) for c in chunks] == [2, 1, 1, 1, 1]


def test_record_rows_are_read_only():
    record = next(measures.records([TruthTable.from_packed_int(3, 0x96)] * 2))
    for row in (record.per_point_s(), record.profile(), record.poly().coeffs, record.spectrum().scaled):
        assert not row.flags.writeable
