"""The lazy measure record: every column against the first-principles
oracles, and each measure kernel run at most once per function."""

import csv
import io
import math
import random

import oracles
import pytest

from boolfn import algebra, chains, families, measures, verify
from boolfn.core import TruthTable
from boolfn.measures import MeasureContext, measure_report
from test_algebra import inner_product
from test_chains import traced_bytes


def tables_of_arity(n: int) -> list[TruthTable]:
    """Every table for n <= 3, a few seeded random ones above."""
    if n <= 3:
        return [TruthTable.from_packed_int(n, i) for i in range(1 << (1 << n))]
    rng = random.Random(1000 + n)
    return [TruthTable.from_packed_int(n, rng.getrandbits(1 << n)) for _ in range(4 if n < 6 else 3)]


def oracle_columns(t: TruthTable) -> dict:
    dc = oracles.brute_decrease(t)
    return {
        "s": oracles.brute_sensitivity(t),
        "bs": oracles.brute_block_sensitivity(t),
        "C": oracles.brute_certificate(t),
        "I": oracles.brute_influence(t),
        "alt": oracles.brute_alternation(t),
        "dc": dc,
        "DT": oracles.brute_decision_tree_depth(t),
        "negs": math.ceil(math.log2(1 + dc)),
        "negs_formula": dc,
        "deg": oracles.brute_degree(t),
        **{f"deg_{m}": oracles.brute_degree(t, m) for m in range(2, 7)},
        "sparsity": sum(c != 0 for c in oracles.brute_fourier_scaled(t).values()),
    }


def record_columns(record: MeasureContext) -> dict:
    out = {name: record.value(name) for name in measures.COLUMNS}
    assert out.pop("fn") == record.fn_id() and out.pop("n") == record.n
    assert out.pop("deg2") == record.value("deg_2")
    out.update({f"deg_{m}": record.value(f"deg_{m}") for m in range(2, 7)})
    return out


@pytest.mark.parametrize("n", range(0, 7))
def test_record_columns_match_oracles(n):
    for table in tables_of_arity(n):
        record = measure_report(table)
        assert record_columns(record) == oracle_columns(table), record.fn_id()
        assert chains.alternation_along(table, record.witness()) == record.value("alt")


def test_record_capped_columns_read_none():
    record = measure_report(families.named_basics("parity", 5), bs_cap=4, cert_cap=4, dt_cap=4)
    assert (record.value("bs"), record.value("C"), record.value("DT")) == (None, None, None)
    assert set(record.skips()) == {"bs", "C", "DT"}
    population = verify.Population.explicit([record.table])
    _, matrix = matrix_sweep(population, bs_cap=4, cert_cap=4, dt_cap=4)
    matrix_row = list(csv.reader(matrix.splitlines()))[1]
    assert [matrix_row[measures.COLUMNS.index(name)] for name in ("bs", "C", "DT")] == [""] * 3
    assert record.to_json_dict()["skips"] == record.skips()


KERNELS = (
    (chains, "alternation_profile"),
    (algebra, "multilinear_coefficients"),
    (algebra, "fourier_transform"),
    (measures, "per_point_sensitivity"),
    (measures, "constancy_planes"),
    (measures, "per_point_certificate"),
)


def matrix_sweep(population, **kwargs) -> tuple[verify.SweepReport, str]:
    """A sweep's report and the measure matrix CSV text it writes."""
    matrix = io.StringIO()
    return verify.run_check_suite(population, matrix=matrix, **kwargs), matrix.getvalue()


def count_calls(monkeypatch, kernels) -> dict:
    calls = {name: 0 for _, name in kernels}
    for module, name in kernels:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_each_kernel_runs_once_per_record(monkeypatch):
    # the record keeps no transform, so each export runs its own kernel once more
    calls = count_calls(monkeypatch, KERNELS)
    record = measure_report(families.address(2))
    assert len(verify.CHECKS) == 30
    for check in verify.CHECKS.values():
        assert check.run(record)[0] in ("pass", "skip"), check.name
    record.to_json_dict(), record.per_point()  # what analyze --per-point reads
    [record.value(name) for name in measures.VALUES]
    once = {name: 1 for _, name in KERNELS}
    assert calls == once
    list(record.spectrum().csv_rows())
    assert calls == {**once, "fourier_transform": 2}
    record.poly().to_json_dict()
    assert calls == {**once, "fourier_transform": 2, "multilinear_coefficients": 2}


def test_sweep_computes_only_what_its_checks_read(monkeypatch):
    unused = (
        (measures, "_minimal_from_sens"),
        (measures, "decision_tree_depth"),
        (algebra, "fourier_transform"),
        (measures, "per_point_sensitivity"),
        (measures, "constancy_planes"),
        (measures, "per_point_certificate"),
    )
    calls = count_calls(monkeypatch, unused)
    report = verify.run_check_suite(
        verify.Population.sample(6, 20, 4), checks=["deg-product-bound-m2", "deg-product-bound-m3"]
    )
    assert not report.failed
    assert calls == {name: 0 for _, name in unused}


def test_record_peak_memory_per_point():
    """A large record holds its narrow per-point columns (2 bytes per
    point: uint8 s and A) and at its peak one int32 transform more, whatever
    the function: the transforms read the table itself and are dropped once
    reduced, and the spectral sums with sparsity, avg_s2 and the degrees'
    full pass, which parity's and the inner product's low deg_2 reach, add
    the popcounts each builds and blocks of at most CHUNK_CELLS cells, not
    copies of a whole column."""
    n = 18
    tables = {
        "random": TruthTable.from_packed_int(n, random.Random(18).getrandbits(1 << n)),
        "inner product": TruthTable(n, inner_product(n)),
        "parity": families.named_basics("parity", n),
    }
    for name, table in tables.items():
        _, peak = traced_bytes(lambda: measure_report(table).to_json_dict())
        assert peak <= 12 << n, f"{name}: {peak / (1 << n):.2f} bytes per point at the peak for n = 18"
