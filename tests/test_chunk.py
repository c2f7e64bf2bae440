"""The stacked kernels and the chunked sweep: every row of a stack equals the
single-table kernel and the oracles, and so does every chunk column; each
kernel runs once per chunk; each check gives the same entry on whole columns
as row by row; and reports, failures and ratio ties included, do not depend
on the chunk size."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from boolfn import algebra, chains, cli, families, measures, verify
from boolfn.core import TruthTable, depends_on_all, parse, serialize
from boolfn.verify import Population, run_check_suite
from test_core import rows_ignoring_one_variable
from test_record import count_calls, matrix_sweep

STACKED = (
    (chains, "alternation_profile"),
    (algebra, "multilinear_coefficients"),
    (algebra, "fourier_transform"),
    (measures, "per_point_sensitivity"),
)


def below(t: TruthTable, x: int) -> TruthTable:
    """f on the subcube of points below x: every variable not set in x fixed to 0."""
    return oracles.restrict(t, {j: 0 for j in range(1, t.n + 1) if not x >> (t.n - j) & 1})


def by_subset(row: np.ndarray, n: int) -> dict:
    return {algebra.subset_of_index(i, n): int(c) for i, c in enumerate(row)}


@pytest.mark.parametrize("n", [0, 3, 7])
def test_an_empty_stack_gives_empty_results(n):
    # each kernel gives what a one-row stack gives, less its row, and each
    # VALUES column of an empty chunk is empty
    kernels = [getattr(module, name) for module, name in STACKED] + [
        depends_on_all, measures.constancy_planes, measures.per_point_certificate, measures.decision_tree_depth
    ]
    for kernel in kernels:
        one, empty = kernel(np.zeros((1, 1 << n), np.uint8)), kernel(np.zeros((0, 1 << n), np.uint8))
        assert (empty.dtype, empty.shape) == (one.dtype, (0, *one.shape[1:])), kernel.__name__
    chunk = measures.Chunk(np.zeros((0, 1 << n), np.uint8))
    assert all(chunk.values(name) == [] for name in measures.VALUES)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_stacked_kernels_match_single_table_and_oracles(data):
    n = data.draw(st.integers(0, 6))
    packed = data.draw(st.lists(st.integers(0, (1 << (1 << n)) - 1), min_size=1, max_size=5))
    tables = [TruthTable.from_packed_int(n, p) for p in packed]
    stack = np.stack([t.values for t in tables])
    A = chains.alternation_profile(stack)
    D = chains.decrease(A, stack, stack[:, :1])
    coeffs = algebra.multilinear_coefficients(stack)
    scaled = algebra.fourier_transform(stack)
    s = measures.per_point_sensitivity(stack)
    assert not any(result.flags.writeable for result in (A, coeffs, scaled, s))
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
    coeffs = algebra.multilinear_coefficients(stack)
    scaled = algebra.fourier_transform(stack)
    assert isinstance(coeffs, np.ndarray) and isinstance(scaled, np.ndarray)
    for entries in (stack, stack[0, :4]):  # a stack, and one row of the wrong length
        for result in (algebra.MultilinearPoly, algebra.FourierSpectrum):
            with pytest.raises(ValueError, match="one table"):
                result(3, entries)
    for i, t in enumerate(tables):
        assert np.array_equal(coeffs[i], algebra.multilinear_coefficients(t).coeffs)
        assert np.array_equal(scaled[i], algebra.fourier_transform(t).scaled)
        assert algebra.degrees(coeffs[i], 3)[0] == algebra.degree(t)
        assert algebra.FourierSpectrum(3, scaled[i]).sparsity() == algebra.sparsity(t)


# Every kernel that takes a stack, as a function of a table and the table's profile.
KERNELS = {
    "per_point_sensitivity": lambda f, _: measures.per_point_sensitivity(f),
    "per_point_certificate": lambda f, _: measures.per_point_certificate(f),
    "decision_tree_depth": lambda f, _: measures.decision_tree_depth(f),
    "alternation_profile": lambda f, _: chains.alternation_profile(f),
    "witness_orders": chains.witness_orders,
    "depends_on_all": lambda f, _: depends_on_all(f),
    "multilinear_coefficients": lambda f, _: algebra.multilinear_coefficients(f),
    "fourier_transform": lambda f, _: algebra.fourier_transform(f),
}


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_one_table_gets_its_value_and_a_stack_gets_arrays(name):
    kernel, rng = KERNELS[name], np.random.default_rng(29)
    for n in (1, 2, 3, 4, 5, 6, 12):
        random_row = rng.integers(0, 2, 1 << n, dtype=np.uint8)
        for t in (TruthTable.constant(n, 0), TruthTable.constant(n, 1), TruthTable(n, random_row)):
            profile = chains.alternation_profile(t)
            one, stacked = kernel(t, profile), kernel(t.values[None], profile[None])
            assert isinstance(stacked, np.ndarray) and len(stacked) == 1, (name, n)
            if isinstance(one, algebra.MultilinearPoly):
                one = one.coeffs
            elif isinstance(one, algebra.FourierSpectrum):
                one = one.scaled
            assert isinstance(one, (int, np.ndarray)) and np.ndim(one) <= 1, (name, n, type(one))
            assert np.array_equal(one, stacked[0]), (name, n)
            if isinstance(one, np.ndarray):
                assert one.dtype == stacked.dtype, (name, n)


POPULATIONS = {
    "exhaustive3": Population.exhaustive(3),
    "sample5": Population.sample(5, 300, 7),
    "families": Population.explicit(verify.standard_family_instances()),
}


@pytest.mark.usefixtures("workers_at_once")
@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(POPULATIONS))
def test_chunk_of_one_gives_the_same_bytes(monkeypatch, name, jobs):
    population = POPULATIONS[name]
    chunked, rows = matrix_sweep(population, jobs=jobs)
    monkeypatch.setattr(measures, "CHUNK_CELLS", 1)
    report, matrix = matrix_sweep(population, jobs=jobs)
    assert report.to_json() == chunked.to_json()
    assert matrix == rows


@pytest.mark.parametrize("n", range(10))
def test_fn_column_is_serialize_row_by_row(n):
    stack = next(Population.sample(n, 37, n).stacks())
    ids = [serialize(TruthTable._row(row)) for row in stack]
    assert measures.Chunk(stack).values("fn") == ids
    assert measures.measure_report(TruthTable._row(stack[5])).value("fn") == ids[5]  # a lone row


def test_one_chunk_scans_its_coefficients_once_for_every_degree(monkeypatch):
    calls = count_calls(monkeypatch, [(algebra, "degrees")])
    tables = [*Population.sample(4, 40, 4).tables(), TruthTable.constant(4, 1), parse("4:8000")]
    chunk = measures.Chunk(np.stack([t.values for t in tables]))
    names = ["deg", "deg2", *(f"deg_{m}" for m in algebra.MODULI)]
    got = [chunk.values(name) for name in names]
    assert calls == {"degrees": 1}
    want = [[oracles.brute_degree(t, m) for t in tables] for m in (None, 2, *algebra.MODULI)]
    assert got == want


def ids_first(rows, ids, k):
    """The first k of ``rows`` by function id, equal ids in their order in ``rows``."""
    return sorted(rows, key=ids.__getitem__)[:k]


@pytest.mark.parametrize("n", range(10))
def test_first_rows_are_the_smallest_ids_in_row_order(n):
    tables = list(Population.sample(n, 12, n).tables())
    chunk = measures.Chunk(np.stack([t.values for t in tables + tables[:5] + tables[:2]]))  # repeats tie
    ids = chunk.values("fn")
    rows = np.random.default_rng(n).permutation(len(chunk))
    for k in (0, 1, 3, len(rows) - 1):
        assert chunk.first_rows(rows, k).tolist() == ids_first(rows.tolist(), ids, k)
    assert chunk.first_rows(rows, len(rows)).tolist() == rows.tolist()  # at most k rows: as they are
    ties = np.flatnonzero(np.array(ids) == ids[0])
    assert chunk.first_rows(ties[::-1], 1).tolist() == [ties[-1]]


def dict_per_value(fn, column):
    """``measures.per_value`` as a dict of each distinct entry's result."""
    entries = column.tolist()
    results = {v: fn(v) for v in set(entries)}
    return np.array([results[v] for v in entries])


@pytest.mark.parametrize("fn", [int.bit_length, verify._log2_power, lambda v: v >= 3])
def test_per_value_matches_the_dict_of_distinct_values(monkeypatch, fn):
    columns = [
        np.array([3, 0, 7, 3, 3, 12, 0, 1], dtype=np.int64),
        np.array([2**70, 5, 2**70, 1, 5], dtype=object),
        np.array([], dtype=np.int64),
        np.array([], dtype=object),
    ]
    chunk = next(measures.chunks(Population.sample(4, 300, 9).tables()))
    columns += [chunk.dc, chunk.sparsity]
    monkeypatch.setattr(algebra, "INT64_EXACT_MAX_ARITY", 2)  # the columns of n > 24: Python ints
    chunk = next(measures.chunks(Population.sample(4, 300, 9).tables()))
    assert chunk.dc.dtype == object
    columns += [chunk.dc, chunk.sparsity]
    for column in columns:
        distinct = []
        got = measures.per_value(lambda v: distinct.append(v) or fn(v), column)
        want = dict_per_value(fn, column)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tolist() == want.tolist()
        assert sorted(distinct) == sorted(set(column.tolist())) and all(type(v) is int for v in distinct)


def test_kernels_run_once_per_chunk(monkeypatch):
    calls = count_calls(monkeypatch, STACKED)
    report = run_check_suite(
        Population.sample(8, 600, 1),
        checks=["alt-dc-relation", "influence-le-deg", "log-sparsity-le-2deg"],
    )
    assert not report.failed
    # 600 tables of 2**8 cells: chunks of 256, 256 and 88
    assert calls == {name: 3 for _, name in STACKED}


def test_matrix_out_runs_each_kernel_once_per_chunk(monkeypatch, tmp_path):
    # the sweep writes the matrix from the chunks its checks read
    kernels = [(algebra, "multilinear_coefficients"), (chains, "alternation_profile")]
    calls = count_calls(monkeypatch, kernels)
    assert cli.main(["verify", "--exhaustive", "3", "--matrix-out", str(tmp_path / "m.csv")]) == 0
    chunks = len(list(Population.exhaustive(3).stacks()))
    assert calls == {name: chunks for _, name in kernels}


def test_chunks_split_at_arity_changes_and_the_cell_budget(monkeypatch):
    monkeypatch.setattr(measures, "CHUNK_CELLS", 8)  # two tables at n = 2, one at n = 3
    tables = [TruthTable.from_packed_int(n, i) for i, n in enumerate((2, 2, 2, 3, 3, 2))]
    records = list(measures.records(tables))
    assert [r.table for r in records] == tables
    chunks = dict.fromkeys(r.chunk for r in records)
    assert [len(c) for c in chunks] == [2, 1, 1, 1, 1]


def test_a_lone_table_is_a_chunk_of_its_values(monkeypatch):
    """A run of one table is a read-only view of its values, not a copy;
    a longer run is stacked."""
    big = TruthTable.from_packed_int(17, 3 << 70000)  # one table per chunk
    (chunk,) = measures.chunks([big])
    assert chunk.stack.shape == (1, 1 << 17) and not chunk.stack.flags.writeable
    assert np.shares_memory(chunk.stack, big.values)
    monkeypatch.setattr(measures, "CHUNK_CELLS", 512)  # two tables at n = 8
    small = [TruthTable.from_packed_int(8, p) for p in (1, 2, 3)]
    pair, lone = (c.stack for c in measures.chunks(small))
    assert len(pair) == 2 and not np.shares_memory(pair, small[0].values)
    assert len(lone) == 1 and np.shares_memory(lone, small[2].values) and not lone.flags.writeable


def held_arrays(value):
    """Every array in a chunk attribute, inside its dicts, tuples and lists too."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (dict, tuple, list)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from held_arrays(item)


@pytest.mark.parametrize("n", range(11))
def test_a_chunk_keeps_no_wide_per_point_array(n):
    # the transforms are reduced where they are made, so once every column
    # and every check's outcomes are read, only uint8 arrays hold a cell per point
    stack = next(Population.sample(n, 24, n).stacks())
    chunk = measures.Chunk(stack)
    for name in measures.VALUES:
        chunk.values(name)
    for check in verify.CHECKS.values():
        chunk.keep(check, check.outcomes)
    wide = [
        (name, array.dtype)
        for name, value in vars(chunk).items()
        for array in held_arrays(value)
        if array.shape == stack.shape and array.dtype != np.uint8
    ]
    assert wide == [] and not hasattr(chunk, "coeffs") and not hasattr(chunk, "spectrum")


def test_record_rows_are_read_only():
    record = next(measures.records([TruthTable.from_packed_int(3, 0x96)] * 2))
    chunk, i = record.chunk, record.row
    for row in (chunk.per_point_s[i], chunk.profile[i], record.poly().coeffs, record.spectrum().scaled):
        assert not row.flags.writeable


# n = 4 tables with s(f) < max C(f, x), so their bs column runs the search:
# two of the 24 such tables at n = 4, each with s = 2 and bs = C = 3.
BS_SEARCHED = ("4:1BD8", "4:E427")


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_chunk_columns_match_oracles(data):
    arities = data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=8))
    tables = [TruthTable.from_packed_int(n, data.draw(st.integers(0, (1 << (1 << n)) - 1))) for n in arities]
    tables += [parse(text) for text in BS_SEARCHED]
    searched = []
    original = measures._minimal_from_sens
    with pytest.MonkeyPatch.context() as patch:  # the search scans the table it is given
        patch.setattr(measures, "_minimal_from_sens", lambda t, i: searched.append(t) or original(t, i))
        chunks = list(measures.chunks(tables))
        for chunk in chunks:
            chunk.bs
    for chunk in chunks:
        for i, t in enumerate(map(chunk.table, range(len(chunk)))):
            got = {
                "s": chunk.s[i], "bs": chunk.bs[i], "C": chunk.cert[i], "DT": chunk.dt[i],
                "alt": chunk.alt[i], "deg": chunk.deg[i], **{f"deg_{m}": chunk.degm(m)[i] for m in range(2, 7)},
            }
            want = {
                "s": oracles.brute_sensitivity(t), "bs": oracles.brute_block_sensitivity(t),
                "C": oracles.brute_certificate(t), "DT": oracles.brute_decision_tree_depth(t),
                "alt": oracles.brute_alternation(t), "deg": oracles.brute_degree(t),
                **{f"deg_{m}": oracles.brute_degree(t, m) for m in range(2, 7)},
            }
            assert got == want, serialize(t)
    # the search runs on both known rows, and only on rows with s < C
    assert set(map(serialize, searched)) >= set(BS_SEARCHED)
    assert all(oracles.brute_sensitivity(t) < oracles.brute_certificate(t) for t in searched)


def kernel_stacks(monkeypatch, name: str) -> list:
    """The stacks each later call of ``measures.<name>`` gets, in order."""
    seen, original = [], getattr(measures, name)
    monkeypatch.setattr(measures, name, lambda stack, **kw: seen.append(stack.copy()) or original(stack, **kw))
    return seen


def test_dt_rounds_run_only_on_chunks_with_a_row_below_degree_n(monkeypatch):
    # deg <= DT <= n, so a row of degree n has DT = n. C(16, 8) = 12870 of the
    # tables at n = 4 have degree below 4; 4:0018 has deg 3 and DT 4. A chunk
    # with such a row builds the planes of its whole stack once and runs the
    # rounds on them; a chunk of degree-4 rows builds no planes and runs none.
    tables = np.concatenate(list(Population.exhaustive(4).stacks()))
    deg = measures.Chunk(tables).deg
    planes = count_calls(monkeypatch, [(measures, "constancy_planes")])
    seen = kernel_stacks(monkeypatch, "decision_tree_depth")
    dt = measures.Chunk(tables).dt
    assert (deg < 4).sum() == 12870 and np.array_equal(np.concatenate(seen), tables)
    assert len(seen) == planes["constancy_planes"] == 1 and (deg[0x0018], dt[0x0018]) == (3, 4)
    sample = np.random.default_rng(25).choice(np.flatnonzero(deg < 4), 60, replace=False)
    for i in [0x0018, *sample.tolist()]:
        assert dt[i] == oracles.brute_decision_tree_depth(TruthTable._row(tables[i])), i
    seen.clear()
    planes["constancy_planes"] = 0
    assert (measures.Chunk(tables[deg == 4]).dt == 4).all() and not seen and planes == {"constancy_planes": 0}


def test_dt_of_chunks_with_an_open_row_shares_the_planes_with_c(monkeypatch):
    # gap_family(k) has deg = DT = k < n = 2**k - 1, constants have deg = DT = 0,
    # and one open row of four runs the rounds on all four; the C sweep reuses
    # the planes they read
    planes = count_calls(monkeypatch, [(measures, "constancy_planes")])
    seen = kernel_stacks(monkeypatch, "decision_tree_depth")
    gap = [(families.gap_family(k)[0].values[None], [k]) for k in (2, 3)]
    constants = [(np.stack([np.zeros(1 << n, np.uint8), np.ones(1 << n, np.uint8)]), [0, 0]) for n in range(1, 7)]
    basics = [families.named_basics(name, 5).values for name in ("parity", "and", "or")]
    mixed = [(np.stack([*basics, np.zeros(32, np.uint8)]), [5, 5, 5, 0])]
    for stack, want in gap + constants + mixed:
        planes["constancy_planes"] = 0
        chunk = measures.Chunk(stack)
        assert chunk.dt.tolist() == want and np.array_equal(seen.pop(), stack) and not seen
        assert chunk.cert.tolist() == want and planes == {"constancy_planes": 1}  # C = DT on all of these


@pytest.mark.parametrize("n", range(11))
def test_depends_all_runs_its_kernel_only_on_chunks_with_a_row_below_degree_n(monkeypatch, n):
    # Rows of degree n depend on every variable. Constants and rows that
    # ignore a variable are below it (no row is, at n = 0): mixed with rows
    # of degree n, the kernel runs on the whole stack; rows of degree n alone
    # read True with no kernel run, once their degrees are read, and before
    # that the kernel runs and no Moebius pass does.
    gen = np.random.default_rng(n)
    ignoring = np.concatenate([rows_ignoring_one_variable(gen, n, 0), np.ones((1, 1 << n), np.uint8)])
    drawn = gen.integers(0, 2, (32 * len(ignoring), 1 << n), dtype=np.uint8)
    full = drawn[measures.Chunk(drawn).deg == n][: 8 * len(ignoring)]
    assert len(full) == 8 * len(ignoring)
    seen = kernel_stacks(monkeypatch, "depends_on_all")
    for stack in (np.concatenate([full[:4], ignoring, full[4:]]), full):
        chunk = measures.Chunk(stack)
        chunk.deg
        got = chunk.depends_all
        assert got.dtype == bool and np.array_equal(got, depends_on_all(stack))
        assert np.array_equal(seen.pop(), stack) if n and stack is not full else not seen
    assert got.all()
    unread = measures.Chunk(full)
    assert unread.depends_all.all() and np.array_equal(seen.pop(), full) and "coeffs" not in vars(unread)


@pytest.mark.parametrize(
    "population", [Population.sample(8, 512, 1), Population.exhaustive(4)], ids=["sample8", "exhaustive4"]
)
def test_the_alternation_dp_runs_only_on_chunks_with_a_row_the_degrees_leave_open(monkeypatch, population):
    # A nonconstant f has alt >= 1 and a constant one deg = 0, so a row with
    # deg <= deg2 * deg_m passes deg-product-bound-m<m> whatever alt is. Every
    # random n = 8 row is settled; at n = 4 the 22 parities of two or more
    # variables (deg2 = 1 < deg) are open for m = 2, in 8 of the 16 chunks, and
    # m = 3 opens none. A chunk with an open row runs the DP once for both checks.
    open_rows = []
    for stack in population.stacks():
        c = measures.Chunk(stack)
        open_rows.append([(c.deg > c.degm(2) * c.degm(m)).sum() for m in (2, 3)])
    open_rows = np.array(open_rows)
    want = {"alternation_profile": int(open_rows.any(axis=1).sum())}
    assert want == {"alternation_profile": 0 if population.n == 8 else 8}
    assert open_rows.sum(axis=0).tolist() == ([0, 0] if population.n == 8 else [22, 0])
    names = ["deg-product-bound-m2", "deg-product-bound-m3"]
    calls = count_calls(monkeypatch, [(chains, "alternation_profile")])
    report = run_check_suite(population, checks=names)
    assert calls == want
    monkeypatch.setattr(measures.Chunk, "settle", lambda chunk, sure, value, kernel: kernel())  # all exact
    assert run_check_suite(population, checks=names).to_json() == report.to_json()
    assert calls == {"alternation_profile": want["alternation_profile"] + len(open_rows)}


def deg_product_stacks() -> list:
    """Every table of n <= 4, seeded stacks at n = 5..8, and an n = 4 stack of
    rows settled for every m with one open row for m = 2: x_1 xor x_2, whose
    deg is 2 and deg2 1."""
    stacks = [stack for n in range(5) for stack in Population.exhaustive(n).stacks()]
    c = measures.Chunk(stacks[-1])  # the tables 0xF000 to 0xFFFF
    stacks += [next(Population.sample(n, 200, n).stacks()) for n in range(5, 9)]
    settled = np.all([c.deg <= c.degm(2) * c.degm(m) for m in range(2, 7)], axis=0)
    rows = c.stack[np.random.default_rng(28).choice(np.flatnonzero(settled), 40, replace=False)]
    x = np.arange(16)
    xor = ((x >> 3 ^ x >> 2) & 1).astype(np.uint8)
    return stacks + [np.concatenate([rows[:20], xor[None], rows[20:]])]


@pytest.mark.parametrize("m", range(2, 7))
def test_settled_deg_product_outcomes_equal_the_exact_formula(m):
    check, opened = verify.CHECKS[f"deg-product-bound-m{m}"], []
    for stack in deg_product_stacks():
        c = measures.Chunk(stack)
        status, ratio = check.outcomes(c)
        product = c.degm(2) * c.degm(m)
        opened.append((c.deg > product).any())
        assert ("profile" in vars(c)) == opened[-1]  # the DP runs only on a chunk with an open row
        # no skip holds: each row passes or fails by the exact formula
        passed, failed = len(check.skips), len(check.skips) + 1
        assert ratio is None and np.array_equal(status, np.where(c.deg <= c.alt * product, passed, failed))
    assert opened[-1] == (m == 2) and not any(opened[-5:-1])


def test_degree_four_tables_pass_the_sparsity_checks():
    # 1 << (2 * deg) is 256 at deg = 4, which a uint8 popcount column would wrap to 0
    tables = [t for t in Population.sample(4, 600, 21).tables() if algebra.degree(t) == 4]
    names = ["log-sparsity-le-2deg", "deg2-le-log-sparsity", "deg-exp-deg2-lower"]
    report = run_check_suite(Population.explicit(tables), checks=names)
    assert len(tables) > 200
    for name in names:
        agg = report.checks[name]
        assert agg["fail"] == 0 and agg["pass"] > 0, (name, agg)
    chunk = next(measures.chunks(tables))
    assert chunk.deg.dtype == np.int64 and chunk.sparsity.dtype == np.int64


def test_columns_above_the_int64_arity_are_python_ints(monkeypatch):
    population = Population.explicit([*Population.sample(4, 60, 3).tables(), *verify.standard_family_instances()])
    as_int64 = run_check_suite(population).to_json()
    monkeypatch.setattr(algebra, "INT64_EXACT_MAX_ARITY", 2)
    chunk = next(measures.chunks(Population.sample(4, 5, 3).tables()))
    assert chunk.s.dtype == object and type(chunk.I_num[0]) is int and type(chunk.sums["weighted2"][0]) is int
    assert run_check_suite(population).to_json() == as_int64


# The statement s >= n, false in general, once as a column formula and once
# decided in Python, one distinct value of s at a time.
BOGUS_COLUMNS = verify.Check("bogus-columns", "assert", "s >= n", lambda c: c.s >= c.n, ("s", "n"))
BOGUS_ROWS = verify.Check(
    "bogus-rows", "assert", "s >= n", lambda c: measures.per_value(lambda s: s >= c.n, c.s), ("s", "n")
)
SPANNED = ["bogus-columns", "bogus-rows", "bs-ratio", "sens-log-ratio"]


def chunks_holding(population, monkeypatch) -> dict:
    """Per check of ``SPANNED``, the indices of the chunks, at 64 cells, that
    hold a failure or a row tying for the maximum ratio."""
    monkeypatch.setattr(measures, "CHUNK_CELLS", 64)
    seen = {name: [] for name in SPANNED}
    for index, chunk in enumerate(measures.chunks(population.tables())):
        for record in chunk.records():
            for name in SPANNED:
                status, observed = verify.CHECKS[name].run(record)
                seen[name].append((index, status, observed.get("ratio")))
    held = {}
    for name, outcomes in seen.items():
        top = max((ratio for _, _, ratio in outcomes if ratio is not None), default=None)
        held[name] = {i for i, status, ratio in outcomes if status == "fail" or (top is not None and ratio == top)}
    return held


@pytest.mark.usefixtures("workers_at_once")
@pytest.mark.parametrize("jobs", [1, 2])
def test_failures_and_ties_across_chunks_give_the_same_bytes(monkeypatch, jobs):
    monkeypatch.setitem(verify.CHECKS, BOGUS_COLUMNS.name, BOGUS_COLUMNS)
    monkeypatch.setitem(verify.CHECKS, BOGUS_ROWS.name, BOGUS_ROWS)
    population = Population.explicit([*Population.exhaustive(3).tables(), *verify.standard_family_instances()])
    default = measures.CHUNK_CELLS
    assert all(len(held) >= 2 for held in chunks_holding(population, monkeypatch).values())
    reports = set()
    for cells in (1, 8, 64, default):
        monkeypatch.setattr(measures, "CHUNK_CELLS", cells)
        report = run_check_suite(population, checks=SPANNED, jobs=jobs, fail_limit=2)
        reports.add(report.to_json())
    assert len(reports) == 1
    checks = report.checks
    assert checks["bogus-columns"] == checks["bogus-rows"]
    assert checks["bogus-columns"]["fail"] > 2 and len(checks["bogus-columns"]["failures"]) == 2


def entry_by_records(check: verify.Check, population: Population, fail_limit: int) -> dict:
    """A sweep entry built from each record's ``Check.run`` outcome: the
    counts, the first ``fail_limit`` failures by id, the skip reasons, and
    the largest ratio, a tie going to the smallest id."""
    counts, failures, reasons, ratios = {"pass": 0, "fail": 0, "skip": 0}, [], {}, []
    for record in measures.records(population.tables()):
        status, observed = check.run(record)
        counts[status] += 1
        if status == "fail":
            failures.append({"fn": record.fn_id(), "observed": {k: str(v) for k, v in observed.items()}})
        elif status == "skip":
            reasons[observed["reason"]] = reasons.get(observed["reason"], 0) + 1
        elif check.kind == "ratio":
            ratios.append((observed["ratio"], record.fn_id()))
    entry = {
        "kind": check.kind,
        **counts,
        "failures": sorted(failures, key=lambda item: item["fn"])[:fail_limit],
        "skip_reasons": dict(sorted(reasons.items())),
        "max_ratio": None,
    }
    if ratios:
        top = max(ratio for ratio, _ in ratios)
        fn = min(fn for ratio, fn in ratios if ratio == top)
        entry.update(max_ratio=str(top), max_ratio_float=float(top), max_ratio_fn=fn)
    return entry


def test_every_check_gives_the_same_entry_on_columns_and_row_by_row(monkeypatch):
    monkeypatch.setitem(verify.CHECKS, BOGUS_COLUMNS.name, BOGUS_COLUMNS)
    population = Population.explicit([*Population.exhaustive(3).tables(), *verify.standard_family_instances()])
    checks = run_check_suite(population, fail_limit=2).checks
    assert checks[BOGUS_COLUMNS.name]["fail"] > 2
    for name, entry in checks.items():
        assert entry == entry_by_records(verify.CHECKS[name], population, 2), name
