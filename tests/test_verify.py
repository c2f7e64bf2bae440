"""Population streams, check registry behavior, report determinism."""

import csv
import itertools
import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from boolfn import core, families, measures, verify
from boolfn.core import TruthTable, parse, serialize, unpack_rows
from boolfn.measures import measure_report
from boolfn.verify import (
    CHECKS,
    Check,
    Population,
    run_check_suite,
)

import oracles
from test_record import matrix_sweep


def test_enumerate_counts():
    assert len(list(oracles.members_of(Population.exhaustive(1)))) == 4
    tables = list(oracles.members_of(Population.exhaustive(2)))
    assert len(tables) == 16
    assert serialize(tables[0]) == "2:0"
    assert serialize(tables[-1]) == "2:F"
    with pytest.raises(ValueError):
        oracles.members_of(Population.exhaustive(5))


def test_sample_determinism():
    a = [serialize(t) for t in oracles.members_of(Population.sample(5, 1000, 42))]
    b = [serialize(t) for t in oracles.members_of(Population.sample(5, 1000, 42))]
    assert a == b
    c = [serialize(t) for t in oracles.members_of(Population.sample(5, 1000, 43))]
    assert a != c
    tables = list(oracles.members_of(Population.sample(8, 10, 7)))
    assert len(tables) == 10 and all(t.n == 8 for t in tables)
    with pytest.raises(ValueError):
        oracles.members_of(Population.sample(25, 1, 0))


def test_unknown_check_rejected():
    with pytest.raises(ValueError, match="unknown check"):
        run_check_suite(Population.exhaustive(1), checks=["no-such-check"])


def test_exhaustive_small_all_green():
    for n in (1, 2, 3):
        report = run_check_suite(Population.exhaustive(n), checks="all")
        assert not report.failed, report.to_text()


def test_spectral_weight_tight_on_parity():
    pop = Population.explicit([families.named_basics("parity", 4)])
    report = run_check_suite(pop, checks=["spectral-weight-ge-n"])
    assert report.checks["spectral-weight-ge-n"]["pass"] == 1
    record = measure_report(families.named_basics("parity", 4))
    assert record.value("weighted") == 4  # exactly n, the tight case


def test_skip_reasons_recorded():
    projection = parse("2:C")  # ignores x_2
    report = run_check_suite(Population.explicit([projection]), checks=["spectral-weight-ge-n"])
    agg = report.checks["spectral-weight-ge-n"]
    assert agg["skip"] == 1
    assert "does not depend on all inputs" in agg["skip_reasons"]


def test_report_determinism_bytes():
    pop = Population.sample(6, 60, 123)
    a = run_check_suite(pop, checks="all").to_json()
    b = run_check_suite(pop, checks="all").to_json()
    assert a == b


@pytest.mark.usefixtures("workers_at_once")
def test_parallel_matches_serial():
    pop = Population.sample(5, 120, 9)
    serial = run_check_suite(pop, checks="all", jobs=1)
    parallel = run_check_suite(pop, checks="all", jobs=3)
    assert serial.to_json() == parallel.to_json()
    assert multiprocessing.active_children() == []


class Channel:
    """Both ends of one in-process pipe."""

    def __init__(self):
        self.items = []

    def send(self, item):
        self.items.append(item)

    def recv(self):
        return self.items.pop(0)

    def close(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@pytest.fixture
def inline_workers(monkeypatch) -> list:
    """The arguments of each worker started from now on, with two CPUs: a
    worker runs its target when started, in this process."""
    started = []

    class InlineProcess:
        def __init__(self, target, args):
            self.target, self.args = target, args

        def start(self):
            started.append(self.args)
            handler = signal.getsignal(signal.SIGINT)  # a worker ignores SIGINT
            try:
                self.target(*self.args)
            finally:
                signal.signal(signal.SIGINT, handler)

        def is_alive(self):
            return False

        def join(self):
            pass

    class RecordingContext:
        Process = InlineProcess

        @staticmethod
        def Pipe(duplex):
            channel = Channel()
            return channel, channel

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: RecordingContext())
    return started


@pytest.mark.usefixtures("workers_at_once")
def test_worker_count_clamped_to_cpu_count(inline_workers):
    started = inline_workers
    pop = Population.sample(4, 40, 3)
    clamped = run_check_suite(pop, checks="all", jobs=64)
    # two shares: the caller runs members 0..20, one started process the rest
    assert [args[4:6] for args in started] == [(20, 40)]
    assert clamped.to_json() == run_check_suite(pop, checks="all", jobs=1).to_json()


def test_jobs_below_one_rejected_before_the_sweep(monkeypatch):
    monkeypatch.setattr(verify, "_run_chunk", lambda *args: pytest.fail("the sweep ran"))
    for jobs in (0, -1):
        with pytest.raises(ValueError, match=f"jobs {jobs} is below 1"):
            run_check_suite(Population.exhaustive(2), jobs=jobs)


@pytest.mark.parametrize(
    "count, solo, shares",
    [
        (40, 0, [(0, 20), (20, 40)]),
        (40, 3, [(12, 26), (26, 40)]),
        (40, 9, [(36, 38), (38, 40)]),
        (42, 10, [(40, 42)]),  # 2 members left, fewer than 2 * jobs: the caller sweeps them
        (40, 10, []),  # the solo phase swept them all
    ],
    ids=["no-solo-stack", "after-3-stacks", "after-9-stacks", "rest-alone", "all-solo"],
)
def test_workers_take_only_the_members_the_solo_phase_left(monkeypatch, inline_workers, count, solo, shares):
    # stacks of 4 members; the fake clock passes the deadline after `solo` stacks
    monkeypatch.setattr(measures, "CHUNK_CELLS", 64)
    ticks = itertools.count()
    monkeypatch.setattr(verify, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    monkeypatch.setattr(verify, "SOLO_SWEEP_S", solo + 1)
    ranges = []
    run_chunk = verify._run_chunk

    def recording(population, names, start, stop, *rest):
        aggregates, reached = run_chunk(population, names, start, stop, *rest)
        ranges.append((start, stop, reached))
        return aggregates, reached

    monkeypatch.setattr(verify, "_run_chunk", recording)
    pop = Population.sample(4, count, 3)
    report, matrix = matrix_sweep(pop, jobs=2)
    assert ranges[0] == (0, None, 4 * solo)
    # then the caller's share and each worker's (inline, so a worker's
    # share is swept when it starts, before the caller's), each whole
    assert sorted((start, stop) for start, stop, _ in ranges[1:]) == shares
    assert all(reached == (count if stop is None else stop) for _, stop, reached in ranges[1:])
    assert [args[4:6] for args in inline_workers] == shares[1:]
    ranges.clear()
    serial, serial_matrix = matrix_sweep(pop, jobs=1)
    assert ranges == [(0, None, count)]
    assert (report.to_json(), matrix) == (serial.to_json(), serial_matrix)


# A sweep whose worker dies without a result, in a process of its own, so
# that a sweep that waits on the dead worker fails the test by its timeout.
# Given an argv, the sweep is `boolfn verify` with it.
DYING_WORKER = """
import multiprocessing, os, sys
from boolfn import cli, verify

run_chunk = verify._run_chunk

def dying(population, names, start, *rest):
    if start > 0:
        os._exit(3)
    return run_chunk(population, names, start, *rest)

os.cpu_count = lambda: 2
verify.SOLO_SWEEP_S = 0
verify._run_chunk = dying
if sys.argv[1:]:
    sys.exit(cli.main(sys.argv[1:]))
try:
    verify.run_check_suite(verify.Population.sample(4, 40, 3), jobs=2)
except ChildProcessError as exc:
    print(exc)
print(multiprocessing.active_children())
"""


def run_dying_worker(*argv) -> subprocess.CompletedProcess:
    src = str(Path(verify.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", DYING_WORKER, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="the worker is patched by fork")
def test_worker_that_dies_without_a_result_raises():
    result = run_dying_worker()
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["sweep worker exited with code 3 without a result", "[]"]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="the worker is patched by fork")
def test_a_dead_worker_gives_exit_three():
    result = run_dying_worker("verify", "--sample", "4,40,3", "--jobs", "2")
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr == "error: sweep worker exited with code 3 without a result\n"


# `boolfn verify` with two CPUs, its argv from the command line; stderr
# says whether the sweep imported multiprocessing.
TWO_CPUS = """
import os, sys
os.cpu_count = lambda: 2
from boolfn import cli
code = cli.main(sys.argv[1:])
print("multiprocessing" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def test_a_sweep_shorter_than_the_solo_phase_starts_no_worker():
    src = str(Path(verify.__file__).resolve().parents[1])
    argv = ["verify", "--sample", "8,500,42", "--checks", "deg-product-bound-m2,deg-product-bound-m3"]
    runs = [
        subprocess.run(
            [sys.executable, "-c", TWO_CPUS, *argv, "--jobs", jobs],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        for jobs in ("1", "2")
    ]
    assert [(run.returncode, run.stderr) for run in runs] == [(0, "False\n")] * 2
    assert runs[1].stdout == runs[0].stdout


@pytest.fixture
def joined(monkeypatch) -> list:
    """The processes joined from now on, with two CPUs to start them on."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    joined = []
    join = multiprocessing.process.BaseProcess.join

    def recording_join(self, timeout=None):
        join(self, timeout)
        joined.append(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "join", recording_join)
    return joined


@pytest.mark.usefixtures("workers_at_once")
@pytest.mark.parametrize("at", [0, -1], ids=["caller-share", "last-share"])
def test_worker_errors_reach_the_caller(joined, at):
    members = [serialize(t) for t in oracles.members_of(Population.sample(4, 200, 2))]
    members[at] = "3:ZZ"
    population = Population(kind="explicit", members=tuple(members))
    with pytest.raises(core.FormatError) as serial:
        run_check_suite(population, jobs=1)
    assert joined == []
    with pytest.raises(core.FormatError) as parallel:
        run_check_suite(population, jobs=2)
    assert str(parallel.value) == str(serial.value) == "malformed table text: '3:ZZ'"
    # a worker's error comes with the worker's traceback as its cause
    assert (parallel.value.__cause__ is None) == (at == 0)
    assert len(joined) == 1 and joined[0].exitcode is not None
    assert multiprocessing.active_children() == []


def test_counterexample_round_trip():
    # a deliberately false statement so failures exist: s(f) >= n
    bogus = Check(
        name="bogus-s-ge-n",
        kind="assert",
        description="sensitivity is the arity (false in general)",
        holds=lambda c: c.s >= c.n,
        observed=("s", "n"),
    )
    pop = Population.exhaustive(2)
    aggregates = {}
    for table in oracles.members_of(pop):
        record = measure_report(table)
        status, observed = bogus.run(record)
        if status == "fail":
            aggregates[record.fn_id()] = observed
    assert aggregates  # the projection functions fail it
    # re-run each failure from its serialized witness alone
    for fn_id in aggregates:
        record = measure_report(parse(fn_id))
        status, _ = bogus.run(record)
        assert status == "fail"
        assert record.fn_id() == fn_id


def test_failure_payload_reproduces():
    # force a failure through the real pipeline by shrinking a cap is not
    # possible for assert checks, so patch in the bogus check name space
    bogus = Check(
        name="bogus",
        kind="assert",
        description="always fails",
        holds=lambda c: False,
    )
    record = measure_report(families.named_basics("and", 2))
    status, _ = bogus.run(record)
    assert status == "fail" and record.fn_id() == "2:8"
    rerun, _ = bogus.run(measure_report(parse(record.fn_id())))
    assert rerun == "fail"


def test_registry_contents():
    for required in (
        "s-le-bs",
        "cert-ge-bs",
        "alt-dc-relation",
        "alt-le-exp-dt",
        "dc-le-exp-dt",
        "deg-product-bound-m2",
        "deg-product-bound-m6",
        "spectral-weight-ge-n",
        "sens-sqrt-sparsity",
        "deg-exp-deg2-lower",
        "influence-le-alt-sqrt-n",
        "influence-le-alt-deg2sq",
        "influence-fourier-identity",
        "bs-ratio",
        "sens-log-ratio",
        "deg-sparsity-exponent",
    ):
        assert required in CHECKS
    assert CHECKS["bs-ratio"].kind == "ratio"
    assert CHECKS["deg-sparsity-exponent"].kind == "report"


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_negs_from_decrease_holds_at_the_least_k_with_2_to_the_k_above_dc(dtype):
    # negs = ceil(log2(1 + dc)) in integers: true at that least k, false one
    # above it and, where that is 0 or more, one below it
    holds = CHECKS["negs-from-decrease"].holds
    dc = np.arange((1 << 16) + 1).astype(dtype)
    least = np.array([next(k for k in itertools.count() if 2**k >= 1 + d) for d in dc.tolist()], dtype)
    assert holds(SimpleNamespace(dc=dc, negs=least)).all()
    assert not holds(SimpleNamespace(dc=dc, negs=least + 1)).any()
    assert not holds(SimpleNamespace(dc=dc[least > 0], negs=least[least > 0] - 1)).any()


def test_report_check_does_not_fail_suite():
    # tiny-n counterexamples to the sparsity-exponent implication must not
    # flip the exit status: it is a report, not an assertion
    report = run_check_suite(Population.exhaustive(2), checks=["deg-sparsity-exponent"])
    assert report.checks["deg-sparsity-exponent"]["fail"] > 0
    assert not report.failed


def test_negative_fail_limit_rejected_before_the_sweep(monkeypatch):
    monkeypatch.setattr(verify, "_run_chunk", lambda *args: pytest.fail("the sweep ran"))
    with pytest.raises(ValueError, match="fail_limit -1"):
        run_check_suite(Population.exhaustive(2), checks=["deg-sparsity-exponent"], fail_limit=-1)


def test_ratio_check_reports_max():
    pop = Population.explicit(
        [families.named_basics("parity", 4), families.named_basics("and", 3)]
    )
    report = run_check_suite(pop, checks=["bs-ratio"])
    agg = report.checks["bs-ratio"]
    # parity_4: bs=4, s=4, alt=4 -> 1/16; and_3: bs=3, s=3, alt=1 -> 1
    assert agg["max_ratio"] == "1"
    assert agg["max_ratio_fn"] == serialize(families.named_basics("and", 3))


def test_largest_ratio_is_exact_where_the_float_estimates_tie():
    num, den = np.array([2**53, 2**53 + 1]), np.array([1, 1])
    assert num[0] / den[0] == num[1] / den[1]  # the estimate picks row 0
    assert verify._largest(num, den).tolist() == [1]
    assert verify._largest(np.array([3, 6, 2]), np.array([2, 4, 2])).tolist() == [0, 1]


def test_standard_family_instances_sweep():
    from boolfn.core import materialize

    pop = Population.explicit(verify.standard_family_instances())
    assert pop.size() > 20
    report = run_check_suite(
        pop, checks=["alt-dc-relation", "negs-from-decrease", "log-sparsity-le-2deg", "spectral-weight-ge-n"]
    )
    assert not report.failed, report.to_text()
    # the gap-family members put structured witnesses in the stream
    f3_id = serialize(materialize(families.gap_family(3)[0]))
    assert f3_id in pop.members


def test_measure_matrix_rows():
    _, matrix = matrix_sweep(Population.exhaustive(1))
    rows = list(csv.reader(matrix.splitlines()))
    assert rows[0][0] == "fn"
    assert len(rows) == 5
    by_fn = {row[0]: row for row in rows[1:]}
    identity = by_fn["1:2"]
    cols = dict(zip(rows[0], identity))
    assert cols["s"] == "1" and cols["alt"] == "1" and cols["deg"] == "1"


CAPS = {
    "bs_cap": measures.BS_CAP_DEFAULT,
    "cert_cap": measures.CERT_CAP_DEFAULT,
    "dt_cap": measures.DT_CAP_DEFAULT,
}


def record_decoded(monkeypatch) -> list[str]:
    """The ids of the members the population decoder unpacks from now on;
    a member parsed on its own fails the test."""
    decoded = []

    def unpack(n, packed):
        rows = unpack_rows(n, packed)
        decoded.extend(serialize(TruthTable(n, row)) for row in rows)
        return rows

    monkeypatch.setattr(verify, "unpack_rows", unpack)
    monkeypatch.setattr(verify, "parse", lambda text: pytest.fail(f"parsed {text!r} on its own"))
    return decoded


def test_worker_parses_only_its_own_range(monkeypatch):
    texts = tuple(serialize(t) for t in oracles.members_of(Population.sample(8, 4000, 5)))
    decoded = record_decoded(monkeypatch)
    part, reached = verify._run_chunk(Population(kind="explicit", members=texts), ("alt-dc-relation",), 2000, 4000, CAPS, 5)
    assert reached == 4000
    assert part["alt-dc-relation"].counts["pass"] == 2000
    assert decoded == list(texts[2000:])


@pytest.mark.parametrize("population", [Population.exhaustive(3), Population.sample(4, 100, 3)], ids=["exhaustive", "sample"])
def test_ranges_build_only_their_members(monkeypatch, population):
    whole = [serialize(t) for t in oracles.members_of(population)]
    built = record_decoded(monkeypatch)
    assert [serialize(t) for t in oracles.members_of(population, 60, 90)] == whole[60:90]
    assert len(built) == 30 and built == whole[60:90]
    assert [serialize(t) for t in oracles.members_of(population, 90, 10**6)] == whole[90:]


def assert_stacks_of(got, tables) -> None:
    """``got`` are the stacks ``oracles.stacks_of`` makes of ``tables``, each
    read-only, C-contiguous uint8, and so is each of its rows."""
    want = list(oracles.stacks_of(tables))
    assert [stack.shape for stack in got] == [stack.shape for stack in want]
    for stack, expected in zip(got, want):
        assert np.array_equal(stack, expected)
        for array in (stack, *stack):
            assert array.dtype == np.uint8 and array.flags.c_contiguous and not array.flags.writeable


# The text forms of a member: canonical, lowercase, and forms only parse
# reads (padded with spaces, a line break after it, a leading zero).
FORMS = {
    "canonical": serialize,
    "lowercase": lambda t: serialize(t).lower(),
    "padded": lambda t: f"  {serialize(t)} ",
    "line-break": lambda t: serialize(t) + "\n",
    "leading-zero": lambda t: "0" + serialize(t),
}
MIXED_ARITIES = [
    *oracles.members_of(Population.exhaustive(0)),
    *verify.standard_family_instances(),
    *oracles.members_of(Population.sample(9, 3, 4)),
    *oracles.members_of(Population.sample(3, 70, 4)),
    *oracles.members_of(Population.exhaustive(1)),
    *itertools.chain(*zip(oracles.members_of(Population.sample(0, 9, 5)), oracles.members_of(Population.sample(1, 9, 5)))),
]


@pytest.mark.parametrize("cells", [measures.CHUNK_CELLS, 64, 1])
@pytest.mark.parametrize("form", [*FORMS, "alternating"])
def test_explicit_stacks_match_parse(monkeypatch, form, cells):
    # mixed arities 0..9 and 15; at 64 cells the n = 3 run splits every 8 members
    monkeypatch.setattr(measures, "CHUNK_CELLS", cells)
    # Alternating forms put members parsed alone between runs of decoded ones.
    # A line break in any member has every member parsed, so it is left out.
    mixed = [write for name, write in FORMS.items() if name != "line-break"]
    forms = itertools.cycle(mixed) if form == "alternating" else itertools.repeat(FORMS[form])
    texts = tuple(write(t) for write, t in zip(forms, MIXED_ARITIES))
    population = Population(kind="explicit", members=texts)
    assert_stacks_of(list(population.stacks()), [parse(text) for text in texts])
    for start, stop in ((0, 1), (5, 45), (44, 200), (107, 10**6)):
        assert_stacks_of(list(population.stacks(start, stop)), [parse(text) for text in texts[start:stop]])
    got = [t.values.tolist() for t in oracles.members_of(population, 5, 45)]
    assert got == [parse(x).values.tolist() for x in texts[5:45]]


@pytest.mark.parametrize("cells", [measures.CHUNK_CELLS, 64])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 9])
def test_sample_stacks_match_packed_ints(monkeypatch, n, cells):
    monkeypatch.setattr(measures, "CHUNK_CELLS", cells)
    rng = random.Random(8)
    packed = [rng.getrandbits(1 << n) for _ in range(150)]
    population = Population.sample(n, 150, 8)
    for start, stop in ((0, None), (1, 2), (37, 120), (120, 10**6)):
        tables = [TruthTable.from_packed_int(n, p) for p in packed[start:stop]]
        assert_stacks_of(list(population.stacks(start, stop)), tables)


@pytest.mark.parametrize("n", range(5))
def test_exhaustive_stacks_match_packed_ints(monkeypatch, n):
    size = 1 << (1 << n)
    for cells in (measures.CHUNK_CELLS, 64):
        monkeypatch.setattr(measures, "CHUNK_CELLS", cells)
        for start, stop in ((0, size), (1, 2), (size // 3, size - 1), (size - 1, size + 5)):
            tables = [TruthTable.from_packed_int(n, p) for p in range(start, min(stop, size))]
            assert_stacks_of(list(Population.exhaustive(n).stacks(start, stop)), tables)


BAD_MEMBERS = [
    "4:ABC",  # too few digits
    "4:ABCDE",  # too many
    "3:1",
    "0:2",  # padding bits at n = 0
    "0:F",
    "1:4",  # and at n = 1
    "1:f",
    "25:0",  # above the dense cap
    "99:" + "0" * 20,
    "4:GHIJ",  # not hex
    "4:AB\nCD",
    "4:0123\n4:4567",  # two well-formed lines in one member
    "4:AB CD",  # a space in the digits
    "4:AB  ",  # spaces in place of digits
    "ABCD  ",  # no arity, at a member's length
    "4:",
    "x",
    "",
    "²:0",  # a digit to str.isdigit, but not an arity to parse
]


@pytest.mark.parametrize("bad", BAD_MEMBERS)
def test_bad_explicit_members_raise_what_parse_raises(bad):
    with pytest.raises(ValueError) as parsed:
        parse(bad)
    good = tuple(serialize(t) for t in oracles.members_of(Population.sample(4, 6, 1)))
    for members in ((bad,), (*good, bad, *good), (*good[:3], bad, "4:Z", *good)):
        population = Population(kind="explicit", members=members)
        with pytest.raises(type(parsed.value)) as decoded:
            list(population.stacks())
        assert str(decoded.value) == str(parsed.value)
    # a range ending before the bad member decodes; one starting at it raises
    population = Population(kind="explicit", members=(*good, bad))
    assert_stacks_of(list(population.stacks(0, 6)), [parse(text) for text in good])
    with pytest.raises(type(parsed.value)) as decoded:
        list(population.stacks(6))
    assert str(decoded.value) == str(parsed.value)


@pytest.mark.parametrize("at", [0, 17, 19, 40])
def test_a_member_parsed_alone_costs_at_most_its_stack(monkeypatch, at):
    # at 64 cells a stack holds 4 members of arity 4: at most the padded
    # member's stack is parsed, and every other member decoded
    monkeypatch.setattr(measures, "CHUNK_CELLS", 64)
    texts = [serialize(t) for t in oracles.members_of(Population.sample(4, 41, 6))]
    texts[at] = f"  {texts[at]} "
    decoded, parsed = record_decoded(monkeypatch), []
    monkeypatch.setattr(verify, "parse", lambda text: parsed.append(text) or parse(text))
    assert_stacks_of(list(Population(kind="explicit", members=tuple(texts)).stacks()), [parse(t) for t in texts])
    assert texts[at] in parsed and set(parsed) <= set(texts[at // 4 * 4 : at // 4 * 4 + 4])
    assert len(parsed) == len(set(parsed))  # no member is parsed twice
    assert decoded == [text for text in texts if text not in parsed]


def test_an_empty_explicit_population_gives_zero_counts():
    population = Population.explicit([])
    assert population.size() == 0 and list(population.stacks()) == []
    report, matrix = matrix_sweep(population)
    assert len(report.checks) == len(CHECKS) and not report.failed
    for agg in report.checks.values():
        assert (agg["pass"], agg["fail"], agg["skip"], agg["max_ratio"]) == (0, 0, 0, None)
    assert list(csv.reader(matrix.splitlines())) == [list(measures.COLUMNS)]


def test_members_above_a_lowered_dense_cap_raise_cap_exceeded(monkeypatch):
    monkeypatch.setenv(core.DENSE_CAP_ENV, "4")
    members = (*(serialize(t) for t in oracles.members_of(Population.sample(4, 3, 1))), "5:" + "0" * 8)
    with pytest.raises(core.CapExceededError, match="arity 5 exceeds dense cap 4"):
        list(Population(kind="explicit", members=members).stacks())


@pytest.mark.parametrize("before", [0, 4])
def test_a_canonical_member_above_a_lowered_dense_cap_raises_cap_exceeded(monkeypatch, before):
    # the arity 5 member starts a stack: alone, or after a full stack of 4
    monkeypatch.setenv(core.DENSE_CAP_ENV, "4")
    monkeypatch.setattr(measures, "CHUNK_CELLS", 64)
    members = (*(serialize(t) for t in oracles.members_of(Population.sample(4, before, 1))), "5:" + "0" * 8)
    with pytest.raises(core.CapExceededError, match="arity 5 exceeds dense cap 4"):
        list(Population(kind="explicit", members=members).stacks())


@pytest.mark.usefixtures("workers_at_once")
def test_spawn_workers_match_serial(monkeypatch):
    get_context = multiprocessing.get_context
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: get_context("spawn"))
    pop = Population.sample(5, 80, 11)
    assert run_check_suite(pop, jobs=2).to_json() == run_check_suite(pop).to_json()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "make",
    [
        lambda: Population.exhaustive(-1),
        lambda: Population.exhaustive(5),
        lambda: Population.sample(3, -2, 1),
        lambda: Population.sample(-1, 2, 1),
        lambda: Population(kind="nothing"),
    ],
)
def test_bad_population_parameters_rejected_when_made(make):
    with pytest.raises(ValueError):
        make()


MALFORMED = {
    "seed-None": ("seed", dict(kind="sample", n=3, count=3, seed=None)),  # would draw system randomness
    "seed-str": ("seed", dict(kind="sample", n=3, count=3, seed="3")),
    "sample-n-None": ("n", dict(kind="sample", n=None, count=3, seed=1)),
    "sample-n-float": ("n", dict(kind="sample", n=2.5, count=3, seed=1)),
    "exhaustive-n-None": ("n", dict(kind="exhaustive", n=None)),
    "exhaustive-n-float": ("n", dict(kind="exhaustive", n=2.5)),
    "exhaustive-n-bool": ("n", dict(kind="exhaustive", n=True)),
    "count-None": ("count", dict(kind="sample", n=3, count=None, seed=1)),
    "count-float": ("count", dict(kind="sample", n=3, count=2.0, seed=1)),
    "count-bool": ("count", dict(kind="sample", n=3, count=True, seed=1)),
    "members-str": ("members", dict(kind="explicit", members="2:8")),  # not three members
    "members-tables": ("members", dict(kind="explicit", members=(parse("2:8"),))),
}


@pytest.mark.parametrize("field, kwargs", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_population_fields_raise_value_error_naming_them(field, kwargs):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        Population(**kwargs)


def test_a_lone_check_name_is_one_name():
    pop = Population.exhaustive(2)
    assert [c.name for c in verify.resolve_checks("s-le-bs")] == ["s-le-bs"]
    assert run_check_suite(pop, checks="s-le-bs").to_json() == run_check_suite(pop, checks=["s-le-bs"]).to_json()


@pytest.mark.parametrize(
    "profile",
    [[0, 2, 0, 1], [0, 1, 1, 1]],
    ids=["not-monotone", "wrong-parity"],
)
def test_decomposition_check_fails_on_a_corrupted_profile(profile):
    # AND_2 has A = [0, 0, 0, 1]; the first profile drops from 2 to 1 along
    # x_2, the second has A mod 2 != f xor f(0^n) at two points. The profile
    # is a column of the chunk, read by the record and by the column path.
    chunk = measures.Chunk(families.named_basics("and", 2).values[None])
    chunk.profile = np.array([profile], dtype=np.int32)
    status, observed = CHECKS["monotone-decomposition"].run(chunk.record(0))
    assert status == "fail"
    assert observed == {"parts": 1, "alt": 1, "negated": False}
    aggregate = verify.Aggregate("assert")
    aggregate.add_chunk(chunk, CHECKS["monotone-decomposition"])
    entry = aggregate.finalize()
    assert (entry["pass"], entry["fail"], entry["skip"]) == (0, 1, 0)
