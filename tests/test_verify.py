"""Population streams, check registry behavior, report determinism."""

import itertools
import json
import multiprocessing
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from boolfn import core, families, measures, verify
from boolfn.core import TruthTable, parse, serialize, unpack_rows
from boolfn.verify import (
    CHECKS,
    Check,
    MeasureContext,
    Population,
    run_check_suite,
    run_single_check,
)


def test_enumerate_counts():
    assert len(list(Population.exhaustive(1).tables())) == 4
    tables = list(Population.exhaustive(2).tables())
    assert len(tables) == 16
    assert serialize(tables[0]) == "2:0"
    assert serialize(tables[-1]) == "2:F"
    with pytest.raises(ValueError):
        Population.exhaustive(5).tables()


def test_sample_determinism():
    a = [serialize(t) for t in Population.sample(5, 1000, 42).tables()]
    b = [serialize(t) for t in Population.sample(5, 1000, 42).tables()]
    assert a == b
    c = [serialize(t) for t in Population.sample(5, 1000, 43).tables()]
    assert a != c
    tables = list(Population.sample(8, 10, 7).tables())
    assert len(tables) == 10 and all(t.n == 8 for t in tables)
    with pytest.raises(ValueError):
        Population.sample(25, 1, 0).tables()


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
    ctx = MeasureContext(families.named_basics("parity", 4))
    assert ctx.sums().weighted == 4  # exactly n, the tight case


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


def test_parallel_matches_serial():
    pop = Population.sample(5, 120, 9)
    serial = run_check_suite(pop, checks="all", jobs=1)
    parallel = run_check_suite(pop, checks="all", jobs=3)
    assert serial.to_json() == parallel.to_json()
    assert multiprocessing.active_children() == []


def test_worker_count_clamped_to_cpu_count(monkeypatch):
    started = []

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

    class InlineProcess:
        """Runs its target when started, in this process."""

        def __init__(self, target, args):
            self.target, self.args = target, args

        def start(self):
            started.append(self.args)
            self.target(*self.args)

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
    pop = Population.sample(4, 40, 3)
    clamped = run_check_suite(pop, checks="all", jobs=64)
    # two shares: the caller runs members 0..20, one started process the rest
    assert [args[3:5] for args in started] == [(20, 40)]
    assert clamped.to_json() == run_check_suite(pop, checks="all", jobs=1).to_json()


# A sweep whose worker dies without a result, in a process of its own, so
# that a sweep that waits on the dead worker fails the test by its timeout.
DYING_WORKER = """
import multiprocessing, os
from boolfn import verify

run_chunk = verify._run_chunk

def dying(population, names, start, *rest):
    if start > 0:
        os._exit(3)
    return run_chunk(population, names, start, *rest)

os.cpu_count = lambda: 2
verify._run_chunk = dying
try:
    verify.run_check_suite(verify.Population.sample(4, 40, 3), jobs=2)
except RuntimeError as exc:
    print(exc)
print(multiprocessing.active_children())
"""


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="the worker is patched by fork")
def test_worker_that_dies_without_a_result_raises():
    src = str(Path(verify.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", DYING_WORKER],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["sweep worker exited with code 3 without a result", "[]"]


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


@pytest.mark.parametrize("at", [0, -1], ids=["caller-share", "last-share"])
def test_worker_errors_reach_the_caller(joined, at):
    members = [serialize(t) for t in Population.sample(4, 200, 2).tables()]
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
    for table in pop.tables():
        ctx = MeasureContext(table)
        status, observed = bogus.run(ctx)
        if status == "fail":
            aggregates[ctx.fn_id()] = observed
    assert aggregates  # the projection functions fail it
    # re-run each failure from its serialized witness alone
    for fn_id in aggregates:
        again = run_single_check(bogus, parse(fn_id))
        assert again.status == "fail"
        assert again.fn_id == fn_id


def test_failure_payload_reproduces():
    # force a failure through the real pipeline by shrinking a cap is not
    # possible for assert checks, so patch in the bogus check name space
    bogus = Check(
        name="bogus",
        kind="assert",
        description="always fails",
        holds=lambda c: False,
    )
    result = run_single_check(bogus, families.named_basics("and", 2))
    payload = result.to_json_dict()
    assert payload["status"] == "fail" and payload["fn"] == "2:8"
    rerun = run_single_check(bogus, parse(payload["fn"]))
    assert rerun.status == "fail"


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
    rows = list(verify.measure_matrix_rows(Population.exhaustive(1)))
    assert rows[0][0] == "fn"
    assert len(rows) == 5
    by_fn = {row[0]: row for row in rows[1:]}
    identity = by_fn["1:2"]
    cols = dict(zip(rows[0], identity))
    assert cols["s"] == 1 and cols["alt"] == 1 and cols["deg"] == 1


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
    texts = tuple(serialize(t) for t in Population.sample(8, 4000, 5).tables())
    decoded = record_decoded(monkeypatch)
    part = verify._run_chunk(Population(kind="explicit", members=texts), ("alt-dc-relation",), 2000, 4000, CAPS, 5)
    assert part["alt-dc-relation"].counts["pass"] == 2000
    assert decoded == list(texts[2000:])


@pytest.mark.parametrize("population", [Population.exhaustive(3), Population.sample(4, 100, 3)], ids=["exhaustive", "sample"])
def test_ranges_build_only_their_members(monkeypatch, population):
    whole = [serialize(t) for t in population.tables()]
    built = record_decoded(monkeypatch)
    assert [serialize(t) for t in population.tables(60, 90)] == whole[60:90]
    assert len(built) == 30 and built == whole[60:90]
    assert [serialize(t) for t in population.tables(90, 10**6)] == whole[90:]


def assert_stacks_of(got, tables) -> None:
    """``got`` are the stacks ``measures.chunks`` makes of ``tables``, each
    read-only, C-contiguous uint8, and so is each of its rows."""
    want = [chunk.stack for chunk in measures.chunks(tables)]
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
    *Population.exhaustive(0).tables(),
    *verify.standard_family_instances(),
    *Population.sample(9, 3, 4).tables(),
    *Population.sample(3, 70, 4).tables(),
    *Population.exhaustive(1).tables(),
    *itertools.chain(*zip(Population.sample(0, 9, 5).tables(), Population.sample(1, 9, 5).tables())),
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
    assert [t.values.tolist() for t in population.tables(5, 45)] == [parse(x).values.tolist() for x in texts[5:45]]


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
]


@pytest.mark.parametrize("bad", BAD_MEMBERS)
def test_bad_explicit_members_raise_what_parse_raises(bad):
    with pytest.raises(ValueError) as parsed:
        parse(bad)
    good = tuple(serialize(t) for t in Population.sample(4, 6, 1).tables())
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


def test_members_above_a_lowered_dense_cap_raise_cap_exceeded(monkeypatch):
    monkeypatch.setenv(core.DENSE_CAP_ENV, "4")
    members = (*(serialize(t) for t in Population.sample(4, 3, 1).tables()), "5:" + "0" * 8)
    with pytest.raises(core.CapExceededError, match="arity 5 exceeds dense cap 4"):
        list(Population(kind="explicit", members=members).stacks())


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
    assert aggregate.counts == {"pass": 0, "fail": 1, "skip": 0}
