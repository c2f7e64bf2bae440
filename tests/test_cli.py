"""Command-line behavior: formats, exit codes, determinism, piping."""

import csv
import itertools
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager, suppress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolfn import chains, cli, measures, verify
from boolfn.core import parse, serialize
from test_record import count_calls


def run_cli(args, stdin_text=None, capsys=None):
    """Invoke main() in-process, returning (exit_code, stdout, stderr)."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    try:
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(args)
            except SystemExit as exc:  # argparse usage failures
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def test_analyze_and2():
    code, out, err = run_cli(["analyze", "--fn", "2:8"])
    assert code == 0
    data = json.loads(out)
    assert data["s"] == 2
    assert data["bs"] == 2
    assert data["alt"] == 1
    assert data["DT"] == 2
    assert data["deg"] == 2
    assert data["sparsity"] == 4
    assert data["I"] == "1"


def test_analyze_requires_one_source():
    code, out, err = run_cli(["analyze"])
    assert code == 2
    assert out == ""
    code, out, err = run_cli(["analyze", "--fn", "2:8", "--family", "fk", "--k", "2"])
    assert code == 2


def test_analyze_malformed_table():
    code, out, err = run_cli(["analyze", "--fn", "3:G1"])
    assert code == 2
    assert "malformed" in err


def test_analyze_family_source():
    code, out, _ = run_cli(["analyze", "--family", "addr", "--t", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["s"] == 3 and data["alt"] == 5


def test_analyze_file_source(tmp_path):
    corpus = tmp_path / "one.txt"
    corpus.write_text("# single function\n2:8\n")
    code, out, _ = run_cli(["analyze", "--file", str(corpus)])
    assert code == 0
    assert json.loads(out)["fn"] == "2:8"


def test_analyze_corpus_emits_one_json_per_line(tmp_path):
    corpus = tmp_path / "many.txt"
    corpus.write_text("# corpus\n2:8\n2:F\n3:96  # parity\n")
    code, out, _ = run_cli(["analyze", "--file", str(corpus)])
    assert code == 0
    lines = out.strip().splitlines()
    assert [json.loads(line)["fn"] for line in lines] == ["2:8", "2:F", "3:96"]


def test_corpus_lines_of_one_arity_share_a_chunk(tmp_path, monkeypatch):
    tables = [*verify.Population.sample(4, 40, 2).tables(), *verify.standard_family_instances()]
    tables += verify.Population.exhaustive(2).tables()
    corpus = tmp_path / "mixed.txt"
    corpus.write_text("# mixed arities\n" + "".join(f"{serialize(t)}\n" for t in tables))
    caps = {"bs_cap": 5, "cert_cap": 6, "dt_cap": 4}
    one_by_one = []
    for table in tables:  # each line a chunk of one
        record = measures.measure_report(table, **caps)
        one_by_one.append(json.dumps({**record.to_json_dict(), "per_point": record.per_point()}, sort_keys=True))
    calls = count_calls(monkeypatch, [(chains, "alternation_profile")])
    flags = ["--bs-cap", "5", "--cert-cap", "6", "--dt-cap", "4", "--per-point"]
    code, out, _ = run_cli(["analyze", "--file", str(corpus), *flags])
    assert code == 0
    assert out == "\n".join(one_by_one) + "\n"
    # one profile run per run of lines of one arity
    runs = [n for n, _ in itertools.groupby(t.n for t in tables)]
    assert calls == {"alternation_profile": len(runs)} and len(runs) < len(tables) / 4


def test_dense_cap_env_override(monkeypatch):
    monkeypatch.setenv("BOOLFN_DENSE_CAP", "4")
    code, out, err = run_cli(["analyze", "--family", "parity", "--n", "5"])
    assert code == 2
    assert "cap 4" in err
    monkeypatch.delenv("BOOLFN_DENSE_CAP")
    code, out, _ = run_cli(["analyze", "--family", "parity", "--n", "5"])
    assert code == 0


def test_analyze_spectrum_and_poly_exports(tmp_path):
    spectrum = tmp_path / "spec.csv"
    poly = tmp_path / "poly.json"
    code, out, _ = run_cli(
        ["analyze", "--fn", "2:8", "--spectrum-out", str(spectrum), "--poly-out", str(poly)]
    )
    assert code == 0
    lines = spectrum.read_text().strip().splitlines()
    assert lines[0] == "subset-mask,scaled-coefficient"
    assert set(lines[1:]) == {"0,2", "1,2", "2,2", "3,-2"}
    assert json.loads(poly.read_text()) == {"3": 1}  # AND_2 = x1*x2


@pytest.mark.parametrize(
    "text", ["2:8", serialize(next(verify.Population.sample(12, 1, 3).tables()))], ids=["n2", "n12"]
)
def test_analyze_file_of_one_table_exports_what_fn_exports(tmp_path, text):
    corpus = tmp_path / "one.txt"
    corpus.write_text(f"# one table\n{text}\n")
    _, plain, _ = run_cli(["analyze", "--file", str(corpus)])
    exported = {}
    for flag, source in (("--fn", text), ("--file", str(corpus))):
        spectrum, poly = tmp_path / f"{flag[2:]}.csv", tmp_path / f"{flag[2:]}.json"
        code, out, err = run_cli(["analyze", flag, source, "--spectrum-out", str(spectrum), "--poly-out", str(poly)])
        assert code == 0 and err == ""
        exported[flag] = spectrum.read_bytes(), poly.read_bytes()
    assert exported["--file"] == exported["--fn"]
    assert out == plain  # the corpus record, as without the exports


@pytest.mark.parametrize("flags", [["--spectrum-out"], ["--poly-out"], ["--spectrum-out", "--poly-out"]])
def test_analyze_file_of_several_tables_refuses_an_export(tmp_path, monkeypatch, flags):
    corpus = tmp_path / "two.txt"
    corpus.write_text("2:8\n3:96\n")
    for name in ("records", "MeasureContext"):  # no record is computed
        monkeypatch.setattr(measures, name, lambda *a, **k: pytest.fail("a record was computed"))
    paths = [tmp_path / f"out{i}" for i in range(len(flags))]
    argv = ["analyze", "--file", str(corpus), *itertools.chain(*zip(flags, map(str, paths)))]
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(flag in err for flag in flags) and "holds 2 tables" in err
    assert not any(path.exists() for path in paths)


def test_analyze_byte_identical():
    a = run_cli(["analyze", "--fn", "3:96"])
    b = run_cli(["analyze", "--fn", "3:96"])
    assert a == b


def test_family_outputs():
    code, out, _ = run_cli(["family", "fk", "--k", "3"])
    assert code == 0
    assert out.startswith("7:")

    code, out, _ = run_cli(["family", "fk", "--k", "6"])
    assert json.loads(out) == {"arity": 63, "k": 6, "kind": "fk"}

    code, out, _ = run_cli(["family", "addr", "--t", "2"])
    assert code == 0 and out.startswith("6:")

    code, out, _ = run_cli(["family", "compose", "--base", "addr2", "--power", "2"])
    desc = json.loads(out)
    assert desc["arity"] == 36 and desc["power"] == 2

    code, out, _ = run_cli(["family", "parity", "--n", "3"])
    assert out.strip() == "3:96"


def test_chain_fk_pipes_into_eval():
    code, chain_json, _ = run_cli(["chain", "fk", "--k", "3"])
    assert code == 0
    code, out, _ = run_cli(
        ["chain", "eval", "--family", "fk", "--k", "3"], stdin_text=chain_json
    )
    assert code == 0
    assert json.loads(out) == {"arity": 7, "alternation": 7}


def test_chain_eval_inline_and_file(tmp_path):
    code, out, _ = run_cli(
        ["chain", "eval", "--family", "parity", "--n", "3", "--chain", "[3,1,2]"]
    )
    assert json.loads(out)["alternation"] == 3

    path = tmp_path / "chain.json"
    path.write_text("[1,2,3]")
    code, out, _ = run_cli(
        ["chain", "eval", "--family", "parity", "--n", "3", "--chain", str(path)]
    )
    assert json.loads(out)["alternation"] == 3


def test_chain_witness():
    code, out, _ = run_cli(["chain", "witness", "--family", "addr", "--t", "2"])
    assert code == 0
    order = json.loads(out)
    assert sorted(order) == list(range(1, 7))
    code, out, _ = run_cli(
        ["chain", "eval", "--family", "addr", "--t", "2"], stdin_text=json.dumps(order)
    )
    assert json.loads(out)["alternation"] == 5


def test_chain_glue_addr_self():
    code, glued, _ = run_cli(["chain", "glue", "--f", "addr2", "--g", "addr2"])
    assert code == 0
    order = json.loads(glued)
    assert sorted(order) == list(range(1, 37))
    code, out, _ = run_cli(
        ["chain", "eval", "--family", "compose", "--base", "addr2", "--power", "2"],
        stdin_text=glued,
    )
    assert code == 0
    assert json.loads(out)["alternation"] >= 25


def test_chain_glue_rejects_constant_g():
    code, out, err = run_cli(["chain", "glue", "--f", "addr2", "--g", "2:0"])
    assert code == 2
    assert "g(0^n)" in err or "gluing" in err


def test_chain_glue_explicit_chains():
    code, out, _ = run_cli(
        [
            "chain", "glue",
            "--f", "parity2",
            "--g", "parity3",
            "--f-chain", "[2,1]",
            "--g-chain", "[3,1,2]",
        ]
    )
    assert code == 0
    order = json.loads(out)
    assert sorted(order) == list(range(1, 7))
    # blocks follow the f-chain order (block 2 first), g-chain inside each
    assert order == [6, 4, 5, 3, 1, 2]


def test_verify_exit_one_on_assertion_failure(monkeypatch):
    from boolfn import verify as verify_mod

    bogus = verify_mod.Check(
        name="always-fails",
        kind="assert",
        description="deliberately false",
        holds=lambda c: False,
    )
    monkeypatch.setitem(verify_mod.CHECKS, "always-fails", bogus)
    code, out, _ = run_cli(["verify", "--exhaustive", "1", "--checks", "always-fails"])
    assert code == 1
    report = json.loads(out)
    assert report["failed"] is True
    assert report["checks"]["always-fails"]["fail"] == 4
    # every failure carries a reproducible serialized witness
    assert all(f["fn"].startswith("1:") for f in report["checks"]["always-fails"]["failures"])


def test_verify_exhaustive_2_exit_codes():
    code, out, _ = run_cli(["verify", "--exhaustive", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["failed"] is False
    assert report["registry_version"] == "1"


def test_verify_exhaustive_3_exit_zero():
    code, out, _ = run_cli(["verify", "--exhaustive", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["failed"] is False
    for name, agg in report["checks"].items():
        if agg["kind"] == "assert":
            assert agg["fail"] == 0, name


@pytest.mark.usefixtures("workers_at_once")
def test_verify_jobs_flag_matches_serial():
    serial = run_cli(["verify", "--sample", "4,40,5"])
    parallel = run_cli(["verify", "--sample", "4,40,5", "--jobs", "2"])
    assert serial[0] == parallel[0] == 0
    assert serial[1] == parallel[1]


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_fails_before_the_matrix_file_is_opened(jobs, tmp_path):
    target = tmp_path / "m.csv"
    code, out, err = run_cli(["verify", "--exhaustive", "2", "--jobs", jobs, "--matrix-out", str(target)])
    assert (code, out, err) == (2, "", f"error: --jobs {jobs}: must be >= 1\n")
    assert not target.exists()


def test_verify_unknown_check():
    code, out, err = run_cli(["verify", "--exhaustive", "1", "--checks", "nope"])
    assert code == 2
    assert "unknown check" in err


def test_verify_needs_population():
    code, out, err = run_cli(["verify"])
    assert code == 2


def test_verify_sample_and_matrix(tmp_path):
    matrix = tmp_path / "matrix.csv"
    code, out, _ = run_cli(
        ["verify", "--sample", "4,25,11", "--checks", "s-le-bs,deg-product-bound-m2", "--matrix-out", str(matrix)]
    )
    assert code == 0
    report = json.loads(out)
    assert report["checks"]["s-le-bs"]["pass"] == 25
    lines = matrix.read_text().strip().splitlines()
    assert lines[0].startswith("fn,")
    assert len(lines) == 26


def test_matrix_rows_match_analyze(tmp_path):
    matrix = tmp_path / "matrix.csv"
    caps = ["--bs-cap", "2", "--cert-cap", "2", "--dt-cap", "2"]
    code, _, _ = run_cli(["verify", "--exhaustive", "2", "--families", *caps, "--matrix-out", str(matrix)])
    assert code == 0
    with matrix.open(newline="") as handle:
        header, *rows = csv.reader(handle)
    assert header == list(measures.COLUMNS)
    rows.remove(header)  # each population writes its own header
    assert len(rows) == 16 + len(verify.standard_family_instances())
    for row in rows:
        fields = measures.measure_report(parse(row[0]), bs_cap=2, cert_cap=2, dt_cap=2).to_json_dict()
        assert row == ["" if fields[name] is None else str(fields[name]) for name in measures.COLUMNS], row[0]


def test_unwritable_matrix_out_fails_before_the_sweep(monkeypatch):
    from boolfn import verify as verify_mod

    sweeps = []
    monkeypatch.setattr(verify_mod, "run_check_suite", lambda *a, **k: sweeps.append(a))
    code, out, err = run_cli(
        ["verify", "--sample", "6,300,1", "--matrix-out", "/nonexistent/dir/x.csv"]
    )
    assert (code, out, sweeps) == (2, "", [])
    assert err.startswith("error: cannot write")


@pytest.mark.parametrize("flags", [["--checks", "nope"], ["--bs-cap", "99"]], ids=" ".join)
def test_bad_checks_or_caps_leave_the_matrix_file_alone(tmp_path, flags):
    matrix = tmp_path / "m.csv"
    matrix.write_text("kept\n")
    code, out, err = run_cli(["verify", "--exhaustive", "1", *flags, "--matrix-out", str(matrix)])
    assert (code, out, matrix.read_text()) == (2, "", "kept\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_repeated_check_name_counts_once(tmp_path, fmt):
    # Each check aggregates every member once, however often it is named.
    runs = []
    for checks in ("s-le-bs", "s-le-bs,s-le-bs"):
        matrix = tmp_path / f"{len(checks)}.csv"
        args = ["verify", "--exhaustive", "1", "--checks", checks, "--format", fmt, "--matrix-out", str(matrix)]
        runs.append((run_cli(args), matrix.read_bytes()))
    assert runs[0] == runs[1]
    if fmt == "text":
        assert "pass=4" in runs[0][0][1]


def test_verify_deterministic_output():
    a = run_cli(["verify", "--sample", "5,30,3"])
    b = run_cli(["verify", "--sample", "5,30,3"])
    assert a == b


def test_in_process_calls_share_no_flags():
    # main parses with one parser, built at import: the population flags of
    # one call never carry into the next call's report
    code, sampled, _ = run_cli(["verify", "--sample", "4,40,5"])
    assert code == 0 and json.loads(sampled)["population"]["kind"] == "sample"
    code, out, _ = run_cli(["verify", "--exhaustive", "3"])
    assert code == 0 and json.loads(out)["population"] == {"kind": "exhaustive", "n": 3}
    assert run_cli(["verify", "--sample", "4,40,5"]) == (0, sampled, "")


def test_verify_json_parses_on_success_paths():
    code, out, _ = run_cli(["verify", "--exhaustive", "1", "--format", "json"])
    json.loads(out)
    code, out, _ = run_cli(["enumerate", "--n", "1"])
    assert [line for line in out.splitlines()] == ["1:0", "1:1", "1:2", "1:3"]


def test_enumerate_limit_and_cap():
    code, out, _ = run_cli(["enumerate", "--n", "2", "--limit", "3"])
    assert out.splitlines() == ["2:0", "2:1", "2:2"]
    code, out, err = run_cli(["enumerate", "--n", "5"])
    assert code == 2
    assert run_cli(["enumerate", "--n", "2", "--limit", "0"]) == (0, "", "")
    assert "--limit" in run_cli(["enumerate", "--n", "2", "--limit", "-3"])[2]


def test_usage_error_keeps_data_stream_clean():
    code, out, err = run_cli(["analyze", "--fn", "2:8", "--file", "also.txt"])
    assert code == 2
    assert out == ""
    assert err != ""


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "boolfn.cli", "analyze", "--fn", "2:8"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["s"] == 2


@pytest.mark.parametrize(
    "argv, first",
    [
        # 65536 lines overfill the pipe, so a write meets the closed end
        (["enumerate", "--n", "4"], b"4:0000\n"),
        # the report is written whole at the end, after the reader has gone
        (["verify", "--exhaustive", "2", "--format", "text"], None),
    ],
    ids=["enumerate", "verify"],
)
def test_a_reader_that_closes_early_gives_exit_three(argv, first):
    cmd = [sys.executable, "-m", "boolfn.cli", *argv]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        if first is not None:
            assert proc.stdout.readline() == first
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 3
    assert err.count("error:") == 1 and "Broken pipe" in err and "Traceback" not in err, err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
def test_a_full_stdout_gives_exit_three():
    with open("/dev/full", "w") as full:
        cmd = [sys.executable, "-m", "boolfn.cli", "analyze", "--fn", "3:96"]
        result = subprocess.run(cmd, stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
    assert result.returncode == 3
    err = result.stderr
    assert err.count("error:") == 1 and "No space left" in err and "Traceback" not in err, err


# `boolfn verify --jobs 2` with two CPUs, on a sweep long enough that its
# one worker is still running when the test signals.
LONG_SWEEP = """
import os, signal, sys
os.cpu_count = lambda: 2
signal.signal(signal.SIGINT, signal.default_int_handler)  # even if the suite was started with SIGINT ignored
from boolfn import cli
sys.exit(cli.main(["verify", "--sample", "8,4000000,42", "--checks", "deg-product-bound-m2", "--jobs", "2"]))
"""


def _group(pgid: int) -> dict[int, int]:
    """Each live (not zombie) process of process group ``pgid``, read from
    /proc: its pid and the mask of signals it ignores."""
    group = {}
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as stat, open(f"/proc/{pid}/status") as status:
                state, _, pgrp = stat.read().rsplit(")", 1)[1].split()[:3]
                ignored = next(line.split()[1] for line in status if line.startswith("SigIgn:"))
        except OSError:  # gone
            continue
        if int(pgrp) == pgid and state != "Z":
            group[int(pid)] = int(ignored, 16)
    return group


def _wait_until(condition, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.02)
    return condition()


def _workers(caller) -> dict[int, int]:
    return {pid: ignored for pid, ignored in _group(caller.pid).items() if pid != caller.pid}


@contextmanager
def long_sweep(script: str = LONG_SWEEP, *argv: str):
    """The caller ``script`` (LONG_SWEEP unless given) with ``argv``, in a
    session of its own, once its worker has started; on exit every process
    of its session is killed."""
    caller = subprocess.Popen(
        [sys.executable, "-c", script, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        assert _wait_until(lambda: _workers(caller), 60), "no worker started"
        yield caller
    finally:
        with suppress(ProcessLookupError):
            os.killpg(caller.pid, signal.SIGKILL)
        caller.communicate()


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="the test reads the processes from /proc")
def test_no_worker_outlives_a_terminated_caller():
    with long_sweep() as caller:
        caller.terminate()
        assert caller.wait(timeout=60) == -signal.SIGTERM
        # the worker stops before its next stack, which takes well under a second
        assert _wait_until(lambda: not _group(caller.pid), 5), _group(caller.pid)


# `boolfn verify --jobs 2 --matrix-out FILE` with two CPUs, no solo phase
# and a caller whose own share never ends: its one worker sweeps its share
# in well under a second, then waits in the send of its matrix rows, more
# than a pipe holds, for a caller that does not read.
BLOCKED_SEND = """
import os, sys, time
os.cpu_count = lambda: 2
from boolfn import cli, verify

caller, run_chunk = os.getpid(), verify._run_chunk

def endless_caller_share(*args):
    if os.getpid() == caller and len(args) == 7:  # the solo phase and a worker also pass `until`
        time.sleep(600)
    return run_chunk(*args)

verify.SOLO_SWEEP_S = 0
verify._run_chunk = endless_caller_share
argv = ["verify", "--sample", "4,20000,42", "--checks", "s-le-bs", "--jobs", "2", "--matrix-out", sys.argv[1]]
sys.exit(cli.main(argv))
"""


def _state(pid: int) -> str:
    """The state letter of process ``pid`` in /proc (R running, S sleeping), or "" once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return ""


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="the test reads the processes from /proc")
def test_no_worker_blocked_in_its_send_outlives_a_terminated_caller(tmp_path):
    with long_sweep(BLOCKED_SEND, str(tmp_path / "matrix.csv")) as caller:
        (worker,) = _workers(caller)
        assert _wait_until(lambda: _state(worker) == "S", 60), _state(worker)
        caller.terminate()
        assert caller.wait(timeout=60) == -signal.SIGTERM
        # with the caller's end closed, the pipe has no reader and the send breaks
        assert _wait_until(lambda: not _group(caller.pid), 5), _group(caller.pid)
        assert "Traceback" not in caller.communicate(timeout=60)[1]  # the worker exits quietly


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="the test reads the processes from /proc")
def test_an_interrupt_gives_exit_130_and_one_error_line():
    sigint = 1 << (signal.SIGINT - 1)  # its bit in a /proc SigIgn mask
    with long_sweep() as caller:
        _wait_until(lambda: all(ignored & sigint for ignored in _workers(caller).values()), 5)
        os.killpg(caller.pid, signal.SIGINT)  # Ctrl-C reaches the whole group
        out, err = caller.communicate(timeout=60)
        assert (caller.returncode, out, err) == (130, "", "error: interrupted\n")
        assert not _group(caller.pid)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--file", "/nonexistent"],
        ["chain", "witness", "--file", "/nonexistent"],
        ["chain", "eval", "--file", "/nonexistent"],
        ["family", "fk"],
        ["family", "parity"],
        ["family", "compose", "--power", "2"],
        ["chain", "eval", "--family", "fk", "--k", "3", "--chain", "/nonexistent"],
        ["analyze", "--fn", "\u0663:AC"],  # an Arabic-Indic digit three is not an arity
        ["analyze", "--fn", "2:8", "--spectrum-out", "/nonexistent/dir/x.csv"],
        ["analyze", "--fn", "2:8", "--poly-out", "/nonexistent/dir/x.json"],
        ["verify", "--exhaustive", "1", "--matrix-out", "/nonexistent/dir/x.csv"],
        ["family", "fk", "--k", "26"],
        ["chain", "fk", "--k", "1000"],
        ["analyze", "--fn", "2:8", "--dt-cap", "99"],
        ["verify", "--exhaustive", "1", "--cert-cap", "99"],
        ["analyze", "--fn", "2:8", "--bs-cap", "99"],
        ["verify", "--exhaustive", "1", "--bs-cap", "99"],
        ["family", "compose", "--base", "and2", "--power", "1000000"],
        ["family", "compose", "--base", "addr2", "--power", "7"],
        ["analyze", "--family", "parity", "--n", "40"],
        ["enumerate", "--n", "2", "--limit", "-3"],
        ["enumerate", "--n", "5", "--limit", "0"],
        ["verify", "--exhaustive", "-1"],
        ["verify", "--exhaustive", "2", "--exhaustive", "-1"],
        ["verify", "--sample", "3,-2,1"],
        ["verify", "--exhaustive", "2", "--sample", "3,-2,1"],
        ["verify", "--sample", "3,5"],
        ["verify", "--sample", "3,x,1"],
        ["verify", "--exhaustive", "2", "--checks", "deg-sparsity-exponent", "--fail-limit", "-1"],
        ["verify", "--exhaustive", "2", "--jobs", "0"],
        ["verify", "--exhaustive", "2", "--jobs", "-1"],
        ["chain", "glue", "--f", "and2", "--g", "and2", "--f-chain", "7"],
        ["chain", "glue", "--f", "and2", "--g", "and2", "--g-chain", '"21"'],
        ["chain", "glue", "--f", "and2", "--g", "and2", "--f-chain", "[2.9,1]"],
        ["chain", "glue", "--f", "and2", "--g", "and2", "--g-chain", "[true,2]"],
        ["chain", "eval", "--family", "parity", "--n", "2", "--chain", "[1.5,2]"],
        ["chain", "eval", "--family", "parity", "--n", "2", "--chain", "[true,2]"],
    ],
    ids=" ".join,
)
def test_bad_source_is_a_usage_error(argv, monkeypatch):
    from boolfn import verify as verify_mod

    sweeps = []
    sweep = verify_mod.run_check_suite
    monkeypatch.setattr(verify_mod, "run_check_suite", lambda *a, **k: sweeps.append(a) or sweep(*a, **k))
    code, out, err = run_cli(argv, stdin_text="[1]")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    # A bad population, fail limit or job count names its flag and value,
    # and fails before any sweep.
    if argv[-2] in ("--exhaustive", "--sample", "--fail-limit", "--jobs"):
        assert sweeps == [] and err.startswith(f"error: {argv[-2]} {argv[-1]}"), err


# Every subcommand with the flags it must have (one source flag for the
# first three) and the flags it may have; "" stands for the positional
# generator of `family`. --families is left out: it sweeps fixed instances
# up to n = 15 (about 0.8 s), and the goldens cover its output.
_SOURCE = ["--k", "--t", "--n", "--threshold", "--base", "--power"]
_CAPS = ["--bs-cap", "--cert-cap", "--dt-cap"]
_FUZZ_COMMANDS = {
    ("analyze",): (
        ["--fn|--file|--family"],
        _SOURCE + _CAPS + ["--format", "--per-point", "--spectrum-out", "--poly-out"],
    ),
    ("chain", "witness"): (["--fn|--file|--family"], _SOURCE),
    ("chain", "eval"): (["--fn|--file|--family"], _SOURCE + ["--chain"]),
    ("family",): ([""], ["--k", "--t", "--n", "--threshold", "--base", "--power", "--lazy"]),
    ("chain", "fk"): (["--k"], []),
    ("chain", "glue"): (["--f", "--g"], ["--f-chain", "--g-chain"]),
    ("verify",): (
        ["--exhaustive|--sample"],
        _CAPS + ["--exhaustive", "--sample", "--checks", "--jobs", "--fail-limit", "--format",
                 "--matrix-out"],
    ),
    ("enumerate",): (["--n"], ["--limit"]),
}
_SWITCHES = {"--per-point", "--lazy"}
_CHAINS = ["[1]", "[1,2]", "[2,1,3]", "[]", "[0]", "[1,1]", "[1,", "{}", "-", "7", '"21"', "[1.5,2]", "[true,2]"]


def _fuzz_values(files):
    """Cheap values for each flag: arities up to 9 (address t = 2 has 6
    variables, gap family k = 3 has 7, compositions 9), one value past each
    limit, and some malformed ones."""
    ints = st.integers
    out = files / "out"
    tokens = ["and2", "or3", "parity2", "maj3", "addr1", "fk2", "2:8", "1:2", "3:96", "3:G1", "x9"]
    tokens.append(str(files / "one.txt"))
    chains = _CHAINS + [str(files / "chain.json")]
    return {
        "": st.sampled_from(["fk", "addr", "compose", "parity", "and", "or", "majority", "threshold"]),
        "--fn": st.sampled_from(["2:8", "3:96", "0:1", "1:3", "2:G", "nonsense", "30:0", ""]),
        "--file": st.sampled_from(["one", "two", "empty", "bad", "missing"]).map(
            lambda name: str(files / f"{name}.txt")
        ),
        "--family": st.sampled_from(["fk", "addr", "compose", "parity", "majority", "threshold", "x"]),
        "--k": ints(-1, 3) | st.just(17),
        "--t": ints(-1, 2) | st.just(5),
        "--n": ints(-1, 6) | st.just(40),
        "--threshold": ints(-1, 7),
        "--base": st.sampled_from(tokens),
        "--power": ints(-1, 3) | st.just(17),
        "--f": st.sampled_from(tokens),
        "--g": st.sampled_from(tokens),
        "--f-chain": st.sampled_from(chains),
        "--g-chain": st.sampled_from(chains),
        "--chain": st.sampled_from(chains),
        "--format": st.sampled_from(["json", "text", "xml"]),
        "--spectrum-out": st.sampled_from([str(out / "s.csv"), "/nonexistent/dir/s.csv"]),
        "--poly-out": st.sampled_from([str(out / "p.json"), "/nonexistent/dir/p.json"]),
        "--matrix-out": st.sampled_from([str(out / "m.csv"), "/nonexistent/dir/m.csv"]),
        "--bs-cap": ints(-1, 6) | st.just(99),
        "--cert-cap": ints(-1, 6) | st.just(99),
        "--dt-cap": ints(-1, 6) | st.just(99),
        "--exhaustive": ints(-1, 3),
        "--sample": st.sampled_from(["3,4,1", "6,3,2", "2,0,1", "3,-2,1", "3,5", "x", "25,1,1"]),
        "--checks": st.sampled_from(["all", "s-le-bs", "bs-ratio,deg-sparsity-exponent", "bogus", ""]),
        "--jobs": ints(-1, 2),
        "--fail-limit": ints(-1, 3),
        "--limit": ints(-1, 5),
    }


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    files = tmp_path_factory.mktemp("fuzz")
    (files / "out").mkdir()
    for name, text in {
        "one.txt": "3:96\n", "two.txt": "2:8\n2:F\n", "empty.txt": "# none\n",
        "bad.txt": "3:G1\n", "chain.json": "[1, 2]",
    }.items():
        (files / name).write_text(text)
    return files


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzzed_argv_keeps_the_exit_code_contract(data, fuzz_files):
    values = _fuzz_values(fuzz_files)
    command = data.draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    required, optional = _FUZZ_COMMANDS[command]
    flags = [data.draw(st.sampled_from(choice.split("|"))) for choice in required]
    flags += data.draw(st.lists(st.sampled_from(optional), max_size=4) if optional else st.just([]))
    argv = list(command)
    for flag in flags:
        if flag:
            argv.append(flag)
        if flag not in _SWITCHES and data.draw(st.sampled_from(range(20))) < 19:  # 1 in 20 has none
            argv.append(str(data.draw(values[flag])))
    code, _, err = run_cli(argv, stdin_text=data.draw(st.sampled_from(_CHAINS)))
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
