"""Byte-for-byte replay of the README's CLI examples against stored goldens.

Each case runs ``cli.main`` in-process and compares its stdout, and every
file it writes, with ``tests/golden/<case>.*``. Two README examples are
shrunk to keep the suite fast: ``--exhaustive 4 --matrix-out`` runs at
arity 3, and the ``--sample 8,10000,42 ... --jobs 4`` sweep at 500 tables
with 2 jobs. The cases after the README block add the text format,
per-point output, a lazy source, an arity above 16 and both exports of a
random n = 12 table read from a file, and the two matrix cases are
replayed with ``--jobs 2``, their workers started at once, against the
same goldens.

Regenerate the goldens only for an intended output change:
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

from boolfn import cli

GOLDEN = Path(__file__).resolve().parent / "golden"


class Case(NamedTuple):
    name: str
    argv: tuple[str, ...]
    files: tuple[str, ...] = ()  # written under {out}, compared as <name>.<file>
    stdin_from: Optional[str] = None  # the stdout of this earlier case


CASES = [
    # The CLI block of README.md, in order.
    Case("analyze-fn", ("analyze", "--fn", "2:8")),
    Case("analyze-family", ("analyze", "--family", "addr", "--t", "2")),
    Case("analyze-file", ("analyze", "--file", "{golden}/corpus.txt")),
    Case(
        "analyze-exports",
        ("analyze", "--fn", "3:96", "--spectrum-out", "{out}/spec.csv", "--poly-out", "{out}/poly.json"),
        files=("spec.csv", "poly.json"),
    ),
    Case("family-fk3", ("family", "fk", "--k", "3")),
    Case("family-fk6", ("family", "fk", "--k", "6")),
    Case("family-compose", ("family", "compose", "--base", "addr2", "--power", "2")),
    Case("chain-fk6", ("chain", "fk", "--k", "6")),
    Case("chain-witness", ("chain", "witness", "--fn", "6:AAAACCCCF0F0FF00")),
    Case("chain-glue", ("chain", "glue", "--f", "addr2", "--g", "addr2")),
    Case("chain-fk3", ("chain", "fk", "--k", "3")),
    Case("chain-eval", ("chain", "eval", "--family", "fk", "--k", "3"), stdin_from="chain-fk3"),
    Case("verify-exhaustive3", ("verify", "--exhaustive", "3")),
    Case(
        "verify-sample",
        ("verify", "--sample", "8,500,42", "--checks", "deg-product-bound-m2,deg-product-bound-m3", "--jobs", "2"),
    ),
    Case("verify-families", ("verify", "--families", "--checks", "alt-dc-relation,spectral-weight-ge-n")),
    Case(
        "verify-matrix",
        ("verify", "--exhaustive", "3", "--matrix-out", "{out}/measures.csv"),
        files=("measures.csv",),
    ),
    Case("enumerate", ("enumerate", "--n", "2")),
    # Further output paths.
    Case("analyze-text-per-point", ("analyze", "--fn", "4:6996", "--format", "text", "--per-point")),
    Case("analyze-lazy", ("analyze", "--family", "compose", "--base", "maj3", "--power", "2")),
    Case("analyze-n17", ("analyze", "--file", "{golden}/n17.txt")),
    Case(
        "analyze-n12-exports",
        ("analyze", "--file", "{golden}/n12.txt", "--spectrum-out", "{out}/spec.csv", "--poly-out", "{out}/poly.json"),
        files=("spec.csv", "poly.json"),
    ),
    Case("verify-text", ("verify", "--exhaustive", "2", "--sample", "4,20,7", "--format", "text")),
    Case(
        "verify-two-matrix",
        ("verify", "--exhaustive", "1", "--sample", "3,10,5", "--matrix-out", "{out}/measures.csv"),
        files=("measures.csv",),
    ),
]


def run_case(case: Case, out_dir: Path, stdin_text: str) -> tuple[int, str, str]:
    argv = [a.format(golden=GOLDEN, out=out_dir) for a in case.argv]
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def stdin_for(case: Case) -> str:
    if case.stdin_from is None:
        return ""
    return (GOLDEN / f"{case.stdin_from}.out").read_text()


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_cli_output_matches_golden(case, tmp_path):
    code, out, err = run_case(case, tmp_path, stdin_for(case))
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / f"{case.name}.out").read_bytes()
    for name in case.files:
        assert (tmp_path / name).read_bytes() == (GOLDEN / f"{case.name}.{name}").read_bytes()


# The matrix cases again with two workers: the same stdout and CSV bytes.
JOBS2_CASES = [c._replace(argv=(*c.argv, "--jobs", "2")) for c in CASES if c.name.endswith("matrix")]


@pytest.mark.parametrize("case", JOBS2_CASES, ids=[f"{c.name}-jobs2" for c in JOBS2_CASES])
@pytest.mark.usefixtures("workers_at_once")
def test_matrix_output_under_two_jobs_matches_golden(case, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two shares on any host
    test_cli_output_matches_golden(case, tmp_path)


def write_goldens() -> None:
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            code, out, err = run_case(case, Path(tmp), stdin_for(case))
            if code != 0 or err:
                raise SystemExit(f"{case.name}: exit {code}: {err}")
            (GOLDEN / f"{case.name}.out").write_bytes(out.encode())
            for name in case.files:
                (GOLDEN / f"{case.name}.{name}").write_bytes((Path(tmp) / name).read_bytes())


if __name__ == "__main__":
    write_goldens()
