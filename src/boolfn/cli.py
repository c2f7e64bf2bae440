"""Command-line surface: analyze functions, generate families, build and
evaluate chains, run verification sweeps, and stream enumerations.

Exit codes: 0 success, 1 a failed assert check, 2 usage error, 3 an OS
error (stdout closed early or full, a dead sweep worker), 130 Ctrl-C.
Data goes to stdout only when complete; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import re
import sys
from contextlib import contextmanager, nullcontext, suppress
from typing import Optional

from . import chains, families, measures, verify
from .core import BooleanFunction, LazyFunction, corpus_texts, describe, parse, serialize, serialize_rows


class UsageError(Exception):
    pass


# Each family: its required parameters and its builder from them all. The
# first parameter is the number a compact token such as addr2 gives.
_FAMILIES = {
    "fk": (("k",), lambda p: families.gap_family(p["k"])[0]),
    "addr": (("t",), lambda p: families.address(p["t"])),
    "compose": (("base", "power"), lambda p: families.compose_power(_resolve(_token_source(p["base"])), p["power"])),
    **{
        name: (("n",), lambda p, name=name: families.named_basics(name, p["n"]))
        for name in ("parity", "and", "or", "majority")
    },
    "threshold": (("n", "threshold"), lambda p: families.named_basics("threshold", p["n"], p["threshold"])),
}
# A compact token: a one-parameter family, or maj for majority, and that parameter.
_FAMILY_TOKEN = re.compile(
    r"^(?P<name>%s|maj)(?P<num>\d+)$" % "|".join(name for name, (required, _) in _FAMILIES.items() if len(required) == 1)
)


def _read(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path!r}: {exc.strerror}") from None


@contextmanager
def _write(path: str, mode: str = "w"):
    try:
        with open(path, mode, newline="") as handle:
            yield handle
    except OSError as exc:
        raise UsageError(f"cannot write {path!r}: {exc.strerror}") from None


def _token_source(token: str) -> dict:
    """The source flags a compact token names: table text, family token, or path."""
    if ":" in token:
        return {"fn": token}
    m = _FAMILY_TOKEN.match(token)
    if m:
        name = "majority" if m.group("name") == "maj" else m.group("name")
        return {"family": name, _FAMILIES[name][0][0]: int(m.group("num"))}
    return {"file": token}


def _family(name: str, params: dict) -> BooleanFunction:
    required, build = _FAMILIES[name]
    missing = [f"--{p}" for p in required if params.get(p) is None]
    if missing:
        raise UsageError(f"family {name} requires {' and '.join(missing)}")
    return build(params)


def _source_flag(source: dict) -> str:
    """Which one of the fn / file / family flags ``source`` gives: it maps
    flag names to values (parsed arguments or a token's flags)."""
    given = [flag for flag in ("fn", "file", "family") if source.get(flag) is not None]
    if len(given) != 1:
        raise UsageError("provide exactly one of --fn, --file, --family")
    return given[0]


def _corpus(path: str) -> list[str]:
    """The table texts of a corpus file, which must hold one at least."""
    texts = corpus_texts(_read(path))
    if not texts:
        raise UsageError(f"file {path!r} holds no tables")
    return texts


def _resolve(source: dict) -> BooleanFunction:
    """The one function a source names; a corpus file must hold exactly one."""
    flag = _source_flag(source)
    if flag == "fn":
        return parse(source["fn"])
    if flag == "family":
        return _family(source["family"], source)
    tables = [parse(text) for text in _corpus(source["file"])]  # a bad line is named first
    if len(tables) != 1:
        raise UsageError(f"file {source['file']!r} must contain exactly one table")
    return tables[0]


def _function_source_flags(sub) -> None:
    sub.add_argument("--fn", help="inline table text n:HEX")
    sub.add_argument("--file", help="path to a corpus file holding one table")
    sub.add_argument(
        "--family",
        choices=list(_FAMILIES),
        help="generated family instead of an explicit table",
    )
    _family_flags(sub)


def _family_flags(sub) -> None:
    sub.add_argument("--k", type=int, help="depth parameter for --family fk")
    sub.add_argument("--t", type=int, help="address-bit count for --family addr")
    sub.add_argument("--n", type=int, help="arity for basic families")
    sub.add_argument("--threshold", type=int, help="threshold parameter")
    sub.add_argument("--base", help="base source token for --family compose")
    sub.add_argument("--power", type=int, help="composition power for --family compose")


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _cmd_analyze(args) -> int:
    caps = {"bs_cap": args.bs_cap, "cert_cap": args.cert_cap, "dt_cap": args.dt_cap}
    exports = [flag for flag, path in (("--spectrum-out", args.spectrum_out), ("--poly-out", args.poly_out)) if path]
    if _source_flag(vars(args)) == "file":
        # a chunk per stack of explicit members, as in a sweep: every line is decoded before the
        # export count and the caps are checked, and the texts go with the population, unmeasured
        stacks = list(verify.Population(kind="explicit", members=_corpus(args.file)).stacks())
        if exports and (count := sum(map(len, stacks))) > 1:
            raise UsageError(f"{' and '.join(exports)}: file {args.file!r} holds {count} tables, not one")
        records = (record for stack in stacks for record in measures.Chunk(stack, **caps).records())
    else:  # a lone function is a chunk of one
        records = [measures.measure_report(_resolve(vars(args)), **caps)]
    lines = []
    for record in records:
        out = record.to_json_dict()
        if args.per_point:
            out["per_point"] = record.per_point()
        if args.file is not None:  # one JSON object per corpus line
            lines.append(json.dumps(out, sort_keys=True))
        elif args.format == "json":
            lines.append(json.dumps(out, sort_keys=True, indent=2))
        else:
            lines += [f"{k} = {json.dumps(v, sort_keys=True)}" for k, v in sorted(out.items())]
    # an export is of one table, so record is the only one
    if args.spectrum_out:
        with _write(args.spectrum_out) as handle:
            csv.writer(handle).writerows(record.spectrum().csv_rows())
    if args.poly_out:
        with _write(args.poly_out) as handle:
            json.dump(record.poly().to_json_dict(), handle, sort_keys=True)
            handle.write("\n")
    _emit("\n".join(lines))
    return 0


def _cmd_family(args) -> int:
    fn = _resolve(dict(vars(args), family=args.generator))
    if isinstance(fn, LazyFunction) or args.lazy:
        _emit(json.dumps({**describe(fn), "arity": fn.arity}, sort_keys=True))
    else:
        _emit(serialize(fn))
    return 0


def _load_chain(args, arity: int) -> chains.Chain:
    raw = args.chain
    if raw is None or raw == "-":
        raw = sys.stdin.read()
    elif not raw.strip().startswith("["):
        raw = _read(raw)
    return chains.Chain.from_json(json.loads(raw), arity)


def _chain_or_witness(raw: Optional[str], fn: BooleanFunction) -> chains.Chain:
    """The chain given as JSON, or else the DP witness of fn."""
    if raw:
        return chains.Chain.from_json(json.loads(raw), fn.arity)
    return measures.alternation_decrease(fn).witness


def _cmd_chain(args) -> int:
    if args.chain_cmd == "eval":
        fn = _resolve(vars(args))
        alt = chains.alternation_along(fn, _load_chain(args, fn.arity))
        _emit(json.dumps({"arity": fn.arity, "alternation": alt}, sort_keys=True))
        return 0
    if args.chain_cmd == "fk":
        chain = chains.gap_family_chain(families.gap_family(args.k)[1])
    elif args.chain_cmd == "witness":
        chain = measures.alternation_decrease(_resolve(vars(args))).witness
    else:  # glue
        f_fn = _resolve(_token_source(args.f))
        g_fn = _resolve(_token_source(args.g))
        chain = chains.glued_composition_chain(
            _chain_or_witness(args.f_chain, f_fn), _chain_or_witness(args.g_chain, g_fn), g_fn
        )
    _emit(json.dumps(chain.to_json()))
    return 0


def _sample(spec: str) -> verify.Population:
    try:
        n, count, seed = (int(p) for p in spec.split(","))
    except ValueError:
        raise ValueError("expected N,COUNT,SEED, three integers") from None
    return verify.Population.sample(n, count, seed)


def _populations(args) -> list[verify.Population]:
    """The --exhaustive and --sample populations, each checked before any
    sweep; a bad one is a usage error that names its flag."""
    specs = [("--exhaustive", n, verify.Population.exhaustive) for n in args.exhaustive or []]
    specs += [("--sample", spec, _sample) for spec in args.sample or []]
    populations = []
    for flag, spec, build in specs:
        try:
            populations.append(build(spec))
        except ValueError as exc:
            raise UsageError(f"{flag} {spec}: {exc}") from None
    return populations


def _cmd_verify(args) -> int:
    if args.fail_limit < 0:
        raise UsageError(f"--fail-limit {args.fail_limit}: must be >= 0")
    if args.jobs < 1:
        raise UsageError(f"--jobs {args.jobs}: must be >= 1")
    populations = _populations(args)
    if args.families:
        populations.append(verify.Population.explicit(verify.standard_family_instances()))
    if not populations:
        raise UsageError("provide at least one population (--exhaustive, --sample, --families)")
    checks = "all" if args.checks == "all" else tuple(args.checks.split(","))
    caps = {"bs_cap": args.bs_cap, "cert_cap": args.cert_cap, "dt_cap": args.dt_cap}
    verify.resolve_checks(checks)  # a bad name or cap fails before the file is opened
    measures.check_caps(**caps)
    exit_code, outputs = 0, []
    with _write(args.matrix_out) if args.matrix_out else nullcontext() as matrix:
        for population in populations:
            report = verify.run_check_suite(population, checks, args.jobs, args.fail_limit, **caps, matrix=matrix)
            if report.failed:
                exit_code = 1
            outputs.append(report)
    if args.format == "json":
        payload = [r.to_json_dict() for r in outputs]
        _emit(json.dumps(payload[0] if len(payload) == 1 else payload, sort_keys=True, indent=2))
    else:
        _emit("\n\n".join(r.to_text() for r in outputs))
    return exit_code


def _cmd_enumerate(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise UsageError("--limit must be >= 0")
    texts = itertools.chain.from_iterable(map(serialize_rows, verify.Population.exhaustive(args.n).stacks()))
    for text in itertools.islice(texts, args.limit):
        _emit(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolfn",
        description="Exact analysis toolkit for Boolean function complexity measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="measure and algebra report for one function")
    _function_source_flags(p_analyze)
    p_analyze.add_argument("--format", choices=["json", "text"], default="json")
    p_analyze.add_argument("--per-point", action="store_true", help="include per-point tables")
    p_analyze.add_argument("--spectrum-out", help="write the spectrum CSV (subset-mask, scaled) here")
    p_analyze.add_argument("--poly-out", help="write the multilinear coefficient JSON here")
    p_analyze.add_argument("--bs-cap", type=int, default=measures.BS_CAP_DEFAULT)
    p_analyze.add_argument("--cert-cap", type=int, default=measures.CERT_CAP_DEFAULT)
    p_analyze.add_argument("--dt-cap", type=int, default=measures.DT_CAP_DEFAULT)
    p_analyze.set_defaults(handler=_cmd_analyze)

    p_family = sub.add_parser("family", help="emit a generated family member")
    p_family.add_argument("generator", choices=list(_FAMILIES))
    _family_flags(p_family)
    p_family.add_argument("--lazy", action="store_true", help="emit descriptor JSON even when dense")
    p_family.set_defaults(handler=_cmd_family)

    p_chain = sub.add_parser("chain", help="build or evaluate chains")
    chain_sub = p_chain.add_subparsers(dest="chain_cmd", required=True)

    c_fk = chain_sub.add_parser("fk", help="recursive witness chain for the full-tree family")
    c_fk.add_argument("--k", type=int, required=True)

    c_witness = chain_sub.add_parser("witness", help="DP-optimal chain for a dense function")
    _function_source_flags(c_witness)

    c_glue = chain_sub.add_parser("glue", help="glued chain for a block composition")
    c_glue.add_argument("--f", required=True, help="outer function source token")
    c_glue.add_argument("--g", required=True, help="inner function source token")
    c_glue.add_argument("--f-chain", help="JSON chain for f (default: DP witness)")
    c_glue.add_argument("--g-chain", help="JSON chain for g (default: DP witness)")

    c_eval = chain_sub.add_parser("eval", help="alternation of a function along a chain")
    _function_source_flags(c_eval)
    c_eval.add_argument("--chain", help="chain JSON, a path, or - for stdin (default stdin)")

    p_chain.set_defaults(handler=_cmd_chain)

    p_verify = sub.add_parser("verify", help="run the check suite over populations")
    p_verify.add_argument("--exhaustive", type=int, action="append", metavar="N")
    p_verify.add_argument("--sample", action="append", metavar="N,COUNT,SEED", help="seeded random population")
    p_verify.add_argument("--families", action="store_true", help="also sweep the standard family instances")
    p_verify.add_argument("--checks", default="all", help="comma-separated check names or 'all'")
    p_verify.add_argument("--jobs", type=int, default=1, help="worker parallelism bound")
    p_verify.add_argument("--fail-limit", type=int, default=verify.DEFAULT_FAIL_LIMIT)
    p_verify.add_argument("--format", choices=["json", "text"], default="json")
    p_verify.add_argument("--matrix-out", help="write the per-function measure matrix CSV here")
    p_verify.add_argument("--bs-cap", type=int, default=measures.BS_CAP_DEFAULT)
    p_verify.add_argument("--cert-cap", type=int, default=measures.CERT_CAP_DEFAULT)
    p_verify.add_argument("--dt-cap", type=int, default=measures.DT_CAP_DEFAULT)
    p_verify.set_defaults(handler=_cmd_verify)

    p_enum = sub.add_parser("enumerate", help="stream all tables of arity n")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--limit", type=int, help="stop after this many tables")
    p_enum.set_defaults(handler=_cmd_enumerate)

    return parser


_PARSER = build_parser()  # holds no results: each parse_args gives a fresh namespace


def main(argv: Optional[list[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a full disk shows here, not at exit
        return code
    except (UsageError, ValueError) as exc:  # FormatError and CapExceededError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except OSError as exc:  # BrokenPipeError and a dead sweep worker included
        # point stdout at os.devnull, so what is left in its buffer is not retried at exit
        with suppress(OSError, ValueError):  # an in-process caller's stream may have no descriptor
            fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
