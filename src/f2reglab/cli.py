"""Command-line driver.

Exit codes: 0 on success (claims verified where applicable), 1 when a
verified inequality fails (a certificate or error report is emitted),
2 on usage errors and guard refusals.  All randomness flows from the
single --seed through per-module counter-based substreams, so reports
are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .decompose import DecompositionError, find_regular_subspace
from .fourier import check_subspace_regularity
from .gf2 import DEFAULT_DENSE_LIMIT, DenseLimitError, F2Vector, Subspace, check_dense
from .instance import (
    Instance,
    RetryLimitError,
    TowerOverflowError,
    block_dims,
    eval_count,
    generate_spanning_family,
)
from .reports import emit_report, spanning_check_dict
from .rounding import deviation_report, round_to_binary, sample_pairs, size_threshold
from .tableio import TableFormatError, read_table, write_table
from .witness import ClaimViolationError, exhaustive_lowerbound_check


def _parse_fraction(text: str) -> Fraction:
    """A decimal ("0.03125") or an exact rational ("1/32"); a zero
    denominator is a usage error like any other malformed number."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_epsilon(text: str) -> Fraction:
    """Accept a decimal ("0.03125") or an exact rational ("1/32")."""
    value = _parse_fraction(text)
    if value <= 0:
        raise ValueError(f"epsilon must be positive, got {text}")
    return value


def _parse_basis(text: str, n: int) -> Subspace:
    rows = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    return Subspace.from_vectors(n, rows)


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _instance(args: argparse.Namespace) -> Instance:
    return Instance.generate(
        args.s,
        args.seed,
        dense_limit=args.dense_limit,
        sampled_samples=args.samples,
    )


def _check_table_fits(args: argparse.Namespace) -> None:
    """Refuse an instance table over the dense limit before generating
    the instance: n follows from the block dims alone.  When the xi
    entries of the last block are over the limit too, generation refuses
    them first, with its own message."""
    sums = block_dims(args.s).prefix_sums
    if len(sums) == args.s + 1 and sums[-2] <= args.dense_limit:
        check_dense(sums[-1], args.dense_limit, "table entries")


def cmd_gen(args: argparse.Namespace) -> int:
    if args.out is not None:
        _check_table_fits(args)
    inst = _instance(args)
    if args.out is not None:
        write_table(args.out, inst.table)
    _write(emit_report(inst), args.manifest)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    # the point is checked before the instance is generated: n follows
    # from the block dims alone
    n = block_dims(args.s).n
    if args.x_bits is not None:
        if len(args.x_bits) != n:
            raise ValueError(f"--x-bits has {len(args.x_bits)} coordinates, not n={n}")
        x = F2Vector.from_string(args.x_bits).bits
    else:
        x = int(args.x)
    if x < 0 or x.bit_length() > n:  # no 2^n: at s = 5, n exceeds 2^264
        raise ValueError(f"point {x} outside the 2^{n} domain")
    inst = _instance(args)
    count = eval_count(inst.xi, x)
    record = {
        "schema": "f2reglab/eval",
        "schema_version": 1,
        "s": inst.s,
        "n": inst.n,
        "seed": args.seed,
        "x": x if x < 2**53 else str(x),
        "satisfied_blocks": count,
        "value": str(Fraction(count, inst.s)),
        "value_float": count / inst.s,
    }
    _write(emit_report(record), args.out)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    table = read_table(args.in_path, dense_limit=args.dense_limit)
    h = _parse_basis(args.basis, table.n)
    eps = parse_epsilon(args.eps)
    report = check_subspace_regularity(table, h, eps)
    _write(emit_report(report), args.out)
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    table = read_table(args.in_path, dense_limit=args.dense_limit)
    eps = parse_epsilon(args.eps)
    trace = find_regular_subspace(
        table,
        eps,
        max_index_log2=args.max_index_log2,
        max_iterations=args.max_iterations,
        single_witness=args.single_witness,
    )
    _write(emit_report(trace), args.out)
    if args.csv is not None:
        Path(args.csv).write_text(trace.csv())
    return 0 if trace.succeeded else 2


def cmd_verify_lowerbound(args: argparse.Namespace) -> int:
    _check_table_fits(args)
    inst = Instance.generate(args.s, args.seed, dense_limit=args.dense_limit)
    eps = parse_epsilon(args.eps) if args.eps is not None else inst.params.epsilon_max
    report = exhaustive_lowerbound_check(
        inst,
        eps,
        mode=args.mode,
        random_per_dim=args.random_per_dim,
        seed=args.seed,
        strict=args.strict,
        max_enumerated_codim=args.max_codim,
    )
    _write(emit_report(report), args.out)
    return 0 if report.ok else 1


def cmd_spanning(args: argparse.Namespace) -> int:
    count = args.count if args.count is not None else 8 * args.d
    family, check = generate_spanning_family(
        args.d,
        count,
        _parse_fraction(args.rho),
        args.seed,
        max_retries=args.retries,
        sampled_samples=args.samples,
        dense_limit=args.dense_limit,
    )
    record = {
        "schema": "f2reglab/spanning-family",
        "schema_version": 1,
        "d": args.d,
        "count": count,
        "seed": args.seed,
        "check": spanning_check_dict(check),
        "vectors": [v if v < 2**53 else str(v) for v in family[:65536]],
    }
    if count > 65536:
        record["vectors_omitted"] = count - 65536
    _write(emit_report(record), args.out)
    return 0 if check.ok else 1


def cmd_round(args: argparse.Namespace) -> int:
    table = read_table(args.in_path, dense_limit=args.dense_limit)
    # a bad --tau, then a negative --pairs or a bad --max-codim, fails
    # before any draw and so before --out is written
    size_threshold(table.n, args.tau)
    pairs = sample_pairs(table.n, args.pairs, args.seed, args.max_codim)
    rounded = round_to_binary(table, args.seed)
    report = deviation_report(table, rounded, args.tau, pairs, seed=args.seed)
    if args.out is not None:
        write_table(args.out, rounded)
    _write(emit_report(report), args.report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="f2reglab",
        description="Fourier regularity laboratory over F2^n",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(
        p: argparse.ArgumentParser,
        seed: bool = True,
        out_help: str = "report path (default stdout)",
    ) -> None:
        p.add_argument("--dense-limit", type=int, default=DEFAULT_DENSE_LIMIT,
                       help="refuse to read or build a table or xi family of more than "
                            "2^LIMIT entries; spanning checks above dimension LIMIT are sampled")
        p.add_argument("--out", default=None, help=out_help)
        if seed:
            p.add_argument("--seed", type=int, default=0)

    def instance_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--s", type=int, required=True, help="number of blocks")
        p.add_argument("--samples", type=int, default=10**6,
                       help="sampled hyperplane checks for blocks too wide to enumerate")

    p = sub.add_parser("gen", help="generate an instance (table + manifest)")
    instance_opts(p)
    p.add_argument("--manifest", default=None, help="manifest path (default stdout)")
    common(p, out_help="write the dense table here (.f2fn)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("eval", help="evaluate the instance function at a point")
    instance_opts(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--x", help="integer encoding of the point")
    group.add_argument("--x-bits", help="coordinate string x1x2...xn")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check", help="eps-regularity report of a subspace for a table")
    p.add_argument("--in", dest="in_path", required=True, help="table file")
    p.add_argument("--basis", required=True,
                   help="comma-separated integer encodings of basis vectors (0 for the zero subspace)")
    p.add_argument("--eps", required=True)
    common(p, seed=False)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose", help="find an eps-regular subspace by energy increment")
    p.add_argument("--in", dest="in_path", required=True, help="table file")
    p.add_argument("--eps", required=True)
    p.add_argument("--csv", default=None, help="write per-iteration CSV here")
    p.add_argument("--single-witness", action="store_true",
                   help="refine by one character per round")
    p.add_argument("--max-index-log2", type=int, default=DEFAULT_DENSE_LIMIT)
    p.add_argument("--max-iterations", type=int, default=None)
    common(p, seed=False)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify-lowerbound",
                       help="verify that only the zero subspace is eps-regular")
    p.add_argument("--s", type=int, required=True, help="number of blocks")
    p.add_argument("--eps", default=None, help="defaults to 1/(16 s)")
    p.add_argument("--mode", choices=["auto", "exhaustive", "structured", "sampled"],
                   default="auto")
    p.add_argument("--random-per-dim", type=int, default=10**4)
    p.add_argument("--max-codim", type=int, default=1,
                   help="enumerate all subspaces up to this codimension in structured mode")
    p.add_argument("--no-strict", dest="strict", action="store_false",
                   help="collect failures in the report instead of raising")
    common(p)
    p.set_defaults(func=cmd_verify_lowerbound)

    p = sub.add_parser("spanning", help="generate and verify a spanning family")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--count", type=int, default=None, help="default 8*d")
    p.add_argument("--rho", default="3/4")
    p.add_argument("--retries", type=int, default=100)
    p.add_argument("--samples", type=int, default=10**6)
    common(p)
    p.set_defaults(func=cmd_spanning)

    p = sub.add_parser("round", help="randomized rounding to a binary table")
    p.add_argument("--in", dest="in_path", required=True, help="table file")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--pairs", type=int, default=200)
    p.add_argument("--max-codim", type=int, default=4)
    p.add_argument("--report", default=None, help="deviation report path (default stdout)")
    common(p)
    p.set_defaults(func=cmd_round)

    return parser


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except (ClaimViolationError, RetryLimitError, DecompositionError) as exc:
        record = {
            "schema": "f2reglab/claim-failure",
            "schema_version": 1,
            "error": type(exc).__name__,
            "message": str(exc),
        }
        sys.stdout.write(emit_report(record))
        return 1
    except (DenseLimitError, TableFormatError, TowerOverflowError, ValueError, OSError) as exc:
        sys.stderr.write(f"f2reglab: error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
