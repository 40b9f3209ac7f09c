"""Command-line front end.

Subcommands map one-to-one onto library operations: exact leakage reports,
erasure decoding error, the leakage-vs-decoding-error bound sweep, best-hash
search, exponent curves (with figure presets), characteristic rates, and a
finite-length scaling table. Output is JSON (single-object reports, floats
written in full) or CSV (tables, 12 significant digits) with LF line endings,
byte-identical for identical flags and seed.

Exit codes: 0 success, 2 input parse error, 3 size limit exceeded,
4 degenerate parameter, 5 internal invariant violation.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from typing import Iterable, Iterator, Sequence

from . import __version__
from .channels import ChannelSpec, parse_channel
from .errors import InputParseError, InvariantViolationError
from .exponents import LN2, CURVE_KINDS, bsc_delta, critical_rate, curve, expurgation_rate
from .gf2 import BinMatrix, check_shape, parse_matrix, random_matrix
from .leakage import (
    best_matrix_search,
    exact_leakage_bec,
    exact_leakage_bsc,
    exact_method,
    mc_p_ml_erasure,
    p_ml_erasure,
    trial_seeds,
)

# Figure preset: channel and its (random-coding, expurgation) kinds.
_PRESETS = {
    "fig3": (ChannelSpec("bec", 0.5), ("er-bec", "ex-bec")),
    "fig4": (ChannelSpec("bsc", 0.11), ("er-bsc", "ex-bsc-reduction")),
    "fig5": (ChannelSpec("bsc", 0.25), ("er-bsc", "ex-bsc-reduction")),
}


def _emit(text: str | Iterable[str], out: str | None, staged: bool = False) -> None:
    """Write `text`, or its pieces in order, to stdout or to `out`. Text made
    before its first byte is written goes to `out` in place. `staged` rows,
    made as they are written, go to a temporary file beside `out` that
    replaces it once all are written, so a run that fails partway leaves
    `out` as it was; output to a symlink, device or pipe, which a rename
    would swap for a plain file, still goes in place."""
    chunks = (text,) if isinstance(text, str) else text
    if out is None:
        sys.stdout.writelines(chunks)
        return
    in_place = not staged or os.path.islink(out) or (
        os.path.exists(out) and not os.path.isfile(out))
    tmp = out if in_place else f"{out}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="\n") as fh:
            fh.writelines(chunks)
        if tmp != out:
            os.replace(tmp, out)
    except BaseException as exc:
        if tmp != out and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise InputParseError(f"cannot write output file {out}: {exc}") from None
        raise


def _emit_json(obj: dict, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2) + "\n", out)


def _read_matrix(path: str) -> BinMatrix:
    if path == "-":
        return parse_matrix(sys.stdin.read())
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputParseError(f"cannot read matrix file {path}: {exc}") from None
    return parse_matrix(text)


def _channel(args: argparse.Namespace, families: tuple[str, ...] = ("bec", "bsc")) -> ChannelSpec:
    spec = parse_channel(args.channel)
    if spec.family not in families:
        raise InputParseError(
            f"this subcommand needs a {' or '.join(families)} channel descriptor, "
            f"got {spec.describe()!r}"
        )
    return spec


def _cmd_leakage(args: argparse.Namespace) -> int:
    spec = _channel(args)
    m = _read_matrix(args.matrix)
    if spec.family == "bec":
        report = exact_leakage_bec(m, spec.eps)
    else:
        report = exact_leakage_bsc(m, spec.eps)
    # The report's fields in order: leakage, entropy, bound, slack.
    extra = {"method": "exact-enumeration", "samples": 0, "ci_halfwidth": 0.0}
    _emit_json({**dataclasses.asdict(report), **extra}, args.out)
    return 0


def _cmd_pml(args: argparse.Namespace) -> int:
    spec = _channel(args, families=("bec",))
    m = _read_matrix(args.matrix)
    if args.samples != 0:
        res = mc_p_ml_erasure(m, spec.eps, args.samples, args.seed)
    else:
        res = p_ml_erasure(m, spec.eps)
    _emit_json(
        {
            "p_ml": res.value,
            "delta": spec.eps,
            "method": res.method,
            "samples": res.samples,
            "ci_halfwidth": res.ci_halfwidth,
        },
        args.out,
    )
    return 0


def _cmd_verify_bound(args: argparse.Namespace) -> int:
    spec = _channel(args, families=("bec",))
    exact_method("bec", args.k, args.n, args.trials)
    check_shape(args.k, args.n)  # every input is checked before the first row is written
    seeds = trial_seeds(args.seed, args.trials)

    def rows() -> Iterator[str]:
        yield "trial,leakage_nats,bound_nats,slack_nats\n"
        for t, s in enumerate(seeds):
            rep = exact_leakage_bec(random_matrix(args.k, args.n, s), spec.eps)
            yield "%d,%.12g,%.12g,%.12g\n" % (t, rep.leakage_nats, rep.bound_nats, rep.slack_nats)

    _emit(rows(), args.out, staged=True)
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    spec = _channel(args)
    m, report = best_matrix_search(args.k, args.n, spec, args.trials, args.seed)
    _emit_json(
        {
            "k": args.k,
            "n": args.n,
            "channel": spec.describe(),
            "trials": args.trials,
            "seed": args.seed,
            "leakage_nats": report.leakage_nats,
            "hash_entropy_nats": report.hash_entropy_nats,
            "matrix": list(m.to_bit_strings()),
        },
        args.out,
    )
    return 0


def _cmd_exponents(args: argparse.Namespace) -> int:
    if args.preset is not None:
        if args.kind is not None:
            raise InputParseError("give either a curve kind or --preset, not both")
        spec, kinds = _PRESETS[args.preset]
        out_dir = args.out if args.out is not None else "."
        for kind, stem in zip(kinds, ("er", "ex")):
            table = curve(kind, spec, 0.0, LN2, 200, clamp=True)
            path = f"{out_dir}/{args.preset}_{stem}.csv"
            _emit(table.to_csv(), path)
            print(f"wrote {path}")
        return 0
    if args.kind is None:
        raise InputParseError("need a curve kind or --preset")
    if args.channel is None:
        raise InputParseError("curve evaluation needs --channel")
    table = curve(args.kind, _channel(args), args.rmin, args.rmax, args.steps, clamp=args.clamp)
    _emit(table.to_csv(), args.out)
    return 0


def _cmd_rates(args: argparse.Namespace) -> int:
    spec = _channel(args, families=("bsc",))
    eps = spec.eps
    delta = bsc_delta(eps)
    r_cr = critical_rate(eps)
    r_x = expurgation_rate(delta)
    if r_x > r_cr:
        raise InvariantViolationError(
            f"expurgation rate {r_x} exceeds critical rate {r_cr}"
        )
    _emit_json(
        {
            "eps": eps,
            "delta": delta,
            "R_cr_nats": r_cr,
            "R_x_nats": r_x,
            "R_cr_bits": r_cr / LN2,
            "R_x_bits": r_x / LN2,
        },
        args.out,
    )
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    spec = _channel(args)
    if not 0.0 <= args.rate < math.inf:
        raise InputParseError(f"--rate must be finite and >= 0, got {args.rate}")
    try:
        sizes = [int(tok) for tok in args.n.split(",") if tok.strip() != ""]
    except ValueError:
        raise InputParseError(f"--n expects a comma list of integers, got {args.n!r}") from None
    if not sizes:
        raise InputParseError("--n list is empty")
    if min(sizes) < 1:
        raise InputParseError(f"--n block lengths must be >= 1, got {args.n!r}")
    # Every rate >= ln 2 takes k = n; capping it keeps rate * n finite.
    shapes = [(n, min(n, max(1, round(min(args.rate, LN2) * n / LN2)))) for n in sizes]
    for n, k in sorted(shapes, reverse=True):  # all checked, the longest first, before any draw
        exact_method(spec.family, k, n, args.trials)
    lines = ["n,k,best_leakage_nats,minus_log_leakage_over_n"]
    for n, k in shapes:
        _, report = best_matrix_search(k, n, spec, args.trials, args.seed)
        leak = report.leakage_nats
        slope = math.inf if leak == 0.0 else -math.log(leak) / n
        lines.append("%d,%d,%.12g,%.12g" % (n, k, leak, slope))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leakexp",
        description=(
            "Exact eavesdropper-leakage computation for linear hashes over "
            "binary side channels, with decoding-error bounds and exponent curves."
        ),
    )
    parser.add_argument("--version", action="version", version=f"leakexp {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("leakage", help="exact leakage report for one matrix")
    p.add_argument("--matrix", required=True, help="matrix file path, or - for stdin")
    p.add_argument("--channel", required=True, help="bec:<eps> or bsc:<eps>")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_leakage)

    p = sub.add_parser("pml", help="erasure decoding error probability of a matrix")
    p.add_argument("--matrix", required=True, help="matrix file path, or - for stdin")
    p.add_argument("--channel", required=True, help="bec:<delta>, the erasure probability")
    p.add_argument("--samples", type=int, default=0,
                   help="Monte Carlo sample count, at least 1; 0 (the default) "
                   "takes exact enumeration")
    p.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_pml)

    p = sub.add_parser(
        "verify-bound",
        help="check leakage <= n * decoding error over random matrices",
    )
    p.add_argument("--k", type=int, required=True, help="hash output bits")
    p.add_argument("--n", type=int, required=True, help="input bits")
    p.add_argument("--channel", required=True, help="bec:<eps> side channel")
    p.add_argument("--trials", type=int, default=100, help="number of random matrices")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_verify_bound)

    p = sub.add_parser("search", help="lowest-leakage random matrix for given size")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--channel", required=True, help="bec:<eps> or bsc:<eps>")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("exponents", help="sample exponent curves as CSV")
    p.add_argument("kind", nargs="?", choices=CURVE_KINDS,
                   help="curve to sample (omit when using --preset)")
    p.add_argument("--channel", help="bec:<eps> or bsc:<eps>")
    p.add_argument("--rmin", type=float, default=0.0, help="lowest rate, nats")
    p.add_argument("--rmax", type=float, default=LN2, help="highest rate, nats")
    p.add_argument("--steps", type=int, default=200, help="grid points")
    p.add_argument("--clamp", action="store_true",
                   help="emit 0 instead of negative values")
    p.add_argument("--preset", choices=sorted(_PRESETS),
                   help="write both curves of a known figure (200 points, clamped)")
    p.add_argument("--out", help="CSV file, or output directory for presets")
    p.set_defaults(func=_cmd_exponents)

    p = sub.add_parser("rates", help="critical and expurgation rates for a bit-flip channel")
    p.add_argument("--channel", required=True, help="bsc:<eps> with 0 < eps < 1/2")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser(
        "scaling",
        help="best-hash leakage decay across block lengths at fixed rate",
    )
    p.add_argument("--rate", type=float, required=True,
                   help="hash rate in nats per input bit; k = round(rate*n/ln 2)")
    p.add_argument("--n", required=True, help="comma list of block lengths")
    p.add_argument("--channel", required=True, help="bec:<eps> or bsc:<eps>")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_scaling)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, InvariantViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)


if __name__ == "__main__":
    sys.exit(main())
