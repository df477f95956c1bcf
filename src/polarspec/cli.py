"""Command-line front end.

Exit codes: 0 on success, 1 on runtime or budget failures, 2 on usage
errors (argparse's convention).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .construct import CodeConfig, construct_pw, construct_rm, load_info_set
from .oracle import BudgetError, ensemble_average_mc, exact_spectrum
from .pretransform import (
    crc_transform,
    identity_transform,
    pac_transform,
    random_transform,
)
from .report import SpectrumReport, report_from_average, report_from_histogram
from .scl import collect_low_weight
from .spectrum import avg_spectrum, verify_average

THREADS_ENV = "POLARSPEC_THREADS"


def _add_code_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, required=True, help="block length, a power of two")
    sub.add_argument("--k", type=int, help="code dimension (message bits)")
    sub.add_argument(
        "--construction",
        required=True,
        help="rm | pw | file:PATH (one 1-based index per line, # comments)",
    )


def _digits(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--round", type=_digits, default=6, metavar="DIGITS",
                     help="decimal digits in rendered values (default 6)")
    sub.add_argument("--out", help="write the report here instead of stdout")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarspec",
        description="Exact and simulated weight spectra of pre-transformed polar codes.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("avg-spectrum", help="exact ensemble-average spectrum (recursion)")
    _add_code_flags(p)
    p.add_argument("--dmax", type=int, help="largest weight to compute (default N)")
    p.add_argument("--verify", action="store_true",
                   help="run internal mass/parity checks (requires --dmax N)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_avg_spectrum)

    p = subs.add_parser("exact-spectrum", help="spectrum of one fixed pre-transformed code")
    _add_code_flags(p)
    p.add_argument("--transform", default="identity",
                   help="identity | random:SEED | pac:POLY | crc:POLY,KPRIME")
    p.add_argument("--method", default="brute", help="brute | scl:LIST_SIZE")
    _add_output_flags(p)
    p.set_defaults(func=cmd_exact_spectrum)

    p = subs.add_parser("ensemble", help="Monte-Carlo average over random transforms")
    _add_code_flags(p)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--method", default="brute", help="brute | scl:LIST_SIZE")
    p.add_argument("--threads", type=int, default=None,
                   help=f"worker cap (default ${THREADS_ENV} or 1); never changes results")
    _add_output_flags(p)
    p.set_defaults(func=cmd_ensemble)
    return parser


def _construct(args, parser) -> tuple[CodeConfig, str]:
    spec = args.construction
    if spec in ("rm", "pw"):
        if args.k is None:
            parser.error(f"--k is required with --construction {spec}")
        builder = construct_rm if spec == "rm" else construct_pw
        return builder(args.n, args.k), spec
    if spec.startswith("file:"):
        config = load_info_set(spec[5:], args.n)
        if args.k is not None and config.k != args.k:
            raise ValueError(f"info-set file has {config.k} indices, --k says {args.k}")
        return config, spec
    parser.error(f"unknown construction {spec!r} (expected rm, pw, or file:PATH)")


def _parse_method(text: str, parser) -> tuple[str, int | None]:
    if text == "brute":
        return "brute", None
    if text.startswith("scl:"):
        try:
            size = int(text[4:])
        except ValueError:
            parser.error(f"bad list size in --method {text!r}")
        if size < 1:
            parser.error("scl list size must be >= 1")
        return "scl", size
    parser.error(f"unknown method {text!r} (expected brute or scl:LIST_SIZE)")


def _emit(report: SpectrumReport, args) -> int:
    text = report.to_json() if args.format == "json" else report.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_avg_spectrum(args, parser) -> int:
    config, label = _construct(args, parser)
    dmax = args.dmax if args.dmax is not None else config.n
    if not 1 <= dmax <= config.n:
        parser.error(f"--dmax must be in [1, {config.n}]")
    if args.verify and dmax != config.n:
        parser.error("--verify needs the full spectrum: set --dmax to N (or omit it)")
    spec = avg_spectrum(config, dmax)
    if args.verify:
        problems = verify_average(spec)
        if problems:
            for p in problems:
                print(f"verify: {p}", file=sys.stderr)
            return 1
    return _emit(report_from_average(config, label, spec, args.round), args)


def _parse_transform(text: str, parser):
    """Returns (descriptor dict, builder(config) -> (config, PreTransform))."""
    if text == "identity":
        return {"kind": "identity"}, lambda c: (c, identity_transform(c))
    if text.startswith("random:"):
        try:
            seed = int(text[7:])
        except ValueError:
            parser.error(f"bad seed in --transform {text!r}")
        return {"kind": "random", "seed": seed}, lambda c: (c, random_transform(c, seed))
    if text.startswith("pac:"):
        poly = text[4:]
        return {"kind": "pac", "poly": poly}, lambda c: (c, pac_transform(c, poly))
    if text.startswith("crc:"):
        body = text[4:]
        if "," not in body:
            parser.error("crc transform needs POLY,KPRIME")
        poly, kprime_text = body.rsplit(",", 1)
        try:
            kprime = int(kprime_text)
        except ValueError:
            parser.error(f"bad K' in --transform {text!r}")
        desc = {"kind": "crc", "poly": poly, "k_outer": kprime}
        return desc, ("crc", poly, kprime)
    parser.error(f"unknown transform {text!r}")


def cmd_exact_spectrum(args, parser) -> int:
    desc, builder = _parse_transform(args.transform, parser)
    method, list_size = _parse_method(args.method, parser)
    if desc["kind"] == "crc":
        _, poly, kprime = builder
        if args.k is None:
            parser.error("--k (message bits) is required with a crc transform")
        outer_args = argparse.Namespace(**{**vars(args), "k": kprime})
        outer, label = _construct(outer_args, parser)
        config, transform = crc_transform(outer, args.k, poly)
    else:
        config, label = _construct(args, parser)
        config, transform = builder(config)
    if method == "brute":
        try:
            hist = exact_spectrum(config, transform)
        except BudgetError as exc:
            raise BudgetError(f"{exc}; use --method scl:LIST_SIZE instead") from None
    else:
        hist = collect_low_weight(config, transform, list_size)
    report = report_from_histogram(
        config, label, hist, args.round, transform=desc, list_size=list_size
    )
    return _emit(report, args)


def cmd_ensemble(args, parser) -> int:
    if args.samples < 1:
        parser.error("--samples must be >= 1")
    method, list_size = _parse_method(args.method, parser)
    threads = args.threads
    if threads is None:
        threads = int(os.environ.get(THREADS_ENV, "1"))
    if threads < 1:
        parser.error("--threads must be >= 1")
    config, label = _construct(args, parser)
    hist = ensemble_average_mc(
        config, args.seed, args.samples, method=method, list_size=list_size, threads=threads
    )
    report = report_from_histogram(
        config, label, hist, args.round, transform={"kind": "random"}, list_size=list_size
    )
    return _emit(report, args)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
