"""Command-line front end.

main(argv) depends only on argv and the files it names. Exit codes: 0
on success; 2 for every bad flag value (argparse's usage error), raised
as an ArgumentTypeError by a type= callable, by a check over several
flags, or by wrapping the ValueError of the library call a flag feeds
(construct_pw / construct_rm, the code length check, crc_transform); 1
for budgets, info-set file contents and I/O. Compute calls are never
wrapped: their ValueErrors are runtime failures. Every refusal names its
command, as in `polarspec avg-spectrum: error: ...`, and a usage error
prints that command's usage line.

When argv[0] names a command, main parses the rest with that command's
own parser, as the top-level parser would hand it on; the top-level
parser sees only the other argv (no command, an unknown one, or a flag
first), so each run pays for one parse, with the same usage, help and
error texts. A report goes to stdout, or to --out in one binary write:
LF line ends on every platform.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .construct import CodeConfig, _m_of, construct_pw, construct_rm, load_info_set
from .oracle import BudgetError, ensemble_average_mc, exact_spectrum
from .pretransform import (
    crc_transform,
    identity_transform,
    pac_transform,
    parse_poly,
    random_transform,
)
from .report import SpectrumReport, report_from_average, report_from_histogram
from .scl import collect_low_weight
from .spectrum import avg_spectrum, verify_average


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _method(text: str) -> int | None:
    """--method text -> the SCL list size, None for brute force."""
    if text == "brute":
        return None
    if text.startswith("scl:"):
        return _int_at_least(1)(text[4:])
    raise argparse.ArgumentTypeError(f"unknown method {text!r} (expected brute or scl:LIST_SIZE)")


def _transform(text: str) -> dict:
    """--transform text -> the report's descriptor dict (polynomials stay
    text, checked by parse_poly)."""
    try:
        if text == "identity":
            return {"kind": "identity"}
        if text.startswith("random:"):
            return {"kind": "random", "seed": int(text[7:])}
        if text.startswith("pac:"):
            parse_poly(text[4:])
            return {"kind": "pac", "poly": text[4:]}
        if text.startswith("crc:") and "," in text:
            poly, kprime = text[4:].rsplit(",", 1)
            parse_poly(poly)
            return {"kind": "crc", "poly": poly, "k_outer": int(kprime)}
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad transform {text!r}: {exc}") from None
    raise argparse.ArgumentTypeError(
        f"bad transform {text!r} (expected identity, random:SEED, pac:POLY or crc:POLY,KPRIME)"
    )


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each command's own parser by name."""
    shared = argparse.ArgumentParser(add_help=False)  # every command's code and output flags
    shared.add_argument("--n", type=int, required=True, help="block length, a power of two")
    shared.add_argument("--k", type=int, help="code dimension (message bits)")
    shared.add_argument("--construction", required=True,
                        help="rm | pw | file:PATH (one 1-based index per line, # comments)")
    shared.add_argument("--format", choices=("json", "csv"), default="json")
    shared.add_argument("--round", type=_int_at_least(0), default=6, metavar="DIGITS",
                        help="decimal digits in rendered values (default 6)")
    shared.add_argument("--out", help="write the report here instead of stdout")
    parser = argparse.ArgumentParser(
        prog="polarspec",
        description="Exact and simulated weight spectra of pre-transformed polar codes.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    commands = {}

    p = commands["avg-spectrum"] = subs.add_parser("avg-spectrum", parents=[shared],
                                          help="exact ensemble-average spectrum (recursion)")
    p.add_argument("--dmax", type=int, help="largest weight to compute (default N)")
    p.add_argument("--verify", action="store_true",
                   help="run internal mass/parity checks (requires --dmax N)")
    p.set_defaults(func=cmd_avg_spectrum, parser=p)

    p = commands["exact-spectrum"] = subs.add_parser("exact-spectrum", parents=[shared],
                                          help="spectrum of one fixed pre-transformed code")
    p.add_argument("--transform", type=_transform, default="identity",
                   help="identity | random:SEED | pac:POLY | crc:POLY,KPRIME")
    p.add_argument("--method", type=_method, default="brute", help="brute | scl:LIST_SIZE")
    p.set_defaults(func=cmd_exact_spectrum, parser=p)

    p = commands["ensemble"] = subs.add_parser("ensemble", parents=[shared],
                                          help="Monte-Carlo average over random transforms")
    p.add_argument("--samples", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--method", type=_method, default="brute", help="brute | scl:LIST_SIZE")
    p.set_defaults(func=cmd_ensemble, parser=p)
    return parser, commands


def _construct(spec: str, n: int, k: int | None, k_flag: str = "--k") -> CodeConfig:
    """The code --construction names, of length --n and dimension k, the
    value of k_flag."""
    if spec in ("rm", "pw"):
        if k is None:
            raise argparse.ArgumentTypeError(f"{k_flag} is required with --construction {spec}")
        try:
            return (construct_rm if spec == "rm" else construct_pw)(n, k)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"--n {n} and {k_flag} {k}: {exc}") from None
    if spec.startswith("file:"):
        try:
            _m_of(n)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"--n {n}: {exc}") from None
        config = load_info_set(spec[5:], n)
        if k is not None and config.k != k:
            raise ValueError(f"info-set file has {config.k} indices, {k_flag} says {k}")
        return config
    raise argparse.ArgumentTypeError(
        f"unknown construction {spec!r} (expected rm, pw, or file:PATH)"
    )


def _emit(report: SpectrumReport, args) -> int:
    text = report.to_json() if args.format == "json" else report.to_csv()
    if args.out:  # one binary write: LF line ends on every platform
        with open(args.out, "wb") as fh:
            fh.write(text.encode())
    else:
        sys.stdout.write(text)
    return 0


def cmd_avg_spectrum(args) -> int:
    config = _construct(args.construction, args.n, args.k)
    dmax = args.dmax if args.dmax is not None else config.n
    if not 1 <= dmax <= config.n:
        raise argparse.ArgumentTypeError(f"--dmax must be in [1, {config.n}]")
    if args.verify and dmax != config.n:
        raise argparse.ArgumentTypeError(
            "--verify needs the full spectrum: set --dmax to N (or omit it)"
        )
    spec = avg_spectrum(config, dmax)
    if args.verify:
        problems = verify_average(spec)
        if problems:
            for p in problems:
                print(f"verify: {p}", file=sys.stderr)
            return 1
    return _emit(report_from_average(config, args.construction, spec, args.round), args)


def cmd_exact_spectrum(args) -> int:
    desc, list_size = args.transform, args.method
    if desc["kind"] == "crc":
        if args.k is None:
            raise argparse.ArgumentTypeError("--k (message bits) is required with a crc transform")
        # --k message bits of the KPRIME rows constructed
        outer = _construct(args.construction, args.n, desc["k_outer"], "--transform KPRIME")
        try:
            config, transform = crc_transform(outer, args.k, desc["poly"])
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"--k {args.k} and --transform crc:{desc['poly']},{desc['k_outer']}: {exc}"
            ) from None
    else:
        config = _construct(args.construction, args.n, args.k)
        if desc["kind"] == "random":
            transform = random_transform(config, desc["seed"])
        elif desc["kind"] == "pac":
            transform = pac_transform(config, desc["poly"])
        else:
            transform = identity_transform(config)
    if list_size is None:
        try:
            hist = exact_spectrum(config, transform)
        except BudgetError as exc:
            raise BudgetError(f"{exc}; use --method scl:LIST_SIZE instead") from None
    else:
        hist = collect_low_weight(config, transform, list_size)
    report = report_from_histogram(config, args.construction, hist, args.round,
                                   transform=desc, list_size=list_size)
    return _emit(report, args)


def cmd_ensemble(args) -> int:
    config = _construct(args.construction, args.n, args.k)
    hist = ensemble_average_mc(config, args.seed, args.samples, list_size=args.method)
    report = report_from_histogram(config, args.construction, hist, args.round,
                                   transform={"kind": "random"}, list_size=args.method)
    return _emit(report, args)


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in commands:  # the command's own parser, as the top-level one would call it
        args, unknown = commands[argv[0]].parse_known_args(argv[1:])
    else:  # no command, an unknown one, or a flag first
        args, unknown = parser.parse_known_args(argv)
    if unknown:  # argparse would report these as the top-level parser
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        args.parser.error(str(exc))
    except (BudgetError, ValueError, OSError) as exc:
        print(f"{args.parser.prog}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
