"""Command line interface.

Subcommands: census, density, entangle, galois, constants.  Exit codes:
0 success, 2 usage or input errors (an input too large to fit in memory
among them), 3 expected-value mismatch on a registry curve, 4 I/O
failures, 130 a census interrupted (SIGINT).
"""

from __future__ import annotations

import argparse
import json
import sys

from .census import CheckpointCorrupt, run_census
from .curve import BadWitness, CurveOverQ, IterationCap
from .density import DegreeOne, DegreeProfile, artin_constant, build_density_report
from .entangle import (
    ClosureCapExceeded,
    NotCentral,
    NotOrderTwo,
    CharacterNotSurjective,
    delta_exact,
    load_group_description,
)
from .galois_image import InvalidPrime, certify_surjective, two_division_degree
from .modmath import SIEVE_LIMIT
from .registry import REFERENCE_LIMIT, REGISTRY, get_curve
from .utils import truncate_decimal, write_json_atomic

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_IO = 4
EXIT_INTERRUPTED = 130


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _resolve_curve(args) -> tuple:
    """(CurveOverQ, label or None, CurveSpec or None) from --label or --a/--b."""
    if args.label is not None:
        if args.a is not None or args.b is not None:
            raise ValueError("--label conflicts with --a/--b")
        spec = get_curve(args.label)
        return spec.curve, spec.label, spec
    if args.a is None or args.b is None:
        raise ValueError("need either --label or both --a and --b")
    return CurveOverQ(args.a, args.b), None, None


def cmd_census(args) -> int:
    try:
        curve, label, spec = _resolve_curve(args)
    except (ValueError, KeyError) as exc:
        return _fail(str(exc), EXIT_USAGE)
    if not 2 <= args.limit <= SIEVE_LIMIT:
        return _fail("--limit must be between 2 and 2**32", EXIT_USAGE)
    if args.workers < 1:
        return _fail("--workers must be at least 1", EXIT_USAGE)
    try:
        report = run_census(
            curve,
            args.limit,
            checkpoint=args.checkpoint,
            workers=args.workers,
            per_prime_csv=args.per_prime_csv,
            fraction_csv=args.fraction_csv,
            label=label,
        )
    except CheckpointCorrupt as exc:
        return _fail(f"checkpoint: {exc}", EXIT_IO)
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)
    except (IterationCap, BadWitness) as exc:
        return _fail(f"group structure: {exc}", EXIT_USAGE)
    except KeyboardInterrupt:
        return _fail("interrupted", EXIT_INTERRUPTED)
    print(
        f"curve ({report.a}, {report.b}) limit {report.limit}: "
        f"{report.cyclic_count}/{report.total_primes} cyclic "
        f"({report.cyclic_fraction_display}), bad {report.bad_primes}, "
        f"{report.elapsed_seconds:.1f}s"
    )
    if args.stats:
        print(json.dumps(report.extra, sort_keys=True), file=sys.stderr)
    if args.output:
        try:
            write_json_atomic(args.output, report.to_json_dict())
        except OSError as exc:
            return _fail(str(exc), EXIT_IO)
        print(f"report written to {args.output}")
    if (
        spec is not None
        and spec.expected_cyclic_count is not None
        and args.limit == REFERENCE_LIMIT
    ):
        ok = (
            report.cyclic_count == spec.expected_cyclic_count
            and report.total_primes == spec.expected_total
            and report.cyclic_fraction_display == spec.expected_fraction
        )
        if not ok:
            print(
                f"MISMATCH: expected {spec.expected_cyclic_count}/"
                f"{spec.expected_total} ({spec.expected_fraction})",
                file=sys.stderr,
            )
            return EXIT_MISMATCH
        print("expected values confirmed")
    return EXIT_OK


def _resolve_profile(args) -> DegreeProfile:
    if args.label is not None and args.profile is not None:
        raise ValueError("choose one of --label and --profile")
    if args.label is not None:
        return get_curve(args.label).profile
    if args.profile is not None:
        with open(args.profile) as fh:
            doc = json.load(fh)
        return DegreeProfile.from_json_dict(doc)
    return DegreeProfile()


def cmd_density(args) -> int:
    try:
        profile = _resolve_profile(args)
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        return _fail(f"profile: {exc}", EXIT_USAGE)
    if not 2 <= args.truncation <= SIEVE_LIMIT:
        return _fail("--truncation must be between 2 and 2**32", EXIT_USAGE)
    try:
        report = build_density_report(profile, L=args.truncation)
        d_lo, d_hi = report.delta.decimal_bounds(12)
        n_lo, n_hi = report.naive.decimal_bounds(12)
        summary = (
            f"delta in [{d_lo}, {d_hi}]\n"
            f"naive in [{n_lo}, {n_hi}]\n"
            f"alpha = {report.alpha}\n"
            f"c = {report.c}\n"
            f"vanishing: {report.vanishing}"
        )
        doc = report.to_json_dict()
    except (DegreeOne, ValueError) as exc:
        # DegreeOne: a charsum or superfluous prime of degree 1.  ValueError:
        # exact factors too long to render as decimal integers.
        return _fail(f"profile: {exc}", EXIT_USAGE)
    print(summary)
    if args.output:
        try:
            write_json_atomic(args.output, doc)
        except OSError as exc:
            return _fail(str(exc), EXIT_IO)
        print(f"report written to {args.output}")
    return EXIT_OK


def cmd_entangle(args) -> int:
    try:
        with open(args.group_file) as fh:
            doc = json.load(fh)
    except OSError as exc:
        return _fail(str(exc), EXIT_IO)
    except (ValueError, RecursionError) as exc:  # bad JSON or a 4300-digit integer
        return _fail(f"group file: {exc}", EXIT_USAGE)
    try:
        kind, payload = load_group_description(doc)
        if kind == "index2":
            model, delta = payload
            summary = (
                f"index-2 kernel of {model.factor_sizes}: order {model.group_order}, "
                f"everywhere-nontrivial {model.nontrivial_count}, delta {delta}"
            )
        else:
            summary = (
                f"group over moduli {payload.moduli}: order {payload.order}, "
                f"delta {delta_exact(payload)}"
            )
    except (
        ValueError,  # an order or delta too long to render among them
        KeyError,
        TypeError,
        OverflowError,  # a number that JSON read as infinity
        NotOrderTwo,
        NotCentral,
        CharacterNotSurjective,
        ClosureCapExceeded,
    ) as exc:
        return _fail(f"group description: {exc}", EXIT_USAGE)
    print(summary)
    return EXIT_OK


def cmd_galois(args) -> int:
    try:
        curve, _, _ = _resolve_curve(args)
    except (ValueError, KeyError) as exc:
        return _fail(str(exc), EXIT_USAGE)
    if args.l is not None and not 2 <= args.sample_bound <= SIEVE_LIMIT:
        return _fail("--sample-bound must be between 2 and 2**32", EXIT_USAGE)
    print(f"two-division degree: {two_division_degree(curve)}")
    if args.l is not None:
        try:
            res = certify_surjective(curve, args.l, sample_bound=args.sample_bound)
        except InvalidPrime as exc:
            return _fail(str(exc), EXIT_USAGE)
        fp = res.fingerprint
        status = "certified (heuristic)" if res.certified else "inconclusive"
        print(
            f"mod-{args.l} image: {status}; witnesses "
            f"W1={fp.w1} W2={fp.w2} W3={fp.w3} over {fp.samples} primes"
        )
    return EXIT_OK


def cmd_constants(args) -> int:
    if not 2 <= args.truncation <= SIEVE_LIMIT:
        return _fail("--truncation must be between 2 and 2**32", EXIT_USAGE)
    iv = artin_constant(args.truncation)
    lo, hi = iv.decimal_bounds(20)
    # 40 digits: the width is at least 1/L**3 >= 2**-96, so it never prints as 0
    width = truncate_decimal(iv.width.numerator, iv.width.denominator, 40)
    print(f"everywhere-maximal density constant, truncated at {args.truncation}:")
    print(f"  lo    {lo}")
    print(f"  hi    {hi}")
    print(f"  width {width}")
    return EXIT_OK


def _add_curve_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--label", choices=sorted(REGISTRY), help="registry curve")
    p.add_argument("--a", type=int, help="coefficient A of y^2 = x^3 + Ax + B")
    p.add_argument("--b", type=int, help="coefficient B")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclored",
        description="census and density toolkit for cyclic reduction of "
        "rational elliptic curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="classify reduced point groups up to a bound")
    _add_curve_args(p)
    p.add_argument("--limit", type=int, default=REFERENCE_LIMIT)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--checkpoint", help="line-delimited JSON resume file")
    p.add_argument("--output", help="write the report JSON here")
    p.add_argument("--per-prime-csv", help="stream per-prime classifications")
    p.add_argument("--fraction-csv", help="stream the running cyclic fraction")
    p.add_argument("--stats", action="store_true",
                   help="print the run counters (the report's extra) as JSON on stderr")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("density", help="exact density report for a degree profile")
    p.add_argument("--label", choices=sorted(REGISTRY))
    p.add_argument("--profile", help="degree profile JSON file")
    p.add_argument("--truncation", type=int, default=10**5)
    p.add_argument("--output", help="write the report JSON here")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("entangle", help="run a group description file")
    p.add_argument("group_file", help="JSON group description")
    p.set_defaults(func=cmd_entangle)

    p = sub.add_parser("galois", help="division-field degree data for a curve")
    _add_curve_args(p)
    p.add_argument("--l", type=int, help="certify the mod-l image (l >= 5)")
    p.add_argument("--sample-bound", type=int, default=10**4)
    p.set_defaults(func=cmd_galois)

    p = sub.add_parser("constants", help="print the maximal density constant")
    p.add_argument("--truncation", type=int, default=10**5)
    p.set_defaults(func=cmd_constants)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MemoryError:
        return _fail(f"{args.command}: out of memory", EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
