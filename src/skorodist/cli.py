"""Command-line front end.

Subcommands: ``distance`` (exact distance between two trace files, with a
time-change certificate), ``certificate-check`` (recompute a certified bound
without trusting the distance computation), ``suite`` (named verification
suites), and ``example-k`` (the K-topology demonstration report).

All I/O is JSON; output is byte-identical for identical inputs and seed.
Exit codes: 0 success, 1 check/suite failure, 2 parse error (NaN, Infinity
and numbers beyond the float range included, and an input file that is
missing or not UTF-8), rejected input (a non-finite distance, or a trace,
family config or metric nested deeper than the interpreter's recursion
limit) or an ``--out`` path that cannot be written, 3 value-space mismatch,
4 invalid certificate (NaN, Infinity and out-of-range numbers in it
included).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cadlag import TraceParseError, ValueSpaceMismatch, step_from_json, strict_json
from .distance import (
    CertificateError,
    NonFiniteDistance,
    check_certificate,
    result_from_json,
    skorohod_distance,
)
from .pseudometric import Discrete, Euclidean, family_from_config
from .suites import SUITES, run_example_k, run_suites
from .topology import MAX_EPS, MIN_EPS

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_SPACE = 3
EXIT_CERT = 4


def _emit(obj, out_path):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _read(path):
    # open, not Path: the message names the path as given, and Path("") is "."
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise TraceParseError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise TraceParseError(f"{path!r} is not UTF-8: {exc}") from exc


def _resolve_metric(args, x):
    """Pick the value pseudometric: a family index when --family is given,
    otherwise the named metric, or without --metric euclidean for vectors and
    discrete for labels."""
    if args.family is not None:
        try:
            family = family_from_config(strict_json(_read(args.family), ValueError))
        except ValueError as exc:
            raise TraceParseError(f"bad family config: {exc}") from exc
        if args.metric is not None:
            try:
                index = frozenset(int(k) for k in args.metric.split(","))
                return family.metric(index)
            except ValueError as exc:
                raise TraceParseError(f"bad index {args.metric!r}: {exc}") from exc
        return family.metric(family.full_index())
    if args.metric is None:
        return Discrete() if x.space() == ("label",) else Euclidean()
    if args.metric == "discrete":
        return Discrete()
    if args.metric == "euclidean":
        return Euclidean()
    raise TraceParseError(
        f"--metric {args.metric!r} needs --family (or use euclidean/discrete)"
    )


def _load_inputs(args):
    """The traces x and y, checked to share a value space, and the metric."""
    x = step_from_json(_read(args.x))
    y = step_from_json(_read(args.y))
    if x.space() != y.space():
        raise ValueSpaceMismatch(f"{x.space()} vs {y.space()}")
    return x, y, _resolve_metric(args, x)


def cmd_distance(args) -> int:
    x, y, metric = _load_inputs(args)
    result = skorohod_distance(x, y, metric)
    _emit(result.to_json_obj(), args.out)
    return EXIT_OK


def cmd_certificate_check(args) -> int:
    x, y, metric = _load_inputs(args)
    claimed, cert = result_from_json(_read(args.certificate))
    ok, bound = check_certificate(x, y, metric, claimed, cert)
    _emit({"pass": ok, "claimed": claimed, "recomputed_bound": bound}, args.out)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_suite(args) -> int:
    names = list(SUITES) if args.name == "all" else [args.name]
    summary = run_suites(names, seed=args.seed, trials=args.trials, eps=args.eps)
    _emit(summary, args.out)
    return EXIT_OK if summary["pass"] else EXIT_FAIL


def cmd_example_k(args) -> int:
    result = run_example_k()
    _emit(result, args.out)
    report = result["report"]
    status = "pass" if result["pass"] else "FAIL"
    sys.stderr.write(
        f"K-topology example [{status}]: staircase is cadlag for the refined "
        f"topology, values avoid K, left limits land on K, and the deleted "
        f"neighbourhood {report['witness']} of 0 excludes every left limit.\n"
    )
    return EXIT_OK if result["pass"] else EXIT_FAIL


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _modulus_eps(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not MIN_EPS <= value <= MAX_EPS:
        raise argparse.ArgumentTypeError(
            f"must lie in [{MIN_EPS}, {MAX_EPS}], got {text}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skorodist",
        description="Exact Skorohod distances for step functions, with "
        "certificates and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the arguments that distance and certificate-check share
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("x")
    pair.add_argument("y")
    pair.add_argument("--family", help="pseudometric family config file")
    pair.add_argument(
        "--metric",
        help="family index like '1,2', or 'euclidean'/'discrete' without --family",
    )
    pair.add_argument("--out", help="write JSON here instead of stdout")

    p_dist = sub.add_parser("distance", parents=[pair], help="distance between two traces")
    p_dist.set_defaults(func=cmd_distance)

    p_cert = sub.add_parser(
        "certificate-check", parents=[pair], help="recompute and audit a certified distance"
    )
    p_cert.add_argument("certificate", help="JSON with 'distance' and 'certificate'")
    p_cert.set_defaults(func=cmd_certificate_check)

    p_suite = sub.add_parser("suite", help="run verification suites")
    p_suite.add_argument("name", choices=[*SUITES, "all"])
    p_suite.add_argument("--seed", type=int, default=0)
    p_suite.add_argument("--trials", type=_positive_int, default=None)
    p_suite.add_argument("--eps", type=_modulus_eps, default=None)
    p_suite.add_argument("--out")
    p_suite.set_defaults(func=cmd_suite)

    p_ex = sub.add_parser("example-k", help="K-topology counterexample report")
    p_ex.add_argument("--out")
    p_ex.set_defaults(func=cmd_example_k)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TraceParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except (NonFiniteDistance, RecursionError) as exc:
        sys.stderr.write(f"input rejected: {exc}\n")
        return EXIT_PARSE
    except ValueSpaceMismatch as exc:
        sys.stderr.write(f"value-space mismatch: {exc}\n")
        return EXIT_SPACE
    except CertificateError as exc:
        sys.stderr.write(f"invalid certificate: {exc}\n")
        return EXIT_CERT
    except OSError as exc:  # _read reports its own; this is a failed write
        sys.stderr.write(f"cannot write output: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
