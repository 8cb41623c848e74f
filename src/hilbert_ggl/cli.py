"""Command line surface.

Subcommands: field (full single-field report), scan (bulk criterion scan with
CSV/JSON output and a resumable cache), hj (minus continued fraction), cusp
(cusp resolution cycle), tangency (wedge checks on exponent matrices from a
file).

Exit codes: 0 success, 1 domain or verification failure, 2 usage.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from fractions import Fraction

from .criteria import _cusp_thresholds, to_fraction, verdict
from .cusps import cusp_cycle, verify_cusp_tangency
from .cyclic import parse_matrices, tangency_divisor
from .elliptic import _check_cm_range, elliptic_summary
from .errors import DomainError
from .field_invariants import DEGREE, invariants
from .hj import hj_expand
from .lfunctions import _fundamental_parts
from .reports import (
    ScanCache,
    build_field_document,
    build_scan_document,
    csv_rows,
    json_dumps,
    render_field_text,
)
from .scan import scan


def _normalize_field_value(value: int, parser: argparse.ArgumentParser) -> int:
    """Accept a fundamental discriminant or a squarefree generator m >= 2.

    A value = 2 or 3 (mod 4) is no discriminant, and it is squarefree iff
    4 value is fundamental; a value = 0 or 1 (mod 4) is either fundamental
    or rejected (a squarefree m = 1 (mod 4) is its own discriminant).  So
    one factorization, memoized for the field's own validation, decides.
    """
    D = value if value % 4 in (0, 1) else 4 * value
    if value >= 2 and _fundamental_parts(D) is not None:
        return D
    parser.error(
        "%d is neither a fundamental discriminant nor a squarefree integer >= 2" % value
    )
    raise AssertionError("unreachable")


def _epsilon_fraction(text: str, parser: argparse.ArgumentParser) -> Fraction:
    try:
        return to_fraction(text, "epsilon")
    except DomainError as exc:
        parser.error(str(exc))
        raise AssertionError("unreachable")


def _tangency_exit(tan, D: int) -> int:
    """Exit code of a command that verified the cusp tangency of field D."""
    if tan.ok:
        return 0
    print("error: cusp tangency verification failed for D=%d" % D, file=sys.stderr)
    return 1


def cmd_field(args, parser) -> int:
    D = _normalize_field_value(args.value, parser)
    eps = _epsilon_fraction(args.epsilon, parser)
    _cusp_thresholds(eps)  # an epsilon out of range raises before any invariant is computed
    _check_cm_range([D])
    timings: dict[str, float] | None = {} if args.timings else None

    t0 = time.perf_counter()
    inv = invariants(D)
    t1 = time.perf_counter()
    ell = elliptic_summary(D)
    rep = verdict(inv, eps)
    t2 = time.perf_counter()
    cyc = cusp_cycle(D)
    t3 = time.perf_counter()
    tan = verify_cusp_tangency(cyc)
    t4 = time.perf_counter()
    if timings is not None:
        timings["invariants"] = t1 - t0
        timings["elliptic_criterion"] = t2 - t1
        timings["cusp_cycle"] = t3 - t2
        timings["cusp_tangency"] = t4 - t3
        timings["cusp"] = t4 - t2
        timings["total"] = t4 - t0

    params = {"value": args.value, "D": D, "n": DEGREE, "epsilon": eps}
    doc = build_field_document(params, inv, rep, ell, cyc, tan, timings=timings)
    if args.json:
        print(json_dumps(doc))
    else:
        sys.stdout.write(render_field_text(doc))
    return _tangency_exit(tan, D)


def cmd_scan(args, parser) -> int:
    if args.dmax < 5:
        parser.error("--dmax must be at least 5")
    if args.workers < 1:
        parser.error("--workers must be at least 1")
    eps = _epsilon_fraction(args.epsilon, parser)
    _cusp_thresholds(eps)  # an epsilon out of range raises before the cache is read
    params = {"n": DEGREE, "epsilon": str(eps)}
    t0 = time.perf_counter()
    cache = ScanCache(args.cache, params) if args.cache else None
    precomputed = cache.load() if cache is not None else None

    t1 = time.perf_counter()
    result = scan(
        args.dmax,
        epsilon=eps,
        workers=args.workers,
        precomputed=precomputed,
        # one open and one write per finished run, so a killed scan keeps it
        on_records=(lambda run: cache.append(*run)) if cache is not None else None,
    )
    t2 = time.perf_counter()
    timings = {"load": t1 - t0, "scan": t2 - t1} if args.timings else None

    if args.format == "csv":
        # a record's attribute dict is keyed like its to_dict(), without the copy
        payload = csv_rows(map(vars, result.records))
    else:
        payload = json_dumps(build_scan_document(result, params, timings=timings)) + "\n"

    if args.out:
        # bytes, so every line ends in "\n" alone on any platform
        with open(args.out, "wb") as fh:
            fh.write(payload.encode("utf-8"))
        # the cache may hold fields above --dmax; count only this scan's
        hits = sum(r.D in precomputed for r in result.records) if precomputed else 0
        print(
            "scanned %d fields to D<=%d (%d from cache): %d satisfied, "
            "%d candidate exceptional, largest failing D=%s"
            % (
                len(result.records),
                args.dmax,
                hits,
                len(result.satisfied),
                result.n_exceptional,
                result.largest_failing_D,
            )
        )
    else:
        sys.stdout.write(payload)
    if timings is not None and (args.out or args.format == "csv"):
        # after the summary, or on stderr so that stdout holds the CSV bytes alone
        print("timing load=%(load).3fs scan=%(scan).3fs" % timings,
              file=sys.stdout if args.out else sys.stderr)
    return 0


def cmd_hj(args, parser) -> int:
    digits = hj_expand(args.n, args.q)
    print(" ".join(str(b) for b in digits))
    return 0


def cmd_cusp(args, parser) -> int:
    D = _normalize_field_value(args.value, parser)
    cyc = cusp_cycle(D)
    tan = verify_cusp_tangency(cyc)
    if args.json:
        doc = {
            "command": "cusp",
            "D": D,
            "digits": list(cyc.digits),
            "period": cyc.period,
            "v_power": cyc.v_power,
            "eta": str(cyc.eta),
            "rays": cyc.ray_strings(),
            "unimodular": cyc.unimodular,
            "tangency_ok": tan.ok,
            "chart_sqrt_coeffs": [c.sqrt_coeff for c in tan.charts],
        }
        print(json_dumps(doc))
    else:
        print(
            "cusp cycle D=%d: digits (%s) period=%d v_power=%d"
            % (D, ", ".join(str(b) for b in cyc.digits), cyc.period, cyc.v_power)
        )
        print("eta=%s" % cyc.eta)
        print("rays: %s" % "; ".join(cyc.ray_strings()))
        print(
            "tangency: %s (%d charts, sqrt coeffs %s)"
            % (
                "ok" if tan.ok else "FAILED",
                len(tan.charts),
                ", ".join(str(c.sqrt_coeff) for c in tan.charts),
            )
        )
    return _tangency_exit(tan, D)


def cmd_tangency(args, parser) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DomainError("%s is not UTF-8 text: %s" % (args.file, exc)) from None
    mats = parse_matrices(text)
    checks = tangency_divisor(mats, m=args.m)
    degenerate = False
    rows = []
    for i, chk in enumerate(checks):
        if chk.degenerate:
            degenerate = True
            rows.append({"index": i, "degenerate": True, "lam": None, "mult": None})
        else:
            rows.append(
                {
                    "index": i,
                    "degenerate": False,
                    "lam": chk.lam,
                    "mult": chk.multiplicities[0],
                }
            )
    if args.json:
        print(json_dumps({"command": "tangency", "charts": rows}))
    else:
        for row in rows:
            if row["degenerate"]:
                print("chart %d: degenerate (det=0)" % row["index"])
            else:
                print("chart %d: mult=%s lambda=%s" % (row["index"], row["mult"], row["lam"]))
    if degenerate:
        print("error: degenerate chart (foliations not in general position)", file=sys.stderr)
        return 1
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="hilbert-ggl",
        description="Field-by-field checks of a sufficient criterion for strong "
        "Green-Griffiths-Lang on Hilbert modular surfaces, with exact "
        "resolution and tangency combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="full report for one field")
    p_field.add_argument("value", type=int, help="fundamental discriminant D or squarefree m")
    p_field.add_argument("--epsilon", default="0.01", help="epsilon in (0, 1/2), exact rational")
    p_field.add_argument("--json", action="store_true")
    p_field.add_argument("--timings", action="store_true")
    p_field.set_defaults(func=cmd_field)

    p_scan = sub.add_parser("scan", help="scan all fundamental discriminants up to a bound")
    p_scan.add_argument("--dmax", type=int, required=True)
    p_scan.add_argument("--epsilon", default="0.01")
    p_scan.add_argument("--out", help="output file (summary goes to stdout)")
    p_scan.add_argument("--format", choices=("csv", "json"), default="csv")
    p_scan.add_argument("--cache", help="resumable cache file")
    p_scan.add_argument("--workers", type=int, default=1, help="process count (default 1)")
    p_scan.add_argument("--timings", action="store_true")
    p_scan.set_defaults(func=cmd_scan)

    p_hj = sub.add_parser("hj", help="minus continued fraction of n/q")
    p_hj.add_argument("n", type=int)
    p_hj.add_argument("q", type=int)
    p_hj.set_defaults(func=cmd_hj)

    p_cusp = sub.add_parser("cusp", help="cusp resolution cycle of a field")
    p_cusp.add_argument("value", type=int, help="fundamental discriminant D or squarefree m")
    p_cusp.add_argument("--json", action="store_true")
    p_cusp.set_defaults(func=cmd_cusp)

    p_tan = sub.add_parser("tangency", help="wedge checks on exponent matrices from a file")
    p_tan.add_argument("file", help="text file, one matrix per blank-line block")
    p_tan.add_argument("--m", type=int, default=None, help="expected matrix size")
    p_tan.add_argument("--json", action="store_true")
    p_tan.set_defaults(func=cmd_tangency)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (DomainError, RuntimeError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
