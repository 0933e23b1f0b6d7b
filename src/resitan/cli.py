"""Command line front end.

Exit code is 0 iff no produced record has status fail or error; hypothesis
skips count as clean.  Informational commands (residues, symbol, cornacchia)
exit 1 on invalid or non-real inputs.
"""

from __future__ import annotations

import argparse
import sys

from .arith import PrimeContext
from .checks import CHECKS, SCAN_DEFAULTS, run_check
from .errors import ResitanError
from .numeric import check_tolerance, pmd_lemma_identity, pmd_theorem14_numeric
from .quadforms import cornacchia
from .records import FAIL
from .residues import residue_set, symbol_sign


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="resitan",
        description="verify tangent and root-of-unity product identities "
                    "over power residues modulo primes")
    sub = ap.add_subparsers(dest="command", required=True)
    d = SCAN_DEFAULTS   # the defaults of verify and scan

    v = sub.add_parser("verify", help="run the identity checks for one (p, m, a)")
    v.add_argument("--p", type=int, required=True)
    v.add_argument("--m", type=int, required=True)
    v.add_argument("--a", type=int, default=1)
    v.add_argument("--mode", choices=("exact", "numeric", "both"), default="both")
    v.add_argument("--tol", type=float, default=d["tolerance"])

    s = sub.add_parser("scan", help="sweep a prime range and write a report")
    s.add_argument("--pmin", type=int, required=True)
    s.add_argument("--pmax", type=int, required=True)
    s.add_argument("--m", default=d["m_policy"], help='"all" or comma list, e.g. 1,3,4')
    s.add_argument("--a-count", type=int, default=d["a_count"], dest="a_count")
    s.add_argument("--checks", default=d["checks"], help='"all" or comma list of check names')
    s.add_argument("--tol", type=float, default=d["tolerance"])
    s.add_argument("--out", required=True)
    s.add_argument("--format", choices=("jsonl", "csv"), default=d["fmt"])

    r = sub.add_parser("residues", help="print R_m(p) and its sum")
    r.add_argument("--p", type=int, required=True)
    r.add_argument("--m", type=int, required=True)

    y = sub.add_parser("symbol", help="print the sign-valued 2m-th power residue symbol")
    y.add_argument("--a", type=int, required=True)
    y.add_argument("--p", type=int, required=True)
    y.add_argument("--m", type=int, required=True)

    c = sub.add_parser("cornacchia", help="solve p = x^2 + d*y^2")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--d", type=int, required=True)

    pl = sub.add_parser("pmd", help="full residue-system tangent product identity")
    pl.add_argument("--n", type=int, required=True)
    pl.add_argument("--x", type=float, required=True)

    p14 = sub.add_parser("pmd14", help="quadratic-residue tangent product, p = 1 (mod 8)")
    p14.add_argument("--p", type=int, required=True)
    p14.add_argument("--a", type=int, default=1)
    return ap


def _print_records(records) -> int:
    """Print one line per record; return the exit code for the records."""
    for r in records:
        print(f"p={r.p} m={r.m} a={r.a} {r.check}: {r.status}  "
              f"expected={r.expected}  actual={r.actual}")
    bad = any(r.status == FAIL or r.status.startswith("error(") for r in records)
    return 1 if bad else 0


def _cmd_verify(args) -> int:
    check_tolerance(args.tol)
    ctx = PrimeContext(args.p)
    recs = [run_check(ctx, args.m, args.a, name, args.tol)
            for name, check in CHECKS.items()
            if check.mode and args.mode in (check.mode, "both")]
    return _print_records(recs)


def _cmd_scan(args) -> int:
    # the sweep engine is loaded here, so that no other command compiles it
    from .harness import ScanConfig, scan_counts
    m_policy = "all" if args.m == "all" else tuple(int(t) for t in args.m.split(","))
    checks = "all" if args.checks == "all" else tuple(t.strip() for t in args.checks.split(","))
    config = ScanConfig(p_min=args.pmin, p_max=args.pmax, m_policy=m_policy,
                        a_count=args.a_count, checks=checks, tolerance=args.tol,
                        out=args.out, fmt=args.format)
    passed, failed, skipped, errored = scan_counts(config)
    print(f"wrote {passed + failed + skipped + errored} records to {args.out} "
          f"(pass={passed}, fail={failed}, skipped={skipped}, error={errored})")
    return 1 if failed or errored else 0


def _cmd_residues(args) -> int:
    rs = residue_set(PrimeContext(args.p), args.m)
    print(" ".join(str(k) for k in rs.members))
    print(f"sum = {sum(rs.members)}")
    return 0


def _cmd_symbol(args) -> int:
    sym = symbol_sign(args.a, PrimeContext(args.p), args.m)
    print(f"{sym.value:+d}")
    return 0


def _cmd_cornacchia(args) -> int:
    rep = cornacchia(PrimeContext(args.p), args.d)
    print("none" if rep is None else f"{rep.x} {rep.y}")
    return 0


def _cmd_pmd(args) -> int:
    return _print_records([pmd_lemma_identity(args.n, args.x)])


def _cmd_pmd14(args) -> int:
    return _print_records([pmd_theorem14_numeric(PrimeContext(args.p), args.a)])


_COMMANDS = {
    "verify": _cmd_verify,
    "scan": _cmd_scan,
    "residues": _cmd_residues,
    "symbol": _cmd_symbol,
    "cornacchia": _cmd_cornacchia,
    "pmd": _cmd_pmd,
    "pmd14": _cmd_pmd14,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ResitanError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
