"""Command-line front end.

Subcommands: eval, classify, geometry, asym, scan, slope.  Spins are given
as six positional half-integer strings ("2", "3/2", "1.5").  Exit codes:
0 success, 2 usage, 3 admissibility error, 4 non-Euclidean (or flat)
geometry; a failure prints one ``error:`` line to stderr.  Stdout is written
once, when the command has succeeded.  Inputs are parsed under the
interpreter's int-digit limit; exact values print at any length.
"""

from __future__ import annotations

import argparse
import io
import sys
from contextlib import nullcontext

from .asymptotics import asym_for_scaled, asym_standard
from .errors import AdmissibilityError, InsufficientExtremaError, NonEuclideanError
from .geometry import tet_from_spins
from .halfint import _half_text
from .scan import envelope_slope, k_range, read_csv, scan, write_csv, write_json
from .symbols import sixj_exact, sixj_super_exact
from .triangles import SpinSextuple, _check, _sums

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ADMISSIBILITY = 3
EXIT_GEOMETRY = 4

# the int-to-text digit limit (0: none); interpreters before 3.10.7 have none
_get_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digits = getattr(sys, "set_int_max_str_digits", lambda limit: None)


def _add_spin_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("spins", nargs=6, metavar="SPIN", help="six half-integers j1 j2 j3 J1 J2 J3")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sixj",
        description="Exact and asymptotic SU(2) 6j / OSP(1|2) super-6j symbols",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="exact symbol value")
    p_eval.add_argument("--kind", choices=("su2", "super"), default="su2")
    _add_spin_args(p_eval)

    p_classify = sub.add_parser("classify", help="parity and triangle data")
    _add_spin_args(p_classify)

    p_geo = sub.add_parser("geometry", help="tetrahedron volume and dihedral angles")
    _add_spin_args(p_geo)

    p_asym = sub.add_parser("asym", help="asymptotic value at a given k")
    p_asym.add_argument("--kind", choices=("su2", "super"), default="su2")
    p_asym.add_argument("--k", type=int, required=True)
    _add_spin_args(p_asym)

    p_scan = sub.add_parser("scan", help="exact-vs-asymptotic k scan (CSV or JSON)")
    p_scan.add_argument("--kind", choices=("su2", "super"), default="su2")
    p_scan.add_argument("--k", type=int, help="single k (alternative to --k-from/--k-to)")
    p_scan.add_argument("--k-from", type=int)
    p_scan.add_argument("--k-to", type=int)
    p_scan.add_argument("--k-step", type=int, default=1)
    p_scan.add_argument("--out", metavar="FILE", help="write to FILE instead of stdout")
    p_scan.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_spin_args(p_scan)

    p_slope = sub.add_parser("slope", help="envelope slope fit from a scan CSV")
    p_slope.add_argument("csv_file", metavar="CSV", help="scan CSV path, or - for stdin")

    return parser


def _scan_ks(args) -> list[int]:
    if args.k is not None:
        if args.k_from is not None or args.k_to is not None:
            raise ValueError("give either --k or --k-from/--k-to, not both")
        return [args.k]
    if args.k_from is None or args.k_to is None:
        raise ValueError("scan needs --k or both --k-from and --k-to")
    return k_range(args.k_from, args.k_to, args.k_step)


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    out, limit = io.StringIO(), _get_digits()
    try:
        _dispatch(args, out)
        sys.stdout.write(out.getvalue())
    except (ValueError, NonEuclideanError, InsufficientExtremaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, AdmissibilityError):
            return EXIT_ADMISSIBILITY
        return EXIT_GEOMETRY if isinstance(exc, NonEuclideanError) else EXIT_USAGE
    finally:
        _set_digits(limit)
    return EXIT_OK


def _dispatch(args, out: io.StringIO) -> None:
    """Run the command, printing its output into out."""
    if args.command == "slope":
        with nullcontext(sys.stdin) if args.csv_file == "-" else open(args.csv_file, encoding="utf-8") as fh:
            records = read_csv(fh)
        fit = envelope_slope(records)
        print(f"slope      {fit.slope!r}", file=out)
        print(f"intercept  {fit.intercept!r}", file=out)
        print(f"r_squared  {fit.r_squared!r}", file=out)
        print(f"n_points   {fit.n_points}", file=out)
        return

    s = SpinSextuple.parse(args.spins)  # under the caller's digit limit, as argparse's ints are
    _set_digits(0)
    if args.command == "eval":
        value = sixj_exact(s) if args.kind == "su2" else sixj_super_exact(s)
        print(f"coeff     {value.coeff}", file=out)
        print(f"radicand  {value.radicand}", file=out)
        print(f"value     {float(value)!r}", file=out)
    elif args.command == "classify":
        v, p = _sums(s.doubled())
        print(f"parity    {_check(v, p, 'osp12').value}", file=out)
        print("v         " + " ".join(map(_half_text, v)), file=out)
        print("p         " + " ".join(map(_half_text, p)), file=out)
    elif args.command == "geometry":
        geo = tet_from_spins(s)
        print(f"volume    {geo.volume!r}", file=out)
        print("theta_ext " + " ".join(repr(t) for t in geo.theta_ext), file=out)
    elif args.command == "asym":
        res = asym_standard(s, args.k) if args.kind == "su2" else asym_for_scaled(s, args.k)
        print(f"parity    {res.parity_used}", file=out)
        print(f"amplitude {res.amplitude!r}", file=out)
        print(f"angle     {res.angle!r}", file=out)
        print(f"value     {res.value!r}", file=out)
    else:
        records = scan(s, args.kind, _scan_ks(args))
        writer = write_csv if args.format == "csv" else write_json
        with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(out) as fh:
            writer(records, fh)


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
