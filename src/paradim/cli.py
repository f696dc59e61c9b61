"""Command line interface.

Exit codes: 0 success, 1 verification mismatch, 2 usage error (argparse
default), 3 domain error (invalid weight, unsupported prime, ...), 141
(128 + SIGPIPE) when the reader closes the output early, with no stderr.

One parser per command.  _COMMANDS maps each command word to the function
that adds its subparser.  main builds the subparser of the command word
alone, the first argument after an optional leading --format VALUE, and
every subparser when that argument is no command word (--help, no
argument, an unknown word).  A subparser's messages name only itself, so
they are the same either way; a usage error of the top level, whose
usage line lists every command, is raised again by the parser of every
command, so the help, the usage lines and the exit codes are those of
the full parser.
"""
import argparse
import io
import os
import sys

from .arith import primes_up_to
from .characters import young
from .compact import dim_M_signed
from .errors import ParadimError
from .corpus import LONG_WEIGHTS, _row_values, run_checks
from .exactmath import is_palindromic, palindromic_ell, series_coeffs
from .paramodular import (
    SPACES,
    _check_space,
    check_bias_region,
    dim_A_signed,
    dim_paramodular_signed,
    hilbert_series,
    search_weight3_zero,
)


def _emit(rows, header, fmt):
    """Rows of ints/strings in one of the three output formats."""
    # json and csv are imported in their branches: text, the default, needs neither
    if fmt == "json":
        import json
        print(json.dumps([dict(zip(header, r)) for r in rows]))
    elif fmt == "csv":
        import csv
        out = io.StringIO()
        w = csv.writer(out)
        w.writerow(header)
        w.writerows(rows)
        sys.stdout.write(out.getvalue())
    else:
        widths = [max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
                  for i, h in enumerate(header)]
        print("  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
        for r in rows:
            print("  ".join(str(v).rjust(w) for v, w in zip(r, widths)))


def cmd_dim(args):
    p, k, j = args.p, args.k, args.j
    if args.space == "S":
        plus, minus = dim_paramodular_signed(p, k, j)
    elif args.space == "A":
        _check_space("A", j)
        plus, minus = dim_A_signed(p, k)
    else:
        plus, minus = dim_M_signed(p, *young(k, j))
    _emit([[p, k, j, args.space, plus, minus, plus + minus]],
          ["p", "k", "j", "space", "plus", "minus", "total"], args.format)


def cmd_table(args):
    young(args.k, 0)  # refuses a bad weight even when no row follows
    header = ["p", "H", "R", "S_plus", "S_minus"]
    if args.k in LONG_WEIGHTS:
        header[3:3] = ["M_plus", "M_minus", "s2_plus", "s2_minus"]
    rows_filter = args.rows.split(",") if args.rows else None
    if rows_filter:
        bad = [r for r in rows_filter if r not in header[1:]]
        if bad:
            raise ParadimError(f"unknown rows: {','.join(bad)}")
        header = ["p"] + [h for h in header[1:] if h in rows_filter]
    rows = []
    for p in primes_up_to(args.pmax)[3:]:  # the tables start after 2, 3, 5
        vals = _row_values(p, args.k)
        rows.append([p] + [vals[h] for h in header[1:]])
    _emit(rows, header, args.format)


def cmd_verify(args):
    total, failures = run_checks(args.only)
    if not total:  # a mistyped filter would otherwise pass having checked nothing
        raise ParadimError(f"no check name contains {args.only!r}")
    if args.format == "json":
        import json  # as in _emit, loaded only for JSON output
        print(json.dumps({
            "checks": total,
            "failed": len(failures),
            "failures": [{"name": f.name, "expected": f.expected, "got": f.got}
                         for f in failures],
        }))
    elif args.format == "csv":
        rows = [[f.name, f.expected, f.got] for f in failures]
        rows.append(["summary", f"{total} checks", f"{len(failures)} failed"])
        _emit(rows, ["name", "expected", "got"], "csv")
    else:
        for f in failures:
            print(f"FAIL {f.name}: expected {f.expected}, got {f.got}")
        print(f"{total} checks, {len(failures)} failed")
    return 1 if failures else 0


def cmd_hilbert(args):
    if args.nmax < 0:
        raise ParadimError(f"--nmax must be >= 0, got {args.nmax}")
    hs = hilbert_series(args.p, args.space, args.j)
    if args.fit:
        def term(d, c):
            if d == 0:
                return str(c)
            head = "" if abs(c) == 1 else str(abs(c))
            return ("-" if c < 0 else "") + f"{head}t^{d}"
        num = " + ".join(
            term(d, c) for d, c in enumerate(hs.gf.numerator) if c
        ).replace("+ -", "- ") or "0"
        den = " ".join(f"(1-t^{a})" for a in hs.gf.denom_exponents)
        # ell is the exponent of a functional equation, which only a palindrome has
        pal = (f"palindromic, ell={palindromic_ell(hs.gf)}" if is_palindromic(hs.gf)
               else "not palindromic")
        print(f"({num}) / {den}   [{pal}]")
    coeffs = series_coeffs(hs.gf, args.nmax + 1)
    _emit([[n, c] for n, c in enumerate(coeffs)], ["n", "dim"], args.format)


def cmd_search_zero3(args):
    zeros = search_weight3_zero(args.pmax)
    _emit([[p] for p in zeros], ["p"], args.format)


def cmd_bias(args):
    pairs = check_bias_region(args.pmax, args.kmax)
    _emit(pairs, ["p", "k"], args.format)


def _add_dim(sub, fmt):
    d = sub.add_parser("dim", parents=[fmt], help="signed dimensions of one space")
    d.add_argument("--p", type=int, required=True, help="prime level")
    d.add_argument("--k", type=int, required=True, help="weight")
    d.add_argument("--j", type=int, default=0, help="symmetric power (even)")
    d.add_argument("--space", choices=["S", "A", "M"], default="S",
                   help="S cusp, A full, M algebraic (weight (k+j-3, k-3))")
    d.set_defaults(func=cmd_dim)


def _add_table(sub, fmt):
    t = sub.add_parser("table", parents=[fmt], help="reproduce a fixed-weight table")
    t.add_argument("--k", type=int, required=True)
    t.add_argument("--pmax", type=int, required=True)
    t.add_argument("--rows", help="comma separated row names to keep")
    t.set_defaults(func=cmd_table)


def _add_verify(sub, fmt):
    v = sub.add_parser("verify", parents=[fmt], help="re-derive the embedded data corpus")
    v.add_argument("--only", help="substring filter on check names")
    v.set_defaults(func=cmd_verify)


def _add_hilbert(sub, fmt):
    h = sub.add_parser("hilbert", parents=[fmt], help="graded dimension series of a space")
    h.add_argument("--p", type=int, required=True)
    h.add_argument("--space", required=True, choices=SPACES)
    h.add_argument("--j", type=int, default=0)
    h.add_argument("--nmax", type=int, default=40)
    h.add_argument("--fit", action="store_true",
                   help="also print the rational presentation")
    h.set_defaults(func=cmd_hilbert)


def _add_search(sub, fmt):
    s = sub.add_parser("search", parents=[fmt], help="searches over the level")
    ssub = s.add_subparsers(dest="what", required=True)
    z3 = ssub.add_parser("zero3", parents=[fmt], help="primes with no weight-3 plus forms")
    z3.add_argument("--pmax", type=int, required=True)
    z3.set_defaults(func=cmd_search_zero3)


def _add_bias(sub, fmt):
    b = sub.add_parser("bias", parents=[fmt], help="check plus >= minus (sign-adjusted) "
                                    "and list the equality pairs")
    b.add_argument("--pmax", type=int, required=True)
    b.add_argument("--kmax", type=int, required=True)
    b.set_defaults(func=cmd_bias)


# each command word and the function that adds its parser, in the order of --help
_COMMANDS = {"dim": _add_dim, "table": _add_table, "verify": _add_verify,
             "hilbert": _add_hilbert, "search": _add_search, "bias": _add_bias}


def _command_word(argv):
    """The first argument after an optional leading --format VALUE, or None."""
    words = argv[2:] if argv[:1] == ["--format"] else argv
    return words[0] if words else None


def _parser(command=None):
    """The parser of every command, or of `command` alone when it is one of
    _COMMANDS."""
    parser = argparse.ArgumentParser(
        prog="paradim",
        description="Exact dimensions of paramodular cusp forms of prime "
                    "level with Atkin-Lehner sign.",
    )
    parser.add_argument("--format", choices=["text", "csv", "json"],
                        default="text")
    # the parent of every subcommand parser, search included, so that --format
    # is accepted after each command word too.  Its default SUPPRESS keeps a
    # value given earlier; the top level declares its own --format, since a
    # default set there on this shared action would override that value.
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["text", "csv", "json"],
                     default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, add in _COMMANDS.items():
        if command not in _COMMANDS or command == name:
            add(sub, fmt)
    return parser


class _TopLevelUsage(Exception):
    """A usage error at the top level of a parser built for one command."""


def _refuse(message):
    """The error method of a parser built for one command."""
    raise _TopLevelUsage(message)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    command = _command_word(argv)
    parser = _parser(command)
    if command in _COMMANDS:
        parser.error = _refuse
    try:
        args = parser.parse_args(argv)
    except _TopLevelUsage:
        args = _parser().parse_args(argv)
    try:
        rc = args.func(args)
        sys.stdout.flush()
    except ParadimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # what is still buffered goes nowhere, also at the exit's flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return rc or 0


if __name__ == "__main__":
    sys.exit(main())
