"""Command-line front door.

Subcommands: table, value, star, dowling, hankel, verify, eval.  Laurent
polynomial values are emitted as sorted [exponent, coefficient-string]
pairs, so output is bit-identical across runs.  Each value is rendered
straight to JSON text (``LaurentPoly.to_json``) and every document is
composed from those texts; the bytes are those of ``json.dumps`` on the
pair lists.  Exit codes: 0 success or all identities pass, 1 identity
failure, 2 usage error, 3 internal arithmetic error (an exact division
that left a remainder or a value that left the Laurent ring: a bug in the
library, reported in one line, never as an identity failure).

``main(argv, out=...)`` may be called many times in one process: the
argparse parser is built on the first call and reused, since a parse keeps
no state in it.  Everything but error messages, ``--help`` text included,
goes to ``out``.  A request whose polynomials could reach a degree above
``MAX_DEGREE`` is refused with exit 2 before any ring work; for ``verify``
the bound is taken over the suites the request runs, on its grid.  So is
an exact value at q with more digits than the interpreter converts to
text, before anything is written, and a q whose decimal exponent is over
that digit limit, before it is read.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys
from fractions import Fraction

from . import verify
from .hankel import (HankelSpec, degree_bound, hankel_closed_forms,
                     hankel_matrix, leading_dets)
from .qcore import DivisionByZero, LaurentPoly, NonExactDivision
from .whitney import (InternalNonLaurent, WhitneyParams, r_dowling,
                      row_degree, w, w_star, w_table)


# The largest degree a request's polynomials may reach.  Row n of the
# triangle has top degree m*C(n,2) + r*n; a Hankel family is bounded by
# hankel.degree_bound.  table --m 1 --r 1 --nmax 80 (3240) passes.
MAX_DEGREE = 4096


def _params(args) -> WhitneyParams:
    return WhitneyParams(args.m, args.r)


# The decimal exponent of a q written in scientific notation.
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*$")


def _parse_q(text: str) -> Fraction:
    # Fraction("1e99999999") builds 10^99999999, which takes minutes.  A q
    # whose exponent is over the digit limit of int-to-text conversion
    # has more digits than that limit, so it is refused before.
    exp = _EXPONENT.search(text)
    limit = sys.get_int_max_str_digits()
    if exp and limit and abs(int(exp[1])) > limit:
        raise ValueError(f"q has a decimal exponent over {limit}, more "
                         f"digits than the interpreter converts to text")
    try:
        q = Fraction(text)
    except ZeroDivisionError:
        raise ValueError("q has a zero denominator") from None
    if q == 0:
        raise ValueError("q must be nonzero")
    return q


_NEGATIVE = re.compile(r"-[0-9.]")


def _bind_negative_q(argv):
    """Join `--q -3/5` into `--q=-3/5`.

    argparse only recognises integers and decimals as negative numbers, so it
    would read a negative fraction after --q or --q-eval as an option.
    """
    out = []
    for token in argv:
        if out and out[-1] in ("--q", "--q-eval") and _NEGATIVE.match(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _value_at(value: LaurentPoly, q) -> str:
    """The exact value at q as text, refused as too large when it has more
    digits than the interpreter converts to text.  The refusal names q
    when q itself converts."""
    exact = value.eval(q)
    try:
        return str(exact)
    except ValueError:
        pass
    try:
        where = f" at q = {q}"
    except ValueError:
        where = ""
    raise ValueError(f"request too large: its value{where} has more than "
                     f"{sys.get_int_max_str_digits()} digits")


def _render(value: LaurentPoly, qval) -> str:
    """JSON text of a value: its pairs, or its exact value at qval as a string."""
    if qval is None:
        return value.to_json()
    return json.dumps(_value_at(value, qval))


def _json_list(texts) -> str:
    """JSON text of a list whose items are already JSON texts."""
    return "[" + ", ".join(texts) + "]"


def _csv_cell(text: str) -> str:
    """A cell as ``csv.writer`` writes it by default: quoted, with each
    quote doubled, when it holds a comma or a quote (no cell here holds
    a line break)."""
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def cmd_table(args, out) -> int:
    table = w_table(_params(args), args.nmax)
    qval = args.q_eval
    if qval is not None:
        # Every value is rendered before the first write, so a value
        # refused as too large leaves stdout empty.
        table = [[_value_at(v, qval) for v in row] for row in table]
    if args.format == "json":
        # Otherwise written one row at a time, so no whole-table document
        # is built.
        params = json.dumps({"m": args.m, "r": args.r})
        out.write(f'{{"params": {params}, "rows": [')
        sep = ""
        for row in table:
            out.write(sep + _json_list([v.to_json() if qval is None
                                        else json.dumps(v) for v in row]))
            sep = ", "
        out.write("]}\n")
    else:
        out.write("n,k,value\n")
        for n, row in enumerate(table):
            cells = [v.to_json() for v in row] if qval is None else row
            out.write("".join([f"{n},{k},{_csv_cell(cell)}\n"
                               for k, cell in enumerate(cells)]))
    return 0


def cmd_value(args, out) -> int:
    print(_render(w(_params(args), args.n, args.k), args.q_eval), file=out)
    return 0


def cmd_star(args, out) -> int:
    print(_render(w_star(_params(args), args.n, args.k), args.q_eval),
          file=out)
    return 0


def cmd_dowling(args, out) -> int:
    print(_render(r_dowling(_params(args), args.n), args.q_eval), file=out)
    return 0


def cmd_eval(args, out) -> int:
    value = w_star(_params(args), args.n, args.k) if args.star \
        else w(_params(args), args.n, args.k)
    print(_value_at(value, args.q), file=out)
    return 0


def cmd_hankel(args, out) -> int:
    spec = HankelSpec(_params(args), args.s, args.n)
    rows = hankel_matrix(spec)
    closed_forms = hankel_closed_forms(spec)
    det = leading_dets(rows, closed_forms)[-1]
    closed = closed_forms[-1][0]
    qval = args.q_eval
    params = json.dumps({"m": args.m, "r": args.r, "s": args.s, "n": args.n})
    matrix = _json_list([_json_list([_render(v, qval) for v in row])
                         for row in rows])
    status = "PASS" if det == closed else "FAIL"
    print(f'{{"params": {params}, "matrix": {matrix}, '
          f'"determinant": {_render(det, qval)}, '
          f'"closed_form": {_render(closed, qval)}, "status": "{status}"}}',
          file=out)
    return 0 if det == closed else 1


def _read_grid(path):
    """The document of a verify --grid file; None without one."""
    if not path:
        return None
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"grid file {path} is nested too deeply") from None


def cmd_verify(args, out) -> int:
    # main has replaced the --grid path by the document read from it
    results = verify.run_suite(args.suite, args.grid)
    all_ok = True
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        print(f"{res.suite}: {status} ({res.cells - len(res.failures)}/{res.cells} cells)",
              file=out)
        all_ok = all_ok and res.ok
    report = {"suite": args.suite,
              "cells": sum(r.cells for r in results),
              "failures": [f.to_json() for r in results for f in r.failures]}
    print(json.dumps(report), file=out)
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwhitney",
        description="Exact q-analogue r-Whitney numbers of the second kind.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mr(p):
        p.add_argument("--m", type=int, required=True, help="Dowling parameter (>= 1)")
        p.add_argument("--r", type=int, required=True, help="shift parameter (>= 0)")

    def add_qeval(p):
        p.add_argument("--q-eval", type=_parse_q, default=None, metavar="P/Q",
                       help="evaluate at the exact rational q")

    p = sub.add_parser("table", help="emit the full triangle up to nmax")
    add_mr(p)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    add_qeval(p)
    p.set_defaults(fn=cmd_table)

    for name, fn in (("value", cmd_value), ("star", cmd_star)):
        p = sub.add_parser(name, help=f"single {'normalized ' if name == 'star' else ''}value")
        add_mr(p)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        add_qeval(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("dowling", help="row sum (q-analogue r-Dowling number)")
    add_mr(p)
    p.add_argument("--n", type=int, required=True)
    add_qeval(p)
    p.set_defaults(fn=cmd_dowling)

    p = sub.add_parser("eval", help="exact rational evaluation of one value")
    add_mr(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=_parse_q, required=True, metavar="P/Q")
    p.add_argument("--star", action="store_true", help="evaluate the normalized value")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("hankel", help="Hankel matrix, determinant, closed form")
    add_mr(p)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    add_qeval(p)
    p.set_defaults(fn=cmd_hankel)

    p = sub.add_parser("verify", help="run an identity verification suite")
    p.add_argument("--suite", choices=verify.SUITES, required=True)
    p.add_argument("--grid", default=None, help="JSON grid config file")
    p.set_defaults(fn=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every main() call shares, built on the first call rather
    than at import, so importing the module stays cheap."""
    return build_parser()


def _max_degree(args) -> int:
    """The largest degree the polynomials of a request may reach.

    For verify this is ``verify.max_degree`` of its suite and grid
    (``args.grid`` holds the grid document).  A hankel request with a
    negative s or n is refused here, by HankelSpec.
    """
    if args.command == "verify":
        return verify.max_degree(args.suite, args.grid)
    if args.command == "hankel":
        return degree_bound(HankelSpec(_params(args), args.s, args.n))
    p = _params(args)
    row = args.nmax if args.command == "table" else args.n
    # A negative nmax is refused later, by the table command itself.
    return row_degree(p.m, p.r, max(row, 0))


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        # argparse prints --help itself, to sys.stdout
        with contextlib.redirect_stdout(out):
            args = _parser().parse_args(
                _bind_negative_q(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        if hasattr(args, "n") and args.command != "hankel" and args.n < 0:
            raise ValueError("n must be >= 0")
        if hasattr(args, "k") and args.k < 0:
            raise ValueError("k must be >= 0")
        if args.command == "verify":
            args.grid = _read_grid(args.grid)
        degree = _max_degree(args)
        if degree > MAX_DEGREE:
            raise ValueError(f"request too large: its polynomials may reach "
                             f"degree {degree}, over the limit MAX_DEGREE = "
                             f"{MAX_DEGREE}")
        return args.fn(args, out)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonExactDivision, InternalNonLaurent, DivisionByZero) as exc:
        # a broken invariant of the library, not a failed identity
        print(f"error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
