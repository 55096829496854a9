"""Command-line front door.

Subcommands: table, value, star, dowling, hankel, verify, eval.  Laurent
polynomial values are emitted as sorted [exponent, coefficient-string]
pairs, so output is bit-identical across runs.  Each value is rendered
straight to JSON text (``LaurentPoly.to_json``) and every document is
composed from those texts; the bytes are those of ``json.dumps`` on the
pair lists.  Exit codes: 0 success or all identities pass, 1 identity
failure, 2 usage error, 3 internal arithmetic error (an exact division
that left a remainder or a division by zero: a bug in the library,
reported in one line, never as an identity failure).

``main(argv, out=...)`` may be called many times in one process: the
argparse parser is built on the first call and reused, since a parse keeps
no state in it.  A canonical argv (a subcommand, then each option at most
once, spelled in full, as ``--name value`` or ``--name=value`` or a bare
flag, with valid values and every required option) is parsed by
``_strict_parse`` straight from that parser's Actions, a few times faster
than argparse; argparse parses every other argv, so help, abbreviations,
repeated options and every usage error are its own.  Everything but error
messages, ``--help`` text included, goes to ``out``.  ``main`` only
parses and dispatches; each command sizes what it serves, and a request
whose polynomials could reach a degree above ``whitney.MAX_DEGREE`` is
refused with exit 2 before any ring work (``whitney.check_degree``; for
``verify``, by ``verify.run_suite`` over the suites it runs).  So is an
exact value at q with more digits than the interpreter converts to text,
before anything is written, and a q whose decimal exponent is over that
digit limit, before it is read.
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
from .whitney import (WhitneyParams, check_degree, r_dowling, row_degree, w,
                      w_star, w_table)


def _params(args, row: int, *counts: str) -> WhitneyParams:
    """WhitneyParams(m, r) of a request whose largest row is `row`, once
    the options named in `counts` are >= 0; check_degree sizes the row."""
    for name in counts:
        if getattr(args, name) < 0:
            raise ValueError(f"{name} must be >= 0")
    p = WhitneyParams(args.m, args.r)
    # A negative nmax is refused later, by w_table.
    check_degree(row_degree(p.m, p.r, max(row, 0)))
    return p


def _parse_q(text: str) -> Fraction:
    # argparse prints the message of an ArgumentTypeError; of any other
    # error it prints only "invalid _parse_q value", so every refusal
    # here is one.
    try:
        return verify.read_q(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_NEGATIVE = re.compile(r"-[0-9.]")


def _bind_negative_q(argv):
    """Join `--q -3/5` into `--q=-3/5`.

    argparse only recognises integers and decimals as negative numbers, so it
    would read a negative fraction after --q or --q-eval as an option.  The
    same holds after each abbreviation of --q-eval (--q- to --q-eva), which
    argparse accepts.
    """
    out = []
    for token in argv:
        if (out and out[-1].startswith("--q") and "--q-eval".startswith(out[-1])
                and _NEGATIVE.match(token)):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _surely_too_long(value: LaurentPoly, q: Fraction, limit: int) -> bool:
    """Whether the value at q = a/b (lowest terms) has a numerator or
    denominator of more than ``limit`` digits by a bound read from bit
    lengths alone, for exponents 0 <= lo <= hi and top coefficient c.  The
    reduced denominator is at least (b/|c|)^hi: the resultant of the
    value's binary form with Y^hi is c^hi, so at most |c|^hi of b^hi
    cancels.  When |q| >= sum |c_i|, the numerator is at least |q|^(hi-1).
    Either over 2^bits, bits = ceil(3.322 limit), is over 10^limit."""
    coeffs = value.coeffs
    if not (limit and coeffs) or value.min_exp() < 0:
        return False
    hi, a, b = value.max_exp(), abs(q.numerator), q.denominator
    bits = (3322 * limit + 999) // 1000
    return (hi * (b.bit_length() - 1 - abs(coeffs[-1]).bit_length()) >= bits
            or ((hi - 1) * (a.bit_length() - 1 - b.bit_length()) >= bits
                and a >= sum(map(abs, coeffs)) * b))


def _value_at(value: LaurentPoly, q) -> str:
    """The exact value at q as text, refused as too large when it has more
    digits than the interpreter converts to text; a value that surely has
    is refused before it is evaluated.  The refusal names q when its text
    is at most 40 characters, gives its digit count when the text is
    longer, and leaves q out when q itself does not convert."""
    limit = sys.get_int_max_str_digits()
    if not _surely_too_long(value, q, limit):
        try:
            return str(value.eval(q))
        except ValueError:
            pass
    try:
        text = str(q)
    except ValueError:
        where = ""
    else:
        where = (f" at q = {text}" if len(text) <= 40 else
                 f" at a q of {sum(map(str.isdigit, text))} digits")
    raise ValueError(f"request too large: its value{where} has more than "
                     f"{limit} digits")


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
    table = w_table(_params(args, args.nmax), args.nmax)
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
    p = _params(args, args.n, "n", "k")
    print(_render(w(p, args.n, args.k), args.q_eval), file=out)
    return 0


def cmd_star(args, out) -> int:
    p = _params(args, args.n, "n", "k")
    print(_render(w_star(p, args.n, args.k), args.q_eval), file=out)
    return 0


def cmd_dowling(args, out) -> int:
    p = _params(args, args.n, "n")
    print(_render(r_dowling(p, args.n), args.q_eval), file=out)
    return 0


def cmd_eval(args, out) -> int:
    p = _params(args, args.n, "n", "k")
    value = (w_star if args.star else w)(p, args.n, args.k)
    print(_value_at(value, args.q), file=out)
    return 0


def cmd_hankel(args, out) -> int:
    spec = HankelSpec(WhitneyParams(args.m, args.r), args.s, args.n)
    check_degree(degree_bound(spec))
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
    limit = sys.get_int_max_str_digits()

    def parse_int(text):
        # int() refuses such a literal with the interpreter's own advice
        if limit and len(text.lstrip("-")) > limit:
            raise ValueError(f"grid file {path} has an integer of over "
                             f"{limit} digits, more than the interpreter "
                             f"converts from text")
        return int(text)

    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=parse_int)
        except RecursionError:
            raise ValueError(f"grid file {path} is nested too deeply") from None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"grid file {path}: {exc}") from None


def cmd_verify(args, out) -> int:
    results = verify.run_suite(args.suite, _read_grid(args.grid))
    all_ok = True
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        print(f"{res.suite}: {status} ({res.cells - len(res.failures)}/{res.cells} cells)",
              file=out)
        all_ok = all_ok and res.ok
    report = {"suite": args.suite,
              "cells": sum(r.cells for r in results),
              "failures": [f._asdict() for r in results for f in r.failures]}
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


def _strict_parse(parser: argparse.ArgumentParser, argv):
    """The Namespace ``parser.parse_args(argv)`` returns, when argv is a
    canonical request; None for any other argv, which is left to argparse.

    Canonical: a subcommand name, then each of its options at most once,
    spelled in full, as ``--name value`` (a value not starting with "-")
    or ``--name=value``, or as a bare flag; every value passes the
    option's type and choices, and every required option is given.  All
    of it is read from the Actions of ``build_parser``, so an option is
    declared in one place.  Help, abbreviations, repeats, ``--`` and every
    error take argparse, which alone prints.
    """
    commands = next(a for a in parser._actions if a.dest == "command")
    sub = commands.choices.get(argv[0]) if argv else None
    if sub is None:
        return None
    # -h and --help suppress their default, so they are not looked up here
    actions = [a for a in sub._actions if a.default is not argparse.SUPPRESS]
    options = {s: a for a in actions for s in a.option_strings}
    values = {a.dest: a.default for a in actions}
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, text = token.partition("=")
        action = options.get(name)
        if action is None or action in seen:
            return None
        seen.add(action)
        if action.nargs == 0:
            if eq:
                return None
            values[action.dest] = action.const
            continue
        if not eq:
            # a missing value is declined like one that starts with "-"
            text = next(tokens, "-")
            if text.startswith("-"):
                return None
        elif text == "--":
            # argparse before Python 3.13 reads --name=-- as an empty list
            return None
        try:
            value = action.type(text) if action.type else text
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if any(a.required and a not in seen for a in actions):
        return None
    return argparse.Namespace(command=argv[0], **values,
                              fn=sub.get_default("fn"))


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    argv = _bind_negative_q(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    args = _strict_parse(parser, argv)
    if args is None:
        try:
            # argparse prints --help itself, to sys.stdout
            with contextlib.redirect_stdout(out):
                args = parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code if exc.code is not None else 2
    try:
        if any(isinstance(v, list) for v in vars(args).values()):
            # argparse before Python 3.13 reads --name=-- as an empty list
            raise ValueError("an option's value may not be --")
        return args.fn(args, out)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NonExactDivision, DivisionByZero) as exc:
        # a broken invariant of the library, not a failed identity
        print(f"error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    except MemoryError:  # input the gates let through, not a failed identity
        print("error: request too large: out of memory", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
