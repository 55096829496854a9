"""Identity verification suites.

Each suite sweeps a parameter grid and cross-checks two or more independent
computation routes; a failed cell records its witnessing parameters and any
two mismatched polynomials.  Grids default to the ranges each identity is
claimed to have been checked on, and can be overridden from a JSON config.

``run_suite`` reads a request once and is its only gate: before any suite
starts it checks the grid, reads its qvals, bounds the tableau total,
refuses a grid whose polynomials may reach a degree over
``whitney.MAX_DEGREE``, and bounds the horizontal generating function's
work, from the CLI and from Python alike.  Each suite takes the completed
grid and keeps only its cells.  A suite counts them per identity in bulk,
by the size of each family's grid (``SuiteResult.add``), and builds a
cell's parameter dict, ``str(q)`` and side texts only when that cell
fails (``SuiteResult.fail``), in cell order: a passing cell costs its
comparison alone.  The recurrences, explicit, genfun and symmetric
suites read W, and W* by one shift, from one ``whitney.w_table`` per
(m, r); the genfun suite's reaches the largest of its three row bounds
and serves its EGF and horizontal cells too.  A suite builds the
inputs its routes and checks share, and no route or check builds them
itself: per (m, r) the explicit suite's normalizers, and its q-Pascal
rows and values of [x+r]_q^n at the nodes x = jm, rolled with n as
integers at one point by shifts and adds, every column
generating function and h_complete cell from one pass of
symm.h_prefixes, every EGF cell from one series.egf_check, and the
vertical, horizontal and tableau cells from one pass per column, row or
walk, read in (n, k) order.  The horizontal generating function's row
values and powers of [t]_q enter as integer parts, built once per (n, q)
or (t, q), and its falling factors' [x]_q once per q; each cell sums its
row against them by Horner's rule (``series.horizontal_gf_check``).
The explicit suite calls both forms of the q-difference operator
(``qcalculus``) on integers at one point q = 2^B per (m, r), B the
largest ``qcalculus.alternating_bound`` of its columns (the EGF check's
bound), and multiplies out: the alternating sum, whose terms for column
k are formed once at n = k and rolled with n, and the Newton head of
each cell are compared there with W times the normalizer of its column,
and only a failed cell reads its side back as a polynomial and divides,
for its side texts, so a division that leaves a remainder is a failed
cell, not an error.  The convolution cells read W* tables built
once per (m, r), each cell compared as integers at one point
(``symm.convolution_check``), as the EGF cells are
(``series.egf_check``).  The hankel suite builds each
(m, r, s) family's largest matrix, its determinants of every order (one
elimination), and its closed forms (one prefix product) once; the L*U
check (one product) and the classical check (one integer elimination of
the matrix's q=1 image) each return a verdict per order.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from operator import mul
from types import SimpleNamespace

from . import hankel as hk
from . import qcalculus, series, symm
from .qcore import (ONE, ZERO, NonExactDivision, laurent_div_q_ints,
                    mul_q_int_at_point, pack_at_point, q_int,
                    unpack_at_point)
from .whitney import (WhitneyParams, check_degree, horizontal_pass,
                      normalizer_factors, row_degree, vertical_pass, w_table)

SUITES = ("recurrences", "explicit", "genfun", "symmetric", "convolution",
          "hankel", "all")

DEFAULT_GRID = {
    "m": [1, 2, 3],
    "r": [0, 1, 2],
    "nmax": 9,
    "nmax_tableau": 8,
    "nmax_genfun": 12,
    "nmax_egf": 10,
    "nmax_horizontal": 8,
    "kmax_genfun": 5,
    "t": list(range(-3, 13)),
    "qvals": ["2", "1/2", "3/5", "-2"],
    "nmax_conv": 6,
    "spmax_conv": 5,
    "smax_hankel": 3,
    "nmax_hankel": 4,
}


Failure = namedtuple("Failure", "params identity lhs rhs")
Failure.__doc__ = "A failed cell: its parameters, identity and two sides."


class SuiteResult(SimpleNamespace):
    """A suite's name, its cell count per identity (``counts``) and its
    failed cells, compared by all three; ``cells`` is the sum of the
    counts.  A namespace, not a dataclass, for the reason given at
    ``whitney.WhitneyParams``."""

    def __init__(self, suite: str):
        super().__init__(suite=suite, counts={}, failures=[])

    @property
    def cells(self) -> int:
        return sum(self.counts.values())

    @property
    def ok(self) -> bool:
        return not self.failures

    def add(self, identity: str, cells: int) -> None:
        """Count `cells` more cells of `identity`, passed or failed."""
        self.counts[identity] = self.counts.get(identity, 0) + cells

    def fail(self, params: dict, identity: str, lhs="", rhs="") -> None:
        """Record a failed cell, which ``add`` counts, with the texts of its
        two sides."""
        self.failures.append(Failure(params, identity, str(lhs), str(rhs)))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# The decimal exponent of a q written in scientific notation.
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*$")


def read_q(text: str, printable: bool = False) -> Fraction:
    """The nonzero rational q that text writes, as ``--q``, ``--q-eval`` and
    a grid's qvals read it; ValueError with the reason otherwise.  A
    printable q must also convert to text (a grid's q names its cells).

    Fraction("1e99999999") builds 10^99999999, which takes minutes.  A q
    whose exponent is over the digit limit of int-to-text conversion has
    more digits than that limit, so it is refused before.
    """
    exp = _EXPONENT.search(text)
    limit = sys.get_int_max_str_digits()
    too_long = (f"q has over {limit} digits, more than the interpreter "
                f"converts to text")
    try:
        q = (None if exp and limit and abs(int(exp[1])) > limit
             else Fraction(text))
    except ValueError:
        # int and Fraction refuse a part of over `limit` digits as they
        # refuse text that is not a number.
        if limit and sum(map(str.isdigit, text)) > limit:
            raise ValueError(too_long) from None
        raise ValueError(f"q must be a rational number such as 3/5, -2 or "
                         f"0.25, not {text!r}") from None
    except ZeroDivisionError:
        raise ValueError("q has a zero denominator") from None
    if q is None:
        raise ValueError(f"q has a decimal exponent over {limit}, more "
                         f"digits than the interpreter converts to text")
    if q == 0:
        raise ValueError("q must be nonzero")
    if printable:
        try:
            str(q)
        except ValueError:
            raise ValueError(too_long) from None
    return q


def _list_of(ok, nonempty=False):
    return lambda value: (isinstance(value, list) and all(map(ok, value))
                          and (bool(value) or not nonempty))


# Grid key -> (check on its value, what the check asks for).  Keys not
# listed here take a non-negative int.  An empty m or r list would run no
# cell and pass every suite; empty t and qvals only narrow the genfun grid.
_GRID_CHECKS = {
    "m": (_list_of(lambda x: _is_int(x) and x >= 1, nonempty=True),
          "a non-empty list of ints >= 1"),
    "r": (_list_of(lambda x: _is_int(x) and x >= 0, nonempty=True),
          "a non-empty list of ints >= 0"),
    "t": (_list_of(_is_int), "a list of ints"),
    "qvals": (_list_of(lambda x: isinstance(x, str)),
              'a list of nonzero rational strings such as "3/5"'),
}
_COUNT_CHECK = (lambda x: _is_int(x) and x >= 0, "a non-negative int")


def _check_grid(grid) -> dict:
    """DEFAULT_GRID updated by `grid` (by nothing for None), its qvals read
    as Fractions.  Raises ValueError naming the first key of `grid` that is
    not a key of DEFAULT_GRID or whose value has the wrong type or range."""
    if grid is None:
        grid = {}
    elif not isinstance(grid, dict):
        raise ValueError("grid must be a JSON object")
    g = dict(DEFAULT_GRID)
    # qvals keeps its place among the keys of grid, or is read last
    for key, value in {**grid, "qvals": grid.get("qvals", g["qvals"])}.items():
        if key not in DEFAULT_GRID:
            raise ValueError(f"grid key {key!r} is unknown; known keys: "
                             + ", ".join(DEFAULT_GRID))
        ok, wanted = _GRID_CHECKS.get(key, _COUNT_CHECK)
        if not ok(value):
            raise ValueError(f"grid key {key!r} must be {wanted}")
        if key == "qvals":
            try:
                value = [read_q(text, printable=True) for text in value]
            except ValueError as exc:
                raise ValueError(f"grid key 'qvals': {exc}") from None
        g[key] = value
    return g


def _families(g):
    """Each (m, r) of grid `g`: its WhitneyParams and the params its cells
    name."""
    for m in g["m"]:
        for r in g["r"]:
            yield WhitneyParams(m, r), {"m": m, "r": r}


def _triangle_cells(nmax: int) -> int:
    """The cells (n, k), 0 <= k <= n <= nmax, of a triangle."""
    return (nmax + 1) * (nmax + 2) // 2


def suite_recurrences(g: dict) -> SuiteResult:
    """Vertical and horizontal recurrences against the triangular route."""
    res = SuiteResult("recurrences")
    nmax = g["nmax"]
    for p, base in _families(g):
        # W[n,k] is vertical[k-1][n-k] and horizontal[n][k]
        vertical = [vertical_pass(p, k, nmax - 1) for k in range(nmax)]
        horizontal = [horizontal_pass(p, n) for n in range(nmax + 1)]
        for n, row in enumerate(w_table(p, nmax)):
            for k, expected in enumerate(row):
                if n and k and vertical[k - 1][n - k] != expected:
                    res.fail({**base, "n": n, "k": k}, "vertical",
                             vertical[k - 1][n - k], expected)
                if horizontal[n][k] != expected:
                    res.fail({**base, "n": n, "k": k}, "horizontal",
                             horizontal[n][k], expected)
        res.add("vertical", _triangle_cells(nmax - 1))
        res.add("horizontal", _triangle_cells(nmax))
    return res


def suite_explicit(g: dict) -> SuiteResult:
    """Explicit q-difference formula and Newton coefficients vs recurrence.

    Per (m, r) both forms of the q-difference operator read the values
    V_j^n = [jm+r]_q^n at the nodes x = jm, j <= n; the alternating sum
    reads row k of the q-Pascal triangle in base q^m too.  Each cell
    multiplies out: the alternating sum and the Newton head of column k
    must equal W[n,k] times the normalizer [k]_{q^m}! [m]_q^k =
    prod_{j<=k} [jm]_q (``norms[k]``, each one q-integer product from the
    last), which holds exactly when their quotients are W.

    Every side is an integer at one point q = X = 2^B, B set by the
    largest ``qcalculus.alternating_bound`` of columns 0..nmax, each over
    rows 0..nmax, so a cell passes exactly when its polynomials are
    equal.  The normalizers are packed once per (m, r)
    (``qcore.pack_at_point``), and each W once; a W with a negative
    exponent, which no W has, packs as None and fails both its cells.
    The values start at 1 and are rolled row by row, each times [jm+r]_X
    (``qcore.mul_q_int_at_point``, shifts and adds), and the q-Pascal
    row is built from the row above (``qcalculus.q_binomial_row``, shifted
    additions).  Column k's terms of the alternating sum
    (``qcalculus.q_binomial_terms``) are formed once, at n = k, and rolled
    like the values, term j times [jm+r]_X; cell (n, k) adds them up.  The
    Newton heads of row n are one pass over its values
    (``qcalculus.q_diff_heads``).  Only a failed cell reads its side back
    as a polynomial (``qcore.unpack_at_point``) and divides, for its side
    texts: the quotient and W, or, where the division leaves a remainder,
    the sum or head and W times the normalizer.
    """
    res = SuiteResult("explicit")
    nmax = g["nmax"]
    for p, base in _families(g):
        table = w_table(p, nmax)
        norms = list(accumulate(map(q_int, normalizer_factors(p, nmax)), mul,
                                initial=ONE))
        bound = max(qcalculus.alternating_bound(
            p, [row[k] if k < len(row) else ZERO for row in table], k)
            for k in range(nmax + 1))
        bits, norms_x = pack_at_point(bound, norms)
        nodes = [j * p.m + p.r for j in range(nmax + 1)]
        values, binoms, columns = [1] * (nmax + 1), [], []
        for n, row in enumerate(table):
            if n:
                values = [mul_q_int_at_point(v, a, bits)
                          for v, a in zip(values, nodes)]
                columns = [[mul_q_int_at_point(t, a, bits)
                            for t, a in zip(terms, nodes)]
                           for terms in columns]
            binoms = qcalculus.q_binomial_row(binoms, p.m, bits)
            columns.append(qcalculus.q_binomial_terms(values[:n + 1], p.m,
                                                      binoms, bits))
            heads = qcalculus.q_diff_heads(values[:n + 1], p.m, bits)
            row_x = pack_at_point(bound, row)[1]
            for k, (expected, x) in enumerate(zip(row, row_x)):
                target = None if x is None else x * norms_x[k]
                for identity, got in (("explicit", sum(columns[k])),
                                      ("newton", heads[k])):
                    if got != target:
                        res.fail({**base, "n": n, "k": k}, identity,
                                 *_failed_sides(
                                     p, k, unpack_at_point(bits, got),
                                     expected, norms[k]))
        res.add("explicit", _triangle_cells(nmax))
        res.add("newton", _triangle_cells(nmax))
    return res


def _failed_sides(params, k: int, got, expected, norm) -> tuple:
    """The two sides a failed explicit or Newton cell of column k reports:
    ``got`` over the normalizer ``norm`` and W, or, where that division
    leaves a remainder, ``got`` and W times the normalizer."""
    try:
        return laurent_div_q_ints(got, normalizer_factors(params, k)), expected
    except NonExactDivision:
        return got, expected * norm


def suite_genfun(g: dict) -> SuiteResult:
    """Rational GF, EGF, and the horizontal generating function."""
    res = SuiteResult("genfun")
    qvals, nh = g["qvals"], g["nmax_horizontal"]
    # [t]_q^n does not depend on (m, r); tables are indexed [t][q]
    powers = [[series.horizontal_powers(t, qv, nh) for qv in qvals]
              for t in g["t"]]
    # [x]_q at each q for every x = t - r - jm, j < nh, the grid reads
    xs = {t - r - j * m for t in g["t"] for m in g["m"] for r in g["r"]
          for j in range(nh)}
    q_ints = [series.q_int_parts(qv, xs) for qv in qvals]
    nmax, negf = g["nmax_genfun"], g["nmax_egf"]
    kmax = min(g["kmax_genfun"], nmax)
    for p, base in _families(g):
        table = w_table(p, max(nmax, negf, nh))
        for k, psi in enumerate(series.rational_gf_columns(p, kmax, nmax)):
            for n, row in enumerate(table[:nmax + 1]):
                expected = row[k] if k <= n else ZERO
                if psi[n] != expected:
                    res.fail({**base, "n": n, "k": k}, "rational_gf", psi[n],
                             expected)
        res.add("rational_gf", (kmax + 1) * (nmax + 1))
        egf = series.egf_check(p, table[:negf + 1],
                               min(g["kmax_genfun"], negf))
        for k, column in enumerate(egf):
            res.add("egf", len(column))
            for n, ok in enumerate(column):
                if not ok:
                    res.fail({**base, "n": n, "k": k}, "egf")
        for n in range(nh + 1):
            rows = [series.horizontal_row(table[n], qv) for qv in qvals]
            for t, t_powers in zip(g["t"], powers):
                for qv, row, ints, pw in zip(qvals, rows, q_ints, t_powers):
                    if not series.horizontal_gf_check(p, t, row, ints, pw[n]):
                        res.fail({**base, "n": n, "t": t, "q": str(qv)},
                                 "horizontal_gf")
        res.add("horizontal_gf", (nh + 1) * len(g["t"]) * len(qvals))
    return res


def _check_tableau_total(g: dict) -> int:
    """The symmetric suite's tableaux on grid `g`: |m| |r| (2^(N+1) - 1) at
    N = nmax_tableau, C(N+1, N-k) per walk (m, r, k).  Raises
    symm.EnumerationTooLarge when that is over symm.DEFAULT_ENUMERATION_CAP."""
    cells, N = len(g["m"]) * len(g["r"]), g["nmax_tableau"]
    cap = symm.DEFAULT_ENUMERATION_CAP
    # N comes from outside: far over the cap, name the total by its formula
    if cells and N > 2 * cap.bit_length():
        raise symm.EnumerationTooLarge(
            f"{cells} * (2^{N + 1} - 1) tableaux exceeds cap {cap}")
    count = cells and cells * (2 ** (N + 1) - 1)
    if count > cap:
        raise symm.EnumerationTooLarge(f"{count} tableaux exceeds cap {cap}")
    return count


# The most horizontal generating function work, in squared bits, that
# run_suite admits, and the fixed cost of one cell.  Fitted to the sweep in
# CHANGES.md (2-vCPU Xeon, CPython 3.11): a unit took 0.5-1.5 ps on every
# grid of over 10^12 units, so a request at the budget takes 15-45 s.
GENFUN_WORK_BUDGET = 3 * 10 ** 13
GENFUN_CELL_WORK = 10 ** 6


def _check_genfun_work(g: dict) -> int:
    """The genfun suite's horizontal generating function work on grid `g`,
    in squared bits: per (t, q), (nmax_horizontal + 1) |m| |r| cells, each
    GENFUN_CELL_WORK plus a product of integers of about (|t| + D) b and
    (nmax_horizontal |t| + D) b bits, the largest of the top row's Horner
    sum, where D is the top degree of row nmax_horizontal at the largest
    m and r and b adds the bit lengths of q's numerator and denominator.
    Raises ValueError when that is over GENFUN_WORK_BUDGET."""
    nh = g["nmax_horizontal"]
    rows = (nh + 1) * len(g["m"]) * len(g["r"])
    degree = row_degree(max(g["m"]), max(g["r"]), nh)
    bits = [q.numerator.bit_length() + q.denominator.bit_length()
            for q in g["qvals"]]
    cells = rows * len(g["t"]) * len(bits)
    sizes = sum((abs(t) + degree) * (nh * abs(t) + degree) for t in g["t"])
    work = rows * sizes * sum(b * b for b in bits) + cells * GENFUN_CELL_WORK
    if work > GENFUN_WORK_BUDGET:
        raise ValueError(
            f"request too large: {cells} horizontal generating function "
            f"cells are {work} units of work, over the budget "
            f"GENFUN_WORK_BUDGET = {GENFUN_WORK_BUDGET}")
    return work


def suite_symmetric(g: dict) -> SuiteResult:
    """Symmetric-function and tableau routes against the normalized values."""
    res = SuiteResult("symmetric")
    nmax = g["nmax_tableau"]
    for p, base in _families(g):
        # entry n-k of row k of either is W*[n,k]
        h_rows = list(symm.h_prefixes(symm.whitney_values(p, nmax), nmax))
        walks = [symm.tableau_walk(p, k, nmax - k) for k in range(nmax + 1)]
        shifts = [-row_degree(p.m, p.r, k) for k in range(nmax + 1)]
        for n, row in enumerate(w_table(p, nmax)):
            for k, x in enumerate(row):
                expected = x.shift(shifts[k])
                if h_rows[k][n - k] != expected:
                    res.fail({**base, "n": n, "k": k}, "h_complete",
                             h_rows[k][n - k], expected)
                if walks[k][n - k] != expected:
                    res.fail({**base, "n": n, "k": k}, "tableau",
                             walks[k][n - k], expected)
        res.add("h_complete", _triangle_cells(nmax))
        res.add("tableau", _triangle_cells(nmax))
    return res


def suite_convolution(g: dict) -> SuiteResult:
    """The two convolution-type identities for the normalized values."""
    res = SuiteResult("convolution")
    nmax, sp = g["nmax_conv"], g["spmax_conv"]
    for p, base in _families(g):
        tables = symm.convolution_tables(p, nmax, sp)
        counts, failed = symm.convolution_check(*tables, nmax, sp)
        for identity, cells in counts.items():
            res.add(identity, cells)
        for identity, cell in failed:
            res.fail({**base, **cell}, identity)
    return res


def suite_hankel(g: dict) -> SuiteResult:
    """Hankel transform, LU factorization, and classical q=1 corollary."""
    res = SuiteResult("hankel")
    nmax = g["nmax_hankel"]
    for p, base in _families(g):
        for s in range(g["smax_hankel"] + 1):
            # every order's matrix, determinant and L*U product is a
            # leading block of the largest one's, and its closed form an
            # entry of one prefix product
            family = hk.HankelSpec(p, s, nmax)
            rows = hk.hankel_matrix(family)
            closed = hk.hankel_closed_forms(family)
            dets = hk.leading_dets(rows, closed)
            verdicts = {
                "hankel_transform": [det == form for det, (form, _)
                                     in zip(dets, closed)],
                "lu_factorization": hk.lu_check(family, rows, dets),
                "classical_hankel": hk.classical_hankel_check(family, rows),
            }
            for n in range(nmax + 1):
                for identity, ok in verdicts.items():
                    if not ok[n]:
                        res.fail({**base, "s": s, "n": n}, identity)
            for identity in verdicts:
                res.add(identity, nmax + 1)
    return res


_SUITE_FUNCS = {
    "recurrences": suite_recurrences,
    "explicit": suite_explicit,
    "genfun": suite_genfun,
    "symmetric": suite_symmetric,
    "convolution": suite_convolution,
    "hankel": suite_hankel,
}


def _max_degree(names, g: dict) -> int:
    """The largest degree the polynomials of the suites `names` may reach
    on the completed grid `g`, at its largest m and r: per suite that of
    the largest triangle row n it reads or of its weight [mn+r]_q, or,
    where larger, what it builds apart from the rows: genfun's [t]_q and
    [t-r-jm]_q, j < nmax_horizontal, the explicit suite's values
    [m nmax + r]_q^nmax, and the hankel suite's minors and elimination
    steps (``hankel.degree_bound`` of its largest family)."""
    m, r = max(g["m"]), max(g["r"])

    def row(n):
        return max(row_degree(m, r, n), m * n + r - 1)

    # The recurrences suite's horizontal route reads row n+1; the
    # convolution suite reads rows n+1 and s+p.
    degrees = {
        "recurrences": row(g["nmax"] + 1),
        # [m nmax + r]_q^nmax, the largest value, has the degree of W[nmax,
        # nmax] times its normalizer
        "explicit": g["nmax"] * (m * g["nmax"] + r - 1),
        "genfun": max(row(max(g["nmax_genfun"], g["nmax_egf"],
                              g["nmax_horizontal"])),
                      max(map(abs, g["t"]), default=0) + r
                      + m * g["nmax_horizontal"]),
        "symmetric": row(g["nmax_tableau"]),
        "convolution": row(max(g["nmax_conv"] + 1, 2 * g["spmax_conv"])),
        "hankel": hk.degree_bound(hk.HankelSpec(
            WhitneyParams(m, r), g["smax_hankel"], g["nmax_hankel"])),
    }
    return max(degrees[s] for s in names)


def run_suite(name: str, grid: dict = None) -> list:
    """Run one suite (or all) on one reading of grid: a SuiteResult each.
    Before the first starts, raises KeyError for an unknown suite,
    ValueError for a bad grid, one over ``whitney.check_degree`` or a
    genfun suite over GENFUN_WORK_BUDGET, and symm.EnumerationTooLarge for
    a symmetric suite over the tableau cap."""
    if name != "all" and name not in _SUITE_FUNCS:
        raise KeyError(f"unknown suite {name!r}")
    names = list(_SUITE_FUNCS) if name == "all" else [name]
    g = _check_grid(grid)
    if "symmetric" in names:
        _check_tableau_total(g)
    check_degree(_max_degree(names, g))
    if "genfun" in names:
        _check_genfun_work(g)
    return [_SUITE_FUNCS[s](g) for s in names]
