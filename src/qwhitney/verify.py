"""Identity verification suites.

Each suite sweeps a parameter grid and cross-checks two or more independent
computation routes; a cell failure records the witnessing parameters and the
two mismatched values.  Grids default to the ranges each identity is claimed
to have been checked on, and can be overridden from a JSON config.

A suite builds the inputs its routes and checks share, and no route or
check builds them itself: per (m, r) the power table and q-Pascal rows of
qcalculus.RouteValues, and every column generating function from one pass
of symm.h_prefixes.  The horizontal generating function's row values,
falling factors and powers of [t]_q enter as integer parts, each built
once per (n, q) or (t, q).  The hankel suite builds each (m, r, s)
family's largest matrix, its determinants of every order (one
elimination), its closed forms of every order (one prefix product) and
its L*U product once, and each order reads its leading block.  The
tableau total is bounded before any suite of a request starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import hankel as hk
from . import qcalculus, series, symm
from .whitney import (WhitneyParams, row_degree, w, w_horizontal, w_star,
                      w_vertical)

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


@dataclass
class Failure:
    params: dict
    identity: str
    lhs: str
    rhs: str

    def to_json(self) -> dict:
        return {"params": self.params, "identity": self.identity,
                "lhs": self.lhs, "rhs": self.rhs}


@dataclass
class SuiteResult:
    suite: str
    cells: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, condition: bool, params: dict, identity: str,
              lhs="", rhs=""):
        self.cells += 1
        if not condition:
            self.failures.append(Failure(params, identity, str(lhs), str(rhs)))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _nonzero_rational(x) -> bool:
    try:
        return isinstance(x, str) and Fraction(x) != 0
    except (ValueError, ZeroDivisionError):
        return False


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
    "qvals": (_list_of(_nonzero_rational),
              'a list of nonzero rational strings such as "3/5"'),
}
_COUNT_CHECK = (lambda x: _is_int(x) and x >= 0, "a non-negative int")


def _check_grid(grid) -> None:
    """Raise ValueError naming the first key of `grid` that is not a key of
    DEFAULT_GRID or whose value has the wrong type or range."""
    if not isinstance(grid, dict):
        raise ValueError("grid must be a JSON object")
    for key, value in grid.items():
        if key not in DEFAULT_GRID:
            raise ValueError(f"grid key {key!r} is unknown; known keys: "
                             + ", ".join(DEFAULT_GRID))
        ok, wanted = _GRID_CHECKS.get(key, _COUNT_CHECK)
        if not ok(value):
            raise ValueError(f"grid key {key!r} must be {wanted}")


def _grid(overrides: dict = None) -> dict:
    g = dict(DEFAULT_GRID)
    if overrides is not None:
        _check_grid(overrides)
        g.update(overrides)
    return g


def _param_cells(g):
    return [WhitneyParams(m, r) for m in g["m"] for r in g["r"]]


def suite_recurrences(grid: dict = None) -> SuiteResult:
    """Vertical and horizontal recurrences against the triangular route."""
    g = _grid(grid)
    res = SuiteResult("recurrences")
    for p in _param_cells(g):
        base = {"m": p.m, "r": p.r}
        for n in range(g["nmax"] + 1):
            for k in range(n + 1):
                expected = w(p, n, k)
                if n >= 1 and k >= 1:
                    got = w_vertical(p, n - 1, k - 1)
                    res.check(got == expected, {**base, "n": n, "k": k},
                              "vertical", got, expected)
                got = w_horizontal(p, n, k)
                res.check(got == expected, {**base, "n": n, "k": k},
                          "horizontal", got, expected)
    return res


def suite_explicit(grid: dict = None) -> SuiteResult:
    """Explicit q-difference formula and Newton coefficients vs recurrence."""
    g = _grid(grid)
    res = SuiteResult("explicit")
    for p in _param_cells(g):
        base = {"m": p.m, "r": p.r}
        shared = qcalculus.RouteValues.build(p, g["nmax"], g["nmax"])
        for n in range(g["nmax"] + 1):
            newton = qcalculus.newton_coefficients(shared, n)
            for k in range(n + 1):
                expected = w(p, n, k)
                got = qcalculus.whitney_explicit(shared, n, k)
                res.check(got == expected, {**base, "n": n, "k": k},
                          "explicit", got, expected)
                res.check(newton[k] == expected, {**base, "n": n, "k": k},
                          "newton", newton[k], expected)
    return res


def suite_genfun(grid: dict = None) -> SuiteResult:
    """Rational GF, EGF, and the horizontal generating function."""
    g = _grid(grid)
    res = SuiteResult("genfun")
    qvals = [Fraction(s) for s in g["qvals"]]
    for p in _param_cells(g):
        base = {"m": p.m, "r": p.r}
        nmax = g["nmax_genfun"]
        columns = series.rational_gf_columns(p, min(g["kmax_genfun"], nmax),
                                             nmax)
        for k, psi in enumerate(columns):
            for n in range(nmax + 1):
                expected = w(p, n, k)
                res.check(psi[n] == expected, {**base, "n": n, "k": k},
                          "rational_gf", psi[n], expected)
        negf = g["nmax_egf"]
        kmax = min(g["kmax_genfun"], negf)
        shared = qcalculus.RouteValues.build(p, negf, kmax)
        for k in range(kmax + 1):
            norm = qcalculus.normalizer(p, k)
            for n in range(negf + 1):
                # the z^n coefficient e / ([n]_q! norm) must equal
                # W[n,k] / [n]_q!; [n]_q! is nonzero and cancels
                e = qcalculus.whitney_numerator(shared, n, k)
                expected = w(p, n, k)
                res.check(e == expected * norm, {**base, "n": n, "k": k},
                          "egf", e, expected)
        nh = g["nmax_horizontal"]
        falling = {(t, qv): series.horizontal_falling(p, t, qv, nh)
                   for t in g["t"] for qv in qvals}
        powers = {(t, qv): series.horizontal_powers(t, qv, nh)
                  for t in g["t"] for qv in qvals}
        for n in range(nh + 1):
            rows = [series.horizontal_row(p, n, qv) for qv in qvals]
            for t in g["t"]:
                for qv, row in zip(qvals, rows):
                    ok = series.horizontal_gf_check(row, falling[t, qv],
                                                    powers[t, qv][n])
                    res.check(ok, {**base, "n": n, "t": t, "q": str(qv)},
                              "horizontal_gf")
    return res


def _check_tableau_total(g: dict) -> int:
    """The symmetric suite's tableaux on grid `g`, C(n, k) per cell: |m| |r|
    (2^(N+1) - 1) at N = nmax_tableau.  Raises symm.EnumerationTooLarge
    when that is over symm.DEFAULT_ENUMERATION_CAP."""
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


def suite_symmetric(grid: dict = None) -> SuiteResult:
    """Symmetric-function and tableau routes against the normalized values;
    a grid over the tableau cap is refused before the first cell."""
    g = _grid(grid)
    _check_tableau_total(g)
    res = SuiteResult("symmetric")
    nmax = g["nmax_tableau"]
    for p in _param_cells(g):
        base = {"m": p.m, "r": p.r}
        for n in range(nmax + 1):
            for k in range(n + 1):
                expected = w_star(p, n, k)
                got = symm.w_star_symmetric(p, n, k)
                res.check(got == expected, {**base, "n": n, "k": k},
                          "h_complete", got, expected)
                got = symm.tableau_sum(p, n, k)
                res.check(got == expected, {**base, "n": n, "k": k},
                          "tableau", got, expected)
    return res


def suite_convolution(grid: dict = None) -> SuiteResult:
    """The two convolution-type identities for the normalized values."""
    g = _grid(grid)
    res = SuiteResult("convolution")
    for p in _param_cells(g):
        base = {"m": p.m, "r": p.r}
        nmax = g["nmax_conv"]
        for n in range(nmax + 1):
            for l in range(n + 1):
                for j in range(n - l + 1):
                    res.check(symm.convolution_first(p, n, l, j),
                              {**base, "n": n, "l": l, "j": j},
                              "convolution_first")
        sp = g["spmax_conv"]
        for s in range(sp + 1):
            for pp in range(sp + 1):
                for t in range(s + pp + 1):
                    res.check(symm.convolution_second(p, s, pp, t),
                              {**base, "s": s, "p": pp, "t": t},
                              "convolution_second")
    return res


def suite_hankel(grid: dict = None) -> SuiteResult:
    """Hankel transform, LU factorization, and classical q=1 corollary."""
    g = _grid(grid)
    res = SuiteResult("hankel")
    nmax = g["nmax_hankel"]
    for p in _param_cells(g):
        base = {"m": p.m, "r": p.r}
        for s in range(g["smax_hankel"] + 1):
            # every order's matrix, determinant and L*U product is a
            # leading block of the largest one's, and its closed form an
            # entry of one prefix product
            family = hk.HankelSpec(p, s, nmax)
            rows = hk.hankel_matrix(family)
            closed = hk.hankel_closed_forms(family)
            dets = hk.leading_dets(rows, closed)
            lu = hk.lu_product(family)
            for n in range(nmax + 1):
                res.check(dets[n] == closed[n][0],
                          {**base, "s": s, "n": n}, "hankel_transform")
                res.check(hk.lu_check(n + 1, rows, dets[n], lu),
                          {**base, "s": s, "n": n}, "lu_factorization")
                res.check(hk.classical_hankel_check(p.m, p.r, s, n),
                          {**base, "s": s, "n": n}, "classical_hankel")
    return res


_SUITE_FUNCS = {
    "recurrences": suite_recurrences,
    "explicit": suite_explicit,
    "genfun": suite_genfun,
    "symmetric": suite_symmetric,
    "convolution": suite_convolution,
    "hankel": suite_hankel,
}


def max_degree(name: str, grid: dict = None) -> int:
    """The largest degree the polynomials of run_suite(name, grid) may
    reach, at the grid's largest m and r: per suite the top degree of the
    largest triangle row it reads, or, where larger, what it builds apart
    from the rows: genfun's [t]_q and [t-r-jm]_q, j < nmax_horizontal, and
    the hankel suite's minors and elimination steps (``hankel.degree_bound``
    of its largest family, which covers its rows).  Raises ValueError for
    a bad grid, like run_suite, and for a symmetric suite over the tableau
    cap."""
    g = _grid(grid)
    names = _SUITE_FUNCS if name == "all" else [name]
    if "symmetric" in names:
        _check_tableau_total(g)
    m, r = max(g["m"]), max(g["r"])
    # The recurrences suite's horizontal route reads row n+1; the
    # convolution suite reads rows n+1 and s+p.
    degrees = {
        "recurrences": row_degree(m, r, g["nmax"] + 1),
        "explicit": row_degree(m, r, g["nmax"]),
        "genfun": max(row_degree(m, r, max(g["nmax_genfun"], g["nmax_egf"],
                                           g["nmax_horizontal"])),
                      max(map(abs, g["t"]), default=0) + r
                      + m * g["nmax_horizontal"]),
        "symmetric": row_degree(m, r, g["nmax_tableau"]),
        "convolution": row_degree(m, r, max(g["nmax_conv"] + 1,
                                            2 * g["spmax_conv"])),
        "hankel": hk.degree_bound(hk.HankelSpec(
            WhitneyParams(m, r), g["smax_hankel"], g["nmax_hankel"])),
    }
    return max(degrees[s] for s in names)


def run_suite(name: str, grid: dict = None) -> list:
    """Run one suite (or all); returns a list of SuiteResult."""
    if name == "all":
        return [fn(grid) for fn in _SUITE_FUNCS.values()]
    if name not in _SUITE_FUNCS:
        raise KeyError(f"unknown suite {name!r}")
    return [_SUITE_FUNCS[name](grid)]
