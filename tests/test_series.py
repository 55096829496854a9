from contextlib import nullcontext
from fractions import Fraction
from math import comb, factorial, prod
from operator import mul

import pytest

from conftest import (classical_egf_coeffs, perturb_recurrence, poly, power,
                      q_factorial, stretch)
from qwhitney import verify
from qwhitney import (WhitneyParams, horizontal_gf_check, q_int,
                      rational_gf_columns, w, w_table)
from qwhitney.qcore import ONE, ZERO
from qwhitney.series import (egf_check, horizontal_powers, horizontal_row,
                             q_int_parts)
from qwhitney.whitney import normalizer_factors

P11 = WhitneyParams(1, 1)
PARAM_GRID = [WhitneyParams(m, r) for m in (1, 2, 3) for r in (0, 1, 2)]


def factor_table(p, t, qv, kmax):
    """q_int_parts at q = qv for the falling factors [t-r-jm]_q, j < kmax,
    and no other x."""
    return q_int_parts(qv, [t - p.r - j * p.m for j in range(kmax)])


def cell_parts(p, n, t, qv):
    """The arguments of horizontal_gf_check for the cell (n, t) at q = qv:
    its row, factor table and power, built for that cell alone."""
    return (p, t, horizontal_row(w_table(p, n)[n], qv),
            factor_table(p, t, qv, n), horizontal_powers(t, qv, n)[n])


def falls_to(p, t, q_ints, k, n, value):
    """Does horizontal_gf_check, reading its factors from q_ints, take the
    falling factor [t-r|m]_{k,q} to be the Fraction value?  Over the unit
    row of length n+1, W[n,j] = [j = k], its sum is that factor alone."""
    row = ([0] * k + [1] + [0] * (n - k), 1)
    return horizontal_gf_check(p, t, row, q_ints,
                               (value.numerator, value.denominator))


def fraction_falling(p, t, qv, kmax):
    """The falling factors [t-r|m]_{k,q}, k <= kmax, at q = qv, as products
    of LaurentPoly.eval Fractions."""
    out = [Fraction(1)]
    for j in range(kmax):
        out.append(out[-1] * q_int(t - p.r - j * p.m).eval(qv))
    return out


def fraction_verdict(p, n, t, qv):
    """Does the horizontal GF identity hold at q = qv?  From a sum of
    Fractions of LaurentPoly.eval values, with no integer parts."""
    lhs, falling = Fraction(0), Fraction(1)
    for k in range(n + 1):
        lhs += w(p, n, k).eval(qv) * falling
        falling *= q_int(t - p.r - k * p.m).eval(qv)
    return lhs == q_int(t).eval(qv) ** n


class TestRationalGF:
    def test_column_zero_powers(self):
        for p in PARAM_GRID:
            s = rational_gf_columns(p, 0, 6)[0]
            for n in range(7):
                assert s[n] == power(q_int(p.r), n)

    def test_hand_coefficient(self):
        s = rational_gf_columns(P11, 1, 2)[1]
        assert s[2] == poly({1: 2, 2: 1})

    def test_low_coefficients_vanish(self):
        s = rational_gf_columns(WhitneyParams(2, 1), 3, 8)[3]
        for n in range(3):
            assert not s[n]

    def test_matches_recurrence(self):
        for p in PARAM_GRID:
            for k in range(4):
                s = rational_gf_columns(p, k, 8)[k]
                for n in range(9):
                    assert s[n] == w(p, n, k)


class TestColumnsByPrefix:
    @staticmethod
    def column_by_full_product(p, k, N):
        # the whole product of column k, with no prefix shared: the series
        # times each 1/(1 - a z) = sum_i a^i z^i as a truncated product
        s = [ONE] + [ZERO] * N
        for j in range(k + 1):
            a = q_int(p.m * j + p.r)
            s = [sum((s[n - i] * power(a, i) for i in range(n + 1)), ZERO)
                 for n in range(N + 1)]
        shift = p.m * comb(k, 2) + k * p.r
        return (ZERO,) * k + tuple(c.shift(shift) for c in s[:N + 1 - k])

    def test_every_column(self):
        for p in PARAM_GRID:
            columns = rational_gf_columns(p, 5, 9)
            assert len(columns) == 6
            for k, column in enumerate(columns):
                assert column == rational_gf_columns(p, k, 9)[k]
                assert column == self.column_by_full_product(p, k, 9)
                assert list(column) == [w(p, n, k) for n in range(10)]

    def test_order_checked(self):
        for kmax in (-1, 4):
            with pytest.raises(ValueError):
                rational_gf_columns(P11, kmax, 3)


class TestEGF:
    # egf_check(p, rows, kmax)[k][n] asks whether the numerator of the
    # column EGF's z^n coefficient over [n]_q! [k]_{q^m}! [m]_q^k equals
    # W[n,k] times that normalizer, as integers at one point q = 2^B.  The
    # check reads W from the rows it is given, so a test hands it other
    # values.

    @staticmethod
    def verdict(p, n, k, value):
        """egf_check's verdict on cell (n, k) with W[n,k] read as value."""
        rows = [[w(p, i, j) for j in range(k + 1)] for i in range(n + 1)]
        rows[n][k] = value
        return egf_check(p, rows, k)[k][n]

    def test_column_zero(self):
        # column 0's numerator is [r]_q^n, over the empty normalizer
        for p in PARAM_GRID:
            assert egf_check(p, w_table(p, 5), 0) == [[True] * 6]
            for n in range(6):
                assert self.verdict(p, n, 0,
                                    power(q_int(p.r), n))
                assert self.verdict(p, n, 0,
                                    power(q_int(p.r + 1), n)) == (n == 0)

    def test_hand_coefficient(self):
        # W_{1,1}[2,1] = 2q + q^2 by hand
        assert egf_check(P11, w_table(P11, 3), 1)[1][2]
        for value, ok in ((poly({1: 2, 2: 1}), True),
                          (poly({1: 2, 2: 2}), False),
                          (poly({1: 1, 2: 1}), False)):
            assert self.verdict(P11, 2, 1, value) == ok

    def test_low_coefficients_vanish(self):
        # for n < k the numerator is 0, so only W[n,k] = 0 passes
        p = WhitneyParams(2, 1)
        assert egf_check(p, w_table(p, 6), 2)[2][:2] == [True, True]
        for n in range(2):
            assert not self.verdict(p, n, 2, ONE)

    def test_matches_recurrence(self):
        # one call per (m, r) serves every column
        for p in PARAM_GRID:
            assert egf_check(p, w_table(p, 8), 3) == [[True] * 9] * 4

    def test_normalizer_is_the_q_factorial_product(self):
        # [k]_{q^m}! [m]_q^k, formed here from q_factorial and a power
        for p in PARAM_GRID:
            for k in range(5):
                assert prod(map(q_int, normalizer_factors(p, k)),
                            start=ONE) == \
                    stretch(q_factorial(k), p.m) * power(q_int(p.m), k)

    def test_classical_limit_against_series_expansion(self):
        # at q=1 the column EGF is e^(rt)(e^(mt)-1)^k / (k! m^k): the W the
        # check accepts has that z^n coefficient times n! as its q=1
        # value, and that value as a constant, which agrees at q = 1
        # alone, fails wherever W is not constant
        for p in PARAM_GRID:
            ok = egf_check(p, w_table(p, 8), 3)
            for k in range(4):
                expected = classical_egf_coeffs(p.m, p.r, k, 8)
                for n in range(9):
                    v = w(p, n, k)
                    assert ok[k][n]
                    assert v.eval(Fraction(1)) == expected[n] * factorial(n)
                    if p.m == 2 and len(v.coeffs) > 1:
                        flat = poly({0: sum(v.coeffs)})
                        assert not self.verdict(p, n, k, flat)

    def test_exact_in_every_coefficient(self):
        # W[n,k] off by +-1 in a single coefficient, one past either end
        # too, or shifted by q either way fails its cell, also where the
        # changed W has a negative lowest exponent (r >= 1 keeps every
        # W[n,k], n >= k, nonzero)
        for p in (P11, WhitneyParams(2, 1), WhitneyParams(3, 2)):
            for k in range(4):
                for n in range(k, 7):
                    v = w(p, n, k)
                    lo, hi = v.min_exp(), v.max_exp()
                    changed = [v.shift(1), v.shift(-1), v.shift(-lo - 1)]
                    changed += [v + poly({e: d}) for e in range(lo - 1, hi + 2)
                                for d in (1, -1)]
                    assert any(c.min_exp() < 0 for c in changed)
                    for c in changed:
                        assert not self.verdict(p, n, k, c)

    def test_suite_failure_texts(self):
        # a failed egf cell names its (m, r, n, k) and carries no side
        # texts, as a horizontal_gf cell does; it fails exactly where the
        # faulty triangle differs from the true one
        p = WhitneyParams(2, 1)
        grid = {"m": [2], "r": [1], "nmax_genfun": 0, "nmax_egf": 4,
                "kmax_genfun": 2, "nmax_horizontal": 0, "t": [], "qvals": []}
        right = {(n, k): w(p, n, k) for k in range(3) for n in range(5)}
        with perturb_recurrence():
            res = verify.run_suite("genfun", grid)[0]
            wrong = [cell for cell, v in right.items() if w(p, *cell) != v]
        failures = [f for f in res.failures if f.identity == "egf"]
        assert wrong and len(failures) == len(wrong)
        for f, (n, k) in zip(failures, wrong):
            assert f.params == {"m": 2, "r": 1, "n": n, "k": k}
            assert f.lhs == f.rhs == ""


class TestHorizontalGF:
    def test_trivial(self):
        assert horizontal_gf_check(*cell_parts(P11, 0, 5, Fraction(2)))

    def test_hand_cell(self):
        assert horizontal_gf_check(*cell_parts(P11, 2, 2, Fraction(2)))

    def test_negative_arguments_grid(self):
        for p in PARAM_GRID:
            for n in range(5):
                for t in (-3, -1, 0, 2, 7):
                    for qv in (Fraction(2), Fraction(1, 2), Fraction(-2)):
                        assert horizontal_gf_check(*cell_parts(p, n, t, qv))

    def test_given_row_matches_computed_row(self):
        for qv in (Fraction(2), Fraction(-3, 5)):
            row = horizontal_row(w_table(P11, 4)[4], qv)
            nums, den = row
            assert [Fraction(x, den) for x in nums] == \
                [w(P11, 4, k).eval(qv) for k in range(5)]
            for t in (-3, 0, 7):
                *_, table, power = cell_parts(P11, 4, t, qv)
                assert horizontal_gf_check(P11, t, row, table, power)
                # every value one too large, then one value at a time
                assert not horizontal_gf_check(
                    P11, t, ([x + den for x in nums], den), table, power)
                for k in range(5):
                    bad = nums[:k] + [nums[k] + den] + nums[k + 1:]
                    assert not horizontal_gf_check(P11, t, (bad, den), table,
                                                   power)

    def test_falling_factors(self):
        p = WhitneyParams(2, 1)
        for qv in (Fraction(2), Fraction(-3, 5)):
            for t in (-3, 0, 7):  # t = 7 reaches [0]_q at k = 4
                table = factor_table(p, t, qv, 5)
                falling = [Fraction(1)]
                for k in range(1, 6):
                    falling.append(falling[k - 1]
                                   * q_int(t - 1 - 2 * (k - 1)).eval(qv))
                assert (t == 7) == (falling[4] == falling[5] == 0)
                for k, f in enumerate(falling):
                    assert falls_to(p, t, table, k, 5, f)
                    assert not falls_to(p, t, table, k, 5, f + 1)

    def test_given_falling_matches_computed_falling(self):
        for p in (P11, WhitneyParams(2, 1), WhitneyParams(3, 0)):
            for qv in (Fraction(2), Fraction(-3, 5)):
                for t in (-3, 0, 7):
                    # one table of the factors j < 6 serves every row n <= 6
                    table = factor_table(p, t, qv, 6)
                    falling = fraction_falling(p, t, qv, 6)
                    powers = horizontal_powers(t, qv, 6)
                    for n in range(7):
                        row = horizontal_row(w_table(p, n)[n], qv)
                        nums, den = row
                        bad = ([x + den for x in nums], den)
                        assert horizontal_gf_check(p, t, row, table,
                                                   powers[n])
                        # the bad row's verdict from Fractions
                        lhs = sum(Fraction(x, den) * f
                                  for x, f in zip(bad[0], falling))
                        assert (horizontal_gf_check(p, t, bad, table,
                                                    powers[n])
                                == (lhs == q_int(t).eval(qv) ** n))
                    # every factor [x]_q one too large
                    assert not horizontal_gf_check(
                        p, t, horizontal_row(w_table(p, 6)[6], qv),
                        {x: (a + b, b) for x, (a, b) in table.items()},
                        powers[6])

    def test_row_reads_only_its_own_factors(self):
        # The check of row n reads [t-r-jm]_q for j < n alone, so its
        # integers are sized by n: it passes on a table that holds just
        # those factors, where a lookup of any j >= n raises KeyError, and
        # it raises KeyError on a table without the factor j = n-1.
        for p in (P11, WhitneyParams(2, 1), WhitneyParams(3, 5)):
            for qv in (Fraction(2), Fraction(-3, 5)):
                for t in (-3, 0, 7):
                    powers = horizontal_powers(t, qv, 6)
                    for n in range(7):
                        row = horizontal_row(w_table(p, n)[n], qv)
                        table = factor_table(p, t, qv, n)
                        for j in range(n, n + 3):
                            with pytest.raises(KeyError):
                                table[t - p.r - j * p.m]
                        assert horizontal_gf_check(p, t, row, table,
                                                   powers[n])
                        if n:
                            del table[t - p.r - (n - 1) * p.m]
                            with pytest.raises(KeyError):
                                horizontal_gf_check(p, t, row, table,
                                                    powers[n])

    def test_suite_verdicts_match_unshared_checks(self):
        grid = {"m": [1], "r": [1], "nmax_genfun": 0, "nmax_egf": 0,
                "kmax_genfun": 0, "nmax_horizontal": 3, "t": [-1, 2, 5],
                "qvals": ["2", "-1/3"]}
        for perturbed in (False, True):
            with perturb_recurrence() if perturbed else nullcontext():
                res = verify.run_suite("genfun", grid)[0]
                expected = [(n, t, q) for n in range(4) for t in grid["t"]
                            for q in grid["qvals"]
                            if not fraction_verdict(P11, n, t, Fraction(q))]
            got = [(f.params["n"], f.params["t"], f.params["q"])
                   for f in res.failures if f.identity == "horizontal_gf"]
            assert got == expected
            assert bool(expected) == perturbed

    def test_suite_cells_fail_under_perturbed_recurrence(self):
        grid = {"m": [1], "r": [1], "nmax_genfun": 0, "nmax_egf": 0,
                "kmax_genfun": 0, "nmax_horizontal": 3, "t": [2, 5],
                "qvals": ["2", "-1/3"]}
        assert verify.run_suite("genfun", grid)[0].ok
        with perturb_recurrence():
            res = verify.run_suite("genfun", grid)[0]
        assert res.cells == 1 + 1 + 4 * 2 * 2  # rational_gf, egf, horizontal_gf
        assert any(f.identity == "horizontal_gf" for f in res.failures)

    def test_polynomial_identity_cell(self):
        # enough distinct points to pin the underlying polynomial identity
        # in q for one cell: degree bound 2*n*(r+m*n), so > that many points
        m, r, n, t = 1, 1, 4, 6
        p = WhitneyParams(m, r)
        bound = 2 * n * (r + m * n) + 1
        points = [Fraction(i, 7) for i in range(1, bound + 1)]
        assert len(set(points)) >= bound
        for qv in points:
            assert horizontal_gf_check(*cell_parts(p, n, t, qv))


class TestHorizontalAgainstFractions:
    """The integer cross-multiplied check against sums of Fractions formed
    here, with no use of the library's rational evaluation."""

    QVALS = (Fraction(2), Fraction(1, 2), Fraction(-2), Fraction(3, 5),
             Fraction(-3, 7))
    # for every (m, r) of PARAM_GRID one of 3, 4, 5 is r + jm with j < 6,
    # so some falling product reaches [0]_q; -4, -1 and 0 give negative
    # arguments
    TS = (-4, -1, 0, 3, 4, 5, 9)
    NMAX = 6

    @staticmethod
    def value(poly, q):
        return sum((c * q ** e for e, c in poly.terms.items()), Fraction(0))

    @staticmethod
    def q_integer(x, q):
        return (1 - q ** x) / (1 - q)

    def falling(self, p, t, q):
        out = [Fraction(1)]
        for k in range(self.NMAX):
            out.append(out[-1] * self.q_integer(t - p.r - k * p.m, q))
        return out

    def oracle(self, p, q):
        """(n, t) -> does the identity hold at q, from Fraction sums."""
        falling = {t: self.falling(p, t, q) for t in self.TS}
        verdicts = {}
        for n in range(self.NMAX + 1):
            row = [self.value(w(p, n, k), q) for k in range(n + 1)]
            for t in self.TS:
                lhs = sum(map(mul, row, falling[t]))
                verdicts[n, t] = lhs == self.q_integer(t, q) ** n
        return verdicts

    def test_zero_factor_is_reached(self):
        for p in PARAM_GRID:
            assert any((t - p.r) % p.m == 0 and 0 <= (t - p.r) // p.m < self.NMAX
                       for t in self.TS)

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_rows_falling_and_verdicts(self, perturbed):
        with perturb_recurrence() if perturbed else nullcontext():
            failed = 0
            for p in PARAM_GRID:
                for q in self.QVALS:
                    tables = {t: factor_table(p, t, q, self.NMAX)
                              for t in self.TS}
                    powers = {t: horizontal_powers(t, q, self.NMAX)
                              for t in self.TS}
                    for t, table in tables.items():
                        for k, f in enumerate(self.falling(p, t, q)):
                            assert falls_to(p, t, table, k, self.NMAX, f)
                            assert not falls_to(p, t, table, k, self.NMAX,
                                                f + 1)
                    verdicts = self.oracle(p, q)
                    for n in range(self.NMAX + 1):
                        nums, den = row = horizontal_row(w_table(p, n)[n], q)
                        assert [Fraction(x, den) for x in nums] == \
                            [self.value(w(p, n, k), q) for k in range(n + 1)]
                        for t in self.TS:
                            ok = verdicts[n, t]
                            assert horizontal_gf_check(
                                *cell_parts(p, n, t, q)) == ok
                            assert horizontal_gf_check(
                                p, t, row, tables[t], powers[t][n]) == ok
                            failed += not ok
        assert bool(failed) == perturbed

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_suite_against_oracle(self, perturbed):
        grid = {"m": [1, 2, 3], "r": [0, 1, 2], "nmax_genfun": 0,
                "nmax_egf": 0, "kmax_genfun": 0,
                "nmax_horizontal": self.NMAX, "t": list(self.TS),
                "qvals": [str(q) for q in self.QVALS]}
        with perturb_recurrence() if perturbed else nullcontext():
            res = verify.run_suite("genfun", grid)[0]
            verdicts = {(p, q): self.oracle(p, q)
                        for p in PARAM_GRID for q in self.QVALS}
        expected = [(p.m, p.r, n, t, str(q)) for p in PARAM_GRID
                    for n in range(self.NMAX + 1) for t in self.TS
                    for q in self.QVALS if not verdicts[p, q][n, t]]
        got = [(f.params["m"], f.params["r"], f.params["n"], f.params["t"],
                f.params["q"])
               for f in res.failures if f.identity == "horizontal_gf"]
        assert got == expected
        assert bool(expected) == perturbed
