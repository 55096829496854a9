from contextlib import nullcontext
from fractions import Fraction
from math import comb
from operator import mul

import pytest

from conftest import classical_egf_coeffs, perturb_recurrence
from qwhitney import verify
from qwhitney import (LaurentPoly, RouteValues, WhitneyParams,
                      horizontal_gf_check, q_factorial, q_int,
                      rational_gf_columns, w)
from qwhitney.qcalculus import normalizer, whitney_numerator
from qwhitney.qcore import ONE, ZERO
from qwhitney.series import (horizontal_falling, horizontal_powers,
                             horizontal_row)

P11 = WhitneyParams(1, 1)
PARAM_GRID = [WhitneyParams(m, r) for m in (1, 2, 3) for r in (0, 1, 2)]


def cell_parts(p, n, t, qv):
    """The row, falling factors and power horizontal_gf_check reads for the
    cell (n, t) at q = qv, built for that cell alone."""
    return (horizontal_row(p, n, qv), horizontal_falling(p, t, qv, n),
            horizontal_powers(t, qv, n)[n])


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
                assert s[n] == q_int(p.r) ** n

    def test_hand_coefficient(self):
        s = rational_gf_columns(P11, 1, 2)[1]
        assert s[2] == LaurentPoly({1: 2, 2: 1})

    def test_low_coefficients_vanish(self):
        s = rational_gf_columns(WhitneyParams(2, 1), 3, 8)[3]
        for n in range(3):
            assert s[n].is_zero()

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
            s = [sum((s[n - i] * a ** i for i in range(n + 1)), ZERO)
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
    # whitney_numerator gives the numerator N_n of the column EGF's z^n
    # coefficient N_n / ([n]_q! normalizer(p, k)), which must equal
    # W[n,k] / [n]_q!.

    def test_column_zero(self):
        for p in PARAM_GRID:
            shared = RouteValues.build(p, 5, 0)
            for n in range(6):
                assert whitney_numerator(shared, n, 0) == \
                    q_int(p.r) ** n * normalizer(p, 0)

    def test_hand_coefficient(self):
        shared = RouteValues.build(P11, 3, 1)
        assert whitney_numerator(shared, 2, 1) == \
            LaurentPoly({1: 2, 2: 1}) * normalizer(P11, 1)

    def test_low_coefficients_vanish(self):
        shared = RouteValues.build(WhitneyParams(2, 1), 6, 2)
        for n in range(2):
            assert whitney_numerator(shared, n, 2).is_zero()

    def test_matches_recurrence(self):
        # one RouteValues per (m, r) serves every column
        for p in PARAM_GRID:
            shared = RouteValues.build(p, 8, 3)
            for k in range(4):
                for n in range(9):
                    assert whitney_numerator(shared, n, k) == \
                        w(p, n, k) * normalizer(p, k)

    def test_normalizer_is_the_q_factorial_product(self):
        # [k]_{q^m}! [m]_q^k, formed here from q_factorial and a power
        for p in PARAM_GRID:
            for k in range(5):
                assert normalizer(p, k) == \
                    q_factorial(k).stretch(p.m) * q_int(p.m) ** k

    def test_classical_limit_against_series_expansion(self):
        # at q=1 the column EGF is e^(rt)(e^(mt)-1)^k / (k! m^k)
        for p in PARAM_GRID:
            shared = RouteValues.build(p, 8, 3)
            for k in range(4):
                expected = classical_egf_coeffs(p.m, p.r, k, 8)
                for n in range(9):
                    num = whitney_numerator(shared, n, k)
                    den = q_factorial(n) * normalizer(p, k)
                    assert num.eval(Fraction(1)) / den.eval(Fraction(1)) \
                        == expected[n]

    def test_suite_failure_texts(self):
        grid = {"m": [2], "r": [1], "nmax_genfun": 0, "nmax_egf": 4,
                "kmax_genfun": 2, "nmax_horizontal": 0, "t": [], "qvals": []}
        with perturb_recurrence():
            res = verify.suite_genfun(grid)
            failures = [f for f in res.failures if f.identity == "egf"]
            assert failures
            for f in failures:
                n, k = f.params["n"], f.params["k"]
                shared = RouteValues.build(WhitneyParams(2, 1), 4, k)
                assert f.lhs == str(whitney_numerator(shared, n, k))
                assert f.rhs == str(w(WhitneyParams(2, 1), n, k))


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
            row = horizontal_row(P11, 4, qv)
            nums, den = row
            assert [Fraction(x, den) for x in nums] == \
                [w(P11, 4, k).eval(qv) for k in range(5)]
            for t in (-3, 0, 7):
                _, falling, power = cell_parts(P11, 4, t, qv)
                assert horizontal_gf_check(row, falling, power)
                # every value one too large, then one value at a time
                assert not horizontal_gf_check(([x + den for x in nums], den),
                                               falling, power)
                for k in range(5):
                    bad = nums[:k] + [nums[k] + den] + nums[k + 1:]
                    assert not horizontal_gf_check((bad, den), falling, power)

    def test_falling_factors(self):
        p = WhitneyParams(2, 1)
        for qv in (Fraction(2), Fraction(-3, 5)):
            for t in (-3, 0, 7):  # t = 7 reaches [0]_q at k = 4
                nums, den = horizontal_falling(p, t, qv, 5)
                assert len(nums) == 6 and nums[0] == den
                for k in range(1, 6):
                    assert Fraction(nums[k], den) == Fraction(nums[k - 1], den) \
                        * q_int(t - 1 - 2 * (k - 1)).eval(qv)
                assert (t == 7) == (nums[4] == nums[5] == 0)

    def test_given_falling_matches_computed_falling(self):
        for p in (P11, WhitneyParams(2, 1), WhitneyParams(3, 0)):
            for qv in (Fraction(2), Fraction(-3, 5)):
                for t in (-3, 0, 7):
                    # falling factors up to k = 6 serve every row n <= 6
                    falling = horizontal_falling(p, t, qv, 6)
                    fnums, fden = falling
                    powers = horizontal_powers(t, qv, 6)
                    for n in range(7):
                        row = horizontal_row(p, n, qv)
                        nums, den = row
                        bad = ([x + den for x in nums], den)
                        assert horizontal_gf_check(row, falling, powers[n])
                        # the bad row's verdict from Fractions
                        lhs = sum(Fraction(x, den) * Fraction(f, fden)
                                  for x, f in zip(bad[0], fnums))
                        assert (horizontal_gf_check(bad, falling, powers[n])
                                == (lhs == q_int(t).eval(qv) ** n))
                    assert not horizontal_gf_check(
                        horizontal_row(p, 6, qv),
                        ([f + fden for f in fnums], fden), powers[6])

    def test_suite_verdicts_match_unshared_checks(self):
        grid = {"m": [1], "r": [1], "nmax_genfun": 0, "nmax_egf": 0,
                "kmax_genfun": 0, "nmax_horizontal": 3, "t": [-1, 2, 5],
                "qvals": ["2", "-1/3"]}
        for perturbed in (False, True):
            with perturb_recurrence() if perturbed else nullcontext():
                res = verify.suite_genfun(grid)
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
        assert verify.suite_genfun(grid).ok
        with perturb_recurrence():
            res = verify.suite_genfun(grid)
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
                    falling = {t: horizontal_falling(p, t, q, self.NMAX)
                               for t in self.TS}
                    powers = {t: horizontal_powers(t, q, self.NMAX)
                              for t in self.TS}
                    for t, (fnums, fden) in falling.items():
                        assert [Fraction(x, fden) for x in fnums] == \
                            self.falling(p, t, q)
                    verdicts = self.oracle(p, q)
                    for n in range(self.NMAX + 1):
                        nums, den = row = horizontal_row(p, n, q)
                        assert [Fraction(x, den) for x in nums] == \
                            [self.value(w(p, n, k), q) for k in range(n + 1)]
                        for t in self.TS:
                            ok = verdicts[n, t]
                            assert horizontal_gf_check(
                                *cell_parts(p, n, t, q)) == ok
                            assert horizontal_gf_check(
                                row, falling[t], powers[t][n]) == ok
                            failed += not ok
        assert bool(failed) == perturbed

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_suite_against_oracle(self, perturbed):
        grid = {"m": [1, 2, 3], "r": [0, 1, 2], "nmax_genfun": 0,
                "nmax_egf": 0, "kmax_genfun": 0,
                "nmax_horizontal": self.NMAX, "t": list(self.TS),
                "qvals": [str(q) for q in self.QVALS]}
        with perturb_recurrence() if perturbed else nullcontext():
            res = verify.suite_genfun(grid)
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
