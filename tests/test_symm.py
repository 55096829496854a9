from math import comb

import pytest

from conftest import perturb_convolution_shift
from qwhitney import series, symm, verify
from qwhitney import (EnumerationTooLarge, LaurentPoly, WhitneyParams,
                      convolution_first, convolution_second, h_complete,
                      h_prefixes, q_int, tableau_sum, w_star,
                      w_star_symmetric)
from qwhitney.qcore import ONE, ZERO
from qwhitney.symm import a_tableaux

P11 = WhitneyParams(1, 1)
PARAM_GRID = [WhitneyParams(m, r) for m in (1, 2, 3) for r in (0, 1, 2)]


class TestHComplete:
    def test_degree_zero(self):
        assert h_complete([], 0) == ONE
        assert h_complete([q_int(2)], 0) == ONE

    def test_empty_values_positive_degree(self):
        assert h_complete([], 3) == ZERO

    def test_negative_degree_rejected(self):
        # not h_d = 1 from a one-entry row read at index -1
        for values in ([], [q_int(2)]):
            with pytest.raises(ValueError):
                h_complete(values, -1)

    def test_single_value_power(self):
        x = q_int(3)
        for d in range(5):
            assert h_complete([x], d) == x ** d

    def test_two_values_degree_two(self):
        x1, x2 = q_int(1), q_int(2)
        assert h_complete([x1, x2], 2) == x1 * x1 + x1 * x2 + x2 * x2

    @staticmethod
    def multiset_sum(values, d):
        """h_d(values) as the sum over multisets of size d."""
        expected = ZERO
        for phi in a_tableaux(len(values) - 1, d):
            prod = ONE
            for c in phi:
                prod = prod * values[c]
            expected = expected + prod
        return expected

    def test_matches_multiset_enumeration(self):
        values = [q_int(1), q_int(2), q_int(4)]
        for d in range(5):
            assert h_complete(values, d) == self.multiset_sum(values, d)
            # row j of h_prefixes is h_0..h_d over values[:j+1]
            rows = list(h_prefixes(values, d))
            assert len(rows) == len(values)
            for j, row in enumerate(rows):
                assert row == tuple(self.multiset_sum(values[:j + 1], i)
                                    for i in range(d + 1))


class TestSharedStep:
    """A fault in the one step that multiplies a series by 1/(1 - x z)
    reaches the two identities built on it and no other."""

    GENFUN = {"m": [1, 2], "r": [0, 1], "nmax_genfun": 5, "kmax_genfun": 3,
              "nmax_egf": 4, "nmax_horizontal": 3, "t": [-1, 4],
              "qvals": ["2", "-1/3"]}
    SYMMETRIC = {"m": [1, 2], "r": [0, 1], "nmax_tableau": 5}

    def test_planted_fault_reaches_rational_gf_and_h_complete(self,
                                                              monkeypatch):
        real = symm.h_prefixes

        def faulty(values, d):
            # each value multiplied in as q x instead of x
            return real([x.shift(1) for x in values], d)

        assert verify.suite_genfun(self.GENFUN).ok
        assert verify.suite_symmetric(self.SYMMETRIC).ok
        # rational_gf_columns imported the name from symm
        monkeypatch.setattr(symm, "h_prefixes", faulty)
        monkeypatch.setattr(series, "h_prefixes", faulty)
        failures = (verify.suite_genfun(self.GENFUN).failures
                    + verify.suite_symmetric(self.SYMMETRIC).failures)
        failed = {f.identity for f in failures}
        assert failed == {"rational_gf", "h_complete"}


class TestATableau:
    def test_count_is_binomial(self):
        for k in range(5):
            for length in range(5):
                count = sum(1 for _ in a_tableaux(k, length))
                assert count == comb(k + length, length)


class TestRoutes:
    def test_hand_value(self):
        assert w_star_symmetric(P11, 2, 1) == LaurentPoly({0: 2, 1: 1})
        assert tableau_sum(P11, 2, 1) == LaurentPoly({0: 2, 1: 1})

    def test_diagonal(self):
        for p in PARAM_GRID:
            assert w_star_symmetric(p, 4, 4) == ONE
            assert tableau_sum(p, 4, 4) == ONE

    def test_column_zero(self):
        for p in PARAM_GRID:
            for n in range(5):
                assert w_star_symmetric(p, n, 0) == q_int(p.r) ** n

    def test_three_routes_agree(self):
        for p in PARAM_GRID:
            for n in range(7):
                for k in range(n + 1):
                    expected = w_star(p, n, k)
                    assert w_star_symmetric(p, n, k) == expected
                    assert tableau_sum(p, n, k) == expected

    def test_enumeration_cap(self):
        # C(24, 12) = 2,704,156 tableaux is over DEFAULT_ENUMERATION_CAP;
        # the count is checked before the first one is enumerated
        with pytest.raises(EnumerationTooLarge):
            tableau_sum(WhitneyParams(1, 0), 24, 12)


class TestShiftedValues:
    def test_no_shift(self):
        for p in PARAM_GRID:
            assert w_star(WhitneyParams(p.m, p.r), 3, 2) == w_star(p, 3, 2)

    def test_collapsed_to_power(self):
        # W*_{m,r+mk}[s, 0] has a single variable: [m*k + r]_q^s
        for p in PARAM_GRID:
            for k in range(3):
                for s in range(4):
                    expected = q_int(p.m * k + p.r) ** s
                    assert w_star(WhitneyParams(p.m, p.r + p.m * k), s, 0) == expected

    def test_matches_h_complete_window(self):
        p = WhitneyParams(1, 0)
        shift_k, s, t = 1, 3, 2
        values = [q_int(p.m * i + p.r) for i in range(shift_k, t + 1)]
        expected = h_complete(values, s - t + shift_k)
        shifted = WhitneyParams(p.m, p.r + p.m * shift_k)
        assert w_star(shifted, s, t - shift_k) == expected

    def test_window_identity_grid(self):
        for p in PARAM_GRID:
            for shift_k in range(3):
                for t in range(shift_k, 5):
                    for s in range(t - shift_k, 6):
                        values = [q_int(p.m * i + p.r)
                                  for i in range(shift_k, t + 1)]
                        expected = h_complete(values, s - t + shift_k)
                        shifted = WhitneyParams(p.m, p.r + p.m * shift_k)
                        assert w_star(shifted, s, t - shift_k) == expected


class TestConvolutions:
    def test_first_trivial(self):
        assert convolution_first(P11, 0, 0, 0)

    def test_first_hand_value(self):
        # W*[2,1] = 2+q decomposes as [2]_q + [1]_q
        assert convolution_first(P11, 1, 0, 0)

    def test_first_grid(self):
        for p in PARAM_GRID:
            for n in range(6):
                for l in range(n + 1):
                    for j in range(n - l + 1):
                        assert convolution_first(p, n, l, j)

    def test_second_p_zero(self):
        for p in PARAM_GRID:
            for s in range(4):
                for t in range(s + 1):
                    assert convolution_second(p, s, 0, t)

    def test_second_hand_value(self):
        assert convolution_second(P11, 1, 1, 1)

    def test_second_grid(self):
        for p in PARAM_GRID:
            for s in range(5):
                for pp in range(5):
                    for t in range(s + pp + 1):
                        assert convolution_second(p, s, pp, t)

    def test_suite_cells_fail_under_a_shift_fault(self):
        grid = {"m": [1, 2], "r": [0, 1], "nmax_conv": 2, "spmax_conv": 2}
        assert verify.suite_convolution(grid).ok
        with perturb_convolution_shift():
            res = verify.suite_convolution(grid)
        failed = {f.identity for f in res.failures}
        assert failed == {"convolution_first", "convolution_second"}

    def test_display_bounds_only_valid_when_swapped(self):
        # The un-boxed display for W*[l+j,n] sums k = l .. n-j, but the terms
        # only have support on n-j <= k <= l (the boxed max/min window read
        # the other way around).  Check that the swapped window reproduces
        # the value everywhere and that the literal bounds fail somewhere.
        def windowed_sum(p, l, j, n, lo, hi):
            acc = ZERO
            for k in range(lo, hi + 1):
                shifted = WhitneyParams(p.m, p.r + p.m * k)
                acc = acc + w_star(p, l, k) * w_star(shifted, j, n - k)
            return acc

        literal_failures = 0
        for p in PARAM_GRID[:3]:
            for l in range(4):
                for j in range(4):
                    for n in range(l + j + 1):
                        lhs = w_star(p, l + j, n)
                        swapped = windowed_sum(p, l, j, n,
                                               max(0, n - j), min(n, l))
                        assert swapped == lhs
                        literal = windowed_sum(p, l, j, n, l, n - j)
                        if literal != lhs:
                            literal_failures += 1
        assert literal_failures > 0
