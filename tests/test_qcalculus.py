from fractions import Fraction
from math import comb

import pytest

from conftest import classical_whitney_recurrence
from qwhitney import (LaurentPoly, QPowerFunction, RouteValues, WhitneyParams,
                      newton_coefficients, q_binomial_row, q_diff_explicit,
                      q_diff_heads, q_diff_recursive, q_int, q_power_table, w,
                      whitney_explicit)
from qwhitney import qcalculus, verify
from qwhitney.qcalculus import normalizer
from qwhitney.qcore import ONE, ZERO

PARAM_GRID = [WhitneyParams(m, r) for m in (1, 2, 3) for r in (0, 1, 2)]


class TestQPowerFunction:
    def test_evaluate(self):
        f = QPowerFunction(1, 2)
        assert f.evaluate(1) == q_int(2) ** 2

    def test_negative_argument(self):
        f = QPowerFunction(0, 1)
        assert f.evaluate(-2) == q_int(-2)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            QPowerFunction(0, -1)


class TestPowerTable:
    def test_values_equal_powers(self):
        for m in (1, 2, 3):
            for r in (0, 1, 2):
                table = q_power_table(r, m, 7, 9)
                assert [f.power for f in table] == list(range(10))
                for n, f in enumerate(table):
                    for j in range(7):
                        assert f.evaluate(j * m) == q_int(j * m + r) ** n

    def test_untabulated_node_refused(self):
        f = q_power_table(1, 2, 3, 2)[2]
        for x in (1, -2, 6):
            with pytest.raises(ValueError):
                f.evaluate(x)

    def test_route_values(self):
        p = WhitneyParams(2, 1)
        shared = RouteValues.build(p, 6, 3)
        assert len(shared.powers) == 7
        assert shared.powers[5].evaluate(6) == q_int(7) ** 5
        assert shared.rows == [q_binomial_row(k, 2) for k in range(4)]
        assert shared.norms == [normalizer(p, k) for k in range(4)]


class TestOnePassHeads:
    def test_heads_equal_each_order(self):
        # every head of one pass of order 5 against the order-k difference
        # by itself and by the alternating sum
        for b in (1, 2, 3):
            for h in (1, 2):
                for c in (-2, 0, 3):
                    for n in (0, 2, 4):
                        f = QPowerFunction(c, n)
                        for x in (-1, 0, 2):
                            heads = q_diff_heads(f, b, h, 5, x)
                            assert heads == [q_diff_recursive(f, b, h, k, x)
                                             for k in range(6)]
                            assert heads == [q_diff_explicit(f, b, h, k, x)
                                             for k in range(6)]

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            q_diff_heads(QPowerFunction(0, 1), 1, 1, -1, 0)

    def test_shared_values_give_the_same_cells(self):
        for p in PARAM_GRID:
            shared = RouteValues.build(p, 7)
            for n in range(8):
                newton = newton_coefficients(p, n, n, shared)
                assert newton == newton_coefficients(p, n)
                assert newton == [w(p, n, k) for k in range(n + 1)]
                assert [whitney_explicit(p, n, k, shared)
                        for k in range(n + 1)] == newton


class TestQDifference:
    def test_order_zero_is_identity(self):
        f = QPowerFunction(2, 3)
        for x in (-2, 0, 3):
            assert q_diff_recursive(f, 1, 1, 0, x) == f.evaluate(x)
            assert q_diff_explicit(f, 1, 1, 0, x) == f.evaluate(x)

    def test_constant_annihilated(self):
        const = QPowerFunction(0, 0)
        assert q_diff_recursive(const, 1, 1, 1, 0) == ZERO
        assert q_diff_explicit(const, 1, 1, 1, 0) == ZERO

    def test_first_difference_of_q_int(self):
        f = QPowerFunction(0, 1)
        assert q_diff_recursive(f, 1, 1, 1, 0) == ONE
        assert q_diff_explicit(f, 1, 1, 1, 0) == ONE

    def test_routes_agree_small(self):
        f = QPowerFunction(1, 2)
        assert q_diff_recursive(f, 1, 1, 2, 0) == q_diff_explicit(f, 1, 1, 2, 0)

    def test_routes_agree_spot_grid(self):
        for k in range(5):
            for h in (1, 2):
                for b in (1, 3):
                    for c in (-2, 0, 3):
                        for n in (0, 2, 3):
                            f = QPowerFunction(c, n)
                            for x in (-1, 0, 2):
                                assert q_diff_recursive(f, b, h, k, x) == \
                                    q_diff_explicit(f, b, h, k, x)


class TestExplicitFormula:
    def test_hand_value(self):
        assert whitney_explicit(WhitneyParams(1, 1), 2, 1) == LaurentPoly({1: 2, 2: 1})

    def test_column_zero(self):
        for p in PARAM_GRID:
            for n in range(5):
                assert whitney_explicit(p, n, 0) == q_int(p.r) ** n

    def test_diagonal(self):
        for p in PARAM_GRID:
            for n in range(5):
                exp = p.m * comb(n, 2) + n * p.r
                assert whitney_explicit(p, n, n) == LaurentPoly.monomial(exp)

    def test_matches_recurrence(self):
        for p in PARAM_GRID:
            for n in range(8):
                for k in range(n + 1):
                    assert whitney_explicit(p, n, k) == w(p, n, k)

    def test_classical_limit(self):
        # at q=1 this is the classical alternating-sum formula
        for p in PARAM_GRID:
            for n in range(8):
                for k in range(n + 1):
                    v = whitney_explicit(p, n, k).eval(Fraction(1))
                    assert v == classical_whitney_recurrence(p.m, p.r, n, k)

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            whitney_explicit(WhitneyParams(1, 1), 1, 2)


class TestNewtonCoefficients:
    def test_degree_zero(self):
        assert newton_coefficients(WhitneyParams(1, 1), 0) == [ONE]

    def test_row_two(self):
        got = newton_coefficients(WhitneyParams(1, 1), 2)
        assert got == [ONE, LaurentPoly({1: 2, 2: 1}), LaurentPoly.monomial(3)]

    def test_matches_recurrence(self):
        p = WhitneyParams(2, 0)
        assert newton_coefficients(p, 3) == [w(p, 3, k) for k in range(4)]

    def test_kmax_truncation(self):
        p = WhitneyParams(1, 2)
        assert newton_coefficients(p, 4, kmax=2) == [w(p, 4, k) for k in range(3)]
        with pytest.raises(ValueError):
            newton_coefficients(p, 2, kmax=3)


class TestRouteIndependence:
    def test_newton_cell_survives_a_broken_alternating_sum(self, monkeypatch):
        explicit = qcalculus.q_diff_explicit
        monkeypatch.setattr(qcalculus, "q_diff_explicit",
                            lambda *args: -explicit(*args))
        # r >= 1 keeps every W[n,k] nonzero, so a flipped sign always shows
        res = verify.suite_explicit({"m": [1, 2], "r": [1, 2], "nmax": 4})
        cells = 4 * sum(n + 1 for n in range(5))
        assert res.cells == 2 * cells
        assert [f.identity for f in res.failures] == ["explicit"] * cells
