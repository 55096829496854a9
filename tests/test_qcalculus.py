from fractions import Fraction
from math import comb

import pytest

from conftest import classical_whitney_recurrence, poly, power
from qwhitney import (RouteValues, WhitneyParams,
                      newton_coefficients, q_binomial_alternating_sum,
                      q_binomial_rows, q_diff_heads, q_int, q_power_table, w,
                      whitney_explicit)
from qwhitney import qcalculus, verify
from qwhitney.qcore import ONE, ZERO

PARAM_GRID = [WhitneyParams(m, r) for m in (1, 2, 3) for r in (0, 1, 2)]


def power_values(c: int, n: int, h: int, k: int, x: int) -> list:
    """The values of f(x) = [x + c]_q^n at the k+1 nodes x, x+h, ..., x+kh."""
    return [power(q_int(x + i * h + c), n) for i in range(k + 1)]


class TestPowerTable:
    def test_values_equal_powers(self):
        for m in (1, 2, 3):
            for r in (0, 1, 2):
                table = q_power_table(r, m, 7, 9)
                assert len(table) == 10
                for n, values in enumerate(table):
                    assert values == tuple(power_values(r, n, m, 6, 0))

    def test_route_values(self):
        p = WhitneyParams(2, 1)
        shared = RouteValues.build(p, 6, 3)
        assert len(shared.powers) == 7
        assert shared.powers[5][3] == power(q_int(7), 5)
        assert shared.rows == q_binomial_rows(3, 2)


class TestOnePassHeads:
    def test_heads_equal_each_order(self):
        # every head of one pass of order 5 against the order-k difference
        # by a pass of its own and by the alternating sum
        for b in (1, 2, 3):
            for h in (1, 2):
                for c in (-2, 0, 3):
                    for n in (0, 2, 4):
                        for x in (-1, 0, 2):
                            values = power_values(c, n, h, 5, x)
                            heads = q_diff_heads(values, b)
                            assert heads == [q_diff_heads(values[:k + 1], b)[k]
                                             for k in range(6)]
                            assert heads == [q_binomial_alternating_sum(
                                values[:k + 1], b, q_binomial_rows(k, b)[-1])
                                for k in range(6)]

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            q_diff_heads([], 1)

    def test_shared_values_give_the_same_cells(self):
        # one RouteValues for rows 0..7 serves every row of both routes
        for p in PARAM_GRID:
            shared = RouteValues.build(p, 7, 7)
            for n in range(8):
                newton = newton_coefficients(shared, n)
                assert newton == [w(p, n, k) for k in range(n + 1)]
                assert [whitney_explicit(shared, n, k)
                        for k in range(n + 1)] == newton


class TestQDifference:
    def test_order_zero_is_identity(self):
        for x in (-2, 0, 3):
            values = power_values(2, 3, 1, 0, x)
            assert q_diff_heads(values, 1) == values
            assert q_binomial_alternating_sum(
                values, 1, q_binomial_rows(0)[-1]) == values[0]

    def test_constant_annihilated(self):
        values = power_values(0, 0, 1, 1, 0)
        assert q_diff_heads(values, 1)[1] == ZERO
        assert q_binomial_alternating_sum(
            values, 1, q_binomial_rows(1)[-1]) == ZERO

    def test_first_difference_of_q_int(self):
        values = power_values(0, 1, 1, 1, 0)
        assert q_diff_heads(values, 1)[1] == ONE
        assert q_binomial_alternating_sum(
            values, 1, q_binomial_rows(1)[-1]) == ONE

    def test_routes_agree_spot_grid(self):
        for k in range(5):
            for h in (1, 2):
                for b in (1, 3):
                    for c in (-2, 0, 3):
                        for n in (0, 2, 3):
                            for x in (-1, 0, 2):
                                values = power_values(c, n, h, k, x)
                                assert q_diff_heads(values, b)[k] == \
                                    q_binomial_alternating_sum(
                                        values, b, q_binomial_rows(k, b)[-1])


class TestExplicitFormula:
    def test_hand_value(self):
        shared = RouteValues.build(WhitneyParams(1, 1), 2, 1)
        assert whitney_explicit(shared, 2, 1) == poly({1: 2, 2: 1})

    def test_column_zero(self):
        for p in PARAM_GRID:
            shared = RouteValues.build(p, 4, 0)
            for n in range(5):
                assert whitney_explicit(shared, n, 0) == power(q_int(p.r), n)

    def test_diagonal(self):
        for p in PARAM_GRID:
            shared = RouteValues.build(p, 4, 4)
            for n in range(5):
                exp = p.m * comb(n, 2) + n * p.r
                assert whitney_explicit(shared, n, n) == ONE.shift(exp)

    def test_matches_recurrence(self):
        for p in PARAM_GRID:
            shared = RouteValues.build(p, 7, 7)
            for n in range(8):
                for k in range(n + 1):
                    assert whitney_explicit(shared, n, k) == w(p, n, k)

    def test_classical_limit(self):
        # at q=1 this is the classical alternating-sum formula
        for p in PARAM_GRID:
            shared = RouteValues.build(p, 7, 7)
            for n in range(8):
                for k in range(n + 1):
                    v = whitney_explicit(shared, n, k).eval(Fraction(1))
                    assert v == classical_whitney_recurrence(p.m, p.r, n, k)

    def test_invalid_range_rejected(self):
        shared = RouteValues.build(WhitneyParams(1, 1), 2, 2)
        with pytest.raises(ValueError):
            whitney_explicit(shared, 1, 2)


class TestNewtonCoefficients:
    def test_degree_zero(self):
        shared = RouteValues.build(WhitneyParams(1, 1), 0, 0)
        assert newton_coefficients(shared, 0) == [ONE]

    def test_row_two(self):
        got = newton_coefficients(RouteValues.build(WhitneyParams(1, 1), 2, 2),
                                  2)
        assert got == [ONE, poly({1: 2, 2: 1}), ONE.shift(3)]

    def test_matches_recurrence(self):
        p = WhitneyParams(2, 0)
        assert newton_coefficients(RouteValues.build(p, 3, 3), 3) == \
            [w(p, 3, k) for k in range(4)]


class TestRouteIndependence:
    # r >= 1 keeps every W[n,k] nonzero, so a flipped sign always shows
    GRID = {"m": [1, 2], "r": [1, 2], "nmax": 4}
    CELLS = 4 * sum(n + 1 for n in range(5))

    def test_newton_cell_survives_a_broken_alternating_sum(self, monkeypatch):
        alternating = qcalculus.q_binomial_alternating_sum
        monkeypatch.setattr(qcalculus, "q_binomial_alternating_sum",
                            lambda *args: -alternating(*args))
        res = verify.run_suite("explicit", self.GRID)[0]
        assert res.cells == 2 * self.CELLS
        assert [f.identity for f in res.failures] == \
            ["explicit"] * self.CELLS

    def test_explicit_cell_survives_a_broken_operator_product(self,
                                                              monkeypatch):
        heads = qcalculus.q_diff_heads
        monkeypatch.setattr(qcalculus, "q_diff_heads",
                            lambda *args: [-d for d in heads(*args)])
        res = verify.run_suite("explicit", self.GRID)[0]
        assert res.cells == 2 * self.CELLS
        assert [f.identity for f in res.failures] == ["newton"] * self.CELLS
