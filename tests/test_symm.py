from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (a_tableaux, convolution_first, convolution_second,
                      count_operators, first_sides, l1, multiset_sum,
                      perturb_convolution_shift, poly, power, second_sides)
from qwhitney import series, symm, verify
from qwhitney import (EnumerationTooLarge, WhitneyParams, convolution_check,
                      convolution_tables, h_prefixes, q_int, tableau_walk,
                      w_star)
from qwhitney.qcore import ONE, ZERO
from qwhitney.symm import whitney_values

P11 = WhitneyParams(1, 1)
PARAM_GRID = [WhitneyParams(m, r) for m in (1, 2, 3) for r in (0, 1, 2)]


def h_last(values, d):
    """h_d(values): entry d of the last row of h_prefixes, whose row j
    stops at entry e - j for a pass to degree e."""
    return list(h_prefixes(values, d + len(values) - 1))[-1][d]


class TestHComplete:
    def test_degree_zero(self):
        assert list(h_prefixes([q_int(2)], 0)) == [(ONE,)]
        assert h_last([q_int(2), q_int(5)], 0) == ONE

    def test_empty_values_positive_degree(self):
        # no value, no row: h_d() is read from none
        assert list(h_prefixes([], 3)) == []

    def test_negative_degree_rejected(self):
        # not h_d = 1 from a one-entry row read at index -1
        for values in ([], [q_int(2)]):
            with pytest.raises(ValueError):
                list(h_prefixes(values, -1))

    def test_single_value_power(self):
        x = q_int(3)
        assert list(h_prefixes([x], 4)) == [tuple(power(x, d)
                                                  for d in range(5))]

    def test_two_values_degree_two(self):
        x1, x2 = q_int(1), q_int(2)
        assert h_last([x1, x2], 2) == x1 * x1 + x1 * x2 + x2 * x2

    def test_matches_multiset_enumeration(self):
        values = [q_int(1), q_int(2), q_int(4)]
        for d in range(5):
            # row j of h_prefixes is h_0..h_(d-j) over values[:j+1], and
            # empty once j > d
            rows = list(h_prefixes(values, d))
            assert len(rows) == len(values)
            for j, row in enumerate(rows):
                assert row == tuple(multiset_sum(values[:j + 1], i)
                                    for i in range(d - j + 1))


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

        assert verify.run_suite("genfun", self.GENFUN)[0].ok
        assert verify.run_suite("symmetric", self.SYMMETRIC)[0].ok
        # rational_gf_columns imported the name from symm
        monkeypatch.setattr(symm, "h_prefixes", faulty)
        monkeypatch.setattr(series, "h_prefixes", faulty)
        failures = [f for name, grid in (("genfun", self.GENFUN),
                                         ("symmetric", self.SYMMETRIC))
                    for f in verify.run_suite(name, grid)[0].failures]
        failed = {f.identity for f in failures}
        assert failed == {"rational_gf", "h_complete"}


class TestATableau:
    def test_count_is_binomial(self):
        for k in range(5):
            for length in range(5):
                count = sum(1 for _ in a_tableaux(k, length))
                assert count == comb(k + length, length)


def h_route(p, n):
    """Row k of one h_prefixes pass to degree n holds W*[k..n,k]."""
    return list(h_prefixes(whitney_values(p, n), n))


class TestRoutes:
    def test_hand_value(self):
        assert h_route(P11, 2)[1][1] == poly({0: 2, 1: 1})
        assert tableau_walk(P11, 1, 1)[1] == poly({0: 2, 1: 1})

    def test_diagonal(self):
        for p in PARAM_GRID:
            assert h_route(p, 4)[4][0] == ONE
            assert tableau_walk(p, 4, 0) == [ONE]

    def test_column_zero(self):
        for p in PARAM_GRID:
            assert h_route(p, 4)[0] == tuple(power(q_int(p.r), n)
                                             for n in range(5))

    def test_three_routes_agree(self):
        for p in PARAM_GRID:
            rows = h_route(p, 6)
            for k in range(7):
                expected = [w_star(p, n, k) for n in range(k, 7)]
                assert list(rows[k][:7 - k]) == expected
                assert tableau_walk(p, k, 6 - k) == expected

    def test_walk_matches_per_cell_enumeration(self):
        for p in PARAM_GRID:
            for k in range(9):
                weights = [q_int(p.m * i + p.r) for i in range(k + 1)]
                assert tableau_walk(p, k, 8 - k) == \
                    [multiset_sum(weights, n - k) for n in range(k, 9)]

    def test_walk_counts_each_tableau_once(self, monkeypatch):
        # one product per tableau of at most 4 columns but the empty one,
        # C(3+4+1, 4) - 1 of them, each added into its length's working
        # list with no ring sum (it made one sum per tableau)
        calls = count_operators(monkeypatch)
        tableau_walk(P11, 3, 4)
        assert calls["__add__"] == 0
        assert calls["__mul__"] == comb(3 + 4 + 1, 4) - 1

    def test_enumeration_cap(self, monkeypatch):
        # C(25, 12) = 5,200,300 tableaux is over DEFAULT_ENUMERATION_CAP;
        # the count is checked before the weights of the first one are built
        def refuse(*args):
            raise AssertionError("the walk started before the cap check")
        monkeypatch.setattr(symm, "whitney_values", refuse)
        with pytest.raises(EnumerationTooLarge, match="^5200300 "):
            tableau_walk(WhitneyParams(1, 0), 12, 12)


class TestShiftedValues:
    def test_no_shift(self):
        for p in PARAM_GRID:
            assert w_star(WhitneyParams(p.m, p.r), 3, 2) == w_star(p, 3, 2)

    def test_collapsed_to_power(self):
        # W*_{m,r+mk}[s, 0] has a single variable: [m*k + r]_q^s
        for p in PARAM_GRID:
            for k in range(3):
                for s in range(4):
                    expected = power(q_int(p.m * k + p.r), s)
                    assert w_star(WhitneyParams(p.m, p.r + p.m * k), s, 0) == expected

    def test_matches_h_complete_window(self):
        p = WhitneyParams(1, 0)
        shift_k, s, t = 1, 3, 2
        values = [q_int(p.m * i + p.r) for i in range(shift_k, t + 1)]
        expected = h_last(values, s - t + shift_k)
        shifted = WhitneyParams(p.m, p.r + p.m * shift_k)
        assert w_star(shifted, s, t - shift_k) == expected

    def test_window_identity_grid(self):
        for p in PARAM_GRID:
            for shift_k in range(3):
                for t in range(shift_k, 5):
                    for s in range(t - shift_k, 6):
                        values = [q_int(p.m * i + p.r)
                                  for i in range(shift_k, t + 1)]
                        expected = h_last(values, s - t + shift_k)
                        shifted = WhitneyParams(p.m, p.r + p.m * shift_k)
                        assert w_star(shifted, s, t - shift_k) == expected


def polynomial_verdicts(tables, nmax, spmax):
    """``convolution_check``'s ``(counts, failed)``, each cell compared as
    polynomials by ``convolution_first`` and ``convolution_second``."""
    first = [("convolution_first", {"n": n, "l": l, "j": j},
              convolution_first(*tables, n, l, j))
             for n in range(nmax + 1) for l in range(n + 1)
             for j in range(n - l + 1)]
    second = [("convolution_second", {"s": s, "p": pp, "t": t},
               convolution_second(*tables, s, pp, t))
              for s in range(spmax + 1) for pp in range(spmax + 1)
              for t in range(s + pp + 1)]
    return ({"convolution_first": len(first),
             "convolution_second": len(second)},
            [(identity, cell) for identity, cell, ok in first + second
             if not ok])


class TestConvolutions:
    def test_first_trivial(self):
        assert convolution_first(*convolution_tables(P11, 0, 0), 0, 0, 0)

    def test_first_hand_value(self):
        # W*[2,1] = 2+q decomposes as [2]_q + [1]_q
        assert convolution_first(*convolution_tables(P11, 1, 0), 1, 0, 0)

    def test_first_grid(self):
        for p in PARAM_GRID:
            tables = convolution_tables(p, 5, 0)
            for n in range(6):
                for l in range(n + 1):
                    for j in range(n - l + 1):
                        assert convolution_first(*tables, n, l, j)

    def test_second_p_zero(self):
        for p in PARAM_GRID:
            tables = convolution_tables(p, 0, 3)
            for s in range(4):
                for t in range(s + 1):
                    assert convolution_second(*tables, s, 0, t)

    def test_second_hand_value(self):
        assert convolution_second(*convolution_tables(P11, 0, 1), 1, 1, 1)

    def test_second_grid(self):
        for p in PARAM_GRID:
            tables = convolution_tables(p, 0, 4)
            for s in range(5):
                for pp in range(5):
                    for t in range(s + pp + 1):
                        assert convolution_second(*tables, s, pp, t)

    def test_tables_hold_w_star(self):
        # every entry either identity may read, against w_star cell by cell
        for p in PARAM_GRID:
            nmax, spmax = 4, 3
            table, shifted = convolution_tables(p, nmax, spmax)
            assert len(table) == 2 * spmax + 1 and len(shifted) == nmax + 2
            for n, row in enumerate(table):
                assert row == [w_star(p, n, k) for k in range(n + 1)]
            for i, rows in enumerate(shifted):
                assert len(rows) == max(nmax + 2 - i,
                                        spmax + 1 if i <= spmax else 1)
                q = WhitneyParams(p.m, p.r + p.m * i)
                for n, row in enumerate(rows):
                    assert row == [w_star(q, n, k) for k in range(n + 1)]

    def test_point_check_is_the_polynomial_check(self):
        for p in PARAM_GRID:
            tables = convolution_tables(p, 5, 4)
            verdicts = convolution_check(*tables, 5, 4)
            assert verdicts == polynomial_verdicts(tables, 5, 4)
            assert verdicts[1] == []

    def test_point_check_fails_the_cells_a_shift_fault_fails(self):
        with perturb_convolution_shift():
            for p in PARAM_GRID:
                tables = convolution_tables(p, 4, 3)
                verdicts = convolution_check(*tables, 4, 3)
                assert verdicts == polynomial_verdicts(tables, 4, 3)
                assert verdicts[1]

    @pytest.mark.parametrize("entry", ["table", "shifted"])
    def test_negative_exponent_fails_its_cells_and_does_not_raise(self,
                                                                  entry):
        # W* has no negative exponent: an entry read as W*/q fails every
        # cell that reads it, and only those.  As polynomials they fail
        # too, but for cell (s, p, t) = (1, 0, 0) of the table's entry,
        # whose two sides are W*[1,0]/q and W*[1,0]/q times W*[0,0] = 1.
        table, shifted = convolution_tables(P11, 3, 3)
        rows = table if entry == "table" else shifted[1]
        rows[1][0] = rows[1][0].shift(-1)
        counts, failed = convolution_check(table, shifted, 3, 3)
        right_counts, right_failed = polynomial_verdicts((table, shifted),
                                                         3, 3)
        assert counts == right_counts
        assert [cell for cell in right_failed if cell not in failed] == []
        assert [cell for cell in failed if cell not in right_failed] == \
            ([("convolution_second", {"s": 1, "p": 0, "t": 0})]
             if entry == "table" else [])
        assert 0 < len(failed) < sum(counts.values())

    def test_one_coefficient_off_by_one_fails(self):
        # the largest entry of the first identity's left sides, one
        # coefficient up by 1 in its middle: exact in every coefficient
        table, shifted = convolution_tables(WhitneyParams(3, 2), 5, 0)
        x = table[6][3]
        c = list(x.coeffs)
        c[len(c) // 2] += 1
        table[6][3] = poly({e: v for e, v in enumerate(c, x.min_exp())})
        verdicts = convolution_check(table, shifted, 5, 0)
        assert verdicts == polynomial_verdicts((table, shifted), 5, 0)
        assert verdicts[1]

    def test_suite_cells_fail_under_a_shift_fault(self):
        grid = {"m": [1, 2], "r": [0, 1], "nmax_conv": 2, "spmax_conv": 2}
        assert verify.run_suite("convolution", grid)[0].ok
        with perturb_convolution_shift():
            res = verify.run_suite("convolution", grid)[0]
        failed = {f.identity for f in res.failures}
        assert failed == {"convolution_first", "convolution_second"}
        # the cells that failed when each was compared as polynomials
        grid = {"m": [1, 2], "r": [0, 1], "nmax_conv": 6, "spmax_conv": 5}
        with perturb_convolution_shift():
            res = verify.run_suite("convolution", grid)[0]
        assert (res.cells, len(res.failures)) == (1200, 834)

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


def convolution_cells(nmax: int, spmax: int) -> list:
    """(sides, parameters) of every cell that ``convolution_check`` reads
    for nmax and spmax, the sides from the polynomial oracles."""
    return ([(first_sides, (n, l, j)) for n in range(nmax + 1)
             for l in range(n + 1) for j in range(n - l + 1)]
            + [(second_sides, (s, p, t)) for s in range(spmax + 1)
               for p in range(spmax + 1) for t in range(s + p + 1)])


def uncovered_convolution_cells(params, nmax: int, spmax: int,
                                bound_of) -> list:
    """The parameters of each convolution cell of one family whose sides
    the bound ``bound_of(table, shifted, nmax, spmax)`` does not cover.

    The sides are the left side and the sum of its products, built as
    polynomials by ``conftest``'s ``first_sides`` and ``second_sides``
    over each cell's full k range.  A cell is covered when every
    coefficient of each side, and of their difference, is within the
    bound, and when so is the L1 norm of the left side plus those of the
    products: any signs they could take then leave a difference within
    the bound too.
    """
    tables = convolution_tables(params, nmax, spmax)
    bound = bound_of(*tables, nmax, spmax)
    uncovered = []
    for sides, args in convolution_cells(nmax, spmax):
        lhs, terms = sides(*tables, *args)
        rhs = sum(terms, ZERO)
        widest = max(max(map(abs, x.coeffs), default=0)
                     for x in (lhs, rhs, lhs - rhs))
        if max(widest, l1(lhs) + sum(map(l1, terms))) > bound:
            uncovered.append(args)
    return uncovered


def right_side_bound(table, shifted, nmax, spmax):
    """``symm.convolution_bound`` without the left side's L1 norm: a
    planted fault, too small for every cell with a nonzero left side."""
    return max(sum(map(l1, sides(table, shifted, *args)[1]))
               for sides, args in convolution_cells(nmax, spmax))


families = st.builds(WhitneyParams, st.integers(1, 12), st.integers(0, 15))


class TestConvolutionBound:
    """``symm.convolution_bound`` sets the point at which both convolution
    identities compare their sides; the comparison is exact only if the
    bound covers both sides and their difference."""

    @given(families, st.integers(0, 3), st.integers(0, 3))
    @example(WhitneyParams(12, 15), 3, 3)
    @example(WhitneyParams(1, 0), 3, 3)
    @settings(max_examples=20, deadline=None)
    def test_bound_covers_every_side(self, params, nmax, spmax):
        assert uncovered_convolution_cells(params, nmax, spmax,
                                           symm.convolution_bound) == []

    @given(families, st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_planted_bound_is_caught(self, params, nmax, spmax):
        # at q = 1 both sides of a cell have one L1 norm, so the cell
        # with the largest falls short by half
        assert uncovered_convolution_cells(params, nmax, spmax,
                                           right_side_bound)

    def test_check_reads_the_bound(self, monkeypatch):
        calls, right = [], symm.convolution_bound

        def recorded(table, shifted, nmax, spmax):
            calls.append((nmax, spmax))
            return right(table, shifted, nmax, spmax)

        monkeypatch.setattr(symm, "convolution_bound", recorded)
        assert verify.run_suite("convolution", {"m": [2], "r": [0, 3],
                                                "nmax_conv": 3,
                                                "spmax_conv": 2})[0].ok
        assert calls == [(3, 2), (3, 2)]
