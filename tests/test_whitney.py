from fractions import Fraction
from math import comb

import pytest

from conftest import (bell_enum, classical_whitney_recurrence,
                      count_operators, list_rows, perturb_recurrence, poly,
                      power, record_products, stirling2_enum)
from qwhitney import (WhitneyParams, horizontal_pass, q_int, qcalculus,
                      qcore, r_dowling, verify, vertical_pass, w, w_star,
                      w_table, whitney)
from qwhitney.qcore import ONE, ZERO

P11 = WhitneyParams(1, 1)
PARAM_GRID = [WhitneyParams(m, r) for m in (1, 2, 3) for r in (0, 1, 2)]


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            WhitneyParams(0, 0)
        with pytest.raises(ValueError):
            WhitneyParams(1, -1)


class TestTriangularRecurrence:
    def test_base_case(self):
        for p in PARAM_GRID:
            assert w(p, 0, 0) == ONE

    def test_out_of_range_is_zero(self):
        assert w(P11, 1, 2) == ZERO
        assert w(P11, -1, 0) == ZERO
        assert w(P11, 2, -1) == ZERO

    def test_column_zero(self):
        for p in PARAM_GRID:
            for n in range(6):
                assert w(p, n, 0) == power(q_int(p.r), n)

    def test_diagonal(self):
        for p in PARAM_GRID:
            for n in range(6):
                exp = p.m * comb(n, 2) + n * p.r
                assert w(p, n, n) == ONE.shift(exp)

    def test_row_two_values(self):
        assert w(P11, 2, 1) == poly({1: 2, 2: 1})
        assert w(P11, 2, 2) == ONE.shift(3)

    def test_nonnegative_coefficients(self):
        for p in PARAM_GRID:
            for n in range(11):
                for k in range(n + 1):
                    v = w(p, n, k)
                    assert all(c > 0 for c in v.terms.values())
                    if v:
                        assert v.min_exp() >= 0

    def test_ehrenborg_special_case(self):
        # At (m,r)=(1,0) the recurrence is the Ehrenborg-variant q-Stirling one
        p = WhitneyParams(1, 0)
        for n in range(1, 11):
            for k in range(1, n + 1):
                expected = (w(p, n - 1, k - 1).shift(k - 1)
                            + q_int(k) * w(p, n - 1, k))
                assert w(p, n, k) == expected


class TestTable:
    def test_nmax_zero(self):
        assert w_table(P11, 0) == ((ONE,),)

    def test_matches_pointwise(self):
        t = w_table(WhitneyParams(2, 1), 5)
        for n in range(6):
            for k in range(n + 1):
                assert t[n][k] == w(WhitneyParams(2, 1), n, k)

    def test_stirling_triangle_at_one(self):
        t = w_table(WhitneyParams(1, 0), 3)
        values = [[int(v.eval(Fraction(1))) for v in row] for row in t]
        assert values == [[1], [0, 1], [0, 1, 1], [0, 1, 3, 1]]

    def test_negative_nmax_rejected(self):
        with pytest.raises(ValueError):
            w_table(P11, -1)


# Families whose rows cross 2^64 at q = 1, each to its nmax: their
# entries near the corners are built at q = 2^64, the rest by lists.
CROSSING = [(1, 0, 40), (3, 5, 30), (12, 15, 20)]


def counted(monkeypatch, name):
    """The number of calls of ``whitney.name`` while the monkeypatch
    lasts, in a one-element list."""
    calls, step = [0], getattr(whitney, name)

    def call(*args):
        calls[0] += 1
        return step(*args)

    monkeypatch.setattr(whitney, name, call)
    return calls


class TestWordEntries:
    """Entries under 2^64 at q = 1 are built at q = 2^64; every row must
    equal the list step's, however the rows are grown."""

    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(whitney, "_tables", {})

    @pytest.mark.parametrize("m, r, nmax", CROSSING)
    def test_one_call_equals_list_oracle(self, m, r, nmax):
        assert w_table(WhitneyParams(m, r), nmax) == \
            tuple(map(tuple, list_rows(m, r, nmax)))

    @pytest.mark.parametrize("m, r, nmax", CROSSING)
    def test_grown_across_the_boundary_equals_list_oracle(self, m, r, nmax):
        p = WhitneyParams(m, r)
        for n in range(3, nmax, 7):
            w_table(p, n)
        assert w_table(p, nmax) == tuple(map(tuple, list_rows(m, r, nmax)))

    @pytest.mark.parametrize("m, r, nmax", CROSSING)
    def test_without_words_every_entry_takes_the_list_step(
            self, monkeypatch, m, r, nmax):
        # A big-endian host has no machine words.
        monkeypatch.setattr(qcore, "_WORDS", ())
        steps = counted(monkeypatch, "q_int_mul_add")
        assert w_table(WhitneyParams(m, r), nmax) == \
            tuple(map(tuple, list_rows(m, r, nmax)))
        assert steps[0] == (nmax + 1) * (nmax + 2) // 2 - 1

    def test_interrupted_build_leaves_rows_that_grow_right(self, monkeypatch):
        # The rows and the last row at X and at q = 1 move together, row
        # by row, so a build cut off midway resumes from a consistent row.
        m, r, nmax = CROSSING[0]
        calls, unpack = [0], whitney.unpack_words

        def failing_once(*args):
            calls[0] += 1
            if calls[0] == 300:
                raise MemoryError
            return unpack(*args)

        monkeypatch.setattr(whitney, "unpack_words", failing_once)
        p = WhitneyParams(m, r)
        with pytest.raises(MemoryError):
            w_table(p, nmax)
        assert w_table(p, nmax) == tuple(map(tuple, list_rows(m, r, nmax)))

    def test_faulted_weight_reaches_both_forms(self):
        m, r, nmax = CROSSING[1]
        with perturb_recurrence():
            rows = w_table(WhitneyParams(m, r), nmax)
        assert rows == tuple(map(tuple, list_rows(m, r, nmax, 1)))
        assert rows != tuple(map(tuple, list_rows(m, r, nmax)))


class TestVerticalRecurrence:
    def test_single_term(self):
        for p in PARAM_GRID:
            for k in range(4):
                expected = w(p, k, k).shift(p.m * k + p.r)
                assert vertical_pass(p, k, k) == [expected]

    def test_hand_value(self):
        assert vertical_pass(P11, 0, 1)[1] == poly({1: 2, 2: 1})

    def test_matches_recurrence(self):
        # entry n-k of column k-1's pass is W[n,k]
        for p in PARAM_GRID:
            for k in range(1, 9):
                assert vertical_pass(p, k - 1, 7) == \
                    [w(p, n, k) for n in range(k, 9)]


class TestHorizontalRecurrence:
    def test_diagonal_telescopes(self):
        for p in PARAM_GRID:
            for n in range(5):
                assert horizontal_pass(p, n)[n] == w(p, n, n)

    def test_row_one(self):
        for p in PARAM_GRID:
            assert horizontal_pass(p, 1)[0] == q_int(p.r)

    def test_matches_recurrence(self):
        for p in PARAM_GRID:
            for n in range(9):
                assert horizontal_pass(p, n) == [w(p, n, k)
                                                 for k in range(n + 1)]


class TestProductPaths:
    @pytest.fixture
    def kronecker(self, monkeypatch):
        """Record the operand lengths of every Kronecker product."""
        return record_products(monkeypatch, "_mul_kronecker")

    def test_counter_sees_a_general_product(self, kronecker):
        assert poly({0: 1, 1: 2}) * poly({0: 3, 1: 1}) == \
            poly({0: 3, 1: 7, 2: 2})
        assert kronecker == [(2, 2)]

    @pytest.mark.parametrize("suite", ["recurrences", "explicit", "symmetric",
                                       "genfun", "convolution"])
    def test_suite_needs_no_kronecker_product(self, kronecker, suite):
        # The Horner routes multiply by one [a]_q per step, and the tableau
        # and h weights are q-integers: each product has a run on one side,
        # as has each step of the explicit suite's normalizers.  The
        # explicit, Newton, EGF, horizontal GF and convolution checks
        # multiply integers, not polynomials, and the explicit suite
        # rolls its values [jm+r]_q^n as integers too.
        assert verify.run_suite(suite)[0].ok
        assert kronecker == []

    # A suite reads every cell of a running-sum route from one pass, one
    # product and one sum per step: a step per checked recurrence cell
    # (900 on the default grid), and per tableau (4,599) and h step (324:
    # row k of the h triangle takes 8 - k steps per (m, r)) for the
    # symmetric suite.  Rebuilt per cell, they took 3,465 and 19,107
    # products.
    @pytest.mark.parametrize("suite, steps", [
        ("recurrences", 900),
        ("symmetric", 4599 + 324),
    ])
    def test_one_step_per_cell(self, monkeypatch, suite, steps):
        calls = count_operators(monkeypatch)
        assert verify.run_suite(suite)[0].ok
        assert 0 < calls["__mul__"] <= steps
        assert 0 < calls["__add__"] <= steps

    # Each L*U entry multiplies only k <= min(i, j) (55 per order-5
    # family, not 125); over every k it took 7,380 products.
    # The genfun suite's ring products and sums are its h steps alone (57
    # per (m, r)), since its EGF and horizontal GF cells are checked in
    # integers.  With each EGF numerator summed in the ring it took 3,996
    # products and 1,107 sums.
    def test_genfun_multiplies_only_in_its_h_steps(self, monkeypatch):
        calls = count_operators(monkeypatch)
        assert verify.run_suite("genfun")[0].ok
        assert 0 < calls["__mul__"] <= 513
        assert 0 < calls["__add__"] <= 513

    # The convolution tables are the triangle rows shifted, and each cell
    # is compared in integers at one point: no ring product or sum.  Its
    # cells multiplied 5,859 pairs of polynomials when they were compared
    # as polynomials.
    def test_convolution_makes_no_ring_product_or_sum(self, monkeypatch):
        calls = count_operators(monkeypatch)
        assert verify.run_suite("convolution")[0].ok
        assert calls["__mul__"] == calls["__add__"] == 0

    # A clean explicit cell multiplies W by its normalizer and compares;
    # only a failed cell divides.  Dividing every cell took 990 divisions.
    # Its q-Pascal rows are rolled at the point by shifted integer
    # additions, with no polynomial product or sum; built by the ratio of
    # neighbouring entries they took 45 products and 45 divisions per
    # (m, r) at kmax 9.
    def test_clean_explicit_suite_divides_nothing(self, monkeypatch):
        divisions = []
        for module in (qcore, verify):
            divide = module.laurent_div_q_ints

            def counted(x, a_list, divide=divide):
                divisions.append(len(a_list))
                return divide(x, a_list)

            monkeypatch.setattr(module, "laurent_div_q_ints", counted)
        assert verify.run_suite("explicit")[0].ok
        assert divisions == []
        calls = count_operators(monkeypatch)
        row = []
        for _ in range(10):
            row = qcalculus.q_binomial_row(row, 2, 8)
        assert calls["__mul__"] == calls["__add__"] == 0

    # Each suite counts its cells per identity, in bulk: 12,420 in all.
    def test_default_grid_cell_counts(self):
        counts = {res.suite: res.counts for res in verify.run_suite("all")}
        assert counts == {
            "recurrences": {"vertical": 405, "horizontal": 495},
            "explicit": {"explicit": 495, "newton": 495},
            "genfun": {"rational_gf": 702, "egf": 594,
                       "horizontal_gf": 5184},
            "symmetric": {"h_complete": 405, "tableau": 405},
            "convolution": {"convolution_first": 756,
                            "convolution_second": 1944},
            "hankel": {"hankel_transform": 180, "lu_factorization": 180,
                       "classical_hankel": 180},
        }
        assert sum(sum(c.values()) for c in counts.values()) == 12420

    def test_lu_product_skips_the_zero_halves(self, monkeypatch):
        calls = count_operators(monkeypatch)
        assert verify.run_suite("hankel")[0].ok
        assert 0 < calls["__mul__"] <= 4860

    # Every entry of the default grid's triangles is under 2^64 at q = 1,
    # so each is built at q = 2^64; a family crossing 2^64 takes both.
    def test_default_grid_builds_every_entry_at_the_point(self, monkeypatch):
        monkeypatch.setattr(whitney, "_tables", {})
        lists = counted(monkeypatch, "q_int_mul_add")
        points = counted(monkeypatch, "mul_q_int_at_point")
        assert all(result.ok for result in verify.run_suite("all"))
        assert lists[0] == 0
        assert points[0] > 0

    def test_crossing_family_takes_both_forms(self, monkeypatch):
        monkeypatch.setattr(whitney, "_tables", {})
        lists = counted(monkeypatch, "q_int_mul_add")
        points = counted(monkeypatch, "mul_q_int_at_point")
        m, r, nmax = CROSSING[0]
        w_table(WhitneyParams(m, r), nmax)
        assert lists[0] > 0
        assert points[0] > 0

    def test_default_grid_needs_no_byte_slots(self, monkeypatch):
        # Every Kronecker product of the default grid has nonnegative
        # operands whose slot bound fits a machine word.
        byte_slots = record_products(monkeypatch, "_mul_kronecker_bytes")
        assert all(result.ok for result in verify.run_suite("all"))
        assert byte_slots == []


class TestStar:
    def test_diagonal_is_one(self):
        for p in PARAM_GRID:
            for n in range(8):
                assert w_star(p, n, n) == ONE

    def test_hand_value(self):
        assert w_star(P11, 2, 1) == poly({0: 2, 1: 1})

    def test_column_zero_unshifted(self):
        for p in PARAM_GRID:
            for n in range(6):
                assert w_star(p, n, 0) == w(p, n, 0)

    def test_no_negative_exponents(self):
        for p in PARAM_GRID:
            for n in range(11):
                for k in range(n + 1):
                    v = w_star(p, n, k)
                    if v:
                        assert v.min_exp() >= 0


class TestRowSums:
    def test_base(self):
        for p in PARAM_GRID:
            assert r_dowling(p, 0) == ONE

    def test_bell_number_at_one(self):
        p = WhitneyParams(1, 0)
        assert r_dowling(p, 4).eval(Fraction(1)) == bell_enum(4) == 15

    def test_row_two(self):
        v = r_dowling(P11, 2)
        assert v == poly({0: 1, 1: 2, 2: 1, 3: 1})
        assert v.eval(Fraction(1)) == 5


class TestClassicalLimit:
    def test_stirling_counts(self):
        p = WhitneyParams(1, 0)
        assert sum(w(p, 4, 2).coeffs) == stirling2_enum(4, 2) == 7
        for n in range(9):
            for k in range(n + 1):
                assert sum(w(p, n, k).coeffs) == stirling2_enum(n, k)

    def test_hand_recurrence(self):
        assert sum(w(WhitneyParams(2, 1), 2, 1).coeffs) == 4

    def test_column_zero(self):
        for p in PARAM_GRID:
            for n in range(6):
                assert sum(w(p, n, 0).coeffs) == p.r ** n

    def test_matches_classical_recurrence(self):
        for p in PARAM_GRID:
            for n in range(9):
                for k in range(n + 1):
                    assert sum(w(p, n, k).coeffs) == \
                        classical_whitney_recurrence(p.m, p.r, n, k)
