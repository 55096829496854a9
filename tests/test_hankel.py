import random
from operator import floordiv

import pytest

from conftest import random_laurent, stirling2_enum
from qwhitney import (ExactMatrix, HankelSpec, LaurentPoly, WhitneyParams,
                      classical_hankel_check, det_cofactor, det_exact,
                      hankel_closed_form, hankel_matrix,
                      hankel_transform_check, lu_check, q_int, w_star)
from qwhitney import hankel
from qwhitney.hankel import bareiss_det, lu_factors, matmul
from qwhitney.qcore import ONE, ZERO

P11 = WhitneyParams(1, 1)
PARAM_GRID = [WhitneyParams(m, r) for m in (1, 2, 3) for r in (0, 1, 2)]


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            HankelSpec(P11, -1, 0)
        with pytest.raises(ValueError):
            ExactMatrix(((ONE, ONE),))


class TestMatrix:
    def test_order_zero(self):
        mat = hankel_matrix(HankelSpec(P11, 2, 0))
        assert mat.entries == ((ONE,),)

    def test_entries_by_definition(self):
        spec = HankelSpec(WhitneyParams(2, 1), 1, 2)
        mat = hankel_matrix(spec)
        for i in range(3):
            for j in range(3):
                assert mat[i, j] == w_star(spec.params, 1 + i + j, 1 + j)

    def test_two_by_two_structure(self):
        for p in PARAM_GRID:
            mat = hankel_matrix(HankelSpec(p, 0, 1))
            assert mat[0, 0] == ONE and mat[0, 1] == ONE
            assert mat[1, 0] == q_int(p.r)
            assert mat[1, 1] == q_int(p.r) + q_int(p.m + p.r)


class TestDeterminant:
    def test_order_one(self):
        assert det_exact(ExactMatrix(((q_int(3),),))) == q_int(3)

    def test_two_by_two_hand_value(self):
        for p in PARAM_GRID:
            mat = hankel_matrix(HankelSpec(p, 0, 1))
            assert det_exact(mat) == q_int(p.m + p.r)

    def test_bareiss_matches_cofactor_random(self):
        rng = random.Random(11)
        for order in (2, 3, 4):
            for _ in range(8):
                mat = ExactMatrix(tuple(
                    tuple(random_laurent(rng, 3, (0, 2), (-4, 4))
                          for _ in range(order))
                    for _ in range(order)))
                assert det_exact(mat) == det_cofactor(mat)

    def test_zero_pivot_falls_back(self):
        mat = ExactMatrix(((ZERO, ONE), (ONE, ZERO)))
        assert det_exact(mat) == -ONE

    def test_zero_pivots_need_no_cofactor(self, monkeypatch):
        rng = random.Random(5)

        def entry():
            return random_laurent(rng, 3, (-1, 2), (-4, 4)) + ONE

        rows = [[entry() for _ in range(4)] for _ in range(4)]
        rows[0][0] = ZERO
        lead_zero = ExactMatrix(tuple(map(tuple, rows)))
        # rows 0 and 1 agree up to q in columns 0 and 1, so the second
        # pivot vanishes after the first elimination step
        rows = [[entry() for _ in range(4)] for _ in range(4)]
        rows[1][:2] = [x.shift(1) for x in rows[0][:2]]
        mid_zero = ExactMatrix(tuple(map(tuple, rows)))
        singular = ExactMatrix(((ONE, ZERO, q_int(2)),
                                (q_int(3), ZERO, ONE),
                                (LaurentPoly({-1: 2}), ZERO, q_int(-2))))
        mats = (lead_zero, mid_zero, singular)
        expected = [det_cofactor(mat) for mat in mats]
        assert expected[2] == ZERO
        assert not any(x.is_zero() for x in expected[:2])

        def refuse(mat):
            raise AssertionError("det_exact fell back to det_cofactor")

        monkeypatch.setattr(hankel, "det_cofactor", refuse)
        assert [det_exact(mat) for mat in mats] == expected

    def test_int_zero_pivots(self):
        rows = [[0, 2, 1], [0, 0, 3], [4, 1, 1]]  # both pivots need a swap
        assert bareiss_det(rows, floordiv) == 24
        assert bareiss_det([[1, 0, 2], [3, 0, 1], [5, 0, 7]], floordiv) == 0

    def test_bareiss_matches_cofactor_on_grid(self):
        for p in PARAM_GRID[:4]:
            for s in range(3):
                for n in range(4):
                    mat = hankel_matrix(HankelSpec(p, s, n))
                    assert det_exact(mat) == det_cofactor(mat)


class TestHankelTransform:
    def test_order_zero(self):
        for p in PARAM_GRID:
            assert hankel_closed_form(HankelSpec(p, 2, 0)) == ONE
            assert hankel_transform_check(HankelSpec(p, 2, 0))

    def test_two_by_two(self):
        for p in PARAM_GRID:
            assert hankel_transform_check(HankelSpec(p, 0, 1))

    def test_grid(self):
        for p in PARAM_GRID:
            for s in range(4):
                for n in range(5):
                    assert hankel_transform_check(HankelSpec(p, s, n))


class TestLU:
    def test_order_zero(self):
        assert lu_check(HankelSpec(P11, 0, 0))

    def test_hand_factors(self):
        lower, upper = lu_factors(HankelSpec(P11, 0, 1))
        assert lower.entries == ((ONE, ZERO), (q_int(1), ONE))
        assert upper.entries == ((ONE, ONE), (ZERO, q_int(2)))
        assert matmul(lower, upper).entries == \
            hankel_matrix(HankelSpec(P11, 0, 1)).entries

    def test_upper_diagonal_closed_form(self):
        for p in PARAM_GRID:
            for s in range(3):
                spec = HankelSpec(p, s, 3)
                _, upper = lu_factors(spec)
                for k in range(4):
                    assert upper[k, k] == q_int(p.m * (s + k) + p.r) ** k

    def test_grid(self):
        for p in PARAM_GRID:
            for s in range(4):
                for n in range(5):
                    assert lu_check(HankelSpec(p, s, n))


class TestClassical:
    def test_stirling_shifted(self):
        # det [[S(1,1),S(2,2)],[S(2,1),S(3,2)]] = 2
        rows = [[stirling2_enum(1, 1), stirling2_enum(2, 2)],
                [stirling2_enum(2, 1), stirling2_enum(3, 2)]]
        assert bareiss_det(rows, floordiv) == 2
        assert classical_hankel_check(1, 0, 1, 1)

    def test_stirling_triangle_det(self):
        rows = [[1, 1, 1], [0, 1, 3], [0, 1, 7]]
        assert bareiss_det(rows, floordiv) == 4
        assert classical_hankel_check(1, 0, 0, 2)

    def test_hand_value(self):
        assert classical_hankel_check(2, 1, 0, 1)

    def test_grid(self):
        for p in PARAM_GRID:
            for s in range(4):
                for n in range(5):
                    assert classical_hankel_check(p.m, p.r, s, n)
