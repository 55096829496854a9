"""Exact q-analogue r-Whitney numbers of the second kind.

Laurent-polynomial values, several independent computation routes
(triangular recurrence, explicit q-difference formula, generating
functions, symmetric functions, tableau enumeration), and the Hankel
transform of the normalized values.
"""

from .qcore import (LaurentPoly, DivisionByZero, EvalAtZero, NonExactDivision,
                    gauss_product_check, laurent_div_q_ints,
                    laurent_exact_div, q_binomial,
                    q_binomial_alternating_sum, q_binomial_inverse,
                    q_binomial_row, q_binomial_transform, q_factorial, q_int,
                    q_int_mul_add)
from .whitney import (InternalNonLaurent, WhitneyParams, classical_w,
                      r_dowling, w, w_horizontal, w_star, w_table, w_vertical)
from .qcalculus import (RouteValues, newton_coefficients, q_diff_heads,
                        q_power_table, whitney_explicit)
from .series import egf, horizontal_gf_check, rational_gf_columns
from .symm import (EnumerationTooLarge, convolution_first, convolution_second,
                   h_complete, tableau_sum, w_star_symmetric)
from .hankel import (ExactMatrix, HankelSpec, classical_hankel_check,
                     det_cofactor, det_exact, hankel_closed_form,
                     hankel_factors, hankel_matrix, hankel_transform_check,
                     lu_check)

__version__ = "0.1.0"
