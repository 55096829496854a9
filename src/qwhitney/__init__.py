"""Exact q-analogue r-Whitney numbers of the second kind.

Laurent-polynomial values, several independent computation routes
(triangular recurrence, explicit q-difference formula, generating
functions, symmetric functions, tableau enumeration), and the Hankel
transform of the normalized values.
"""

from .qcore import (LaurentPoly, DivisionByZero, EvalAtZero, NonExactDivision,
                    laurent_div_q_ints, laurent_exact_div, q_int,
                    q_int_mul_add)
from .whitney import (WhitneyParams, horizontal_pass, r_dowling, vertical_pass,
                      w, w_star, w_table)
from .qcalculus import q_binomial_terms, q_diff_heads
from .series import horizontal_gf_check, rational_gf_columns
from .symm import (EnumerationTooLarge, convolution_check, convolution_tables,
                   h_prefixes, tableau_walk)
from .hankel import (HankelSpec, classical_hankel_check, degree_bound,
                     hankel_closed_forms, hankel_matrix, leading_dets,
                     lu_check)

__version__ = "0.1.0"
