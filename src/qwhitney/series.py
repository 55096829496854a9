"""Truncated formal power series in z with PolyFraction coefficients.

The paper-facing generating functions are written in powers of [t]_q; here
that quantity is treated as the formal variable z, so every identity becomes
a statement about truncated series coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .qcore import (LaurentPoly, ONE, PolyFraction, ZERO, eval_q, q_binomial,
                    q_factorial, q_factorial_base, q_int)
from .whitney import WhitneyParams, w

PF_ZERO = PolyFraction(ZERO)
PF_ONE = PolyFraction(ONE)


class NonInvertibleConstantTerm(ArithmeticError):
    """Series inversion needs a nonzero constant coefficient."""


@dataclass(frozen=True)
class PowerSeries:
    """Coefficients 0..order of a truncated series in z."""

    order: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient count must be order+1")

    @classmethod
    def constant(cls, c: PolyFraction, order: int) -> "PowerSeries":
        return cls(order, (c,) + (PF_ZERO,) * order)

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls.constant(PF_ONE, order)

    def __getitem__(self, n: int) -> PolyFraction:
        return self.coeffs[n]

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        order = min(self.order, other.order)
        return PowerSeries(order, tuple(self.coeffs[n] + other.coeffs[n]
                                        for n in range(order + 1)))

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        order = min(self.order, other.order)
        return PowerSeries(order, tuple(self.coeffs[n] - other.coeffs[n]
                                        for n in range(order + 1)))

    def __mul__(self, other) -> "PowerSeries":
        if isinstance(other, (PolyFraction, LaurentPoly, int)):
            if not isinstance(other, PolyFraction):
                other = PolyFraction(other)
            return PowerSeries(self.order,
                               tuple(c * other for c in self.coeffs))
        order = min(self.order, other.order)
        out = []
        for n in range(order + 1):
            acc = PF_ZERO
            for i in range(n + 1):
                acc = acc + self.coeffs[i] * other.coeffs[n - i]
            out.append(acc)
        return PowerSeries(order, tuple(out))

    __rmul__ = __mul__

    def shift_z(self, k: int) -> "PowerSeries":
        """Multiply by z^k (k >= 0), truncating at the same order."""
        if k < 0:
            raise ValueError("negative z-shift")
        return PowerSeries(self.order,
                           (PF_ZERO,) * min(k, self.order + 1)
                           + self.coeffs[: self.order + 1 - k])

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return (self.order == other.order
                and all(a == b for a, b in zip(self.coeffs, other.coeffs)))


def series_inverse(s: PowerSeries) -> PowerSeries:
    """Multiplicative inverse up to the truncation order."""
    a0 = s.coeffs[0]
    if a0.is_zero():
        raise NonInvertibleConstantTerm("constant coefficient is zero")
    b0 = a0.reciprocal()
    out = [b0]
    for n in range(1, s.order + 1):
        acc = PF_ZERO
        for i in range(1, n + 1):
            acc = acc + s.coeffs[i] * out[n - i]
        out.append(-(b0 * acc))
    return PowerSeries(s.order, tuple(out))


def geometric(a: LaurentPoly, order: int) -> PowerSeries:
    """1/(1 - a z) = sum_n a^n z^n."""
    coeffs = [PF_ONE]
    power = ONE
    for _ in range(order):
        power = power * a
        coeffs.append(PolyFraction(power))
    return PowerSeries(order, tuple(coeffs))


def rational_gf(params: WhitneyParams, k: int, N: int) -> PowerSeries:
    """The column generating function

        q^(m C(k,2) + kr) z^k / prod_{j=0}^{k} (1 - [mj+r]_q z),

    whose z^n coefficient is W_{m,r}[n,k]_q.
    """
    if k > N:
        raise ValueError("k must be <= truncation order")
    m, r = params.m, params.r
    s = PowerSeries.one(N)
    for j in range(k + 1):
        s = s * geometric(q_int(m * j + r), N)
    prefactor = LaurentPoly.monomial(m * comb(k, 2) + k * r)
    return (s * prefactor).shift_z(k)


def q_exponential(a: LaurentPoly, N: int) -> PowerSeries:
    """e_q(a z) = sum_n a^n z^n / [n]_q!."""
    coeffs = []
    power = ONE
    for n in range(N + 1):
        coeffs.append(PolyFraction(power, q_factorial(n)))
        power = power * a
    return PowerSeries(N, tuple(coeffs))


def egf(params: WhitneyParams, k: int, N: int) -> PowerSeries:
    """Column EGF: z^n coefficient equals W_{m,r}[n,k]_q / [n]_q!.

    Built from the alternating combination of q-exponentials; the shared
    [n]_q! denominators are summed as numerators to keep fractions small.
    """
    if k > N:
        raise ValueError("k must be <= truncation order")
    m, r = params.m, params.r
    norm = q_factorial_base(k, m) * q_int(m) ** k
    weights = []
    for j in range(k + 1):
        sign = -1 if (k - j) % 2 else 1
        weights.append((q_binomial(k, j, m).shift(m * comb(k - j, 2)) * sign,
                        q_int(j * m + r)))
    coeffs = []
    for n in range(N + 1):
        num = ZERO
        for c, a in weights:
            num = num + c * a ** n
        coeffs.append(PolyFraction(num, q_factorial(n) * norm))
    return PowerSeries(N, tuple(coeffs))


def horizontal_row(params: WhitneyParams, n: int, qval: Fraction) -> list:
    """The values W[n,k]_q at q = qval for k = 0..n."""
    qval = Fraction(qval)
    return [w(params, n, k).eval(qval) for k in range(n + 1)]


def horizontal_falling(params: WhitneyParams, t: int, qval: Fraction,
                       kmax: int) -> list:
    """The falling factors [t-r|m]_{k,q} = prod_{j<k} [t-r-jm]_q at q = qval
    for k = 0..kmax; they do not depend on n."""
    qval = Fraction(qval)
    m, r = params.m, params.r
    out = [Fraction(1)]
    for k in range(1, kmax + 1):
        out.append(out[-1] * eval_q(q_int(t - r - (k - 1) * m), qval))
    return out


def horizontal_gf_check(params: WhitneyParams, n: int, t: int,
                        qval: Fraction, row: list = None,
                        falling: list = None) -> bool:
    """Does sum_k W[n,k]_q [t-r|m]_{k,q} = [t]_q^n hold at q = qval?

    Checked as exact rationals; the falling factors may involve q-integers
    of negative arguments.  ``row`` is ``horizontal_row(params, n, qval)``
    and ``falling`` is ``horizontal_falling(params, t, qval, kmax)`` for
    some kmax >= n; each is computed here when not given, and a caller
    checking many (n, t) at one q passes them in so each is evaluated once.
    """
    qval = Fraction(qval)
    if row is None:
        row = horizontal_row(params, n, qval)
    if falling is None:
        falling = horizontal_falling(params, t, qval, n)
    lhs = sum((row[k] * falling[k] for k in range(n + 1)), Fraction(0))
    rhs = eval_q(q_int(t), qval) ** n
    return lhs == rhs
