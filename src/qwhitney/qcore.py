"""Exact arithmetic foundation: Laurent polynomials in q and q-integers.

Every value in the library is either a :class:`LaurentPoly` or an exact
rational (``fractions.Fraction``).  Nothing here ever touches floating
point.

Two kernels do the q-integer arithmetic of the hot paths in C-level
passes over one working list.  :func:`q_int_mul_add` is the triangle's
step [a]_q p + q^e q: a sliding-window sum over prefix sums and one
shifted addition.  :func:`laurent_div_q_ints` divides exactly by a product
of q-integers: per factor [a]_q = (1-q^a)/(1-q), one difference pass for
the 1-q and a prefix sum over each residue class mod a for the 1-q^a,
with the top a entries of each pass as its remainder check.  Every
divisor of the explicit and Newton routes is such a product, and so, by
the Hankel theorem, is every Bareiss pivot of a Hankel matrix.
:func:`laurent_exact_div` divides by anything else, one
Python-level step per quotient coefficient.

A LaurentPoly is dense: an exponent offset plus a tuple of int coefficients.
Its product is a sliding-window sum when either factor is a q-integer (or
any run of equal coefficients), and Kronecker substitution (pack both
sides into one int, multiply, unpack) otherwise.  Kronecker slots are
machine words, packed from an ``array`` and unpacked by a ``memoryview``
cast, when both sides are nonnegative and the product's coefficients fit
64 bits; other products are packed in byte slots.  A sum, like the shifted
addition of the fused step, is one aligned ``map(add)`` in a working list
(``_add_into``), a difference one ``map(sub)``.  :func:`poly_sums` adds
each of several sums (the tableau walk's, one per length) into one list
per sum, each trimmed once, and :func:`poly_sum` is its case of one sum.
:func:`pack_at_point` gives polynomials with no negative exponent as
integers at one point q = 2^B, B set from a coefficient bound, where the
explicit, Newton, EGF and convolution checks compare their two sides;
:func:`mul_q_int_at_point` multiplies such an integer by [a]_X with
shifts and adds alone, which is how the explicit suite rolls its values
and terms from n to n+1 and the EGF check its terms;
:func:`unpack_at_point` reads such an integer back as the polynomial of
its balanced digits, the decoder the byte-slot Kronecker product reads
its slots with; :func:`unpack_words` reads a nonnegative integer at
X = 2^64 back by its 64-bit words in one ``memoryview`` cast, which is
how the triangle reads back an entry it built there, on the entry's
first read.
Rational evaluation is a single integer Horner pass
(``LaurentPoly.value_parts``), which gives the value at q = a/b as an
integer numerator and denominator; ``eval`` puts them in one Fraction, and
a caller summing many values at one q can cross-multiply the integers
instead.
``to_json`` renders a polynomial straight to the JSON text of its sorted
[exponent, coefficient-as-decimal-string] pairs, byte-identical to
``json.dumps`` of the pairs.  When the exponents lie in 0..8,191 and no
interior coefficient is zero (as in the triangle entries), the text is
one ``%`` of the coefficient tuple into a slice of a shared exponent
template ``'[0, "%d"], [1, "%d"], ...'``, built on first use in
power-of-two sizes up to that 8,192-exponent cap; anything else takes a
per-coefficient fallback.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import cache
from itertools import accumulate, chain, islice, repeat
from operator import add, mul, neg, sub


class NonExactDivision(ArithmeticError):
    """Polynomial division left a nonzero remainder."""


class DivisionByZero(ZeroDivisionError):
    """Division by the zero polynomial."""


class EvalAtZero(ValueError):
    """Evaluation at q=0 is not defined for Laurent polynomials."""


class LaurentPoly:
    """Dense Laurent polynomial in q with arbitrary-precision integer
    coefficients.

    The value is q^_lo * (c_0 + c_1 q + ... + c_d q^d), stored as the offset
    ``_lo`` and the tuple ``_c = (c_0, ..., c_d)`` of ints.  ``_c`` never has
    a zero at either end and the zero polynomial is ``_lo = 0, _c = ()``, so
    equality and hashing are plain comparisons of the pair.  Instances are
    immutable, built only by ``_poly`` and ``_trimmed``; all operations
    return new values, and every operand is a LaurentPoly.

    Multiplication applies a factor that is a run of equal coefficients
    (every [a]_q), on either side, as a sliding-window sum over prefix
    sums; any other product is one big-int Kronecker substitution, in
    machine-word slots for nonnegative factors whose product coefficients
    fit 64 bits and in byte slots otherwise.
    """

    __slots__ = ("_lo", "_c")

    @property
    def terms(self) -> dict:
        return {e: c for e, c in enumerate(self._c, self._lo) if c}

    def min_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no exponents")
        return self._lo

    def max_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no exponents")
        return self._lo + len(self._c) - 1

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._lo == other._lo and self._c == other._c

    def __hash__(self) -> int:
        return hash((self._lo, self._c))

    def __neg__(self) -> "LaurentPoly":
        return _poly(self._lo, tuple(map(neg, self._c)))

    def __add__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not other._c:
            return self
        if not self._c:
            return other
        c = list(self._c)
        return _trimmed(_add_into(c, self._lo, other._c, other._lo), c)

    def __sub__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not other._c:
            return self
        if not self._c:
            return -other
        c = list(self._c)
        return _trimmed(_add_into(c, self._lo, other._c, other._lo, sub), c)

    def __mul__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return ZERO
        lo = self._lo + other._lo
        if b.count(b[0]) == len(b):
            return _poly(lo, _mul_run(a, b[0], len(b)))
        if a.count(a[0]) == len(a):
            return _poly(lo, _mul_run(b, a[0], len(a)))
        return _poly(lo, _mul_kronecker(a, b))

    def shift(self, e: int) -> "LaurentPoly":
        """Multiply by the monomial q^e."""
        return _poly(self._lo + e, self._c) if self._c else self

    @property
    def coeffs(self) -> tuple:
        """The coefficients (c_0, ..., c_d) from the lowest exponent up."""
        return self._c

    def value_parts(self, a: int, b: int) -> tuple:
        """Integers (num, den) with num / den the value at q = a/b, for
        ints a != 0 and b >= 1, not reduced to lowest terms.

        One integer Horner pass forms N = sum_i c_i a^i b^(d-i); the value
        is N a^lo / b^hi for exponents lo..hi, and each power enters num
        or den by its sign.  The zero polynomial gives (0, 1).
        """
        c = self._c
        if not c:
            return 0, 1
        acc = 0
        if b == 1:
            for x in reversed(c):
                acc = acc * a + x
        else:
            bpow = 1
            for x in reversed(c):
                acc = acc * a + x * bpow
                bpow *= b
        lo = self._lo
        hi = lo + len(c) - 1
        num = acc * (a ** lo if lo > 0 else 1) * (b ** -hi if hi < 0 else 1)
        den = (a ** -lo if lo < 0 else 1) * (b ** hi if hi > 0 else 1)
        return num, den

    def eval(self, a: Fraction) -> Fraction:
        """Exact value at the rational q = a: ``value_parts`` at the
        numerator and denominator of a, in one final Fraction."""
        a = Fraction(a)
        if a == 0:
            raise EvalAtZero("cannot evaluate a Laurent polynomial at q=0")
        return Fraction(*self.value_parts(a.numerator, a.denominator))

    def to_json(self) -> str:
        """The text of ``json.dumps`` of the sorted [exponent,
        coefficient-as-decimal-string] pairs of the nonzero terms, without
        the intermediate pair lists.

        For exponents lo..hi with 0 <= lo and hi < ``_JSON_TEMPLATE_MAX`` and
        no zero coefficient, the pairs are the template slice for lo..hi, so
        one C-level ``%`` over the coefficient tuple writes the whole text.
        Other polynomials are rendered one coefficient at a time.
        """
        c = self._c
        lo = self._lo
        hi = lo + len(c) - 1
        if c and lo >= 0 and hi < _JSON_TEMPLATE_MAX and 0 not in c:
            text, pos = _json_template(max(_JSON_TEMPLATE_MIN, 1 << hi.bit_length()))
            return ("[" + text[pos[lo]:pos[hi + 1] - 2] + "]") % c
        return "[" + ", ".join([f'[{e}, "{x}"]' for e, x
                                in enumerate(c, lo) if x]) + "]"

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for e, c in enumerate(self._c, self._lo):
            if not c:
                continue
            if e == 0:
                term = str(abs(c))
            else:
                qpow = "q" if e == 1 else f"q^{e}"
                term = qpow if abs(c) == 1 else f"{abs(c)}*{qpow}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        # Angle brackets: there is no public constructor to call.
        return f"<LaurentPoly {self.terms!r}>"


# Exponent templates for to_json come in power-of-two sizes from the first
# to the second bound (the largest is about 120 KB of text).
_JSON_TEMPLATE_MIN = 256
_JSON_TEMPLATE_MAX = 8192


@cache
def _json_template(size: int) -> tuple:
    """The text '[0, "%d"], [1, "%d"], ..., [size-1, "%d"], ' and the
    offsets where each entry starts, with the end of the text last."""
    entries = [f'[{e}, "%d"], ' for e in range(size)]
    return "".join(entries), array("I", accumulate(map(len, entries), initial=0))


def _poly(lo: int, c: tuple) -> LaurentPoly:
    """q^lo * sum_i c[i] q^i for a tuple c with nonzero ends (or empty)."""
    p = object.__new__(LaurentPoly)
    p._lo = lo if c else 0
    p._c = c
    return p


def _trimmed(lo: int, c: list) -> LaurentPoly:
    """Like _poly, for a list that may have zeros at either end."""
    hi = len(c)
    while hi and not c[hi - 1]:
        hi -= 1
    start = 0
    while start < hi and not c[start]:
        start += 1
    if start or hi < len(c):
        c = c[start:hi]
    return _poly(lo + start, tuple(c))


def _add_into(c: list, lo: int, d: tuple, dlo: int, op=add) -> int:
    """Add q^dlo d, for a nonempty d, into q^lo c in the working list c
    (subtract it for ``op`` = sub) and return c's new offset; ``_trimmed``
    trims its ends.  c is padded with zeros where d reaches past either
    end, and d is added by one ``map(op)``.  One working list, so that no
    short-lived tuples pile up in the interpreter's tuple free lists.
    """
    off = dlo - lo
    if off < 0:
        c[:0] = repeat(0, -off)
        lo, off = dlo, 0
    end = off + len(d)
    if end > len(c):
        c.extend(repeat(0, end - len(c)))
    c[off:end] = map(op, c[off:end], d)
    return lo


def poly_sums(items, count: int) -> list:
    """The sums, for i = 0..count-1, of the LaurentPoly p of the ``(i, p)``
    items, ZERO where none has index i: each p is added into one working
    list for its index (``_add_into``), and each list is trimmed once at
    the end."""
    sums, los = [[] for _ in range(count)], [0] * count
    for i, p in items:
        c = sums[i]
        if not c:
            c[:], los[i] = p._c, p._lo
        elif p._c:
            los[i] = _add_into(c, los[i], p._c, p._lo)
    return list(map(_trimmed, los, sums))


def poly_sum(terms) -> LaurentPoly:
    """The sum of an iterable of LaurentPoly, ZERO for none, in one working
    list (``poly_sums`` at the one index 0)."""
    return poly_sums(zip(repeat(0), terms), 1)[0]


def _window_sum(a: tuple, n: int) -> list:
    """a times 1 + q + ... + q^(n-1), for n >= 1.

    Output k is the sum of a over the window max(0, k-n+1)..k, a
    difference of two prefix sums, so the cost is O(len(a)) for any n.
    """
    if n == 1:
        return list(a)
    s = list(accumulate(a, initial=0))
    s.extend(repeat(s[-1], n - 1))
    return list(map(sub, islice(s, 1, None), chain(repeat(0, n - 1), s)))


def _mul_run(a: tuple, y: int, n: int) -> tuple:
    """a times y*(1 + q + ... + q^(n-1))."""
    if n > 1:
        a = _window_sum(a, n)
    return tuple(a) if y == 1 else tuple(map(mul, a, repeat(y)))


def _coeff_bits(c: tuple) -> int:
    return max(max(c), -min(c)).bit_length()


def _pack(c: tuple, width: int) -> int:
    """sum_i c[i] 2^(8*width*i) as one int, in unsigned width-byte slots:
    nonnegative c in one ``map`` pass, otherwise its positive and negative
    coefficients apart."""
    if min(c) >= 0:
        return int.from_bytes(b"".join(map(int.to_bytes, c, repeat(width),
                                           repeat("little"))), "little")
    blank = bytes(width)
    pos = int.from_bytes(b"".join(x.to_bytes(width, "little") if x > 0 else blank
                                  for x in c), "little")
    return pos - int.from_bytes(b"".join((-x).to_bytes(width, "little") if x < 0
                                         else blank for x in c), "little")


def pack_at_point(bound: int, polys) -> tuple:
    """``(bits, values)``: B = bits, the least multiple of 8 at least 2
    bits over ``bound``, and each of ``polys`` at q = X = 2^B as one int,
    packed in B-bit slots (``_pack``, no Horner pass), or None for one
    with a negative exponent.  ``bound`` is at least every coefficient of
    ``polys`` in absolute value.

    Two polynomials whose difference has every coefficient at most
    ``bound`` in absolute value are then equal exactly when their values
    at X are: every coefficient of a nonzero difference is under X/4, so
    its top term outweighs all its lower terms together.
    ``unpack_at_point`` reads such a value back.
    """
    width = (bound.bit_length() + 9) // 8
    bits = 8 * width
    return bits, [0 if not p._c else None if p._lo < 0
                  else _pack(p._c, width) << bits * p._lo for p in polys]


def mul_q_int_at_point(x: int, a: int, bits: int) -> int:
    """x [a]_X at X = 2^bits, for an int x and a >= 0, by shifts and adds.

    [a]_X = 1 + X + ... + X^(a-1), read from the top bit of a down:
    [2c] = [c] (1 + X^c) and [2c+1] = 1 + X [2c], so at most 2 bitlen(a)
    shifted additions, each linear in the size of x, and no general
    product.  ValueError for a < 0.
    """
    if a < 0:
        raise ValueError("q-integer index must be >= 0")
    if not a:
        return 0
    y, c = x, 1
    for bit in bin(a)[3:]:
        y += y << bits * c
        c *= 2
        if bit == "1":
            y = x + (y << bits)
            c += 1
    return y


def unpack_at_point(bits: int, value: int) -> LaurentPoly:
    """The polynomial with nonnegative exponents and value the int
    ``value`` at q = X = 2^B, B = ``bits`` a multiple of 8, whose
    coefficients are balanced digits in [-X/2, X/2) (``_balanced_digits``).

    This inverts ``pack_at_point`` on every polynomial it packs: their
    coefficients are under X/4 in absolute value, and a value has one
    writing in balanced digits.  |value| < X^(n-1)/2 for
    n = bitlen(|value|) // B + 2, so n digits write it.
    """
    width = bits // 8
    return _trimmed(0, _balanced_digits(
        value, width, abs(value).bit_length() // bits + 2))


# Unsigned machine words for Kronecker slots, narrowest first, as
# (array typecode, bytes); none on a big-endian host.
_WORDS = (tuple((code, array(code).itemsize) for code in "BHIQ")
          if sys.byteorder == "little" else ())


def unpack_words(value: int, lo: int) -> LaurentPoly:
    """q^lo times the polynomial whose value at q = 2^64 is the int
    ``value`` >= 0 and whose coefficients are its 64-bit words: one
    ``memoryview`` cast of its bytes.  The cast is in native order, so
    only a host with machine words (``_WORDS``) may call it."""
    words = memoryview(value.to_bytes((value.bit_length() + 63) // 64 * 8,
                                      "little")).cast("Q")
    return _trimmed(lo, words.tolist())


def _mul_kronecker(a: tuple, b: tuple) -> tuple:
    """a*b by Kronecker substitution.  A product coefficient is a sum of
    min(len) terms; for nonnegative a and b it lies in
    [0, 2^(bits(max a) + bits(max b) + bitlen(min(len)))), so when that
    bound fits a machine word the narrowest such word is the slot, with no
    bias: ``array`` bytes pack each side, a ``memoryview`` cast unpacks the
    product.  Array bytes are in native order, so a big-endian host has no
    words and takes the byte slots, as signed or wider operands do.
    """
    if min(a) >= 0 and min(b) >= 0:
        bits = (max(a).bit_length() + max(b).bit_length()
                + min(len(a), len(b)).bit_length())
        for code, size in _WORDS:
            if bits <= 8 * size:
                x = (int.from_bytes(array(code, a).tobytes(), "little")
                     * int.from_bytes(array(code, b).tobytes(), "little"))
                n = len(a) + len(b) - 1
                return tuple(memoryview(x.to_bytes(n * size, "little")).cast(code))
    return _mul_kronecker_bytes(a, b)


def _mul_kronecker_bytes(a: tuple, b: tuple) -> tuple:
    """a*b by Kronecker substitution q -> 2^(8*width), in byte slots.

    A product coefficient is a sum of min(len) terms, so it is smaller in
    absolute value than 2^(bits(a) + bits(b) + bitlen(min(len))); one more
    sign bit makes every slot a balanced digit (``_balanced_digits``).
    """
    bits = (_coeff_bits(a) + _coeff_bits(b)
            + min(len(a), len(b)).bit_length() + 1)
    width = (bits + 7) // 8
    return _balanced_digits(_pack(a, width) * _pack(b, width), width,
                            len(a) + len(b) - 1)


def _balanced_digits(x: int, width: int, n: int) -> tuple:
    """The n digits d_i in [-2^(w-1), 2^(w-1)), w = 8*width, of
    x = sum_i d_i 2^(w i), for an x that n such digits can write.

    Adding 2^(w-1) to every slot turns them into plain unsigned slots,
    which are read back and re-centred.
    """
    half = 1 << (8 * width - 1)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
    buf = (x + bias).to_bytes(n * width, "little")
    return tuple(int.from_bytes(buf[i:i + width], "little") - half
                 for i in range(0, n * width, width))


ONE = _poly(0, (1,))
ZERO = _poly(0, ())


def q_int(n: int) -> LaurentPoly:
    """The q-integer [n]_q = (1-q^n)/(1-q) as a Laurent polynomial.

    For n >= 0 this is 1 + q + ... + q^(n-1); for n < 0 it is
    -q^n - q^(n+1) - ... - q^(-1), the unique Laurent extension.
    """
    if n >= 0:
        return _poly(0, (1,) * n)
    return _poly(n, (-1,) * -n)


def q_int_mul_add(p: LaurentPoly, a: int, q: LaurentPoly,
                  e: int) -> LaurentPoly:
    """[a]_q * p + q^e * q, in one working list.

    The product is the sliding-window sum of ``_window_sum`` (negated for
    a < 0, where [a]_q = -q^a [-a]_q).  The shifted q is then added into
    the same list by ``_add_into``.
    """
    pc, qc = p._c, q._c
    if not (a and pc):
        return _poly(q._lo + e, qc)
    c = _window_sum(pc, abs(a))
    lo = p._lo
    if a < 0:
        c[:] = map(neg, c)
        lo += a
    return _trimmed(_add_into(c, lo, qc, q._lo + e) if qc else lo, c)


def laurent_exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact division in the Laurent ring: the c with a = b*c.

    The coefficient tuples are eliminated from the lowest exponent upward,
    one scaled row of b per quotient coefficient.  Raises NonExactDivision
    if no exact quotient exists, DivisionByZero if b = 0.
    """
    if not b:
        raise DivisionByZero("division by zero polynomial")
    if not a:
        return ZERO
    bc = b._c
    lb, lead = len(bc), bc[0]
    nq = len(a._c) - lb + 1
    if nq < 1:
        raise NonExactDivision("divisor support exceeds dividend support")
    rem = list(a._c)
    quot = [0] * nq
    for i in range(nq):
        if rem[i]:
            q_, r_ = divmod(rem[i], lead)
            if r_:
                raise NonExactDivision("remainder in coefficient elimination")
            quot[i] = q_
            rem[i:i + lb] = map(sub, rem[i:i + lb], map(mul, bc, repeat(q_)))
    if any(rem):
        raise NonExactDivision("nonzero remainder")
    return _poly(a._lo - b._lo, tuple(quot))


def laurent_div_q_ints(x: LaurentPoly, a_list) -> LaurentPoly:
    """Exact division by a product of q-integers: the c with
    x = c * prod_{a in a_list} [a]_q, for a sequence a_list.

    Dividing by [a]_q = (1-q^a)/(1-q) takes two C-level passes over the
    coefficient list: one ``map(sub)`` multiplies by 1-q, and a prefix sum
    (``accumulate``) over each residue class ``c[s::a]`` divides by 1-q^a
    as a power series.  That series is the exact quotient if and only if
    its top a entries are zero, which is the remainder check.  A negative
    a divides by [-a]_q and then by -q^a.  Raises NonExactDivision if a
    factor does not divide, DivisionByZero if some a is 0.
    """
    if 0 in a_list:
        raise DivisionByZero("division by [0]_q = 0")
    c, lo, sign = x._c, x._lo, 1
    if not c:
        return ZERO
    for a in a_list:
        if a < 0:
            a, lo, sign = -a, lo - a, -sign
        if a == 1:
            continue
        c = list(map(sub, chain(c, (0,)), chain((0,), c)))
        for s in range(min(a, len(c))):
            c[s::a] = accumulate(c[s::a])
        if any(c[-a:]):
            raise NonExactDivision(f"[{a}]_q does not divide")
        del c[-a:]
    return _poly(lo, tuple(c) if sign > 0 else tuple(map(neg, c)))
