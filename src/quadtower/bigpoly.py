"""Exact univariate integer polynomials and big-integer helpers.

A polynomial is a dense tuple of coefficients, low degree first; the highest
stored coefficient is nonzero and the zero polynomial is the empty tuple.
Everything is exact: Python-int arithmetic, and decimal arithmetic for the
big values of the critical orbit, in one module-level context that refuses
to round.  Floats appear only in the logarithmic height functions.
"""

from __future__ import annotations

import decimal
import functools
import math
from fractions import Fraction
from typing import Iterable, Iterator


class ZeroPolynomialError(ValueError):
    """The operation needed a nonzero (or nonconstant) polynomial."""


# phi^15(gamma) of a small map is already ~32k bits; 2^20 bits of headroom
# keeps desk-scale work comfortable while stopping runaway doubling early.
DEFAULT_MAX_BITS = 1 << 20
_LOG2_10 = math.log2(10)


class BudgetError(RuntimeError):
    """A computation stopped at its budget.  .partial is what was computed
    before: None, or an object whose to_json_dict() renders it.  error is the
    refusal's name in the CLI's JSON."""

    error = "budget-exceeded"

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class DigitBudgetError(BudgetError):
    """A value outgrew the bit budget.  .partial holds the orbit rows
    computed before the overflow, or a report built from them, and is None
    when the refused computation has no orbit behind it.  check_bits also
    sets .what (the value's name), .bits (what it needs) and .max_bits (the
    budget); a refusal made before any value exists leaves them None."""

    error = "digit-budget-exceeded"

    def __init__(self, message: str, partial=None, what: str | None = None,
                 bits: int | None = None, max_bits: int | None = None):
        super().__init__(message, partial)
        self.what = what
        self.bits = bits
        self.max_bits = max_bits


def check_bits(value, max_bits: int, what: str, partial=None) -> None:
    """Raise DigitBudgetError, naming what the value is and carrying
    partial, when value, an int or an integer decimal.Decimal, needs more
    than max_bits bits."""
    bits = value.bit_length() if isinstance(value, int) else decimal_bit_length(value)
    if bits > max_bits:
        raise DigitBudgetError(f"{what} needs {bits} bits; budget is {max_bits}", partial,
                               what, bits, max_bits)


class FrozenSlots:
    """Base of the value classes whose __init__ validates or normalizes (the
    plain records are NamedTuples).  A subclass names its fields in _fields
    and its __slots__, sets them once with _set, and then compares, hashes,
    pickles and prints as Name(field=value, ...); assignment raises
    AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class IntPolynomial(FrozenSlots):
    """Dense integer polynomial with coefficients stored low-to-high.

    >>> p = IntPolynomial([0, 1, 1])    # t + t^2
    >>> p.evaluate(3)
    12
    >>> str(p)
    't^2 + t'
    >>> p
    IntPolynomial(coeffs=(0, 1, 1))
    """

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- construction and serialization ------------------------------------

    @classmethod
    def parse(cls, text: str) -> IntPolynomial:
        """Parse a comma-separated low-to-high coefficient list ("0,1" is t)."""
        return cls(map(parse_int, text.split(",")) if text.strip() else ())

    def serialize(self) -> str:
        """Inverse of parse; the zero polynomial serializes as "0"."""
        if not self.coeffs:
            return "0"
        return ",".join(map(decimal_str, self.coeffs))

    # -- basic structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial (no -1 sentinel)."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "IntPolynomial | None":
        if isinstance(other, IntPolynomial):
            return other
        if isinstance(other, int):
            return IntPolynomial((other,))
        return None

    def __add__(self, other) -> IntPolynomial:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        n = max(len(self.coeffs), len(q.coeffs))
        return IntPolynomial(
            (self.coeffs[i] if i < len(self.coeffs) else 0)
            + (q.coeffs[i] if i < len(q.coeffs) else 0)
            for i in range(n)
        )

    __radd__ = __add__

    def __neg__(self) -> IntPolynomial:
        return IntPolynomial(-c for c in self.coeffs)

    def __sub__(self, other) -> IntPolynomial:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __mul__(self, other) -> IntPolynomial:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        if self.is_zero or q.is_zero:
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(q.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(q.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def evaluate(self, x: int) -> int:
        """Exact value at x by Horner's scheme."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, other: IntPolynomial) -> IntPolynomial:
        """Substitution self(other(t)), expanded over Z."""
        acc = IntPolynomial()
        for c in reversed(self.coeffs):
            acc = acc * other + c
        return acc

    def derivative(self) -> IntPolynomial:
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    # -- display ---------------------------------------------------------------

    def to_string(self, var: str = "t") -> str:
        return _display(list(map(decimal_str, self.coeffs)), var)

    def __str__(self) -> str:
        return self.to_string()

    def serialize_and_display(self) -> tuple[str, str]:
        """serialize() and str(self), converting each coefficient once."""
        texts = list(map(decimal_str, self.coeffs))
        return ",".join(texts) or "0", _display(texts, "t")


def _display(texts: list[str], var: str) -> str:
    """to_string's text from the decimal texts of the coefficients, low
    degree first."""
    parts: list[str] = []
    for i in range(len(texts) - 1, -1, -1):
        text = texts[i]
        if text == "0":
            continue
        negative = text[0] == "-"
        mag = text[1:] if negative else text
        if i == 0:
            term = mag
        else:
            head = "" if mag == "1" else mag
            term = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
        if not parts:
            parts.append(("-" if negative else "") + term)
        else:
            parts.append((" - " if negative else " + ") + term)
    return "".join(parts) or "0"


# -- resultants and discriminants -----------------------------------------


def _exact_div(a: int, b: int) -> int:
    """a / b when b divides a; ArithmeticError, which python -O keeps, otherwise."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("non-exact division in the subresultant sequence")
    return q


def _prem(a: list[int], b: list[int]) -> list[int]:
    """prem(a, b): lc(b)^(deg a - deg b + 1) * a reduced mod b, exactly in Z.
    Coefficient lists run leading coefficient first; [] is zero."""
    lb, n = b[0], len(b)
    r, e = a, len(a) - n + 1
    while len(r) >= n:
        lead = r[0]
        r = [lb * x - lead * y for x, y in zip(r[1:n], b[1:])] + [lb * x for x in r[n:]]
        e -= 1
        while r and not r[0]:
            del r[0]
    scale = lb ** e
    return [scale * x for x in r]


def resultant(p: IntPolynomial, q: IntPolynomial) -> int:
    """Exact resultant via the subresultant polynomial remainder sequence.

    Convention: resultant(p, q) = lc(p)^deg(q) * prod q(alpha) over the roots
    alpha of p, so resultant(t - 2, t - 3) == -1.
    """
    if p.is_zero or q.is_zero:
        raise ZeroPolynomialError("resultant needs nonzero polynomials")
    # leading coefficient first; a polynomial of odd degree has an even length
    a, b = p.coeffs[::-1], q.coeffs[::-1]
    s = 1
    if len(a) < len(b):
        if len(a) % 2 == len(b) % 2 == 0:
            s = -1
        a, b = b, a
    if len(b) == 1:
        return s * b[0] ** (len(a) - 1)
    ca, cb = math.gcd(*a), math.gcd(*b)
    a = [_exact_div(x, ca) for x in a]
    b = [_exact_div(x, cb) for x in b]
    t = ca ** (len(b) - 1) * cb ** (len(a) - 1)
    g = h = 1
    while True:
        delta = len(a) - len(b)
        if len(a) % 2 == len(b) % 2 == 0:
            s = -s
        r = _prem(a, b)
        if not r:
            return 0
        k = g * h ** delta
        a, b = b, [_exact_div(x, k) for x in r]
        g = a[0]
        if delta >= 1:
            h = _exact_div(g ** delta, h ** (delta - 1))
        if len(b) == 1:
            return s * t * _exact_div(b[0] ** (len(a) - 1), h ** (len(a) - 2))


def discriminant_direct(p: IntPolynomial) -> int:
    """disc(p) = (-1)^(d(d-1)/2) * resultant(p, p') / lc(p) for deg p >= 1."""
    if p.is_zero or p.degree == 0:
        raise ZeroPolynomialError("discriminant needs degree >= 1")
    d = p.degree
    r = resultant(p, p.derivative())
    if (d * (d - 1) // 2) % 2:
        r = -r
    return _exact_div(r, p.leading_coefficient)


# -- heights ---------------------------------------------------------------


def height_int(a: "int | Fraction") -> float:
    """Absolute logarithmic height, natural-log units.

    For an integer this is log max(1, |a|); for a rational in lowest terms,
    log max(|numerator|, denominator).
    """
    f = Fraction(a)
    return math.log(max(abs(f.numerator), f.denominator, 1))


def poly_height(p: IntPolynomial) -> float:
    """Max of the coefficient heights; 0 for the zero polynomial."""
    if p.is_zero:
        return 0.0
    return math.log(max(max(abs(c) for c in p.coeffs), 1))


# -- perfect squares --------------------------------------------------------

# One square filter: a square is a square modulo 64 and modulo each odd
# prime below 400, and all of these tests read one residue modulo
# square_filter_modulus().  A non-square passes each prime's test with
# probability about 1/2, so almost none reaches an exact square root.
_SQUARES_MOD_64 = frozenset((i * i) & 63 for i in range(64))
_SQUARE_FILTER_PRIMES = tuple(
    p for p in range(3, 400, 2) if all(p % d for d in range(3, math.isqrt(p) + 1, 2))
)


@functools.cache
def _square_mask(p: int) -> int:
    """Bit i is set when i is a square mod the prime p."""
    mask = 0
    for i in range(p // 2 + 1):
        mask |= 1 << (i * i % p)
    return mask


def square_filter_modulus() -> int:
    """64 times the filter primes: a residue modulo any multiple of this
    holds everything passes_square_filter reads."""
    return 64 * math.prod(_SQUARE_FILTER_PRIMES)


def passes_square_filter(r: int) -> bool:
    """False when r, the residue of some integer modulo a multiple of
    square_filter_modulus(), proves that integer is no square; True means
    it may be one.  The sign is the caller's to check."""
    if (r & 63) not in _SQUARES_MOD_64:
        return False
    for p in _SQUARE_FILTER_PRIMES:
        if not (_square_mask(p) >> (r % p)) & 1:
            return False
    return True


def is_perfect_square(n: int) -> int | None:
    """The nonnegative square root of n when n is a perfect square, else None.

    >>> is_perfect_square(4294967296)
    65536
    >>> is_perfect_square(458330) is None
    True
    """
    if n < 0 or not passes_square_filter(n):
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


# -- decimal text ------------------------------------------------------------
#
# Integers become text through decimal_str and text becomes integers through
# parse_int, nowhere else.  CPython before 3.12 converts between the two in
# quadratic time, and 3.11+ (3.10.7+) refuses either way past 4,300 digits
# unless a process-wide limit is lifted; both split big values instead.

# Pieces at most this wide convert directly with Decimal(int).
_DECIMAL_LEAF_BITS = 1024
# Texts at most this long go to int() as they are: no limit on int-to-str
# digits may be lower (sys.int_info.str_digits_check_threshold).
_INT_LEAF_DIGITS = 640


# Every decimal operation goes through this context: integer +, -, *, //,
# divmod and powers are exact at maximal precision and exponent range, and
# Inexact is trapped in case one is not.  No helper reads the thread's context.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                         traps=[decimal.InvalidOperation, decimal.DivisionByZero,
                                decimal.Overflow, decimal.Inexact])
# decimal_bit_length reads a value's 18 leading digits, rounded down, in
# _LEAD.  Its float log2 then errs by about 1e-15 per further digit, far
# below _HAIR, the band per digit that it settles exactly.
_LEAD = decimal.Context(prec=18, rounding=decimal.ROUND_DOWN, Emax=decimal.MAX_EMAX, traps=[])
_HAIR = 2.0 ** -40


def _pow2(powers: dict, w: int) -> decimal.Decimal:
    """2^w as a Decimal, memoized in powers (w -> 2^w) for one conversion."""
    p = powers.get(w)
    if p is None:
        if w <= _DECIMAL_LEAF_BITS:
            p = _EXACT.power(2, w)
        elif w - 1 in powers:
            p = _EXACT.multiply(powers[w - 1], 2)
        else:
            half = w >> 1
            p = _EXACT.multiply(_pow2(powers, half), _pow2(powers, w - half))
        powers[w] = p
    return p


def _convert(powers: dict, m: int, w: int) -> decimal.Decimal:
    """Decimal(m) for 0 <= m < 2^w, split at 2^(w // 2)."""
    if w <= _DECIMAL_LEAF_BITS:
        return decimal.Decimal(m)
    half = w >> 1
    hi = m >> half
    high = _EXACT.multiply(_convert(powers, hi, w - half), _pow2(powers, half))
    return _EXACT.add(high, _convert(powers, m - (hi << half), half))


def _to_decimal(n: int) -> decimal.Decimal:
    """Decimal(n) in subquadratic time.

    |n| is split at powers of two and the halves are recombined in the
    decimal module, whose multiplication is subquadratic.  The table of
    powers of two lives for one call and is freed when it returns.
    """
    d = _convert({}, abs(n), n.bit_length())
    return d.copy_negate() if n < 0 else d


def decimal_str(n: int) -> str:
    """Exactly str(n), by way of _to_decimal.

    >>> decimal_str(-12345)
    '-12345'
    >>> decimal_str(10 ** 30 - 1) == "9" * 30
    True
    """
    return str(_to_decimal(n))


def parse_int(text: str) -> int:
    """Exactly int(text) for a text of at most 640 characters.  A longer one
    must be an optional sign and ASCII digits, with surrounding whitespace;
    its digits are split in halves at powers of ten.

    >>> parse_int(" -" + "9" * 1000) == -(10 ** 1000 - 1)
    True
    """
    if len(text) <= _INT_LEAF_DIGITS:
        return int(text)
    body = text.strip()
    digits = body[1:] if body[:1] in ("+", "-") else body
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text[:200]!r}")
    n = _from_digits(digits, {})
    return -n if body[0] == "-" else n


def _from_digits(digits: str, powers: dict) -> int:
    """int(digits) of ASCII digits, split at 10^(len // 2); powers memoizes 10^w."""
    if len(digits) <= _INT_LEAF_DIGITS:
        return int(digits)
    half = len(digits) >> 1
    power = powers.get(half) or powers.setdefault(half, 10 ** half)
    return _from_digits(digits[:-half], powers) * power + _from_digits(digits[-half:], powers)


def decimal_bit_length(x: decimal.Decimal) -> int:
    """int(x).bit_length() for the integer Decimal x, without converting it.
    log2|x| is estimated from its 18 leading digits and its exponent; only an
    estimate within _HAIR per digit of a whole number k compares |x| with 2^k."""
    x = x.copy_abs()
    shift = x.adjusted() + 1 - _LEAD.prec  # |x| = lead * 10^shift, lead < 10^18
    if shift <= 0:
        return int(x).bit_length()
    log = math.log2(int(_LEAD.scaleb(x, -shift))) + shift * _LOG2_10
    k = round(log)
    if abs(log - k) > shift * _HAIR:
        return math.floor(log) + 1
    return k + 1 if x >= _EXACT.power(2, k) else k


def decimal_product(*factors: decimal.Decimal) -> decimal.Decimal:
    """The exact product of integer Decimals."""
    return functools.reduce(_EXACT.multiply, factors)


def decimal_difference(x: decimal.Decimal, n: int) -> decimal.Decimal:
    """x - n, exactly, for an integer Decimal x and an int n."""
    return _EXACT.subtract(x, _to_decimal(n))


def decimal_isqrt(x: decimal.Decimal) -> decimal.Decimal | None:
    """The square root of the integer Decimal x >= 0 when x is a perfect
    square, else None.

    The root is taken to a few digits more than half of x's, so a square's
    root comes out exact; squaring it back decides.
    """
    ctx = decimal.Context(prec=x.adjusted() // 2 + 3, Emax=decimal.MAX_EMAX,
                          Emin=decimal.MIN_EMIN)
    root = ctx.to_integral_value(ctx.sqrt(x))
    return root if _EXACT.multiply(root, root) == x else None


def decimal_quotient(x: decimal.Decimal, q: int) -> decimal.Decimal:
    """x / q for an integer Decimal x and an int q > 0 that divides it,
    exactly; ValueError when q does not divide x."""
    if q == 1:
        return x
    quotient, rem = _EXACT.divmod(x, q)
    if rem:
        raise ValueError(f"{decimal_str(q)} does not divide the value")
    return quotient


# The decimal orbit is checked against the integer orbit modulo this.
_TAIL = 10 ** 18


def decimal_orbit(gamma: int, c: int, start: int) -> Iterator[decimal.Decimal]:
    """start, phi(start), phi^2(start), ... for phi(x) = (x - gamma)^2 + c,
    as exact integer decimal.Decimal values.

    start is converted once and the orbit is stepped in decimal arithmetic,
    whose multiplication is subquadratic, so each level costs one decimal
    squaring instead of a base conversion.  The last 18 digits of every
    value are checked against the orbit stepped modulo 10^18, which ties the
    decimal values back to the integers.  The next value is computed only
    when it is asked for.
    """
    x, g, k = _to_decimal(start), _to_decimal(gamma), _to_decimal(c)
    r = start % _TAIL
    while True:
        if int(_EXACT.remainder(x, _TAIL)) % _TAIL != r:
            raise ValueError("the decimal orbit disagrees with the orbit mod 10^18")
        yield x
        y = _EXACT.subtract(x, g)
        x = _EXACT.add(_EXACT.multiply(y, y), k)
        r = (((r - gamma) % _TAIL) ** 2 + c) % _TAIL

