import ast
import gc
import math
import os
import pathlib
import random
import subprocess
import sys
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadtower
from quadtower.bigpoly import (
    _DECIMAL_LEAF_BITS,
    DigitBudgetError,
    IntPolynomial,
    ZeroPolynomialError,
    _exact_div,
    _to_decimal,
    check_bits,
    decimal_bit_length,
    decimal_orbit,
    decimal_quotient,
    decimal_str,
    discriminant_direct,
    height_int,
    is_perfect_square,
    parse_int,
    poly_height,
    resultant,
)
from quadtower.family import SpecializedMap

from conftest import compose, lift_int_limit, sylvester_resultant

T = IntPolynomial((0, 1))


def naive_evaluate(p, x):
    return sum(c * x ** i for i, c in enumerate(p.coeffs))


def test_evaluate_examples():
    assert T.evaluate(5) == 5
    assert IntPolynomial().evaluate(10 ** 40) == 0
    assert IntPolynomial((0, 1, 1)).evaluate(3) == 12


def test_evaluate_matches_naive_power_sum():
    rng = random.Random(7)
    for _ in range(200):
        deg = rng.randrange(0, 21)
        p = IntPolynomial([rng.randint(-10 ** 6, 10 ** 6) for _ in range(deg + 1)])
        x = rng.randint(-10 ** 6, 10 ** 6)
        assert p.evaluate(x) == naive_evaluate(p, x)


def test_compose_examples():
    assert compose(T * T, T + 1) == IntPolynomial((1, 2, 1))
    p = IntPolynomial((3, -2, 0, 7))
    assert compose(p, T) == p
    assert compose(IntPolynomial((0, 1, 1)), T * T) == IntPolynomial((0, 0, 1, 0, 1))


def test_compose_degree_multiplies():
    p = IntPolynomial((1, 2, 3))
    q = IntPolynomial((0, -1, 0, 4))
    assert compose(p, q).degree == p.degree * q.degree


def test_compose_associative():
    rng = random.Random(11)
    for _ in range(50):
        polys = [
            IntPolynomial([rng.randint(-5, 5) for _ in range(rng.randrange(1, 4))])
            for _ in range(3)
        ]
        p, q, r = polys
        assert compose(p, compose(q, r)) == compose(compose(p, q), r)


def test_canonical_form_strips_trailing_zeros():
    assert IntPolynomial((1, 2, 0, 0)) == IntPolynomial((1, 2))
    assert IntPolynomial((0, 0)).is_zero
    assert IntPolynomial().degree is None
    assert IntPolynomial((7,)).degree == 0


def test_parse_serialize_round_trip():
    assert IntPolynomial.parse("0,1") == T
    assert IntPolynomial.parse(" 0 , -1,  2 ") == IntPolynomial((0, -1, 2))
    assert IntPolynomial.parse("0") == IntPolynomial()
    assert IntPolynomial((0, -1, 2)).serialize() == "0,-1,2"
    assert IntPolynomial().serialize() == "0"


def test_big_coefficients_print_through_decimal_str(monkeypatch):
    # str() of an int is quadratic before CPython 3.12 and limited to 4,300
    # digits by default, so a big coefficient must print through
    # decimal_str, digit for digit as str() would
    import quadtower.bigpoly as bigpoly_mod

    big = 7 * (10 ** 12000 - 1) // 9  # 12,000 sevens
    converted = []

    def recording(n):
        converted.append(abs(n))
        return decimal_str(n)

    monkeypatch.setattr(bigpoly_mod, "decimal_str", recording)
    p = IntPolynomial((-big, 1, big))
    text = lift_int_limit(str, big)
    assert p.serialize() == ",".join(("-" + text, "1", text))
    assert p.to_string() == f"{text}t^2 + t - {text}"
    assert converted.count(big) == 4
    # family-info --json prints both texts, from one conversion of each
    converted.clear()
    both = p.serialize_and_display()
    assert converted.count(big) == 2
    assert both == (p.serialize(), p.to_string())


@given(st.lists(st.integers(-3, 3) | st.integers(), max_size=6))
def test_serialize_and_display_is_serialize_and_str(coeffs):
    p = IntPolynomial(coeffs)
    assert p.serialize_and_display() == (p.serialize(), str(p))


def test_resultant_examples():
    assert resultant(T - 2, T - 3) == -1
    assert resultant(T, T) == 0
    assert resultant(IntPolynomial((1, 0, 1)), IntPolynomial((-1, 0, 1))) == 4
    assert sylvester_resultant(IntPolynomial((1, 0, 1)), IntPolynomial((-1, 0, 1))) == 4


def test_resultant_rejects_zero():
    with pytest.raises(ZeroPolynomialError):
        resultant(IntPolynomial(), T)
    with pytest.raises(ZeroPolynomialError):
        resultant(T, IntPolynomial())


def test_resultant_matches_sylvester_determinant():
    rng = random.Random(13)
    checked = 0
    while checked < 300:
        dp = rng.randrange(0, 7)
        dq = rng.randrange(0, 7)
        p = IntPolynomial([rng.randint(-9, 9) for _ in range(dp + 1)])
        q = IntPolynomial([rng.randint(-9, 9) for _ in range(dq + 1)])
        if p.is_zero or q.is_zero:
            continue
        assert resultant(p, q) == sylvester_resultant(p, q), (p, q)
        checked += 1


def test_resultant_and_discriminant_against_sympy():
    # sympy swaps low-degree first arguments without the parity sign, so
    # compare on the deg p >= deg q orientation only (antisymmetry is
    # already pinned against the Sylvester determinant above)
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(37)
    for _ in range(40):
        p = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randrange(1, 6))] + [rng.randint(1, 9)])
        q = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randrange(1, 6))] + [rng.randint(1, 9)])
        if p.degree < q.degree:
            p, q = q, p
        sp = sum(c * x ** i for i, c in enumerate(p.coeffs))
        sq = sum(c * x ** i for i, c in enumerate(q.coeffs))
        assert resultant(p, q) == sympy.resultant(sp, sq, x)
        if p.degree >= 2:
            assert discriminant_direct(p) == sympy.discriminant(sp, x)


def test_resultant_shared_factor_is_zero():
    rng = random.Random(17)
    for _ in range(30):
        common = IntPolynomial([rng.randint(-4, 4) for _ in range(2)] + [1])
        p = common * IntPolynomial([rng.randint(-4, 4), 1])
        q = common * IntPolynomial([rng.randint(-4, 4), 2])
        assert resultant(p, q) == 0


def test_resultant_swap_antisymmetry():
    rng = random.Random(19)
    for _ in range(50):
        p = IntPolynomial([rng.randint(-6, 6) for _ in range(rng.randrange(1, 5))] + [1])
        q = IntPolynomial([rng.randint(-6, 6) for _ in range(rng.randrange(1, 5))] + [1])
        sign = -1 if (p.degree * q.degree) % 2 else 1
        assert resultant(p, q) == sign * resultant(q, p)


def test_discriminant_quadratic_family():
    rng = random.Random(23)
    for _ in range(100):
        v = rng.randint(-10 ** 6, 10 ** 6)
        assert discriminant_direct(IntPolynomial((v, 0, 1))) == -4 * v
    assert discriminant_direct(IntPolynomial((-1, 0, 1))) == 4


def test_discriminant_biquadratic_oracle():
    # disc(x^4 + p x^2 + q) = 16 p^4 q - 128 p^2 q^2 + 256 q^3
    rng = random.Random(29)
    for _ in range(40):
        p, q = rng.randint(-30, 30), rng.randint(-30, 30)
        poly = IntPolynomial((q, 0, p, 0, 1))
        expected = 16 * p ** 4 * q - 128 * p ** 2 * q ** 2 + 256 * q ** 3
        assert discriminant_direct(poly) == expected
    assert discriminant_direct(IntPolynomial((2, 0, 2, 0, 1))) == 512


def test_discriminant_rejects_constants():
    with pytest.raises(ZeroPolynomialError):
        discriminant_direct(IntPolynomial((5,)))
    with pytest.raises(ZeroPolynomialError):
        discriminant_direct(IntPolynomial())


def test_a_non_exact_step_raises_under_python_o():
    # python -O deletes assert statements, so the exactness check must not be
    # one: every pseudo-remainder gets +1 on one coefficient, which makes a
    # later exact division fail on the degree-16 t^2 + 1 -> p^2 + 1 -> ...
    with pytest.raises(ArithmeticError, match="^non-exact division in the subresultant sequence$"):
        _exact_div(7, 2)
    code = ("import sys\n"
            "from quadtower import bigpoly\n"
            "prem = bigpoly._prem\n"
            "def forged(a, b):\n"
            "    r = prem(a, b)\n"
            "    r[-1] += 1\n"
            "    return r\n"
            "bigpoly._prem = forged\n"
            "p = bigpoly.IntPolynomial((1, 0, 1))\n"
            "for _ in range(3):\n"
            "    p = p * p + 1\n"
            "try:\n"
            "    print(sys.flags.optimize, bigpoly.discriminant_direct(p))\n"
            "except ArithmeticError as e:\n"
            "    print(sys.flags.optimize, type(e).__name__)\n")
    src = pathlib.Path(quadtower.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "ArithmeticError"]


def test_the_package_holds_no_assert_statement():
    # python -O deletes assert statements, so no check in the package may be one
    package = pathlib.Path(quadtower.__file__).resolve().parent
    asserts = [f"{path.relative_to(package)}:{node.lineno}"
               for path in sorted(package.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Assert)]
    assert not asserts, asserts


def test_height_int():
    assert height_int(1) == 0.0
    assert height_int(-8) == pytest.approx(math.log(8))
    assert height_int(Fraction(3, 2)) == pytest.approx(math.log(3))
    assert height_int(0) == 0.0
    assert height_int(Fraction(1, 2)) == pytest.approx(math.log(2))


def test_poly_height():
    assert poly_height(T) == 0.0
    assert poly_height(IntPolynomial((-3, 0, 5))) == pytest.approx(math.log(5))
    assert poly_height(IntPolynomial((0, 100, 0, 1))) == pytest.approx(math.log(100))
    assert poly_height(IntPolynomial()) == 0.0


def test_is_perfect_square_examples():
    assert is_perfect_square(0) == 0
    assert is_perfect_square(1) == 1
    assert is_perfect_square(4294967296) == 65536
    assert is_perfect_square(458330) is None
    assert is_perfect_square(-4) is None


def test_is_perfect_square_random():
    rng = random.Random(31)
    for _ in range(1000):
        k = rng.randrange(1, 1 << 256)
        assert is_perfect_square(k * k) == k
        assert is_perfect_square(k * k + 1) in (None, k + 1)  # k=1 edge: 2 not square
        if k > 1:
            assert is_perfect_square(k * k + 1) is None


def _near_powers():
    """0, +-1, and 2^k +- 1, 10^k +- 1 (either sign) on both sides of the
    width that _to_decimal converts directly and of the interpreter's
    4,300-digit limit on str(int)."""
    yield from (0, 1, -1)
    for base, exps in ((2, (_DECIMAL_LEAF_BITS - 1, _DECIMAL_LEAF_BITS, _DECIMAL_LEAF_BITS + 1,
                            1 << 15, 3 << 15)),
                       (10, (4299, 4300, 4301, 9864, 3 * 9864))):
        for k in exps:
            for n in (base ** k - 1, base ** k, base ** k + 1):
                yield n
                yield -n


def test_decimal_str_near_powers():
    for n in _near_powers():
        assert decimal_str(n) == lift_int_limit(str, n)
    # the conversion is exact whatever precision the caller's context has
    with localcontext(Context(prec=5)):
        for n in _near_powers():
            assert decimal_str(n) == str(_to_decimal(n)) == lift_int_limit(str, n)


def test_decimal_str_leaves_nothing_for_the_collector():
    # the table of powers of two must be freed when the call returns, not
    # held in a reference cycle until the next collection
    n = 3 ** 60000
    decimal_str(n)
    gc.collect()
    gc.disable()
    try:
        decimal_str(n)
        assert gc.collect() == 0
    finally:
        gc.enable()


@st.composite
def ints_of_drawn_width(draw):
    """Random ints of a drawn bit length, half of them wider than one leaf."""
    bits = draw(st.one_of(st.integers(1, _DECIMAL_LEAF_BITS),
                          st.integers(_DECIMAL_LEAF_BITS + 1, 3 << 15)))
    n = draw(st.randoms(use_true_random=False)).getrandbits(bits) | (1 << (bits - 1))
    return -n if draw(st.booleans()) else n


@settings(max_examples=100, deadline=None)
@given(ints_of_drawn_width())
def test_decimal_str_matches_str(n):
    assert decimal_str(n) == lift_int_limit(str, n)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no limit on int-to-str digits")
def test_decimal_str_needs_no_lift_of_the_int_str_limit():
    # library callers run under the default limit, whatever the test run sets
    rng = random.Random(4300)
    values = [10 ** k + s for k in (3999, 4299, 4300, 5000, 9000, 12999) for s in (-1, 0, 1)]
    values += [rng.getrandbits(rng.randrange(13_288, 43_185)) for _ in range(20)]
    values += [-v for v in values]
    expected = [lift_int_limit(str, v) for v in values]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        with pytest.raises(ValueError, match="Exceeds the limit"):
            str(10 ** 5000)
        got = [decimal_str(v) for v in values]
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == expected


@st.composite
def ints_across_the_digit_limits(draw):
    """Ints of up to 1,300 or of 4,000-4,600 digits, either sign: across
    parse_int's 640-digit leaves and the interpreter's 4,300-digit default."""
    digits = draw(st.one_of(st.integers(1, 1300), st.integers(4000, 4600)))
    low = 10 ** (digits - 1)
    n = low + draw(st.randoms(use_true_random=False)).randrange(9 * low)
    return -n if draw(st.booleans()) else n


@settings(max_examples=100, deadline=None)
@given(ints_across_the_digit_limits())
def test_parse_int_inverts_decimal_str(n):
    assert parse_int(decimal_str(n)) == n
    sign = "-" if n < 0 else "+"
    assert parse_int(f" {sign}0000{decimal_str(abs(n))}\n") == n


@st.composite
def short_int_texts(draw):
    """Texts of at most 640 characters such as int() accepts or rejects: a
    sign, surrounding whitespace, leading zeros, underscores, stray marks."""
    space = st.text(" \t\n", max_size=3)
    body = draw(st.one_of(st.text("0123456789", min_size=1, max_size=640),
                          st.from_regex(r"[0-9](_?[0-9]){0,30}", fullmatch=True),
                          st.text("0123456789_+- x\u0663", max_size=12)))
    sign = draw(st.sampled_from(("", "+", "-")))
    return (draw(space) + sign + draw(st.text("0", max_size=4)) + body + draw(space))[:640]


def _outcome(convert, text):
    try:
        return convert(text)
    except ValueError as err:
        return str(err)


@settings(max_examples=300, deadline=None)
@given(short_int_texts())
def test_parse_int_is_int_on_short_texts(text):
    assert _outcome(parse_int, text) == _outcome(int, text)


def test_parse_int_reads_a_long_text_as_sign_and_ascii_digits():
    big, digits = 10 ** 5000, "1" + "0" * 5000
    assert parse_int(digits) == big
    assert parse_int(f"\t-{digits} ") == -big
    assert parse_int("+" + "0" * 700 + "12") == 12
    assert IntPolynomial.parse(f"1, {digits} ,-{digits}") == IntPolynomial((1, big, -big))
    for bad in (digits + "x", "1_" + digits, "--" + digits, "+-" + digits, " " * 700,
                "\u0663" * 700):
        with pytest.raises(ValueError, match="invalid literal for int"):
            parse_int(bad)


def _orbit(gamma, c, x, length):
    values = [x]
    for _ in range(length - 1):
        values.append((values[-1] - gamma) ** 2 + c)
    return values


def test_decimal_orbit_steps_the_orbit_exactly():
    # a start of -3^21000 makes every value big, the first one negative
    values = _orbit(5, -7, -(3 ** 21000), 3)
    texts = [lift_int_limit(str, v) for v in values]
    assert [str(x) for _, x in zip(values, decimal_orbit(SpecializedMap(5, -7), values[0]))] == texts
    # the orbit and quotients ignore the caller's context: at 5 digits each
    # would otherwise round or come out wrong
    n = 3 ** 21000
    with localcontext(Context(prec=5)):
        assert [str(x) for _, x in zip(values, decimal_orbit(SpecializedMap(5, -7), values[0]))] == texts
        assert str(decimal_quotient(_to_decimal(n * 7 ** 100), 7 ** 100)) == lift_int_limit(str, n)


def test_decimal_quotient_and_orbit_reject_a_non_divisor_and_a_non_orbit(monkeypatch):
    import quadtower.bigpoly as bigpoly_mod

    start = 3 ** 30000
    with pytest.raises(ArithmeticError, match="does not divide"):
        decimal_quotient(next(decimal_orbit(SpecializedMap(0, 1), start)), 2)
    # c converted as 2 instead of 1: level 0 agrees with the integers, level 1
    # no longer does
    real = bigpoly_mod._to_decimal
    monkeypatch.setattr(bigpoly_mod, "_to_decimal", lambda n: real(2 if n == 1 else n))
    orbit = decimal_orbit(SpecializedMap(0, 1), start)
    assert str(next(orbit)) == lift_int_limit(str, start)
    with pytest.raises(ArithmeticError, match="disagrees"):
        next(orbit)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no limit on int-to-str digits")
def test_decimal_quotient_names_a_long_non_divisor_under_the_int_str_limit():
    # the message prints q through decimal_str, so a 5,001-digit q raises the
    # refusal itself rather than the interpreter's "Exceeds the limit"
    x = _to_decimal(10 ** 6000)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        with pytest.raises(ArithmeticError, match=r"^10{4999}1 does not divide the value$"):
            decimal_quotient(x, 10 ** 5000 + 1)
    finally:
        sys.set_int_max_str_digits(limit)


def test_doctests():
    # every module's examples, which also pin reprs such as
    # SquareFreeDecomposition(e=1, d=-1, y=2)
    import doctest
    import importlib
    import pkgutil

    import quadtower

    with_examples = set()
    for info in pkgutil.iter_modules(quadtower.__path__, "quadtower."):
        failures, attempted = doctest.testmod(importlib.import_module(info.name))
        assert failures == 0, info.name
        if attempted:
            with_examples.add(info.name)
    assert {"quadtower.bigpoly", "quadtower.factor"} <= with_examples


def test_check_bits_names_the_quantity():
    check_bits(255, 8, "orbit value")
    with pytest.raises(DigitBudgetError, match="^discriminant needs 9 bits; budget is 8$") as err:
        check_bits(-256, 8, "discriminant", partial=[1, 2])
    assert err.value.partial == [1, 2]
    assert (err.value.what, err.value.bits, err.value.max_bits) == ("discriminant", 9, 8)


@pytest.mark.parametrize("k", [1, 3, 4, 10, 64, 333, 3322, 3323, 40000, 332193, 1000000])
def test_check_bits_on_a_decimal_matches_the_int(k):
    # powers of two and of ten sit where the leading-digit estimate of
    # decimal_bit_length is within a hair of a whole bit count, so it must
    # compare with a power of two, and check_bits must give the int's answer
    # and message
    assert decimal_bit_length(Decimal(0)) == decimal_bit_length(Decimal("-0")) == 0
    for n in (2 ** k - 1, 2 ** k, 2 ** k + 1, 10 ** (k // 3), 10 ** (k // 3) - 1):
        for sign in (1, -1):
            x = _to_decimal(sign * n)
            with localcontext(Context(prec=5)):
                assert decimal_bit_length(x) == n.bit_length(), (n, sign)
            for budget in (k - 1, k, k + 1):
                if budget < 1:
                    continue
                try:
                    check_bits(sign * n, budget, "orbit value")
                    expected = None
                except DigitBudgetError as err:
                    expected = str(err)
                try:
                    with localcontext(Context(prec=5)):
                        check_bits(x, budget, "orbit value")
                    got = None
                except DigitBudgetError as err:
                    got = str(err)
                assert got == expected, (n, budget)
