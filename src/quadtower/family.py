"""The parametric family phi(x) = (x - gamma(t))^2 + c(t).

Specialization and conjugation, the m_phi threshold, the exceptional
polynomial P_phi and exceptional set F_phi, explicit height constants, and
the conditional bound-chain evaluator that turns hypothetical Hall-Lang
constants into a concrete tower level n_phi.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from quadtower.bigpoly import (
    DEFAULT_MAX_BITS,
    BudgetError,
    DigitBudgetError,
    FrozenSlots,
    IntPolynomial,
    ZeroPolynomialError,
    decimal_str,
    poly_height,
)
from quadtower.factor import (
    DEFAULT_BUDGET,
    Budget,
    IncompleteFactorizationError,
    factorize,
)

_LOG2 = math.log(2.0)
# F_phi lists every a with |a| <= threshold, so a larger threshold is
# refused.  At this limit family-info prints 200,001 integers in 0.3 s
# (text) and 0.4 s (--json); at 10^6 the JSON took 1.7 s (CPython 3.11.7,
# 2 vCPUs).  Without a limit --c 10^12,1 asked for a set of 4 * 10^12 ints.
MAX_EXCEPTIONAL_THRESHOLD = 10 ** 5
# F_phi tests every divisor of the trailing coefficient of each of P_phi's
# factors as a root of that factor, so a coefficient with more divisors is
# refused.  Below it, the 2^20 divisors of 71# for the factor 71# * (1 + t)
# took 1.2 s (CPython 3.11.7, 2 vCPUs).
MAX_DIVISORS = 2_000_000


class IsotrivialError(ValueError):
    """The construction needs c - gamma to be nonconstant."""


class InvalidConstantsError(ValueError):
    """Hall-Lang constants must be finite, nonnegative, with kappa1 > 0, and
    small enough that nphi_bound's chain stays finite."""


class SpecializedMap(FrozenSlots):
    """phi_a(x) = (x - gamma_a)^2 + c_a and its conjugate sigma_a = x^2 + v_a.

    v_a = c_a - gamma_a; conjugation is by the shift lambda_a(x) = x + gamma_a.
    A slots class rather than a NamedTuple: apply_mod reads two fields per
    step of certify's residue loops, and NamedTuple field reads are slower.
    """

    __slots__ = _fields = ("a", "gamma_a", "c_a", "v_a")

    def __init__(self, a: int, gamma_a: int, c_a: int, v_a: int):
        if v_a != c_a - gamma_a:
            raise ValueError("v_a must equal c_a - gamma_a")
        self._set(a, gamma_a, c_a, v_a)

    @classmethod
    def make(cls, a: int, gamma_a: int, c_a: int) -> SpecializedMap:
        return cls(a=int(a), gamma_a=int(gamma_a), c_a=int(c_a), v_a=int(c_a) - int(gamma_a))

    def apply(self, x: int) -> int:
        y = x - self.gamma_a
        return y * y + self.c_a

    def apply_sigma(self, x):
        return x * x + self.v_a

    def apply_mod(self, x: int, p: int) -> int:
        y = (x - self.gamma_a) % p
        return (y * y + self.c_a) % p

    def phi_polynomial(self) -> IntPolynomial:
        """phi_a as a polynomial in x."""
        g = self.gamma_a
        return IntPolynomial((g * g + self.c_a, -2 * g, 1))


class HallLangConstants(FrozenSlots):
    """Hypothetical integral-point constants kappa1..kappa3 (never proved;
    supplied by the user as inputs to the conditional bound chain)."""

    __slots__ = _fields = ("kappa1", "kappa2", "kappa3")

    def __init__(self, kappa1: float, kappa2: float, kappa3: float):
        for name, val in zip(self._fields, (kappa1, kappa2, kappa3)):
            if not math.isfinite(val) or val < 0:
                raise InvalidConstantsError(f"{name} must be finite and nonnegative")
        if kappa1 <= 0:
            raise InvalidConstantsError("kappa1 must be positive")
        self._set(kappa1, kappa2, kappa3)


class BoundConstants(NamedTuple):
    """Explicit height constants attached to a family.

    Contracts, for f = c - gamma of degree d and all integers a:
      h(gamma(a))            <= deg(gamma) * h(a) + a3
      h(f(a))                <= d * h(a) + a4
      h(x - gamma(a))        >= h(x) - deg(gamma) * h(a) - a1
      h(sigma_a^m(x))        <= 2^m * (h(x) + a2 + d * h(a))
      h(f(a))                >= d * h(a) - b1          whenever f(a) != 0
    b1 = d * log(threshold) with integer threshold >= 2, so the height ball
    {h(a) <= b1/d} is exactly {|a| <= threshold}.
    """

    a1: float
    a2: float
    a3: float
    a4: float
    b1: float
    threshold: int

    def to_json_dict(self) -> dict:
        return {
            "A1": self.a1,
            "A2": self.a2,
            "A3": self.a3,
            "A4": self.a4,
            "B1": self.b1,
            # a JSON number prints through str(int), which refuses long ones
            "threshold": self.threshold if self.threshold.bit_length() <= 2048
            else decimal_str(self.threshold),
        }


class NphiReport(NamedTuple):
    """Linear-fractional suprema M1..M4, their max M_phi, and the level n_phi."""

    m1: float
    m2: float
    m3: float
    m4: float
    m_phi: float
    n_phi: int
    kappa2_prime: float
    kappa3_prime: float
    a_min: int
    x_min: float
    bounds: BoundConstants

    def to_json_dict(self) -> dict:
        return {
            **self.bounds.to_json_dict(),
            "kappa2_prime": self.kappa2_prime,
            "kappa3_prime": self.kappa3_prime,
            "a_min": self.a_min,
            "x_min": self.x_min,
            "M1": self.m1,
            "M2": self.m2,
            "M3": self.m3,
            "M4": self.m4,
            "M_phi": self.m_phi,
            "n_phi": self.n_phi,
        }

    def text_lines(self):
        return (f"{key}: {value}" for key, value in self.to_json_dict().items())


class FamilyInfo(NamedTuple):
    """A family's P_phi and, unless it is isotrivial, m_phi, its bound
    constants and F_phi, each computed once by QuadraticFamily.info.  m_phi
    and bounds are None for an isotrivial family; exceptional_set is None
    then and when P_phi vanishes identically."""

    family: QuadraticFamily
    exceptional_polynomial: IntPolynomial
    m_phi: int | None
    bounds: BoundConstants | None
    exceptional_set: list[int] | None

    def to_json_dict(self) -> dict:
        fam, poly = self.family, self.exceptional_polynomial
        return {
            "gamma": fam.gamma.serialize(),
            "c": fam.c.serialize(),
            "difference": fam.difference.serialize(),
            "isotrivial": fam.is_isotrivial,
            "exceptional_polynomial": {"coeffs": poly.serialize(), "display": str(poly)},
            "m_phi": self.m_phi,
            "bound_constants": None if self.bounds is None else self.bounds.to_json_dict(),
            "exceptional_set": self.exceptional_set,
        }

    def text_lines(self):
        fam = self.family
        yield f"phi(x) = (x - ({fam.gamma}))^2 + ({fam.c})"
        yield f"c - gamma = {fam.difference}"
        yield f"isotrivial: {fam.is_isotrivial}"
        yield f"m_phi: {self.m_phi}"
        yield f"P_phi = {self.exceptional_polynomial}"
        if self.bounds is not None:
            bounds = self.bounds.to_json_dict().items()
            yield "bound constants: " + ", ".join(f"{k}={v}" for k, v in bounds)
        yield f"F_phi: {self.exceptional_set}"


class IndexBound(NamedTuple):
    """The uniform index bound [Aut(T_inf) : G_inf] <= 2^(2^n_phi - n_phi - 1)."""

    n_phi: int
    value: int

    def to_json_dict(self) -> dict:
        return {"n_phi": self.n_phi, "index_bound": decimal_str(self.value)}

    def text_lines(self):
        return [f"[Aut(T_inf) : G_inf] <= {decimal_str(self.value)}"]


def _log_coeff_sum(p: IntPolynomial) -> float:
    return math.log(max(1, sum(abs(c) for c in p.coeffs)))


class QuadraticFamily(FrozenSlots):
    """The pair (gamma, c) of integer polynomials defining
    phi(x) = (x - gamma(t))^2 + c(t).

    difference is c - gamma; its degree drives isotriviality and every
    threshold.
    """

    _fields = ("gamma", "c")
    __slots__ = (*_fields, "difference")

    def __init__(self, gamma: IntPolynomial, c: IntPolynomial):
        self._set(gamma, c)
        object.__setattr__(self, "difference", c - gamma)

    @classmethod
    def of(cls, gamma_coeffs, c_coeffs) -> QuadraticFamily:
        return cls(IntPolynomial(gamma_coeffs), IntPolynomial(c_coeffs))

    @property
    def is_isotrivial(self) -> bool:
        """True iff c - gamma is constant (possibly zero): every
        specialization is then affinely conjugate to a single map."""
        return self.difference.degree in (None, 0)

    def specialize(self, a: int) -> SpecializedMap:
        return SpecializedMap.make(a, self.gamma.evaluate(a), self.c.evaluate(a))

    def info(self, budget: Budget = DEFAULT_BUDGET) -> FamilyInfo:
        """P_phi, and for a non-isotrivial family m_phi, the bound constants
        and F_phi: the integer roots of P_phi, found within budget, united
        with the small-height ball {|a| <= threshold}; sorted.  The roots are
        those of P_phi's five factors, each found by divisor enumeration of
        the factor's trailing nonzero coefficient, never by polynomial
        factorization.  A threshold above MAX_EXCEPTIONAL_THRESHOLD or a
        factor with more than MAX_DIVISORS divisors raises BudgetError.
        """
        poly = self.exceptional_polynomial()
        if self.is_isotrivial:
            return FamilyInfo(self, poly, None, None, None)
        bounds, m_phi = self.compute_bound_constants(), self.m_phi()
        if poly.is_zero:
            return FamilyInfo(self, poly, m_phi, bounds, None)
        threshold = bounds.threshold
        if threshold > MAX_EXCEPTIONAL_THRESHOLD:
            raise BudgetError(
                f"F_phi would list every |a| <= {decimal_str(threshold)}; "
                f"the limit is {MAX_EXCEPTIONAL_THRESHOLD}"
            )
        roots = set().union(*(_integer_roots(p, budget) for p in self._exceptional_factors()))
        roots.update(range(-threshold, threshold + 1))
        return FamilyInfo(self, poly, m_phi, bounds, sorted(roots))

    def m_phi(self) -> int:
        """Tree level whose maximality persists generically in the family:
        17 when deg(gamma) != deg(c), else
        ceil(2 * log2(78 * deg(gamma)/deg(c - gamma) + 9))."""
        if self.is_isotrivial:
            raise IsotrivialError("m_phi needs deg(c - gamma) >= 1")
        dg, dc = self.gamma.degree, self.c.degree
        if dg != dc:
            return 17
        return math.ceil(2 * math.log2(78 * dg / self.difference.degree + 9))

    def exceptional_polynomial(self) -> IntPolynomial:
        """P_phi(t) = phi(gamma) * phi^2(gamma) * (c-g) * (c-g+1) * (c-g+2).

        Its integer roots are the specializations where the critical orbit
        degenerates or the conjugate lands on a post-critically finite map.
        """
        return math.prod(self._exceptional_factors())

    def _exceptional_factors(self) -> tuple[IntPolynomial, ...]:
        """The five factors whose product is P_phi."""
        f = self.difference
        # phi(gamma(t)) collapses to c(t); phi^2(gamma(t)) = (c - gamma)^2 + c
        return (self.c, f * f + self.c, f, f + 1, f + 2)

    def compute_bound_constants(self) -> BoundConstants:
        """Fully explicit constants; see BoundConstants for the contracts.

        With S(p) = log max(1, sum |coeffs|): a3 = S(gamma), a4 = S(c-gamma),
        a1 = a3 + log 2, a2 = a4 + log 2.  b1 = d * log T where T is the
        least integer >= 2 exceeding 2*d*H/|lc|, H the largest non-leading
        |coefficient| of c - gamma: beyond |a| = T the leading term dominates,
        giving |f(a)| > |a|^d / 2 >= (|a|/T)^d.
        """
        if self.is_isotrivial:
            raise IsotrivialError("bound constants need deg(c - gamma) >= 1")
        f = self.difference
        a3 = _log_coeff_sum(self.gamma)
        a4 = _log_coeff_sum(f)
        d = f.degree
        lc = abs(f.leading_coefficient)
        high = max((abs(cf) for cf in f.coeffs[:-1]), default=0)
        threshold = max(2, (2 * d * high + lc - 1) // lc + 1)
        return BoundConstants(
            a1=a3 + _LOG2,
            a2=a4 + _LOG2,
            a3=a3,
            a4=a4,
            b1=d * math.log(threshold),
            threshold=threshold,
        )

    def exceptional_set(self, budget: Budget = DEFAULT_BUDGET) -> list[int]:
        """F_phi as info() computes it; raises where info() leaves it None."""
        if self.is_isotrivial:
            raise IsotrivialError("the exceptional set needs deg(c - gamma) >= 1")
        out = self.info(budget).exceptional_set
        if out is None:
            raise ZeroPolynomialError("P_phi vanishes identically")
        return out

    def nphi_bound(self, constants: HallLangConstants) -> NphiReport:
        """Evaluate the conditional bound chain.

        Each rho_i is a linear-fractional function of x = h(a) over the
        denominator D*x - b1 (D = deg(c - gamma)); on the admissible ray
        x >= x_min it is monotone, so its supremum is the larger of the value
        at x_min and the asymptote.  x_min = log(a_min) with a_min =
        threshold + 1, the least integer exceeding exp(b1/D) = threshold.
        Then M_phi = max M_i and n_phi = 1 + max(6, ceil(2*log2(M_phi) + 19)).
        Kappas so large that some M_i overflows a float raise
        InvalidConstantsError; a denominator that cancels to 0, ValueError.
        """
        if self.is_isotrivial:
            raise IsotrivialError("nphi_bound needs deg(c - gamma) >= 1")
        bounds = self.compute_bound_constants()
        big_d = self.difference.degree
        big_g = self.gamma.degree or 0
        k1 = constants.kappa1
        kappa2_prime = constants.kappa2 + big_g + big_d
        kappa3_prime = (
            constants.kappa3
            + 2 * math.log(3.0)
            + poly_height(self.gamma)
            + bounds.a4
            + _LOG2
        )
        a_min = bounds.threshold + 1
        x_min = math.log(a_min)
        denom = big_d * x_min - bounds.b1
        if denom <= 0:  # D*log(1 + 1/threshold) > 0, lost to cancellation in floats
            raise ValueError("the bound chain's denominator D*log(threshold + 1) - B1 cancels "
                             f"to {denom!r} at threshold {decimal_str(bounds.threshold)}")

        def sup(slope: float, const: float) -> float:
            return max((slope * x_min + const) / denom, slope / big_d)

        m1 = sup(k1 * big_d, k1 * bounds.a2)
        m2 = sup(k1 * big_g, k1 * bounds.a3)
        m3 = sup(k1 * big_g, k1 * bounds.a1)
        m4 = sup(kappa2_prime, kappa3_prime)
        if not all(map(math.isfinite, (m1, m2, m3, m4))):
            raise InvalidConstantsError("the bound chain overflows a float; use smaller kappas")
        m_phi = max(m1, m2, m3, m4)
        return NphiReport(
            m1=m1,
            m2=m2,
            m3=m3,
            m4=m4,
            m_phi=m_phi,
            # m_phi >= m1 >= kappa1 > 0, so its logarithm exists
            n_phi=1 + max(6, math.ceil(2 * math.log2(m_phi) + 19)),
            kappa2_prime=kappa2_prime,
            kappa3_prime=kappa3_prime,
            a_min=a_min,
            x_min=x_min,
            bounds=bounds,
        )


def index_bound(n_phi: int, max_bits: int = DEFAULT_MAX_BITS) -> int:
    """Uniform index bound 2^(2^n_phi - n_phi - 1) as an exact big integer.

    The result needs 2^n_phi - n_phi >= 2^(n_phi - 1) bits; DigitBudgetError
    is raised before anything that size is built when that exceeds max_bits.
    """
    if n_phi < 1:
        raise ValueError("n_phi must be >= 1")
    if n_phi > max_bits.bit_length() + 1 or (1 << n_phi) - n_phi > max_bits:
        raise DigitBudgetError(
            f"index bound needs 2^{n_phi} - {n_phi} bits; budget is {max_bits}"
        )
    return 1 << ((1 << n_phi) - n_phi - 1)


def _divisors(n: int, budget: Budget) -> list[int]:
    fac = factorize(n, budget)
    if not fac.complete:
        raise IncompleteFactorizationError(
            "cannot enumerate divisors of the trailing coefficient", fac
        )
    divs = [1]
    for p, e in fac.factors:
        if len(divs) * (e + 1) > MAX_DIVISORS:
            raise BudgetError(
                f"the trailing coefficient of P_phi has more than {MAX_DIVISORS} divisors"
            )
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return divs


def _integer_roots(p: IntPolynomial, budget: Budget) -> set[int]:
    """All integer roots of a nonzero polynomial: strip powers of t, then test
    the divisors of the trailing nonzero coefficient."""
    k = next(i for i, c in enumerate(p.coeffs) if c)
    q = IntPolynomial(p.coeffs[k:])
    roots = {0} if k else set()
    if q.degree:
        roots.update(r for d in _divisors(abs(q.coeffs[0]), budget) for r in (d, -d)
                     if q.evaluate(r) == 0)
    return roots
