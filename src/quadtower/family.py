"""The parametric family phi(x) = (x - gamma(t))^2 + c(t).

Specialization and conjugation, the m_phi threshold, the exceptional
polynomial P_phi and exceptional set F_phi, explicit height constants, and
the conditional bound-chain evaluator that turns hypothetical Hall-Lang
constants into a concrete tower level n_phi.
"""

from __future__ import annotations

import decimal
import math
from typing import NamedTuple

from quadtower.bigpoly import (
    BudgetError,
    DigitBudgetError,
    FrozenSlots,
    IntPolynomial,
    _to_decimal,
    decimal_str,
)
from quadtower.factor import DEFAULT_BUDGET, Budget, factorize_fully

_LOG2 = math.log(2.0)
# F_phi lists every a with |a| <= threshold, so a larger threshold is
# refused.  At this limit family-info prints 200,001 integers in 0.3 s
# (text) and 0.4 s (--json); at 10^6 the JSON took 1.7 s (CPython 3.11.7,
# 2 vCPUs).  Without a limit --c 10^12,1 asked for a set of 4 * 10^12 ints.
MAX_EXCEPTIONAL_THRESHOLD = 10 ** 5
# F_phi tests every divisor of the trailing coefficient of c and (c-gamma)^2+c
# as a root of that factor, so a coefficient with more divisors is refused.
# Below it, the 2^20 divisors of 71# for the factor 71# * (1 + t) took 1.2 s
# (CPython 3.11.7, 2 vCPUs).
MAX_DIVISORS = 2_000_000
# P_phi is multiplied out term by term, so a larger degree is refused.  Below
# it family-info --gamma 0 --c 1,1,...,1 with 667 ones (degree 3,996) took
# 0.9 s, and 2,000 ones took 6.7 s (CPython 3.11.7, 2 vCPUs).
MAX_EXCEPTIONAL_DEGREE = 4_000


class IsotrivialError(ValueError):
    """The construction needs c - gamma to be nonconstant."""


class InvalidConstantsError(ValueError):
    """Hall-Lang constants must be finite, nonnegative, with kappa1 > 0, and
    small enough that nphi_bound's chain stays finite."""


class SpecializedMap(FrozenSlots):
    """phi_a(x) = (x - gamma_a)^2 + c_a and its conjugate sigma_a = x^2 + v_a,
    built from gamma_a and c_a as ints; v_a = c_a - gamma_a is derived.  The
    map is phi_a alone, so two parameters a with the same gamma(a) and c(a)
    give equal maps.  Conjugation is by the shift lambda_a(x) = x + gamma_a.
    A slots class rather than a NamedTuple: apply_mod reads two fields per
    step of certify's residue loops, and NamedTuple field reads are slower.
    """

    _fields = ("gamma_a", "c_a")
    __slots__ = (*_fields, "v_a")

    def __init__(self, gamma_a: int, c_a: int):
        self._set(int(gamma_a), int(c_a))
        object.__setattr__(self, "v_a", self.c_a - self.gamma_a)

    @classmethod
    def make(cls, a: int, gamma_a: int, c_a: int) -> SpecializedMap:
        """SpecializedMap(gamma_a, c_a) under the constructor's older
        three-argument form, kept only for bench/probes.py; a is ignored."""
        return cls(gamma_a, c_a)

    def apply(self, x: int) -> int:
        y = x - self.gamma_a
        return y * y + self.c_a

    def apply_sigma(self, x):
        return x * x + self.v_a

    def apply_mod(self, x: int, p: int) -> int:
        y = (x - self.gamma_a) % p
        return (y * y + self.c_a) % p

    def phi_polynomial(self, k: int = 1) -> IntPolynomial:
        """phi_a^k as a polynomial in x, the one builder of phi_a's iterates:
        phi_a^k = (phi_a^(k-1) - gamma_a)^2 + c_a from phi_a^0 = x."""
        phi = IntPolynomial((0, 1))
        for _ in range(k):
            shifted = phi - self.gamma_a
            phi = shifted * shifted + self.c_a
        return phi


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
    """Explicit height constants attached to a family, from a3, a4, b1 and
    threshold; the properties a1 = a3 + log 2 and a2 = a4 + log 2 are derived.

    Contracts, for f = c - gamma of degree d and all integers a:
      h(gamma(a))            <= deg(gamma) * h(a) + a3
      h(f(a))                <= d * h(a) + a4
      h(x - gamma(a))        >= h(x) - deg(gamma) * h(a) - a1
      h(sigma_a^m(x))        <= 2^m * (h(x) + a2 + d * h(a))
      h(f(a))                >= d * h(a) - b1          whenever f(a) != 0
    b1 = d * log(threshold) with integer threshold >= 2, so the height ball
    {h(a) <= b1/d} is exactly {|a| <= threshold}.
    """

    a3: float
    a4: float
    b1: float
    threshold: int

    @property
    def a1(self) -> float:
        return self.a3 + _LOG2

    @property
    def a2(self) -> float:
        return self.a4 + _LOG2

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
    """Linear-fractional suprema M1..M4 and the level n_phi.  The properties
    M_phi = max M_i, a_min = threshold + 1 and x_min = log(a_min) are derived
    from the M_i and the bounds."""

    m1: float
    m2: float
    m3: float
    m4: float
    n_phi: int
    kappa2_prime: float
    kappa3_prime: float
    bounds: BoundConstants

    @property
    def m_phi(self) -> float:
        return max(self.m1, self.m2, self.m3, self.m4)

    @property
    def a_min(self) -> int:
        return self.bounds.threshold + 1

    @property
    def x_min(self) -> float:
        return math.log(self.a_min)

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
        fam = self.family
        coeffs, display = self.exceptional_polynomial.serialize_and_display()
        return {
            "gamma": fam.gamma.serialize(),
            "c": fam.c.serialize(),
            "difference": fam.difference.serialize(),
            "isotrivial": fam.is_isotrivial,
            "exceptional_polynomial": {"coeffs": coeffs, "display": display},
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


def _log_coeff_sum(p: IntPolynomial, ln=math.log):
    """ln max(1, sum |coeffs of p|) by ln: math.log, or a log in decimal."""
    return ln(max(1, sum(map(abs, p.coeffs))))


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
        return SpecializedMap(self.gamma.evaluate(a), self.c.evaluate(a))

    def info(self, budget: Budget = DEFAULT_BUDGET) -> FamilyInfo:
        """P_phi, and for a non-isotrivial family m_phi, the bound constants
        and F_phi: the integer roots of P_phi, found within budget, united
        with the small-height ball {|a| <= threshold}; sorted.  Outside the
        ball only c and (c - gamma)^2 + c have roots, found by divisor
        enumeration of the trailing nonzero coefficient, never by polynomial
        factorization; only divisors within Cauchy's root bound are tried.  A
        threshold above MAX_EXCEPTIONAL_THRESHOLD or a coefficient with more
        than MAX_DIVISORS divisors raises BudgetError.  Every refusal comes
        before P_phi is multiplied out.
        """
        factors = self._exceptional_factors()
        m_phi = bounds = roots = None
        if not self.is_isotrivial:
            bounds, m_phi = self.compute_bound_constants(), self.m_phi()
            # P_phi vanishes iff one of its factors does
            if not any(p.is_zero for p in factors):
                threshold = bounds.threshold
                if threshold > MAX_EXCEPTIONAL_THRESHOLD:
                    raise BudgetError(
                        f"F_phi would list every |a| <= {decimal_str(threshold)}; "
                        f"the limit is {MAX_EXCEPTIONAL_THRESHOLD}"
                    )
                roots = _integer_roots(factors[:2], budget)
                roots = sorted(roots.union(range(-threshold, threshold + 1)))
        return FamilyInfo(self, math.prod(factors), m_phi, bounds, roots)

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

    def _exceptional_factors(self) -> tuple[IntPolynomial, ...]:
        """The five factors of P_phi = phi(gamma) phi^2(gamma) (c-g) (c-g+1)
        (c-g+2); a degree bound on P_phi above MAX_EXCEPTIONAL_DEGREE raises
        BudgetError before any product."""
        dc, df = self.c.degree or 0, self.difference.degree or 0
        degree = dc + max(2 * df, dc) + 3 * df
        if degree > MAX_EXCEPTIONAL_DEGREE:
            raise BudgetError(
                f"P_phi would have degree up to {degree}; "
                f"the limit is {MAX_EXCEPTIONAL_DEGREE}"
            )
        f = self.difference
        # phi(gamma(t)) collapses to c(t); phi^2(gamma(t)) = (c - gamma)^2 + c
        return (self.c, f * f + self.c, f, f + 1, f + 2)

    def compute_bound_constants(self) -> BoundConstants:
        """Fully explicit constants; see BoundConstants for the contracts.

        With S(p) = log max(1, sum |coeffs|): a3 = S(gamma), a4 = S(c-gamma)
        (BoundConstants adds log 2 for a1 and a2); b1 = d * log T where T is the
        least integer >= 2 exceeding 2*d*H/|lc|, H the largest non-leading
        |coefficient| of c - gamma: beyond |a| = T the leading term dominates,
        giving |f(a)| > |a|^d / 2 >= (|a|/T)^d and |f(a)| >= |a|^(d-1) *
        (|lc|*|a| - d*H) >= 5/2, so f, f + 1 and f + 2 have no root there.
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
        return BoundConstants(a3=a3, a4=a4, b1=d * math.log(threshold), threshold=threshold)

    def nphi_bound(self, constants: HallLangConstants) -> NphiReport:
        """Evaluate the conditional bound chain.

        Each rho_i is a linear-fractional function of x = h(a) over the
        denominator D*x - b1 (D = deg(c - gamma)); on the admissible ray
        x >= x_min it is monotone, so its supremum is the larger of the value
        at x_min and the asymptote.  x_min = log(a_min) with a_min =
        threshold + 1, the least integer exceeding exp(b1/D) = threshold, so
        the denominator there is D*log1p(1/threshold), which does not cancel.
        The report derives M_phi = max M_i, a_min and x_min from the M_i
        and the bounds; n_phi = 1 + max(6, ceil(2*log2(M_phi) + 19)) is
        taken from an upper bound on M_phi (_n_phi); the M_i are floats.
        Kappas so large that some M_i overflows a float raise
        InvalidConstantsError; a threshold (from about 10^305) past which M4
        overflows whatever the kappas, ValueError.
        """
        if self.is_isotrivial:
            raise IsotrivialError("nphi_bound needs deg(c - gamma) >= 1")
        bounds = self.compute_bound_constants()
        threshold = bounds.threshold
        denom = self.difference.degree * math.log1p(1 / threshold)
        # M4 at kappa2 = kappa3 = 0 is below M4 whatever the kappas
        if denom == 0.0 or math.isinf(
                self._bound_chain(1.0, 0.0, 0.0, threshold, math.log, denom)[3]):
            raise ValueError("the bound chain leaves the float range at threshold "
                             f"{decimal_str(threshold)}")
        kappas = (constants.kappa1, constants.kappa2, constants.kappa3)
        m1, m2, m3, m4, kappa2_prime, kappa3_prime = self._bound_chain(
            *kappas, threshold, math.log, denom)
        if not all(map(math.isfinite, (m1, m2, m3, m4))):
            raise InvalidConstantsError("the bound chain overflows a float; use smaller kappas")
        return NphiReport(m1, m2, m3, m4, self._n_phi(kappas, threshold),
                          kappa2_prime, kappa3_prime, bounds)

    def _bound_chain(self, k1, k2, k3, threshold: int, ln, denom) -> tuple:
        """(M1, M2, M3, M4, kappa2', kappa3') from kappas, logs ln and
        denom = D*log1p(1/threshold), all floats or all Decimals; the suprema
        are taken from x_min = ln(threshold + 1)."""
        f, gamma = self.difference, self.gamma
        big_d, big_g, ln2 = f.degree, gamma.degree or 0, ln(2)
        a3, a4 = _log_coeff_sum(gamma, ln), _log_coeff_sum(f, ln)
        x_min = ln(threshold + 1)

        def sup(slope, const):
            return max((slope * x_min + const) / denom, slope / big_d)

        kappa2_prime = k2 + big_g + big_d
        kappa3_prime = k3 + 2 * ln(3) + ln(max([1, *map(abs, gamma.coeffs)])) + a4 + ln2
        return (sup(k1 * big_d, k1 * (a4 + ln2)), sup(k1 * big_g, k1 * a3),
                sup(k1 * big_g, k1 * (a3 + ln2)), sup(kappa2_prime, kappa3_prime),
                kappa2_prime, kappa3_prime)

    def _n_phi(self, kappas: tuple, threshold: int) -> int:
        """1 + max(6, ceil(2*log2(M_phi) + 19)) from an upper bound on M_phi,
        so that no rounding lowers n_phi: the chain in decimal, every step
        rounded up but denom and log 2, which are rounded down.  ln rounds
        correctly, so its neighbour on the side asked for bounds the true
        log.  The kappas convert exactly, and the precision keeps 40 digits
        of 1/threshold in 1 + 1/threshold."""
        with decimal.localcontext() as ctx:
            ctx.prec = 40 + threshold.bit_length() // 3
            ctx.rounding = decimal.ROUND_FLOOR
            one = decimal.Decimal(1)
            denom = self.difference.degree * ctx.next_minus((one + one / threshold).ln())
            ln2 = ctx.next_minus(decimal.Decimal(2).ln())
            ctx.rounding = decimal.ROUND_CEILING
            chain = self._bound_chain(*map(decimal.Decimal, kappas), threshold,
                                      lambda n: ctx.next_plus(_to_decimal(n).ln()), denom)
            # M_phi >= M4 >= kappa2'/D >= 1, so its log is nonnegative
            log_m_phi = ctx.next_plus(max(chain[:4]).ln())
            return 1 + max(6, math.ceil(2 * log_m_phi / ln2 + 19))


def index_bound(n_phi: int, budget: Budget = DEFAULT_BUDGET) -> IndexBound:
    """The IndexBound report of 2^(2^n_phi - n_phi - 1), an exact big integer.

    The value needs 2^n_phi - n_phi >= 2^(n_phi - 1) bits; DigitBudgetError
    refuses more than budget.max_bits before anything that size is built.
    """
    if n_phi < 1:
        raise ValueError("n_phi must be >= 1")
    if n_phi > budget.max_bits.bit_length() + 1 or (1 << n_phi) - n_phi > budget.max_bits:
        n = decimal_str(n_phi)
        raise DigitBudgetError(f"index bound needs 2^{n} - {n} bits; budget is {budget.max_bits}")
    return IndexBound(n_phi, 1 << ((1 << n_phi) - n_phi - 1))


def _integer_roots(polys, budget: Budget) -> set[int]:
    """Integer roots of nonzero polynomials, from the divisors of each trailing
    nonzero coefficient; all are factored and counted before any is tried."""
    roots, tails = set(), []
    for p in polys:
        k = next(i for i, c in enumerate(p.coeffs) if c)
        if k:
            roots.add(0)
        if k == p.degree:
            continue
        fac = factorize_fully(abs(p.coeffs[k]), budget)
        if math.prod(e + 1 for _, e in fac.factors) > MAX_DIVISORS:
            raise BudgetError(
                f"the trailing coefficient of P_phi has more than {MAX_DIVISORS} divisors")
        tails.append((p, fac.factors))
    for p, factors in tails:
        # Cauchy's bound: every root r has |r| <= 1 + max |a_i| / |lc| over the
        # coefficients a_i below the leading one lc
        bound = 1 + max(map(abs, p.coeffs[:-1])) // abs(p.coeffs[-1])
        divs = [1]
        for prime, e in factors:
            divs = [d * prime ** j for d in divs for j in range(e + 1)]
        roots.update(r for d in divs if d <= bound for r in (d, -d) if p.evaluate(r) == 0)
    return roots
