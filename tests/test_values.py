"""Value semantics of the package's record classes: immutable, equal and
hashed by value, printed as Name(field=value, ...), and picklable (density
sends a SpecializedMap to its worker processes)."""

import math
import pickle
from fractions import Fraction

import pytest

from quadtower.bigpoly import IntPolynomial
from quadtower.density import DensityCurve, DensityRow
from quadtower.factor import Budget, Factorization, SquareFreeDecomposition
from quadtower.family import (
    BoundConstants,
    FamilyInfo,
    HallLangConstants,
    IndexBound,
    InvalidConstantsError,
    NphiReport,
    QuadraticFamily,
    SpecializedMap,
)
from quadtower.galois import (
    CurveModel,
    CurveReport,
    DiscriminantReport,
    IntegralPoint,
    MaximalityCertificate,
    PrimitiveDivisorReport,
    StabilityReport,
    TowerReport,
)


def _x2p1():
    return SpecializedMap(1, 0, 1)


def _bounds():
    return BoundConstants(0.5, 1.5, 0.0, 0.75, 1.25, threshold=2)


def _model():
    return CurveModel(IntPolynomial([2, 0, 1]), 2, 1, 0, 1)


def _cert():
    return MaximalityCertificate(1, "Unknown", None)


_X2P1 = "SpecializedMap(a=1, gamma_a=0, c_a=1)"
_BOUNDS = "BoundConstants(a1=0.5, a2=1.5, a3=0.0, a4=0.75, b1=1.25, threshold=2)"
_MODEL = "CurveModel(rhs=IntPolynomial(coeffs=(2, 0, 1)), level=2, genus=1, e=0, d=1)"
_CERT = "MaximalityCertificate(level=1, status='Unknown', witness=None)"
_FAMILY = "QuadraticFamily(gamma=IntPolynomial(coeffs=()), c=IntPolynomial(coeffs=(0, 1)))"

# (a function building one instance, its repr)
CASES = [
    (lambda: IntPolynomial([0, 1]), "IntPolynomial(coeffs=(0, 1))"),
    (lambda: Budget(), "Budget(trial_bound=1000000, rho_iters=10000000, seed=0)"),
    (lambda: Factorization(-1, ((2, 3),), 1, True),
     "Factorization(sign=-1, factors=((2, 3),), cofactor=1, complete=True)"),
    (lambda: SquareFreeDecomposition(1, -1, 2), "SquareFreeDecomposition(e=1, d=-1, y=2)"),
    (lambda: PrimitiveDivisorReport(2, (5,), "exact", True),
     "PrimitiveDivisorReport(level=2, primes=(5,), method='exact', certified=True, "
     "witness=None, two_primitive=None)"),
    (_x2p1, _X2P1),
    (lambda: HallLangConstants(1.0, 0.0, 2.5),
     "HallLangConstants(kappa1=1.0, kappa2=0.0, kappa3=2.5)"),
    (_bounds, _BOUNDS),
    (lambda: NphiReport(1.0, 2.0, 3.0, 4.0, 4.0, 24, 1.5, 2.5, 3, 1.0, _bounds()),
     "NphiReport(m1=1.0, m2=2.0, m3=3.0, m4=4.0, m_phi=4.0, n_phi=24, kappa2_prime=1.5, "
     f"kappa3_prime=2.5, a_min=3, x_min=1.0, bounds={_BOUNDS})"),
    (lambda: QuadraticFamily.of([0], [0, 1]), _FAMILY),
    (lambda: FamilyInfo(QuadraticFamily.of([0], [0, 1]), IntPolynomial([0, 1]), 17, _bounds(),
                        None),
     f"FamilyInfo(family={_FAMILY}, exceptional_polynomial=IntPolynomial(coeffs=(0, 1)), "
     f"m_phi=17, bounds={_BOUNDS}, exceptional_set=None)"),
    (lambda: IndexBound(3, 16), "IndexBound(n_phi=3, value=16)"),
    (lambda: DensityRow(10, 4, 2, Fraction(1, 2)),
     "DensityRow(x=10, primes_tested=4, members=2, proportion=Fraction(1, 2))"),
    (lambda: DensityCurve(0, (DensityRow(2, 1, 0, Fraction(0)),), ()),
     "DensityCurve(b=0, rows=(DensityRow(x=2, primes_tested=1, members=0, "
     "proportion=Fraction(0, 1)),), member_primes=())"),
    (lambda: StabilityReport(2, ((2, 3),)), "StabilityReport(depth=2, squares_found=((2, 3),))"),
    (_cert, _CERT),
    (lambda: TowerReport(1, 1, (_cert(),)),
     f"TowerReport(first_level=1, last_level=1, certificates=({_CERT},))"),
    (_model, _MODEL),
    (lambda: IntegralPoint(-1, 2, 0.5), "IntegralPoint(x=-1, y=2, hall_lang_ratio=0.5)"),
    (lambda: CurveReport(_model(), True, ()),
     f"CurveReport(model={_MODEL}, forced_point_verified=True, points=())"),
    (lambda: DiscriminantReport(1, 4, direct=4),
     "DiscriminantReport(level=1, recurrence=4, direct=4)"),
]


@pytest.mark.parametrize("make, text", CASES, ids=[text.split("(")[0] for _, text in CASES])
def test_record_is_an_immutable_value(make, text):
    value = make()
    assert repr(value) == text
    for name in (type(value)._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert value == make() and hash(value) == hash(make())
    assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("make, error, message", [
    (lambda: Budget(trial_bound=1), ValueError, "trial_bound must be in [2, 10000000]"),
    (lambda: Budget(rho_iters=-1), ValueError, "rho_iters must be >= 0"),
    (lambda: HallLangConstants(0.0, 1.0, 1.0), InvalidConstantsError, "kappa1 must be positive"),
    (lambda: HallLangConstants(1.0, -1.0, 0.0), InvalidConstantsError,
     "kappa2 must be finite and nonnegative"),
    (lambda: HallLangConstants(1.0, 0.0, math.nan), InvalidConstantsError,
     "kappa3 must be finite and nonnegative"),
    (lambda: HallLangConstants(math.inf, 0.0, 0.0), InvalidConstantsError,
     "kappa1 must be finite and nonnegative"),
])
def test_validating_constructors_refuse_with_the_same_error(make, error, message):
    with pytest.raises(error) as err:
        make()
    assert type(err.value) is error and str(err.value) == message
