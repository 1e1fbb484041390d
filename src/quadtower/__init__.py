"""Critical-orbit arithmetic, Galois tower certificates, and prime-divisor
density for one-parameter quadratic families (x - gamma(t))^2 + c(t)."""

from quadtower.bigpoly import (
    DEFAULT_MAX_BITS,
    BudgetError,
    DigitBudgetError,
    IntPolynomial,
    ZeroPolynomialError,
    decimal_str,
    discriminant_direct,
    height_int,
    is_perfect_square,
    parse_int,
    poly_height,
    resultant,
)
from quadtower.density import DensityCurve, density_curve, orbit_hits_zero_mod_p, primes_up_to
from quadtower.factor import (
    Budget,
    Factorization,
    IncompleteFactorizationError,
    SquareFreeDecomposition,
    ZeroInputError,
    factorize,
    is_probable_prime,
    squarefree_decompose,
    stripped_cofactor,
)
from quadtower.family import (
    BoundConstants,
    HallLangConstants,
    InvalidConstantsError,
    IsotrivialError,
    NphiReport,
    QuadraticFamily,
    SpecializedMap,
    index_bound,
)
from quadtower.galois import (
    CERTIFIED_MAXIMAL,
    FAILED_SQUARE_OVER_Q,
    UNKNOWN,
    CurveModel,
    IntegralPoint,
    MaximalityCertificate,
    PrimitiveDivisorReport,
    SingularModelError,
    StabilityReport,
    TowerReport,
    certify_tower,
    curve_model,
    primitive_divisor_certificate,
    primitive_divisor_exact,
    search_integral_points,
    stability_scan,
    verify_forced_point,
)
from quadtower.orbit import CriticalOrbit, Orbit, canonical_height, critical_orbit, orbit

__version__ = "0.1.0"
