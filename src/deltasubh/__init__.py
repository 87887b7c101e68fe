"""deltasubh: a computational potential-theory lab.

Characteristics of differences of subharmonic functions (and of meromorphic
functions through log|f|), moduli of continuity of finitely-described Borel
measures, and numerical verification of the integral inequality

    integral over B(r) of U^+ d mu
        <= A_d(r, R) * T_U(r0, R) * (M + Dini integral of h_mu)

together with its planar and meromorphic specializations.
"""

from .geometry import ext_mul, kernel
from .measures import (
    Atom,
    BorelMeasure,
    DiniLimitsReport,
    ModulusProfile,
    UniformArc,
    UniformBall,
    UniformSegment,
    dini_integral_result,
    dini_limits_check,
    integrated_counting_result,
    modulus_of_continuity,
    modulus_profile,
    radial_counting,
)
from .potentials import (
    AffineHarmonic,
    DeltaSubharmonicFn,
    HarmonicPolynomial,
    MeromorphicFn,
    SubharmonicFn,
    UnsupportedModelError,
    canonical_representation,
    jordan_decomposition,
)
from .quadrature import (
    QuadratureBudgetError,
    QuadratureResult,
    circle_mean,
    integrate_interval,
    sphere_mean_3d,
    sphere_sup,
)
from .characteristics import (
    CharacteristicRecord,
    difference_characteristic,
    difference_characteristic_canonical,
    nevanlinna_N,
    nevanlinna_T,
    nevanlinna_m,
    spherical_mean,
    sup_on_sphere,
)
from .lab import (
    CorpusConfig,
    Scenario,
    Tolerances,
    VerificationReport,
    constant_A,
    generate_scenario,
    positive_part_integral,
    run_checks,
    run_corpus,
    verify_counting_lemma,
    verify_main_theorem,
    verify_pointwise_bound,
    verify_poisson_jensen,
)
from .scenario_io import ScenarioError, parse_scenario, serialize_scenario

__version__ = "0.1.0"
