"""Operator means, relative operator entropies, and reverse Jensen constants,
with a Loewner-order verification harness for the associated matrix
inequalities on randomly generated constrained instances."""

from .bounds import (
    SecantData,
    chord_gap_bound,
    chord_ratio_bound,
    identric_mean,
    logarithmic_mean,
    secant_coeffs,
    secant_data,
    zeta_closed_forms,
)
from .entropy import (
    OperatorField,
    PairSpectrum,
    generalized_entropy,
    mean_field,
    natural_power,
    relative_entropy,
    variational_form,
)
from .errors import (
    ConsistencyError,
    DomainError,
    EigenConvergenceError,
    GenerationError,
    NotPositiveDefiniteError,
    PreconditionError,
    ShapeError,
    UndefinedRatioError,
    UnresolvableWindowError,
)
from .functions import (
    IDENTITY,
    LOG,
    NEG_T_LOG_T,
    ScalarFunction,
    affine,
    check_nonnegative_on,
    constant,
    power,
)
from .maps import PositiveLinearMap
from .matcore import (
    DEFAULT_LOEWNER_TOL,
    HermitianMatrix,
    PositiveDefiniteMatrix,
    SpectralDecomposition,
    apply_function,
    congruence,
    eig,
    identity,
    loewner_leq,
    sandwich_bounds,
)
from .verify import (
    CampaignConfig,
    CampaignReport,
    Instance,
    TheoremId,
    VerificationResult,
    campaign,
    check,
    random_instance,
    random_resolution,
)

__version__ = "0.1.0"
