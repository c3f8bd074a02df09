"""Entropy, distance, and entropy-weighted TOPSIS for probabilistic
hesitant fuzzy elements."""

from .baselines import (
    expectation,
    su_entropy_d,
    su_entropy_p1,
    su_entropy_p2,
    su_like_distance,
    zeta,
)
from .distance import (
    ALL_PSI,
    EMPTY_ELEMENT,
    FULL_ELEMENT,
    PSI_EXP_TILT,
    PSI_HARMONIC,
    PSI_IDENTITY,
    PSI_SQUARE,
    PsiFunction,
    entropy_distance,
    hybrid,
)
from .elements import (
    PHFE,
    LinguisticScale,
    canonicalize,
    complement,
    from_linguistic,
    parse_phfe,
    parse_phfe_list,
    phfe_to_dict,
    pi,
)
from .entropy import (
    DEFAULT_CONFIG,
    F1,
    F2,
    F3,
    R1,
    R2,
    THETA_BSUM,
    THETA_MAX,
    THETA_PSUM,
    EntropyConfig,
    FuzzinessKernel,
    NonSpecificityKernel,
    ThetaCombiner,
    all_configs,
    comprehensive_entropy,
    entropy_components,
    f_kernel,
    fuzziness_entropy,
    measure_value,
    nonspecificity_entropy,
    parse_measure,
    r_kernel,
    weighted_comprehensive,
)
from .errors import (
    DegenerateWeightsError,
    EmptyInputError,
    OutOfRangeError,
    ParseError,
    PhfeError,
    ProbabilitySumError,
    TermOutOfRangeError,
    UnknownMeasureError,
    ZeroDenominatorError,
)
from .mcdm import (
    CriterionSpec,
    DecisionMatrix,
    TopsisResult,
    WeightVector,
    closeness,
    entropy_weights,
    format_result_table,
    ideal_distances,
    matrix_to_dict,
    parse_decision_matrix,
    result_to_dict,
    run_topsis,
)

__version__ = "0.1.0"
