"""semilab: exact semimeasure laboratory.

Exact rational evaluation of semimeasures over finite alphabets, certified
interval verification of predictive-convergence inequalities, mixture and
quasimeasure constructions, randomness-deficiency traces, and the posterior
non-convergence counterexample.
"""

from .errors import (
    ApproximableNotMeasureError,
    DepthExceededError,
    HypothesisFailedError,
    InconclusiveConfigurationError,
    InvalidK0Error,
    NormalizationError,
    NotAMeasureError,
    NotAMeasureRowError,
    NotDominatedError,
    SemilabError,
    SpecError,
    UndefinedPosteriorError,
)
from .intervals import (
    CERTIFIED_FAILS,
    CERTIFIED_HOLDS,
    DEFAULT_PRECISION,
    INCONCLUSIVE,
    MAX_PRECISION,
    Verdict,
    certify_le,
    compare_le,
    endpoints,
    from_fraction,
    interval_str,
    precision,
)
from .envcore import (
    BINARY,
    MEASURE,
    STRICT_SEMIMEASURE,
    Alphabet,
    BernoulliEnv,
    BitStream,
    CategoricalIIDEnv,
    DecayingEnv,
    DeterministicEnv,
    Environment,
    EnvCursor,
    FiniteString,
    LeakyEnv,
    MarkovEnv,
    TableEnv,
    ValidationReport,
    enumerate_support,
    mass_interval,
    prefix_masses,
    sample,
    uniform_measure,
    validate,
)
from .mixtures import (
    MEASURES_ONLY,
    NORMALIZED_MEASURES_ONLY,
    QUASI,
    RAW,
    EnvClass,
    MixtureEnv,
    NormalizedEnv,
    QuasimeasureEnv,
    WeightScheme,
    default_weights,
    dominance_constant,
    k_x,
    normalize,
)
from .divergence import (
    HellingerTrace,
    TailCheckReport,
    bhattacharyya_step,
    chain_inequality,
    expected_exp_half_sum,
    expected_hellinger_sums,
    hellinger_step,
    hellinger_trace,
    markov_tail_check,
    markov_tail_checks,
    row_inequality_verdicts,
    verify_dominance,
)
from .randomness import (
    ConstantFunctional,
    DeficiencyTrace,
    E2IBoundReport,
    EnumerableFunctional,
    IndicatorFunctional,
    MuBarEnv,
    deficiency_trace,
    delta_hat_ratio_check,
    e2i_build_mubar,
    e2i_individual_bound,
    leftmost_random,
    prop8_expected_bound,
)
from .counterexample import (
    NonconvergenceReport,
    NuLimitEnv,
    alpha_stage,
    build_mprime,
    contaminate,
    nu_limit,
    verify_nonconvergence,
)

__version__ = "1.0.0"
