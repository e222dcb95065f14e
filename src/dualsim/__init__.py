"""dualsim: simulator and experiment harness for dual and multi-step dual learning.

Closed-form accuracy predictions for round-trip (dual) and pivot-cycle
(multi-step) training of translator pairs, verified against independent
exact-enumeration and Monte-Carlo oracles, plus trainable tabular
translators on synthetic clustered language worlds.
"""

from .errors import DualSimError, InfeasibleParamsError, ValidationError
from .outcome_model import (
    DualOutcomeParams,
    RedistributionPolicy,
    TripleOutcomeParams,
    build_dual_joint,
    build_triple_joint,
    lambda_feasible_range,
    lambda_loose_range,
)
from .theory import (
    DualPrediction,
    TriplePrediction,
    dual_improvement,
    m_factor,
    multistep_condition,
    predict_dual,
    predict_multistep,
    proportional_dual_accuracy,
    proportional_policy,
)
from .oracle import (
    GenerativeSpec,
    OracleResult,
    OutcomeCounts,
    enumerate_dual,
    enumerate_triple,
    errata_report,
    monte_carlo,
)
from .synth_lang import (
    Corpus,
    World,
    build_corpus,
    generate_world,
)
from .translator import TabularTranslator, TrainConfig
from .metrics import (
    AccuracyReport,
    EstimatorReport,
    accuracy,
    estimators,
    estimators_from_counts,
)
from .learner import (
    ExperimentRecord,
    dual_learning,
    evaluate,
    multistep_dual_learning,
    train_supervised,
)

__version__ = "0.1.0"
