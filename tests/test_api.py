"""The public surface of the ``dualsim`` package."""

import dualsim

# Every name a caller reaches through ``import dualsim``: the package's
# non-underscore attributes other than its submodules. A name added here
# needs a command or gate that calls it.
PUBLIC_NAMES = {
    "AccuracyReport", "Corpus", "DualOutcomeParams", "DualPrediction", "DualSimError",
    "EstimatorReport", "ExperimentRecord", "GenerativeSpec", "InfeasibleParamsError",
    "JointTable", "OracleResult", "OutcomeCounts", "RedistributionPolicy",
    "TabularTranslator", "TrainConfig", "TripleOutcomeParams", "TriplePrediction",
    "ValidationError", "World",
    "accuracy", "build_corpus", "build_dual_joint", "build_triple_joint",
    "dual_improvement", "dual_learning", "enumerate_dual",
    "enumerate_triple", "errata_report", "estimators", "estimators_from_counts", "evaluate",
    "generate_world", "lambda_feasible_range", "lambda_loose_range", "loop_log_prob",
    "loop_log_prob_bound", "m_factor", "monte_carlo", "multistep_condition",
    "multistep_dual_learning", "predict_dual", "predict_multistep",
    "proportional_dual_accuracy", "proportional_policy", "reconstruction_accuracy",
    "simplified_multistep_accuracy", "train_supervised",
}


def test_public_names_are_pinned():
    public = {
        name for name, value in vars(dualsim).items()
        if not name.startswith("_") and type(value).__name__ != "module"
    }
    assert len(PUBLIC_NAMES) == 47
    assert public == PUBLIC_NAMES
