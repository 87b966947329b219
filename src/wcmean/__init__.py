"""Worst-case optimal mean estimation for randomized data-collection processes."""

__version__ = "0.1.0"

from .baselines import (
    BASELINES,
    GroupStructure,
    baseline_estimator,
    reweighting_estimator,
    sample_mean_estimator,
    selective_prediction_estimator,
    subgroup_estimator,
    uniform_init,
)
from .collectors import gen_importance, gen_selective, gen_snowball
from .core import (
    L2,
    LINF,
    DataValues,
    IndexPair,
    LossMatrix,
    SampleTargetDistribution,
    SchemaError,
    SemilinearEstimator,
    SupportError,
    build_loss_matrix,
    estimator_from_dense,
    fixed_data_error,
    load_distribution_file,
    load_estimator_file,
    save_distribution_file,
    save_estimator_file,
    validate_estimator,
)
from .experiments import EXPERIMENTS, ExperimentResult, run_experiment
from .lowerbound import (
    BruteForceSizeError,
    NonExpansionCertificate,
    adversarial_values,
    best_S_bruteforce,
    check_non_expanding,
    semilinear_callable,
)
from .optimizer import (
    AttemptRecord,
    BallGeometry,
    InfeasibleBallError,
    OgdConfig,
    OgdTrace,
    ball_geometry,
    l2_dual_bound,
    loss_gradient,
    loss_value,
    ogd_step,
    project_to_ball,
    radius_for,
    run_with_doubling,
)
from .subproblems import (
    EigenResult,
    PsdAssignment,
    SdpConvergenceError,
    round_sign,
    sdp2_value,
    sdp_inf_solve,
    top_eigen,
)
