"""Spectral-filter batch linear Q-learning with adaptive regularization."""

from .data import (
    BatchDataset,
    StageDesign,
    Trajectory,
    empirical_covariance,
    feature_vector,
    load_dataset,
    save_dataset,
    split,
    stage_design,
)
from .envs import (
    A1_ENV,
    A2_ENV,
    EnvSpec,
    GroundTruth,
    SyntheticEnv,
    generate_trajectories,
    load_env,
    load_ground_truth,
    make_env,
    observe_target,
    sample_theta_star,
)
from .interpret import ContributionReport, clipped_weights, contribution_proportions, topk_feature_rewards
from .learner import (
    AdaptiveConfig,
    LassoFit,
    ModelBundle,
    StageFitReport,
    adaptive_threshold,
    construct_targets,
    default_config,
    dimension_adjusted_sample_size,
    effective_sample_size,
    error_decomposition,
    fit_lasso,
    fit_stage,
    load_model,
    next_value_bound,
    save_model,
    select_lambda,
    train,
    train_baseline,
    variance_proxy,
)
from .policy import (
    GreedyPolicy,
    MetricsReport,
    act,
    comparison_diagnostic,
    direct_value_estimate,
    evaluate,
    parameter_gap,
    policy_gap,
    rollout_reward,
)
from .spectral import (
    FilterSpec,
    SpectralDecomposition,
    SpectralSystem,
    decompose,
    default_filter,
    empirical_effective_dimension,
    filter_value,
    filter_values,
    gradient_descent_steps,
    spectral_system,
    weighted_half_norm,
)

__version__ = "0.1.0"
