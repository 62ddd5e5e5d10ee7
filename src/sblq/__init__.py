"""Spectral-filter batch linear Q-learning with adaptive regularization."""

from .data import BatchDataset, load_dataset, split
from .envs import (A1_ENV, A2_ENV, EnvSpec, GroundTruth, SyntheticEnv, generate_trajectories,
                   load_env, load_ground_truth, make_env, sample_theta_star)
from .interpret import ContributionReport, clipped_weights, contribution_proportions, topk_feature_rewards
from .learner import (AdaptiveConfig, ModelBundle, Stage, StageFitReport, StageSpectra,
                      adaptive_threshold, default_config, dimension_adjusted_sample_size,
                      effective_sample_size, error_decomposition, fit_stage, lasso_path,
                      load_model, select_lambda, stage_spectra, stage_targets, train,
                      variance_proxy)
from .policy import (GreedyPolicy, MetricsReport, comparison_diagnostic, direct_value_estimate,
                     evaluate, parameter_gap, policy_gap, rollout_reward)
from .spectral import (FilterSpec, SpectralDecomposition, decompose, default_filter,
                       empirical_effective_dimension, filter_values, weighted_half_norm)

__version__ = "0.1.0"
