"""Discriminative Kalman filtering, classic baselines, and a benchmark harness."""

from .statespace import (
    GaussianBelief,
    LinearGaussianDynamics,
    NonStationary,
    RandomSource,
    RankDeficient,
    TrajectoryDataset,
    fit_dynamics,
    generate_synthetic1,
    generate_synthetic2,
    save_dataset,
    simulate_states,
    solve_stationary_covariance,
)

__all__ = [
    "GaussianBelief",
    "LinearGaussianDynamics",
    "NonStationary",
    "RandomSource",
    "RankDeficient",
    "TrajectoryDataset",
    "fit_dynamics",
    "generate_synthetic1",
    "generate_synthetic2",
    "save_dataset",
    "simulate_states",
    "solve_stationary_covariance",
]

__version__ = "0.1.0"
