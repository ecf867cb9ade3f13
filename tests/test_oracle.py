import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkf.filters import (
    DiscriminativeObservationModel,
    GenerativeObservationModel,
    constant_q,
    dkf_step,
    kalman_step,
)
from dkf.oracle import (
    DegenerateDensity,
    GridDensity,
    GridSpec,
    gaussian_grid_density,
    grid_filter_run,
    grid_moments,
    grid_step_discriminative,
    grid_step_generative,
    stationary_grid,
    transition_matrix,
)
from dkf.statespace import GaussianBelief, LinearGaussianDynamics, RandomSource, ar1_dynamics, simulate_states


AR1 = ar1_dynamics()
S1 = float(AR1.S[0, 0])


# ---------------------------------------------------------------------------
# grid plumbing


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1.0, 1.0)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, points=8)


def test_stationary_grid_covers_eight_std():
    grid = stationary_grid(S1)
    assert grid.points == 4000
    assert grid.lower == pytest.approx(-8.0 * math.sqrt(S1))
    assert grid.upper == pytest.approx(8.0 * math.sqrt(S1))


def test_grid_density_normalizes_on_construction():
    grid = GridSpec(-5.0, 5.0, 200)
    dens = GridDensity(grid, np.ones(200))
    assert dens.mass() == pytest.approx(1.0, abs=1e-9)
    dens = gaussian_grid_density(grid, 0.3, 0.8)
    assert dens.mass() == pytest.approx(1.0, abs=1e-9)


def test_grid_density_rejects_bad_values():
    grid = GridSpec(-1.0, 1.0, 64)
    with pytest.raises(ValueError):
        GridDensity(grid, -np.ones(64))
    with pytest.raises(DegenerateDensity):
        GridDensity(grid, np.zeros(64))
    with pytest.raises(DegenerateDensity):
        GridDensity(grid, np.full(64, np.nan))
    with pytest.raises(ValueError):
        GridDensity(grid, np.ones(32))


def test_transition_matrix_columns_are_densities():
    grid = stationary_grid(S1, points=2000)
    K = transition_matrix(AR1, grid)
    # each column is N(. ; a z_j, gamma) sampled on the nodes: trapezoid
    # integral over the first axis must be 1 wherever the mass fits the grid
    col_mass = grid.weights @ K
    inner = np.abs(grid.nodes) < 0.5 * grid.upper
    assert np.allclose(col_mass[inner], 1.0, atol=1e-6)


def test_grid_moments_standard_normal():
    grid = GridSpec(-8.0, 8.0, 4000)
    mean, var = grid_moments(gaussian_grid_density(grid, 0.0, 1.0))
    assert abs(mean) <= 1e-6
    assert 0.9999 <= var <= 1.0001


def test_grid_moments_symmetric_density_zero_mean():
    grid = GridSpec(-3.0, 3.0, 501)
    vals = np.cosh(grid.nodes) ** -2
    mean, _ = grid_moments(GridDensity(grid, vals))
    assert abs(mean) < 1e-12


def test_grid_moments_narrow_gaussian():
    # >= 20 nodes across +/-4 std of the narrow density
    std = 0.01
    grid = GridSpec(-1.0, 1.0, 16001)
    mean, var = grid_moments(gaussian_grid_density(grid, 0.123, std ** 2))
    assert mean == pytest.approx(0.123, abs=1e-6)
    assert abs(var - std ** 2) < 0.01 * std ** 2


def test_grid_refinement_second_order():
    grid_a = stationary_grid(S1, points=2000)
    grid_b = stationary_grid(S1, points=4000)
    moments = []
    for grid in (grid_a, grid_b):
        dens = gaussian_grid_density(grid, 1.0, 2.0)
        dens = grid_step_discriminative(dens, 0.7, 0.9, AR1, transition_matrix(AR1, grid))
        moments.append(grid_moments(dens))
    gap = max(abs(a - b) for a, b in zip(*moments))
    assert gap < 4e-4


# ---------------------------------------------------------------------------
# generative steps


def test_constant_likelihood_is_pure_prediction():
    grid = stationary_grid(S1, points=1000)
    prior = gaussian_grid_density(grid, 1.0, 0.8)
    trans = transition_matrix(AR1, grid)
    post = grid_step_generative(prior, np.array([0.0]), AR1, lambda z: np.full(z.shape, 3.0), trans)
    pred = trans @ (grid.weights * prior.values)
    expect = GridDensity(grid, pred)
    assert np.allclose(post.values, expect.values, atol=1e-12)
    # prediction of a Gaussian prior is the exact Gaussian push-forward
    mean, var = grid_moments(post)
    assert mean == pytest.approx(0.9 * 1.0, abs=1e-6)
    assert var == pytest.approx(0.81 * 0.8 + 1.0, abs=1e-4)


def test_zero_transition_forgets_prior():
    dyn = LinearGaussianDynamics(np.zeros((1, 1)), [[1.0]], [[1.0]])
    grid = GridSpec(-8.0, 8.0, 2000)
    for prior_mean in (-2.0, 3.0):
        prior = gaussian_grid_density(grid, prior_mean, 0.5)
        post = grid_step_generative(prior, np.array([0.0]), dyn, lambda z: np.ones(z.shape))
        mean, var = grid_moments(post)
        assert abs(mean) < 1e-8
        assert var == pytest.approx(1.0, abs=1e-4)


def test_generative_grid_matches_kalman_step():
    grid = stationary_grid(S1)
    obs = GenerativeObservationModel.linear([[1.2]], [[0.5]], offset=[0.1])
    prior = gaussian_grid_density(grid, 0.4, 1.1)
    x = np.array([0.9])
    post = grid_step_generative(prior, x, AR1, obs)
    kf = kalman_step(GaussianBelief([0.4], [[1.1]]), x, AR1, obs)
    mean, var = grid_moments(post)
    assert abs(mean - kf.mean[0]) < 1e-4
    assert abs(var - kf.covariance[0, 0]) < 1e-4


def test_generative_grid_run_matches_kalman_trajectory():
    rng = RandomSource(101)
    z = simulate_states(AR1, 40, rng)
    x = 1.2 * z + 0.7 * rng.normals(40)[:, None]
    obs = GenerativeObservationModel.linear([[1.2]], [[0.49]])
    moments = grid_filter_run(x, AR1, obs)
    belief = AR1.stationary_belief()
    for t in range(40):
        belief = kalman_step(belief, x[t], AR1, obs)
        assert abs(moments[t][0] - belief.mean[0]) < 1e-4
        assert abs(moments[t][1] - belief.covariance[0, 0]) < 1e-4


def test_generative_rejects_bad_likelihood():
    grid = GridSpec(-4.0, 4.0, 100)
    prior = gaussian_grid_density(grid, 0.0, 1.0)
    with pytest.raises(TypeError):
        grid_step_generative(prior, np.array([0.0]), AR1, object())
    with pytest.raises(ValueError):
        grid_step_generative(prior, np.array([0.0]), AR1, lambda z: -np.ones(z.shape))


def test_degenerate_density_when_likelihood_vanishes():
    grid = GridSpec(-4.0, 4.0, 100)
    prior = gaussian_grid_density(grid, 0.0, 1.0)
    with pytest.raises(DegenerateDensity):
        grid_step_generative(prior, np.array([0.0]), AR1, lambda z: np.zeros(z.shape))


# ---------------------------------------------------------------------------
# discriminative steps


def test_discriminative_first_step_returns_model_gaussian():
    grid = stationary_grid(S1)
    prior = gaussian_grid_density(grid, 0.0, S1)
    post = grid_step_discriminative(prior, 1.3, 0.7, AR1)
    mean, var = grid_moments(post)
    assert abs(mean - 1.3) < 1e-6
    assert abs(var - 0.7) < 1e-4


def test_discriminative_grid_matches_dkf_step():
    grid = stationary_grid(S1)
    trans = transition_matrix(AR1, grid)
    prior = gaussian_grid_density(grid, 1.0, 0.5)
    post = grid_step_discriminative(prior, 2.0, 0.8, AR1, trans)
    mean, var = grid_moments(post)
    obs = DiscriminativeObservationModel(
        f=lambda X: np.full((len(X), 1), 2.0), Q=constant_q(np.array([[0.8]]))
    )
    step = dkf_step(GaussianBelief([1.0], [[0.5]]), np.array([0.0]), AR1, obs)
    assert abs(mean - step.mean[0]) < 1e-4
    assert abs(var - step.covariance[0, 0]) < 1e-4


def test_discriminative_q_near_s_approaches_prediction():
    grid = stationary_grid(S1)
    trans = transition_matrix(AR1, grid)
    prior = gaussian_grid_density(grid, 1.0, 0.5)
    post = grid_step_discriminative(prior, 0.0, 0.999 * S1, AR1, trans)
    mean, var = grid_moments(post)
    assert abs(mean - 0.9) < 2e-3
    assert abs(var - (0.81 * 0.5 + 1.0)) < 2e-2 * (0.81 * 0.5 + 1.0)


def test_discriminative_rejects_invalid_q():
    grid = stationary_grid(S1)
    prior = gaussian_grid_density(grid, 0.0, S1)
    with pytest.raises(ValueError):
        grid_step_discriminative(prior, 0.0, S1 * 1.01, AR1)
    with pytest.raises(ValueError):
        grid_step_discriminative(prior, 0.0, 0.0, AR1)


def test_grid_filter_run_discriminative_matches_dkf_trajectory():
    rng = RandomSource(7)
    x = rng.normals(25)[:, None]
    obs = DiscriminativeObservationModel(
        f=lambda X: np.tanh(X[:, :1]), Q=lambda X: (0.6 + 0.2 * np.cos(X[:, 0]))[:, None, None]
    )
    moments = grid_filter_run(x, AR1, obs)
    belief = AR1.stationary_belief()
    for t in range(25):
        belief = dkf_step(belief, x[t], AR1, obs)
        assert abs(moments[t][0] - belief.mean[0]) < 1e-4
        assert abs(moments[t][1] - belief.covariance[0, 0]) < 1e-4


def test_grid_filter_run_rejects_multivariate_dynamics():
    dyn = LinearGaussianDynamics.from_transition(0.5 * np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        grid_filter_run(np.zeros((3, 1)), dyn, None)


# ---------------------------------------------------------------------------
# randomized single-step agreement (the primary correctness instrument)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_dkf_step_matches_grid_oracle(seed):
    rng = np.random.default_rng(seed)
    a = float(rng.uniform(0.3, 0.95))
    gamma = float(rng.uniform(0.5, 1.5))
    dyn = LinearGaussianDynamics.from_transition([[a]], [[gamma]])
    S = float(dyn.S[0, 0])
    prior_mean = float(rng.uniform(-1.5, 1.5)) * math.sqrt(S)
    prior_var = float(rng.uniform(0.1, 1.0)) * S
    f_val = float(rng.uniform(-1.0, 1.0)) * math.sqrt(S)
    q_val = float(rng.uniform(0.05, 0.9)) * S
    grid = stationary_grid(S)
    prior = gaussian_grid_density(grid, prior_mean, prior_var)
    post = grid_step_discriminative(prior, f_val, q_val, dyn)
    mean, var = grid_moments(post)
    obs = DiscriminativeObservationModel(
        f=lambda X: np.full((len(X), 1), f_val), Q=constant_q(np.array([[q_val]]))
    )
    step = dkf_step(GaussianBelief([prior_mean], [[prior_var]]), np.zeros(1), dyn, obs)
    assert abs(mean - step.mean[0]) <= 1e-4
    assert abs(var - step.covariance[0, 0]) <= 1e-4
