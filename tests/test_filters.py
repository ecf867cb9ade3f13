import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkf.filters import (
    CholeskyFailure,
    DiscriminativeObservationModel,
    FilterStats,
    GenerativeObservationModel,
    InvalidPosterior,
    JacobianUnavailable,
    UkfParameters,
    discriminative_from_linear,
    dkf_steady_state_covariance,
    dkf_step,
    ekf_step,
    finite_difference_jacobian,
    kalman_step,
    load_beliefs,
    regularize_Q,
    run_filter,
    save_beliefs,
    sigma_points,
    ukf_step,
)
from dkf.statespace import (
    GaussianBelief,
    LinearGaussianDynamics,
    RandomSource,
    TrajectoryDataset,
    ar1_dynamics,
)


def _random_dynamics(rng: np.random.Generator, d: int) -> LinearGaussianDynamics:
    A = rng.standard_normal((d, d))
    A *= 0.7 / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-3)
    G = rng.standard_normal((d, d))
    Gamma = G @ G.T + 0.5 * np.eye(d)
    return LinearGaussianDynamics.from_transition(A, Gamma)


def _random_affine_obs(rng: np.random.Generator, d: int, m: int) -> GenerativeObservationModel:
    H = rng.standard_normal((m, d))
    L = rng.standard_normal((m, m))
    Lam = L @ L.T + 0.3 * np.eye(m)
    return GenerativeObservationModel.linear(H, Lam, offset=rng.standard_normal(m))


# ---------------------------------------------------------------------------
# kalman_step


def test_kalman_scalar_hand_example():
    # A=0.9, Gamma=1 -> S=1/0.19; from the prior with x=1, Lambda=1:
    # K = S/(S+1) = 1/1.19 and both posterior mean and variance equal K
    dyn = ar1_dynamics()
    obs = GenerativeObservationModel.linear([[1.0]], [[1.0]])
    post = kalman_step(dyn.stationary_belief(), np.array([1.0]), dyn, obs)
    expect = 1.0 / 1.19
    assert abs(post.mean[0] - expect) < 1e-12
    assert abs(post.covariance[0, 0] - expect) < 1e-12


def test_kalman_infinite_noise_limit():
    dyn = ar1_dynamics()
    obs = GenerativeObservationModel.linear([[1.0]], [[1e12]])
    belief = GaussianBelief([2.0], [[1.5]])
    post = kalman_step(belief, np.array([4.0]), dyn, obs)
    assert abs(post.mean[0] - 0.9 * 2.0) < 1e-3
    assert abs(post.covariance[0, 0] - (0.81 * 1.5 + 1.0)) < 1e-3


def test_kalman_requires_affine_model():
    dyn = ar1_dynamics()
    obs = GenerativeObservationModel(h=lambda z: z, Lambda=[[1.0]])
    with pytest.raises(ValueError):
        kalman_step(dyn.stationary_belief(), np.array([0.0]), dyn, obs)


def test_kalman_multivariate_matches_direct_formulas():
    rng = np.random.default_rng(5)
    dyn = _random_dynamics(rng, 3)
    obs = _random_affine_obs(rng, 3, 4)
    belief = GaussianBelief(rng.standard_normal(3), np.eye(3) * 0.7)
    x = rng.standard_normal(4)
    post = kalman_step(belief, x, dyn, obs)
    M = dyn.A @ belief.covariance @ dyn.A.T + dyn.Gamma
    H = obs.H
    K = M @ H.T @ np.linalg.inv(H @ M @ H.T + obs.Lambda)
    mean = dyn.A @ belief.mean + K @ (x - H @ dyn.A @ belief.mean - obs.offset)
    cov = (np.eye(3) - K @ H) @ M
    assert np.allclose(post.mean, mean, atol=1e-10)
    assert np.allclose(post.covariance, 0.5 * (cov + cov.T), atol=1e-10)


# ---------------------------------------------------------------------------
# ekf_step


def test_ekf_linear_equals_kalman():
    rng = np.random.default_rng(11)
    dyn = _random_dynamics(rng, 2)
    obs = _random_affine_obs(rng, 2, 3)
    belief = GaussianBelief(rng.standard_normal(2), np.eye(2))
    x = rng.standard_normal(3)
    kf = kalman_step(belief, x, dyn, obs)
    ekf = ekf_step(belief, x, dyn, obs)
    assert np.allclose(kf.mean, ekf.mean, atol=1e-13)
    assert np.allclose(kf.covariance, ekf.covariance, atol=1e-13)


def test_ekf_arctan_hand_derivation():
    # d=1, h=arctan, linearized at the predicted mean 0.9
    dyn = ar1_dynamics()
    belief = GaussianBelief([1.0], [[0.5]])
    x = np.array([0.8])
    obs = GenerativeObservationModel(
        h=lambda z: np.arctan(z),
        Lambda=[[0.04]],
        jacobian=lambda z: np.array([[1.0 / (1.0 + z[0] ** 2)]]),
    )
    M = 0.81 * 0.5 + 1.0
    H = 1.0 / (1.0 + 0.81)
    S_innov = H * M * H + 0.04
    K = M * H / S_innov
    mu = 0.9 + K * (0.8 - math.atan(0.9))
    sigma = (1.0 - K * H) * M
    post = ekf_step(belief, x, dyn, obs)
    assert abs(post.mean[0] - mu) < 1e-10
    assert abs(post.covariance[0, 0] - sigma) < 1e-10
    # finite differences agree with the analytic Jacobian to second order
    fd = ekf_step(belief, x, dyn, GenerativeObservationModel(h=lambda z: np.arctan(z), Lambda=[[0.04]]))
    assert abs(fd.mean[0] - mu) < 1e-8
    assert abs(fd.covariance[0, 0] - sigma) < 1e-8


def test_ekf_cubic_coordinate_carries_no_first_order_information():
    # h(z) = (z, z^3) at predicted mean 0: Jacobian column (1, 0), so the
    # second observation coordinate cannot move the posterior
    dyn = ar1_dynamics()
    belief = GaussianBelief([0.0], [[0.5]])
    obs = GenerativeObservationModel(
        h=lambda z: np.array([z[0], z[0] ** 3]),
        Lambda=np.eye(2),
        jacobian=lambda z: np.array([[1.0], [3.0 * z[0] ** 2]]),
    )
    a = ekf_step(belief, np.array([0.5, 100.0]), dyn, obs)
    b = ekf_step(belief, np.array([0.5, -100.0]), dyn, obs)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.covariance, b.covariance)


def test_ekf_finite_difference_jacobian_accuracy():
    H = finite_difference_jacobian(lambda z: np.array([z[0] ** 3]), np.array([0.0]))
    assert abs(H[0, 0]) < 1e-9
    H = finite_difference_jacobian(
        lambda z: np.array([math.sin(z[0]) * z[1], z[1] ** 2]), np.array([0.3, -1.2])
    )
    expect = np.array([[math.cos(0.3) * -1.2, math.sin(0.3)], [0.0, -2.4]])
    assert np.allclose(H, expect, atol=1e-8)


def test_ekf_jacobian_unavailable():
    dyn = ar1_dynamics()
    obs = GenerativeObservationModel(h=lambda z: np.tanh(z), Lambda=[[1.0]])
    with pytest.raises(JacobianUnavailable):
        ekf_step(dyn.stationary_belief(), np.array([0.1]), dyn, obs, finite_diff=False)


# ---------------------------------------------------------------------------
# ukf_step


def test_sigma_point_weights_sum_to_one():
    params = UkfParameters(alpha=0.8, beta=2.0, kappa=0.5)
    pts, wm, wc = sigma_points(np.zeros(3), np.eye(3), params)
    assert pts.shape == (7, 3)
    assert abs(wm.sum() - 1.0) < 1e-12
    # weighted sample mean/cov reproduce the input Gaussian exactly
    assert np.allclose(wm @ pts, np.zeros(3), atol=1e-12)
    dP = pts - wm @ pts
    assert np.allclose((dP * wc[:, None]).T @ dP, np.eye(3), atol=1e-10)


def test_sigma_points_reject_indefinite_covariance():
    with pytest.raises(CholeskyFailure):
        sigma_points(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), UkfParameters())


def test_ukf_parameter_validation():
    with pytest.raises(ValueError):
        UkfParameters(alpha=0.0)
    with pytest.raises(ValueError):
        UkfParameters(alpha=1.5)
    with pytest.raises(ValueError):
        UkfParameters(kappa=-10.0).lam(2)
    assert UkfParameters().lam(1) == pytest.approx(2.0)  # kappa resolves to 3 - d


@pytest.mark.parametrize(
    "params",
    [UkfParameters(), UkfParameters(alpha=0.4, beta=1.0, kappa=0.2), UkfParameters(alpha=1e-3, beta=2.0, kappa=0.0)],
)
def test_ukf_linear_equals_kalman_any_parameters(params):
    rng = np.random.default_rng(17)
    dyn = _random_dynamics(rng, 2)
    obs = _random_affine_obs(rng, 2, 2)
    belief = GaussianBelief(rng.standard_normal(2), np.eye(2) * 0.8)
    x = rng.standard_normal(2)
    kf = kalman_step(belief, x, dyn, obs)
    uf = ukf_step(belief, x, dyn, obs, params)
    assert np.allclose(kf.mean, uf.mean, atol=1e-8)
    assert np.allclose(kf.covariance, uf.covariance, atol=1e-8)


def test_ukf_zero_information_limit():
    dyn = ar1_dynamics()
    belief = GaussianBelief([1.0], [[0.5]])
    obs = GenerativeObservationModel(h=lambda z: np.tanh(z), Lambda=[[1e12]])
    post = ukf_step(belief, np.array([7.0]), dyn, obs)
    M = 0.81 * 0.5 + 1.0
    assert abs(post.mean[0] - 0.9) < 1e-3 * abs(0.9)
    assert abs(post.covariance[0, 0] - M) < 1e-3 * M


def test_ukf_even_h_keeps_zero_mean():
    # h(z) = z^2 with predicted mean 0: sigma points {0, +s, -s} map to
    # {0, s^2, s^2}, the cross-covariance cancels, and no observation can
    # move the posterior mean off 0
    dyn = ar1_dynamics()
    belief = GaussianBelief([0.0], [[0.5]])
    obs = GenerativeObservationModel(h=lambda z: np.array([z[0] ** 2]), Lambda=[[0.1]])
    for x in (-3.0, 0.0, 2.5):
        post = ukf_step(belief, np.array([x]), dyn, obs)
        assert abs(post.mean[0]) < 1e-12


# ---------------------------------------------------------------------------
# regularize_Q


def test_regularize_q_passthrough_same_object():
    dyn = ar1_dynamics()
    Q = 0.5 * np.asarray(dyn.S)
    assert regularize_Q(Q, dyn.S) is Q
    # Q = S sits exactly on the validity boundary and still passes
    Q = np.asarray(dyn.S).copy()
    assert regularize_Q(Q, dyn.S) is Q


def test_regularize_q_scalar_clip():
    out = regularize_Q(np.array([[9.0]]), np.array([[4.0]]))
    assert abs(out[0, 0] - 4.0 * (1.0 - 1e-6)) < 1e-12


def test_regularize_q_negative_eigenvalue_floor():
    S = np.diag([2.0, 1.0])
    Q = np.diag([-0.1, 0.5])
    out = regularize_Q(Q, S)
    assert abs(out[0, 0] - 2e-6) < 1e-12
    assert abs(out[1, 1] - 0.5) < 1e-12


def test_regularize_q_singular_input_is_floored():
    S = np.eye(2)
    out = regularize_Q(np.zeros((2, 2)), S)
    w = np.linalg.eigvalsh(out)
    assert w.min() >= 0.5e-6
    np.linalg.cholesky(out)  # must be usable downstream


def test_regularize_q_shape_mismatch():
    with pytest.raises(ValueError):
        regularize_Q(np.eye(2), np.eye(3))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
def test_regularize_q_always_valid(seed, d):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((d, d))
    S = G @ G.T + 0.1 * np.eye(d)
    B = rng.standard_normal((d, d))
    Q = 0.5 * (B + B.T) * 3.0
    out = regularize_Q(Q, S)
    w_out = np.linalg.eigvalsh(out)
    assert w_out.min() > 0
    assert np.linalg.eigvalsh(S - out).min() >= -1e-9 * np.linalg.norm(S)


# ---------------------------------------------------------------------------
# dkf_step


def test_dkf_scalar_hand_example():
    # M = 0.81*0.5 + 1 = 1.405; precision = 1/0.8 + 1/1.405 - 0.19;
    # mean = cov * (2.0/0.8 + 0.9*1.0/1.405)
    dyn = ar1_dynamics()
    belief = GaussianBelief([1.0], [[0.5]])
    obs = DiscriminativeObservationModel(f=lambda x: np.array([2.0]), Q=lambda x: np.array([[0.8]]))
    post = dkf_step(belief, np.array([0.0]), dyn, obs)
    precision = 1.0 / 0.8 + 1.0 / 1.405 - 0.19
    cov = 1.0 / precision
    mean = cov * (2.5 + 0.9 / 1.405)
    assert abs(post.covariance[0, 0] - cov) < 1e-12
    assert abs(post.mean[0] - mean) < 1e-12
    # frozen digits, independently re-derived and grid-checked
    assert post.covariance[0, 0] == pytest.approx(0.5644156991925441, abs=1e-12)
    assert post.mean[0] == pytest.approx(1.7725866709516733, abs=1e-12)


def test_dkf_first_step_returns_model_output():
    # from the prior (0, S): M0 = A S A^T + Gamma = S, so the prior terms
    # cancel and the posterior is exactly (f(x), Q(x))
    dyn = ar1_dynamics()
    f_val = np.array([1.3])
    Q_val = np.array([[0.7]])
    obs = DiscriminativeObservationModel(f=lambda x: f_val, Q=lambda x: Q_val)
    post = dkf_step(dyn.stationary_belief(), np.array([0.0]), dyn, obs)
    assert abs(post.mean[0] - 1.3) < 1e-10
    assert abs(post.covariance[0, 0] - 0.7) < 1e-10


def test_dkf_covariance_ignores_observation_values():
    dyn = ar1_dynamics()
    obs = DiscriminativeObservationModel(
        f=lambda x: np.array([math.tanh(x[0])]), Q=lambda x: np.array([[0.6]])
    )
    rng = np.random.default_rng(3)
    xa = rng.standard_normal((40, 1))
    xb = rng.standard_normal((40, 1))
    belief_a = belief_b = dyn.stationary_belief()
    for t in range(40):
        belief_a = dkf_step(belief_a, xa[t], dyn, obs)
        belief_b = dkf_step(belief_b, xb[t], dyn, obs)
        assert np.array_equal(belief_a.covariance, belief_b.covariance)


def test_dkf_q_regularization_is_counted():
    dyn = ar1_dynamics()
    stats = FilterStats()
    obs = DiscriminativeObservationModel(
        f=lambda x: np.array([0.0]), Q=lambda x: np.array([[100.0]])
    )
    dkf_step(dyn.stationary_belief(), np.array([0.0]), dyn, obs, stats)
    assert stats.q_regularized == 1
    assert stats.prior_term_dropped == 0


def test_dkf_shape_validation():
    dyn = ar1_dynamics()
    obs = DiscriminativeObservationModel(f=lambda x: np.zeros(2), Q=lambda x: np.eye(2))
    with pytest.raises(ValueError):
        dkf_step(dyn.stationary_belief(), np.array([0.0]), dyn, obs)


def test_dkf_fallback_drops_prior_term():
    # a valid Q (inside the 1e-12 pass tolerance) always gives a PD precision
    # in exact arithmetic, so drive the float knife edge: Q a hair above S
    # plus an enormous predicted covariance makes Q^-1 + M^-1 - S^-1 land
    # negative, and the step must retreat to Q^-1 + M^-1 (counted), not crash
    dyn = ar1_dynamics()
    S = float(dyn.S[0, 0])
    Q = S * (1.0 + 0.9e-12)
    belief = GaussianBelief([0.0], [[1e15]])
    obs = DiscriminativeObservationModel(
        f=lambda x: np.array([0.0]), Q=lambda x: np.array([[Q]])
    )
    stats = FilterStats()
    post = dkf_step(belief, np.array([0.0]), dyn, obs, stats)
    assert stats.q_regularized == 0
    assert stats.prior_term_dropped == 1
    M = 0.81 * 1e15 + 1.0
    assert post.covariance[0, 0] == pytest.approx(1.0 / (1.0 / Q + 1.0 / M), rel=1e-9)


def test_filter_stats_merge():
    a = FilterStats(q_regularized=2, prior_term_dropped=1)
    a.merge(FilterStats(q_regularized=3, prior_term_dropped=4))
    assert (a.q_regularized, a.prior_term_dropped) == (5, 5)


# ---------------------------------------------------------------------------
# conjugate subsumption


def test_dkf_with_conjugate_model_equals_kalman_trajectory():
    rng = np.random.default_rng(23)
    dyn = _random_dynamics(rng, 2)
    obs = _random_affine_obs(rng, 2, 3)
    dobs = discriminative_from_linear(dyn, obs)
    kf = dyn.stationary_belief()
    df = dyn.stationary_belief()
    for _ in range(200):
        x = rng.standard_normal(3)
        kf = kalman_step(kf, x, dyn, obs)
        df = dkf_step(df, x, dyn, dobs)
        assert np.allclose(kf.mean, df.mean, atol=1e-8)
        assert np.allclose(kf.covariance, df.covariance, atol=1e-8)


def test_discriminative_from_linear_rejects_nonaffine():
    dyn = ar1_dynamics()
    with pytest.raises(ValueError):
        discriminative_from_linear(dyn, GenerativeObservationModel(h=np.tanh, Lambda=[[1.0]]))


# ---------------------------------------------------------------------------
# steady state


def test_steady_state_self_consistent_fixed_point():
    # A = 0, Gamma = S: every iterate is (S^-1 + S^-1 - S^-1)^-1 = S
    S = np.array([[2.0, 0.3], [0.3, 1.0]])
    dyn = LinearGaussianDynamics(np.zeros((2, 2)), S, S)
    out = dkf_steady_state_covariance(dyn, S)
    assert np.allclose(out, S, atol=1e-12)


def test_steady_state_scalar_recursion_oracle():
    dyn = ar1_dynamics()
    out = dkf_steady_state_covariance(dyn, np.array([[0.5]]))
    sigma = float(dyn.S[0, 0])
    for _ in range(10_000):
        sigma = 1.0 / (1.0 / 0.5 + 1.0 / (0.81 * sigma + 1.0) - 0.19)
    assert abs(out[0, 0] - sigma) < 1e-12
    # the returned value satisfies the fixed-point equation itself
    resid = out[0, 0] - 1.0 / (1.0 / 0.5 + 1.0 / (0.81 * out[0, 0] + 1.0) - 0.19)
    assert abs(resid) < 1e-12


def test_steady_state_matches_long_dkf_run():
    dyn = ar1_dynamics()
    Q = np.array([[0.5]])
    target = dkf_steady_state_covariance(dyn, Q)
    obs = DiscriminativeObservationModel(f=lambda x: np.array([0.0]), Q=lambda x: Q)
    belief = dyn.stationary_belief()
    for _ in range(200):
        belief = dkf_step(belief, np.array([0.0]), dyn, obs)
    assert abs(belief.covariance[0, 0] - target[0, 0]) < 1e-9


# ---------------------------------------------------------------------------
# run_filter


def _linear_dataset(T: int = 60) -> tuple[TrajectoryDataset, LinearGaussianDynamics, GenerativeObservationModel]:
    dyn = ar1_dynamics()
    rng = RandomSource(31)
    from dkf.statespace import simulate_states

    z = simulate_states(dyn, T, rng)
    x = 1.5 * z + 0.3 * rng.normals(T)[:, None]
    obs = GenerativeObservationModel.linear([[1.5]], [[0.09]])
    return TrajectoryDataset(z, x, split_index=T // 2), dyn, obs


def test_run_filter_kalman_vs_dkf_conjugate_means():
    ds, dyn, obs = _linear_dataset()
    kf = run_filter("kalman", ds, dyn, obs)
    df = run_filter("dkf", ds, dyn, discriminative_from_linear(dyn, obs))
    assert len(kf) == len(df) == ds.T - ds.split_index
    for a, b in zip(kf, df):
        assert np.allclose(a.mean, b.mean, atol=1e-8)


def test_run_filter_single_step_equals_direct_call():
    ds, dyn, obs = _linear_dataset(T=8)
    ds1 = TrajectoryDataset(ds.states, ds.observations, split_index=7)
    dobs = discriminative_from_linear(dyn, obs)
    out = run_filter("dkf", ds1, dyn, dobs)
    direct = dkf_step(dyn.stationary_belief(), ds1.test_observations[0], dyn, dobs)
    assert len(out) == 1
    assert np.array_equal(out[0].mean, direct.mean)


def test_run_filter_empty_test_segment():
    # TrajectoryDataset forbids an empty test half, so drive the runner with
    # a minimal stand-in exposing the two attributes it reads
    ds = SimpleNamespace(test_observations=np.zeros((0, 1)), split_index=5)
    dyn = ar1_dynamics()
    out = run_filter("kalman", ds, dyn, GenerativeObservationModel.linear([[1.0]], [[1.0]]))
    assert out == []


def test_run_filter_validates_kind_and_model_types():
    ds, dyn, obs = _linear_dataset(T=8)
    with pytest.raises(ValueError):
        run_filter("smoother", ds, dyn, obs)
    with pytest.raises(TypeError):
        run_filter("dkf", ds, dyn, obs)
    with pytest.raises(TypeError):
        run_filter("kalman", ds, dyn, discriminative_from_linear(dyn, obs))


def test_run_filter_attaches_failing_index():
    ds, dyn, _ = _linear_dataset(T=12)
    calls = {"n": 0}

    def bad_f(x):
        calls["n"] += 1
        if calls["n"] >= 3:
            return np.full(1, np.nan)
        return np.array([0.0])

    # NaN mean fails GaussianBelief validation inside the third step
    obs = DiscriminativeObservationModel(f=bad_f, Q=lambda x: np.array([[0.5]]))
    with pytest.raises(ValueError, match=r"dkf failed at test index 2 \(t=8\)"):
        run_filter("dkf", ds, dyn, obs)


def test_run_filter_ukf_params_forwarded():
    # the spread comes in on the observation model and reaches every step
    ds, dyn, _ = _linear_dataset(T=30)
    h = lambda z: np.tanh(1.5 * z)
    tight_params = UkfParameters(alpha=1e-3, beta=2.0, kappa=0.0)
    obs = GenerativeObservationModel(h=h, Lambda=[[0.09]])
    tight_obs = GenerativeObservationModel(h=h, Lambda=[[0.09]], ukf_params=tight_params)
    default = run_filter("ukf", ds, dyn, obs)
    tight = run_filter("ukf", ds, dyn, tight_obs)
    gap = max(abs(a.mean[0] - b.mean[0]) for a, b in zip(default, tight))
    assert gap > 1e-6
    belief = dyn.stationary_belief()
    for x, b in zip(ds.test_observations, tight):
        belief = ukf_step(belief, x, dyn, obs, tight_params)
        assert np.array_equal(belief.mean, b.mean)


# ---------------------------------------------------------------------------
# posterior validity properties


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_all_steps_return_symmetric_pd_covariances(seed):
    rng = np.random.default_rng(seed)
    dyn = _random_dynamics(rng, 2)
    obs = _random_affine_obs(rng, 2, 2)
    belief = GaussianBelief(rng.standard_normal(2), np.eye(2) * float(rng.uniform(0.2, 2.0)))
    x = rng.standard_normal(2)
    for post in (
        kalman_step(belief, x, dyn, obs),
        ekf_step(belief, x, dyn, obs),
        ukf_step(belief, x, dyn, obs),
        dkf_step(belief, x, dyn, discriminative_from_linear(dyn, obs)),
    ):
        assert np.array_equal(post.covariance, post.covariance.T)
        assert np.linalg.eigvalsh(post.covariance).min() > 0


# ---------------------------------------------------------------------------
# belief serialization


def test_save_load_beliefs_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    beliefs = [
        GaussianBelief(rng.standard_normal(2), np.eye(2) + 0.1 * t) for t in range(5)
    ]
    path = tmp_path / "beliefs.csv"
    save_beliefs(beliefs, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,mu_1,mu_2,sigma_11,sigma_12,sigma_21,sigma_22"
    loaded = load_beliefs(path)
    assert len(loaded) == 5
    for a, b in zip(beliefs, loaded):
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.covariance, b.covariance)


def test_save_beliefs_rejects_empty():
    with pytest.raises(ValueError):
        save_beliefs([], "unused.csv")


def test_load_beliefs_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_beliefs(path)
