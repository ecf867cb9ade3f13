import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkf.regression import (
    FitFailure,
    GpRegressor,
    InsufficientData,
    MlpRegressor,
    RbfKernel,
    _finalize_gp_dim,
    _lml_and_grad,
    apply_q_calibration,
    build_dkf_variant,
    fit_residual_Q,
    gp_fit,
    gp_predict_mean,
    gp_predict_q,
    mlp_fit,
    mlp_predict,
    model_from_dict,
    model_to_dict,
)
from dkf.statespace import RandomSource, TrajectoryDataset, generate_synthetic2


def _single_point_gp(z0: float, signal: float, noise: float) -> GpRegressor:
    kernel = RbfKernel(length_scale=1.0, signal_variance=signal)
    dim = _finalize_gp_dim(np.array([[0.0]]), np.array([z0]), kernel, noise)
    return GpRegressor(
        inputs=np.array([[0.0]]),
        input_mean=np.zeros(1),
        input_scale=np.ones(1),
        dims=(dim,),
    )


# ---------------------------------------------------------------------------
# kernel and marginal likelihood


def test_rbf_kernel_values():
    k = RbfKernel(length_scale=2.0, signal_variance=3.0)
    K = k(np.array([[0.0], [2.0]]), np.array([[0.0], [2.0]]))
    assert K[0, 0] == pytest.approx(3.0)
    assert K[0, 1] == pytest.approx(3.0 * math.exp(-0.5))
    assert np.array_equal(K, K.T)
    with pytest.raises(ValueError):
        RbfKernel(0.0, 1.0)


def test_log_marginal_likelihood_two_point_hand_arithmetic():
    # inputs {0, 1}, targets {0, 1}, fixed (l=1, s2=1, noise=0.1); the search
    # minimises the negative LML over log-parameters
    sq_dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.array([0.0, 1.0])
    neg, _ = _lml_and_grad(np.log([1.0, 1.0, 0.1]), sq_dist, z)
    got = -neg
    k01 = math.exp(-0.5)
    K = np.array([[1.1, k01], [k01, 1.1]])
    det = K[0, 0] * K[1, 1] - K[0, 1] * K[1, 0]
    Kinv = np.array([[K[1, 1], -K[0, 1]], [-K[1, 0], K[0, 0]]]) / det
    expect = -0.5 * z @ Kinv @ z - 0.5 * math.log(det) - math.log(2.0 * math.pi)
    assert got == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("theta", [(0.0, 0.0, -2.0), (-0.7, 0.5, -4.0), (0.9, -1.2, -0.5)])
def test_lml_gradient_matches_central_differences(theta):
    rng = np.random.default_rng(21)
    X = rng.uniform(-2, 2, size=(12, 2))
    z = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(12)
    sq_dist = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    theta = np.array(theta)
    _, grad = _lml_and_grad(theta, sq_dist, z)
    h = 1e-5
    numeric = np.empty(3)
    for i in range(3):
        step = np.zeros(3)
        step[i] = h
        numeric[i] = (
            _lml_and_grad(theta + step, sq_dist, z)[0] - _lml_and_grad(theta - step, sq_dist, z)[0]
        ) / (2.0 * h)
    assert np.allclose(grad, numeric, rtol=1e-5, atol=1e-5 * np.abs(numeric).max())


# ---------------------------------------------------------------------------
# gp_fit


def test_gp_fit_zero_targets_predicts_zero():
    rng = np.random.default_rng(0)
    X = rng.uniform(-2, 2, size=(30, 2))
    model = gp_fit(X, np.zeros(30))
    probes = rng.uniform(-2, 2, size=(10, 2))
    assert np.allclose(gp_predict_mean(model, probes, batch=True), 0.0, atol=1e-9)


def test_gp_fit_needs_two_points():
    with pytest.raises(InsufficientData):
        gp_fit(np.zeros((1, 1)), np.zeros(1))


def test_gp_fit_input_target_length_mismatch():
    with pytest.raises(ValueError):
        gp_fit(np.zeros((4, 1)), np.zeros(5))


def test_gp_fit_recovers_noise_variance():
    # known additive noise with variance 0.04 at n=1000
    rng = np.random.default_rng(42)
    X = rng.uniform(-3, 3, size=(1000, 1))
    z = np.sin(X[:, 0]) + 0.2 * rng.standard_normal(1000)
    model = gp_fit(X, z)
    assert 0.02 <= model.dims[0].noise_variance <= 0.08


def test_gp_interpolates_smooth_function():
    rng = np.random.default_rng(3)
    X = rng.uniform(-2, 2, size=(80, 1))
    z = np.tanh(1.5 * X[:, 0])
    model = gp_fit(X, z)
    probes = rng.uniform(-1.8, 1.8, size=(25, 1))
    pred = gp_predict_mean(model, probes, batch=True)[:, 0]
    assert float(np.max(np.abs(pred - np.tanh(1.5 * probes[:, 0])))) < 0.02


# ---------------------------------------------------------------------------
# gp predictions, closed-form single-point cases


def test_gp_predict_far_from_data_reverts_to_prior():
    model = _single_point_gp(z0=2.0, signal=1.5, noise=0.3)
    far = np.array([150.0])
    assert abs(gp_predict_mean(model, far)[0]) < 1e-12
    assert gp_predict_q(model, far)[0] == pytest.approx(1.5 + 0.3, abs=1e-9)


def test_gp_predict_single_point_noiseless():
    model = _single_point_gp(z0=0.7, signal=2.0, noise=0.0)
    at = np.array([0.0])
    assert gp_predict_mean(model, at)[0] == pytest.approx(0.7, abs=1e-12)
    assert gp_predict_q(model, at)[0] == pytest.approx(0.0, abs=1e-10)


def test_gp_predict_single_point_noisy():
    s2, n2, z0 = 2.0, 0.5, 0.7
    model = _single_point_gp(z0=z0, signal=s2, noise=n2)
    at = np.array([0.0])
    assert gp_predict_mean(model, at)[0] == pytest.approx(s2 / (s2 + n2) * z0, abs=1e-12)
    assert gp_predict_q(model, at)[0] == pytest.approx(s2 * n2 / (s2 + n2) + n2, abs=1e-12)


def test_gp_predictions_match_dense_gram_evaluation():
    rng = np.random.default_rng(9)
    X = rng.uniform(-2, 2, size=(60, 2))
    Z = np.column_stack([np.sin(X[:, 0]), np.cos(X[:, 1])])
    Z += 0.05 * rng.standard_normal(Z.shape)
    model = gp_fit(X, Z)
    probes = rng.uniform(-2, 2, size=(20, 2))
    mean = gp_predict_mean(model, probes, batch=True)
    qhat = gp_predict_q(model, probes, batch=True)
    Ps = model.standardize(probes)
    for j, dim in enumerate(model.dims):
        K = dim.kernel(model.inputs, model.inputs) + dim.noise_variance * np.eye(model.n)
        Kinv = np.linalg.inv(K)
        Kc = dim.kernel(Ps, model.inputs)
        assert np.allclose(mean[:, j], Kc @ Kinv @ dim.targets, atol=1e-10)
        var = dim.kernel.signal_variance - np.einsum("ij,jk,ik->i", Kc, Kinv, Kc)
        assert np.allclose(qhat[:, j], np.maximum(var, 0.0) + dim.noise_variance, atol=1e-10)


def test_gp_q_always_at_least_noise_floor():
    rng = np.random.default_rng(1)
    X = rng.uniform(-2, 2, size=(40, 1))
    model = gp_fit(X, np.sin(X[:, 0]))
    probes = rng.uniform(-10, 10, size=(50, 1))
    q = gp_predict_q(model, probes, batch=True)[:, 0]
    assert np.all(q >= model.dims[0].noise_variance - 1e-12)


def test_gp_output_dimension_independence():
    rng = np.random.default_rng(12)
    X = rng.uniform(-2, 2, size=(30, 1))
    Z = np.column_stack([np.sin(X[:, 0]), np.cos(X[:, 0])])
    a = gp_fit(X, Z)
    b = gp_fit(X, Z[:, ::-1])
    probes = rng.uniform(-2, 2, size=(8, 1))
    pa = gp_predict_mean(a, probes, batch=True)
    pb = gp_predict_mean(b, probes, batch=True)
    assert np.array_equal(pa, pb[:, ::-1])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_gp_posterior_variance_never_grows_with_data(seed):
    rng = np.random.default_rng(seed)
    kernel = RbfKernel(1.0, 1.0)
    noise = 0.1
    X = rng.uniform(-2, 2, size=(7, 1))
    z = np.sin(X[:, 0])
    probe = np.array([float(rng.uniform(-2, 2))])

    def variance(rows):
        dim = _finalize_gp_dim(X[rows], z[rows], kernel, noise)
        model = GpRegressor(X[rows], np.zeros(1), np.ones(1), (dim,))
        return gp_predict_q(model, probe)[0]

    assert variance(list(range(7))) <= variance(list(range(6))) + 1e-10


# ---------------------------------------------------------------------------
# residual covariance


def test_fit_residual_q_perfect_fit_gets_floor():
    Z = 2.0 * np.arange(5.0)[:, None]
    q = fit_residual_Q(Z.copy(), Z)
    assert q.matrix[0, 0] == pytest.approx(1e-9, rel=1e-6)
    np.linalg.cholesky(q.matrix)


def test_fit_residual_q_hand_covariance_2d():
    targets = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -2.0], [0.0, 2.0]])
    q = fit_residual_Q(np.zeros((4, 2)), targets)
    expect = np.diag([0.5, 2.0])
    assert np.allclose(q.matrix, expect, atol=1e-9 * 2.5)
    assert not q.matrix.flags.writeable


def test_fit_residual_q_hand_covariance_1d():
    q = fit_residual_Q(np.zeros((2, 1)), np.array([[1.0], [-1.0]]))
    assert q.matrix[0, 0] == pytest.approx(1.0, rel=1e-8)


def test_fit_residual_q_insufficient_data():
    with pytest.raises(InsufficientData):
        fit_residual_Q(np.zeros((0, 1)), np.zeros((0, 1)))
    with pytest.raises(InsufficientData):
        fit_residual_Q(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="shape"):
        fit_residual_Q(np.zeros((5, 2)), np.zeros((5, 1)))


def test_apply_q_calibration_batch_equals_rows():
    # a batch (N, d) is scaled entry by entry exactly as one (d,) row at a
    # time, values sitting on a bin edge included
    edges = np.array([[0.5, 1.0, 2.0], [0.1, 0.2, 0.4]])
    scales = np.array([[0.5, 1.5, 2.0, 3.0], [4.0, 0.25, 1.0, 7.0]])
    q = np.random.default_rng(2).uniform(0.0, 2.5, size=(40, 2))
    q[:4] = edges.T[[0, 1, 2, 2]]
    rows = np.array([apply_q_calibration(row, edges, scales) for row in q])
    assert np.array_equal(apply_q_calibration(q, edges, scales), rows)
    assert np.array_equal(rows[1], edges.T[1] * scales[:, 2])


# ---------------------------------------------------------------------------
# network regressor


def test_mlp_constant_targets():
    rng = np.random.default_rng(4)
    X = rng.uniform(-2, 2, size=(200, 2))
    Z = np.full((200, 1), 3.7)
    model = mlp_fit(X, Z, RandomSource(0))
    probes = rng.uniform(-2, 2, size=(50, 2))
    pred = mlp_predict(model, probes, batch=True)
    assert float(np.max(np.abs(pred - 3.7))) <= 1e-3


def test_mlp_learns_linear_function():
    rng = np.random.default_rng(5)
    X = rng.uniform(-1, 1, size=(500, 1))
    Z = 2.0 * X
    model = mlp_fit(X, Z, RandomSource(1))
    pred = mlp_predict(model, X, batch=True)
    assert float(((pred - Z) ** 2).mean()) <= 1e-4


def test_mlp_learns_synthetic2_sign_structure():
    ds = generate_synthetic2(2000, RandomSource(11))
    model = mlp_fit(ds.train_observations, ds.train_states, RandomSource(2))
    lo = mlp_predict(model, np.array([2.0, -1.0]))[0]
    hi = mlp_predict(model, np.array([2.0, 1.0]))[0]
    assert abs(lo - (-2.0)) <= 0.2
    assert abs(hi - 2.0) <= 0.2


def test_mlp_deterministic_given_seed():
    rng = np.random.default_rng(6)
    X = rng.uniform(-1, 1, size=(60, 1))
    Z = np.sin(3.0 * X)
    a = mlp_fit(X, Z, RandomSource(7))
    b = mlp_fit(X, Z, RandomSource(7))
    for pa, pb in ((a.w1, b.w1), (a.b1, b.b1), (a.w2, b.w2), (a.b2, b.b2)):
        assert np.array_equal(pa, pb)
    assert np.array_equal(a.holdout_indices, b.holdout_indices)


def test_mlp_prediction_purity_and_forward_pass():
    rng = np.random.default_rng(8)
    X = rng.uniform(-1, 1, size=(80, 2))
    Z = np.column_stack([X[:, 0] * X[:, 1]])
    model = mlp_fit(X, Z, RandomSource(3))
    probe = np.array([0.3, -0.4])
    assert np.array_equal(mlp_predict(model, probe), mlp_predict(model, probe))
    # independent re-implementation of the forward pass
    probes = rng.uniform(-1, 1, size=(10, 2))
    for x in probes:
        xs = (x - model.x_mean) / model.x_scale
        hidden = np.tanh(model.w1 @ xs + model.b1)
        out = model.w2 @ hidden + model.b2
        expect = out * model.z_scale + model.z_mean
        assert np.allclose(mlp_predict(model, x), expect, atol=1e-12)


def test_mlp_zero_weights_output_is_bias():
    model = MlpRegressor(
        w1=np.zeros((4, 2)), b1=np.zeros(4), w2=np.zeros((1, 4)), b2=np.array([0.25]),
        x_mean=np.zeros(2), x_scale=np.ones(2),
        z_mean=np.array([1.0]), z_scale=np.array([2.0]),
        holdout_indices=np.arange(3),
    )
    out = mlp_predict(model, np.array([5.0, -3.0]))
    assert out[0] == pytest.approx(0.25 * 2.0 + 1.0, abs=1e-15)


def test_mlp_split_sizes_and_holdout_sorted():
    rng = np.random.default_rng(10)
    X = rng.uniform(-1, 1, size=(100, 1))
    model = mlp_fit(X, X, RandomSource(4))
    assert model.holdout_indices.shape[0] == 15
    assert np.all(np.diff(model.holdout_indices) > 0)
    assert model.hidden_width == 20


def test_mlp_insufficient_rows():
    with pytest.raises(InsufficientData):
        mlp_fit(np.zeros((10, 1)), np.zeros((10, 1)), RandomSource(0))


# ---------------------------------------------------------------------------
# variant assembly


def _toy_dataset(n_train: int = 50, n_test: int = 10, seed: int = 5) -> TrajectoryDataset:
    rng = np.random.default_rng(seed)
    T = n_train + n_test
    z = np.cumsum(rng.standard_normal((T, 1)), axis=0) * 0.3
    x = np.column_stack([np.tanh(z[:, 0]), z[:, 0] ** 2]) + 0.05 * rng.standard_normal((T, 2))
    return TrajectoryDataset(z, x, split_index=n_train)


def test_build_dkf_variant_rejects_unknown_kind():
    with pytest.raises(ValueError):
        build_dkf_variant("dkf-magic", _toy_dataset(), RandomSource(0))


def test_dkf_gp_q_is_diagonal():
    ds = _toy_dataset()
    model = build_dkf_variant("dkf-gp", ds, RandomSource(1))
    Q = model.Q(np.random.default_rng(0).uniform(-1, 1, size=(5, 2)))
    assert Q.shape == (5, 1, 1)
    assert np.all(Q[:, 0, 0] > 0)
    assert model.meta["kind"] == "dkf-gp"


def test_dkf_gp_freq_uses_contiguous_last_fifth():
    ds = _toy_dataset(n_train=50)
    model = build_dkf_variant("dkf-gp-freq", ds, RandomSource(2))
    # the GP is fit on the first 40 rows, so the holdout is the last 10
    assert model.meta["model"].n == 40
    # reproduce the residual covariance from the fitted GP and the last 10 rows
    gp = model.meta["model"]
    X, Z = ds.train_observations, ds.train_states
    resid = gp_predict_mean(gp, X[40:], batch=True) - Z[40:]
    expect = resid.T @ resid / 10
    expect += 1e-9 * np.trace(expect) / 1 * np.eye(1)
    assert np.allclose(model.Q(np.zeros((1, 2)))[0], expect, rtol=1e-12)


def test_dkf_nn_q_constant_across_probes():
    ds = _toy_dataset(n_train=120)
    model = build_dkf_variant("dkf-nn", ds, RandomSource(3))
    Qs = model.Q(np.random.default_rng(1).uniform(-1, 1, size=(100, 2)))
    assert Qs.shape == (100, 1, 1)
    assert np.all(Qs == Qs[0])


@pytest.mark.parametrize("kind", ["dkf-gp", "dkf-gp-freq"])
@pytest.mark.parametrize("cap", [0, -1])
def test_dkf_gp_subsample_cap_below_two_is_rejected(kind, cap):
    with pytest.raises(ValueError, match="gp_subsample_cap"):
        build_dkf_variant(kind, _toy_dataset(), RandomSource(4), gp_subsample_cap=cap)


def test_dkf_gp_subsample_cap_applies():
    ds = _toy_dataset(n_train=60)
    model = build_dkf_variant("dkf-gp", ds, RandomSource(4), gp_subsample_cap=25)
    assert model.meta["model"].n == 25


# ---------------------------------------------------------------------------
# serialization


def test_gp_model_round_trip_bit_identical():
    rng = np.random.default_rng(13)
    X = rng.uniform(-2, 2, size=(40, 2))
    Z = np.column_stack([np.sin(X[:, 0]), X[:, 1]])
    model = gp_fit(X, Z)
    payload = json.loads(json.dumps(model_to_dict(model)))
    loaded = model_from_dict(payload)
    probes = rng.uniform(-2, 2, size=(15, 2))
    assert np.array_equal(
        gp_predict_mean(model, probes, batch=True), gp_predict_mean(loaded, probes, batch=True)
    )
    assert np.array_equal(
        gp_predict_q(model, probes, batch=True), gp_predict_q(loaded, probes, batch=True)
    )
    assert payload["format_version"] == 1
    assert payload["kind"] == "gp-regressor"


def test_mlp_model_round_trip_bit_identical():
    rng = np.random.default_rng(14)
    X = rng.uniform(-1, 1, size=(50, 1))
    model = mlp_fit(X, np.sin(X), RandomSource(5))
    payload = json.loads(json.dumps(model_to_dict(model)))
    loaded = model_from_dict(payload)
    probes = rng.uniform(-1, 1, size=(15, 1))
    assert np.array_equal(
        mlp_predict(model, probes, batch=True), mlp_predict(loaded, probes, batch=True)
    )
    assert payload["kind"] == "mlp-regressor"


def test_model_dict_rejects_unknown_payloads():
    with pytest.raises(TypeError):
        model_to_dict(object())
    with pytest.raises(ValueError):
        model_from_dict({"kind": "mystery"})
