import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkf.statespace import (
    GaussianBelief,
    LinearGaussianDynamics,
    NonStationary,
    RandomSource,
    RankDeficient,
    TrajectoryDataset,
    ar1_dynamics,
    fit_dynamics,
    generate_synthetic1,
    generate_synthetic2,
    save_dataset,
    simulate_states,
    solve_stationary_covariance,
    spd_floor,
    spectral_radius,
    synthetic1_mean,
    synthetic2_mean,
)


# ---------------------------------------------------------------------------
# RandomSource


def test_random_source_deterministic():
    a = RandomSource(123).uniforms(50)
    b = RandomSource(123).uniforms(50)
    assert np.array_equal(a, b)


def test_random_source_seed_sensitivity():
    assert not np.array_equal(RandomSource(1).uniforms(10), RandomSource(2).uniforms(10))


def test_random_source_derive_independent():
    base = RandomSource(7)
    child = base.derive(3)
    assert not np.array_equal(base.uniforms(10), child.uniforms(10))
    # a child stream depends only on (seed, key), not on parent consumption
    fresh = RandomSource(7).derive(3).uniforms(15)
    assert np.array_equal(child.uniforms(5), fresh[10:])


def test_normals_call_boundary_invariance():
    whole = RandomSource(9).normals(23)
    src = RandomSource(9)
    pieces = np.concatenate([src.normals(k) for k in (1, 5, 7, 10)])
    assert np.array_equal(whole, pieces)


def test_normals_match_scalar_polar_reference():
    def scalar_normals(seed, n):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=())))
        out = []
        while len(out) < n:
            u, v = gen.random(), gen.random()
            a, b = 2 * u - 1, 2 * v - 1
            s = a * a + b * b
            if 0 < s < 1:
                out.append(a * math.sqrt(-2 * math.log(s) / s))
        return np.array(out)

    assert np.array_equal(RandomSource(17).normals(200), scalar_normals(17, 200))


def test_uniforms_after_normals_stay_aligned():
    a = RandomSource(5)
    b = RandomSource(5)
    na = a.normals(7)
    ua = a.uniforms(4)
    nb = b.normals(7)
    ub = b.uniforms(4)
    assert np.array_equal(na, nb) and np.array_equal(ua, ub)


def test_ternary_values_and_balance():
    t = RandomSource(2).ternary(60_000)
    assert set(np.unique(t)) <= {-1.0, 0.0, 1.0}
    counts = np.array([(t == v).sum() for v in (-1, 0, 1)])
    assert counts.min() > 18_000  # ~20k each


def test_normals_moments():
    x = RandomSource(4).normals(100_000)
    assert abs(x.mean()) < 0.02
    assert abs(x.var() - 1.0) < 0.02


# ---------------------------------------------------------------------------
# containers


def test_gaussian_belief_validation():
    GaussianBelief([0.0], [[1.0]])
    with pytest.raises(ValueError):
        GaussianBelief([0.0, 1.0], [[1.0]])
    with pytest.raises(ValueError):
        GaussianBelief([0.0], [[-1.0]])
    with pytest.raises(ValueError):
        GaussianBelief([0.0, 0.0], [[1.0, 0.5], [0.4, 1.0]])


def test_dynamics_validation():
    with pytest.raises(NonStationary):
        LinearGaussianDynamics.from_transition([[1.0]], [[1.0]])
    with pytest.raises(ValueError):
        LinearGaussianDynamics([[0.5]], [[1.0]], [[99.0]])  # S inconsistent
    dyn = ar1_dynamics()
    assert dyn.d == 1
    assert dyn.S_inv[0, 0] == pytest.approx(0.19, abs=1e-15)


def test_trajectory_dataset_segments():
    states = np.arange(10.0)[:, None]
    obs = np.arange(20.0).reshape(10, 2)
    ds = TrajectoryDataset(states, obs, split_index=4)
    assert ds.T == 10 and ds.d == 1 and ds.m == 2
    assert np.array_equal(ds.train_states, states[:4])
    assert np.array_equal(ds.test_observations, obs[4:])
    with pytest.raises(ValueError):
        TrajectoryDataset(states, obs, split_index=0)
    with pytest.raises(ValueError):
        TrajectoryDataset(states, obs[:5], split_index=2)


# ---------------------------------------------------------------------------
# stationary covariance


def test_stationary_covariance_scalar_closed_form():
    S = solve_stationary_covariance([[0.9]], [[1.0]])
    assert S[0, 0] == pytest.approx(1.0 / 0.19, rel=1e-14)


def test_stationary_covariance_iteration_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        d = int(rng.integers(1, 4))
        A = rng.normal(size=(d, d))
        A *= 0.8 / max(spectral_radius(A), 1e-6)
        B = rng.normal(size=(d, d))
        Gamma = B @ B.T + 0.1 * np.eye(d)
        S = solve_stationary_covariance(A, Gamma)
        # independent oracle: iterate the recursion to its fixed point
        S_it = np.zeros((d, d))
        for _ in range(10_000):
            S_it = A @ S_it @ A.T + Gamma
        assert np.allclose(S, S_it, rtol=1e-10, atol=1e-12)
        resid = np.linalg.norm(A @ S @ A.T + Gamma - S)
        assert resid <= 1e-10 * np.linalg.norm(S)


def test_stationary_covariance_rejects_unstable():
    with pytest.raises(NonStationary):
        solve_stationary_covariance([[1.0]], [[1.0]])
    with pytest.raises(NonStationary):
        solve_stationary_covariance([[0.0, 1.2], [1.2, 0.0]], np.eye(2))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_stationary_covariance_property(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    A = rng.normal(size=(d, d))
    radius = rng.uniform(0.1, 0.95)
    A *= radius / max(spectral_radius(A), 1e-9)
    B = rng.normal(size=(d, d))
    Gamma = B @ B.T + 0.05 * np.eye(d)
    S = solve_stationary_covariance(A, Gamma)
    assert np.all(np.linalg.eigvalsh(S) > 0)
    assert np.linalg.norm(A @ S @ A.T + Gamma - S) <= 1e-10 * np.linalg.norm(S)


# ---------------------------------------------------------------------------
# dynamics fitting


def test_fit_dynamics_recovers_truth():
    dyn = ar1_dynamics()
    z = simulate_states(dyn, 20_000, RandomSource(3))
    fitted = fit_dynamics(z)
    assert fitted.A[0, 0] == pytest.approx(0.9, abs=0.02)
    assert fitted.Gamma[0, 0] == pytest.approx(1.0, abs=0.05)


def test_fit_dynamics_exact_on_noiseless_line():
    # z_t = 0.5 z_(t-1) exactly; residuals are zero so Gamma is the floor
    z = 5.0 * 0.5 ** np.arange(9.0)[:, None]
    fitted = fit_dynamics(z)
    assert fitted.A[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert fitted.Gamma[0, 0] > 0


def test_fit_dynamics_rank_errors():
    with pytest.raises(RankDeficient):
        fit_dynamics(np.zeros((1, 1)))  # no pairs
    with pytest.raises(RankDeficient):
        fit_dynamics(np.zeros((6, 2)))  # no span
    with pytest.raises(RankDeficient):
        fit_dynamics(np.ones((4, 3)))  # n < d+1
    with pytest.raises(ValueError, match="shape"):
        fit_dynamics(np.ones(10))  # not (T, d)


def test_spd_floor():
    C = np.zeros((2, 2))
    out = spd_floor(C)
    assert np.all(np.linalg.eigvalsh(out) > 0)
    C2 = np.array([[4.0, 0.0], [0.0, 2.0]])
    out2 = spd_floor(C2)
    assert out2[0, 0] == pytest.approx(4.0, rel=1e-8)


# ---------------------------------------------------------------------------
# synthetic generators


def test_synthetic1_draw_structure():
    T, m = 400, 3
    ds = generate_synthetic1(T, m, RandomSource(21))
    assert ds.states.shape == (T, 1) and ds.observations.shape == (T, m)
    assert ds.split_index == T // 2
    # reconstruct from the pinned stream: states, then ternary, then normals
    rng = RandomSource(21)
    eps = rng.normals(T)
    z = np.empty(T)
    z[0] = math.sqrt(1.0 / 0.19) * eps[0]
    for t in range(1, T):
        z[t] = 0.9 * z[t - 1] + eps[t]
    zeta = rng.ternary(T * m).reshape(T, m)
    theta = rng.normals(T * m).reshape(T, m)
    x = synthetic1_mean(z, m) + math.pi * zeta + 0.2 * theta
    assert np.allclose(ds.states[:, 0], z, atol=1e-12)
    assert np.allclose(ds.observations, x, atol=1e-12)


def test_synthetic1_observation_noise_clusters():
    ds = generate_synthetic1(4000, 1, RandomSource(5))
    resid = ds.observations[:, 0] - np.arctan(ds.states[:, 0])
    # residuals concentrate near -pi, 0, pi
    nearest = np.min(
        np.abs(resid[:, None] - np.array([-math.pi, 0.0, math.pi])), axis=1
    )
    assert np.quantile(nearest, 0.99) < 0.8  # 0.2-sd normal tails
    assert np.abs(resid).max() > 2.0  # the pi clusters are hit


def test_synthetic2_values():
    ds = generate_synthetic2(300, RandomSource(8))
    z = ds.states[:, 0]
    resid = ds.observations - synthetic2_mean(z)
    assert np.abs(resid).max() < 0.1 * 5  # 5 sigma of the 0.1-sd noise
    assert ds.observations.shape == (300, 2)


def test_synthetic2_sign_convention():
    assert np.array_equal(synthetic2_mean(np.array([0.0])), np.array([[0.0, 0.0]]))
    assert np.array_equal(synthetic2_mean(np.array([-2.0])), np.array([[2.0, -1.0]]))


def test_simulate_states_stationary_moments():
    dyn = LinearGaussianDynamics.from_transition(
        [[0.6, 0.1], [0.0, 0.7]], [[0.5, 0.1], [0.1, 0.4]]
    )
    z = simulate_states(dyn, 60_000, RandomSource(2))
    emp = np.cov(z.T, bias=True)
    assert np.allclose(emp, dyn.S, atol=0.08)


def test_generators_deterministic():
    a = generate_synthetic1(100, 4, RandomSource(33))
    b = generate_synthetic1(100, 4, RandomSource(33))
    assert np.array_equal(a.observations, b.observations)


# ---------------------------------------------------------------------------
# dataset files


def test_dataset_round_trip(tmp_path):
    # the CSV values read back bit-exactly; the sidecar records provenance
    ds = generate_synthetic1(50, 3, RandomSource(12))
    path = tmp_path / "data.csv"
    save_dataset(ds, path, seed=12)
    assert path.read_text().splitlines()[0] == "t,z_1,x_1,x_2,x_3"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], np.arange(50))
    assert np.array_equal(data[:, 1:2], ds.states)
    assert np.array_equal(data[:, 2:], ds.observations)
    meta = (tmp_path / "data.csv.meta").read_text()
    assert "seed=12" in meta and "d=1" in meta and "m=3" in meta
