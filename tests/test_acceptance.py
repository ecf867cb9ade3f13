"""End-to-end acceptance checks for the library's headline guarantees.

Each test prints exactly one PASS/FAIL line with the measured numbers, then
asserts.  The benchmark tests are desk-scale runs of the shipped harness and
take minutes; everything else is seconds.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from dkf.bench import BenchmarkConfig, run_benchmark
from dkf.filters import (DiscriminativeObservationModel, GenerativeObservationModel,
                         constant_q, dkf_steady_state_covariance, dkf_step,
                         discriminative_from_linear, kalman_step, regularize_Q)
from dkf.oracle import grid_filter_run
from dkf.statespace import LinearGaussianDynamics, RandomSource, simulate_states
from dkf.surrogate import write_surrogate

TESTS_DIR = Path(__file__).resolve().parent


def _report(name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line, flush=True)
    assert ok, line


def _scalar_dyn(a: float, gamma: float) -> LinearGaussianDynamics:
    return LinearGaussianDynamics.from_transition(np.array([[a]]), np.array([[gamma]]))


def test_grid_oracle_equivalence():
    """20 random scalar configurations, 50 steps each: the closed-form update
    matches dense numerical integration to 1e-4 in mean and variance."""
    rng = RandomSource(20_260_815)
    t0 = time.monotonic()
    worst_mean = worst_var = 0.0
    for i in range(20):
        u = rng.uniforms(3)
        dyn = _scalar_dyn(0.3 + 0.65 * u[0], 0.5 + u[1])
        S = float(dyn.S[0, 0])
        xs = 0.8 * math.sqrt(S) * rng.normals(50)
        if i % 2 == 0:
            q = (0.05 + 0.85 * u[2]) * S
            Q = constant_q(np.array([[q]]))
        else:
            # x-varying Q, values inside (0.1 S, 0.9 S) so S - Q stays PD
            Q = lambda X, S=S: ((0.1 + 0.8 / (1.0 + np.exp(-X[:, 0]))) * S)[:, None, None]
        obs = DiscriminativeObservationModel(f=lambda x: x, Q=Q)
        oracle = grid_filter_run(xs, dyn, obs)
        belief = dyn.stationary_belief()
        for x, (o_mean, o_var) in zip(xs, oracle):
            belief = dkf_step(belief, np.array([x]), dyn, obs)
            worst_mean = max(worst_mean, abs(float(belief.mean[0]) - o_mean))
            worst_var = max(worst_var, abs(float(belief.covariance[0, 0]) - o_var))
    elapsed = time.monotonic() - t0
    ok = worst_mean <= 1e-4 and worst_var <= 1e-4 and elapsed <= 60.0
    _report(
        "grid-oracle-equivalence", ok,
        f"max |mean gap| {worst_mean:.3g}, max |var gap| {worst_var:.3g} "
        f"(tol 1e-4), {elapsed:.1f}s (limit 60s) over 20 configs x 50 steps",
    )


def test_conjugate_model_recovers_kalman():
    """With the exact conditional of an affine-Gaussian observation model,
    the discriminative update and the Kalman update agree to 1e-8 over
    1,000 steps (d=3, m=5)."""
    rng = RandomSource(42)
    d, m, T = 3, 5, 1000
    A = 0.85 * np.linalg.qr(rng.normals(d * d).reshape(d, d))[0]
    G = rng.normals(d * d).reshape(d, d)
    dyn = LinearGaussianDynamics.from_transition(A, G @ G.T / d + 0.1 * np.eye(d))
    H = rng.normals(m * d).reshape(m, d)
    L = rng.normals(m * m).reshape(m, m)
    gen = GenerativeObservationModel.linear(
        H, L @ L.T / m + 0.05 * np.eye(m), offset=rng.normals(m)
    )
    disc = discriminative_from_linear(dyn, gen)

    states = simulate_states(dyn, T, rng.derive(1))
    noise = rng.derive(2).normals(T * m).reshape(T, m)
    chol = np.linalg.cholesky(gen.Lambda)
    xs = states @ H.T + gen.offset + noise @ chol.T

    kf = dkf = dyn.stationary_belief()
    worst = 0.0
    for x in xs:
        kf = kalman_step(kf, x, dyn, gen)
        dkf = dkf_step(dkf, x, dyn, disc)
        worst = max(worst, float(np.abs(kf.mean - dkf.mean).max()))
    ok = worst <= 1e-8
    _report(
        "conjugate-recovers-kalman", ok,
        f"max |mean gap| {worst:.3g} (tol 1e-8) over {T} steps, d={d} m={m}",
    )


def test_steady_state_covariance():
    """The constant-Q fixed-point solver leaves residual <= 1e-10, and the
    per-step covariance recursion lands within 1e-9 of it by t = 200."""
    theta = 0.3
    R = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    dyn = LinearGaussianDynamics.from_transition(0.9 * R, 0.2 * np.eye(2))
    Q = 0.5 * np.array(dyn.S)
    Sigma = dkf_steady_state_covariance(dyn, Q)

    Qr = regularize_Q(Q, dyn.S)
    M = dyn.A @ Sigma @ dyn.A.T + dyn.Gamma
    P = np.linalg.inv(Qr) + np.linalg.inv(M) - dyn.S_inv
    resid = float(np.linalg.norm(np.linalg.inv(P) - Sigma))

    obs = DiscriminativeObservationModel(
        f=lambda x: 0.5 * x, Q=constant_q(Q)
    )
    belief = dyn.stationary_belief()
    rng = RandomSource(7)
    for t in range(200):
        belief = dkf_step(belief, rng.normals(2), dyn, obs)
    gap = float(np.abs(belief.covariance - Sigma).max())
    ok = resid <= 1e-10 and gap <= 1e-9
    _report(
        "steady-state-covariance", ok,
        f"fixed-point residual {resid:.3g} (tol 1e-10), "
        f"|Sigma_200 - Sigma*| {gap:.3g} (tol 1e-9)",
    )


def test_syn1_benchmark_gp_vs_kalman():
    """syn1 at T=10,000, m=5, 5 trials: Kalman average normalized MSE lands
    in [0.45, 0.65], the GP variant averages <= 0.15 and beats Kalman by at
    least 3x on every trial, within 15 minutes."""
    t0 = time.monotonic()
    rep = run_benchmark(BenchmarkConfig(
        dataset="syn1", T=10_000, m=5, trials=5,
        filters=("kalman", "dkf-gp"), seed=0,
    ))
    elapsed = time.monotonic() - t0
    k_avg = rep.average("kalman")
    g_avg = rep.average("dkf-gp")
    k = [r.nmse for r in rep.cells("kalman")]
    g = [r.nmse for r in rep.cells("dkf-gp")]
    ratios = [a / b for a, b in zip(k, g)]
    ok = (
        0.45 <= k_avg <= 0.65
        and g_avg <= 0.15
        and all(r >= 3.0 for r in ratios)
        and elapsed <= 900.0
    )
    _report(
        "syn1-gp-vs-kalman", ok,
        f"kalman avg {k_avg:.4f} (need [0.45, 0.65]), dkf-gp avg {g_avg:.4f} "
        f"(need <= 0.15), per-trial ratios {['%.2f' % r for r in ratios]} "
        f"(need >= 3), {elapsed:.0f}s (limit 900s)",
    )


def test_syn2_benchmark_nn_vs_linearization():
    """syn2 at T=2,000, 5 trials: Kalman average in [0.25, 0.50], the network
    variant averages <= 0.05, and both linearization filters average worse
    than Kalman, within 10 minutes."""
    t0 = time.monotonic()
    rep = run_benchmark(BenchmarkConfig(
        dataset="syn2", T=2_000, trials=5,
        filters=("kalman", "ekf", "ukf", "dkf-nn"), seed=0,
    ))
    elapsed = time.monotonic() - t0
    k = rep.average("kalman")
    nn = rep.average("dkf-nn")
    ekf = rep.average("ekf")
    ukf = rep.average("ukf")
    ok = (
        0.25 <= k <= 0.50
        and nn <= 0.05
        and ekf > k
        and ukf > k
        and elapsed <= 600.0
    )
    _report(
        "syn2-nn-vs-linearization", ok,
        f"kalman avg {k:.4f} (need [0.25, 0.50]), dkf-nn avg {nn:.4f} "
        f"(need <= 0.05), ekf avg {ekf:.4f} and ukf avg {ukf:.4f} "
        f"(need > kalman), {elapsed:.0f}s (limit 600s)",
    )


def test_csv_pipeline_on_surrogate(tmp_path):
    """A d=2, m=100 count-channel dataset written to CSV and run through the
    full ingest -> fit -> bench pipeline: both discriminative variants
    average strictly below Kalman across 3 trials."""
    csv = tmp_path / "surrogate.csv"
    write_surrogate(csv, T=4_800, m=100, seed=0)
    rep = run_benchmark(BenchmarkConfig(
        dataset="csv", csv_path=str(csv), trials=3,
        filters=("kalman", "dkf-gp", "dkf-nn"), seed=0,
    ))
    errors = [r.error for r in rep.results if r.error]
    k = rep.average("kalman")
    gp = rep.average("dkf-gp")
    nn = rep.average("dkf-nn")
    ok = not errors and gp < k and nn < k
    _report(
        "csv-pipeline-surrogate", ok,
        f"kalman avg {k:.4f}, dkf-gp avg {gp:.4f}, dkf-nn avg {nn:.4f} "
        f"(both need < kalman), errors {errors!r}, 3 trials d=2 m=100",
    )


def test_property_suites_standalone():
    """Every module property suite passes when invoked on its own."""
    suites = ["test_statespace.py", "test_filters.py", "test_oracle.py",
              "test_regression.py", "test_bench.py", "test_cli.py"]
    failures = []
    for suite in suites:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", str(TESTS_DIR / suite),
             "-q", "-p", "no:cacheprovider"],
            capture_output=True, text=True, cwd=TESTS_DIR.parent,
        )
        if proc.returncode != 0:
            tail = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
            failures.append(f"{suite} (exit {proc.returncode}: {tail})")
    ok = not failures
    _report(
        "property-suites-standalone", ok,
        "all module suites pass standalone" if ok else f"failing: {failures}",
    )
