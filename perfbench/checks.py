"""Checks on the program's outputs, computed apart from the program's own recursions.

* Kalman cells: the means again, from the information form of the update
  (the program uses the gain form).
* DKF cells: means and covariances again from the closed form
  Sigma' = (Q^-1 + M^-1 - S^-1)^-1, mu' = Sigma'(Q^-1 f + M^-1 A mu), with f
  and Q taken from the batch model APIs and the documented Q clip and
  prior-term fallback applied here.
* Every cell: normalized MSE recomputed from the means and the truth, and
  the emitted table compared with it.
* Bundle round trips: save -> load -> save -> load, then a replay of a test
  prefix done the way ``dkf run`` does it.
"""

from __future__ import annotations

import numpy as np

MEAN_TOL = 1e-8       # independent recursions against the program
ONLINE_TOL = 1e-10    # one-step-at-a-time pass against the batch decode
BUNDLE_TOL = 1e-10    # replay from a reloaded bundle against the fitted cell
REPLAY_STEPS = 200

# regularize_Q's documented rule: whitened eigenvalues of Q outside
# [1e-12, 1 + 1e-12] are clipped into [1e-6, 1 - 1e-6].
_Q_PASS_TOL = 1e-12
_Q_CLIP = 1e-6


def nmse(pred: np.ndarray, truth: np.ndarray) -> float:
    err = ((pred - truth) ** 2).sum(axis=1).mean()
    return float(err / truth.var(axis=0).sum())


def kalman_means(dyn, obs, X: np.ndarray) -> np.ndarray:
    """Information-form Kalman filter from N(0, S): Sigma^-1 = M^-1 + H' L^-1 H."""
    A, G = dyn.A, dyn.Gamma
    HtLi = np.linalg.solve(obs.Lambda, obs.H).T
    info_gain = HtLi @ obs.H
    b = (X - obs.offset) @ HtLi.T
    mu = np.zeros(dyn.d)
    Sigma = np.array(dyn.S)
    out = np.empty((X.shape[0], dyn.d))
    for t in range(X.shape[0]):
        M = A @ Sigma @ A.T + G
        M_inv = np.linalg.inv(M)
        Sigma = np.linalg.inv(M_inv + info_gain)
        mu = Sigma @ (M_inv @ (A @ mu) + b[t])
        out[t] = mu
    return out


def clip_q(Q: np.ndarray, S: np.ndarray) -> tuple[np.ndarray, bool]:
    w_S, V_S = np.linalg.eigh(S)
    S_half = (V_S * np.sqrt(w_S)) @ V_S.T
    S_half_inv = (V_S / np.sqrt(w_S)) @ V_S.T
    w, U = np.linalg.eigh(S_half_inv @ Q @ S_half_inv)
    if w.min() >= _Q_PASS_TOL and w.max() <= 1.0 + _Q_PASS_TOL:
        return Q, False
    w = np.clip(w, _Q_CLIP, 1.0 - _Q_CLIP)
    return S_half @ ((U * w) @ U.T) @ S_half, True


def _is_pd(P: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        return False
    return True


def observation_moments(obs, X: np.ndarray):
    """f (N, d) and Q (N, d, d) for every row, from the batch model APIs."""
    from dkf import regression

    meta = obs.meta
    model = meta["model"]
    if meta["kind"] == "dkf-nn":
        F = regression.mlp_predict(model, X, batch=True)
    else:
        F = regression.gp_predict_mean(model, X, batch=True)
    if meta["kind"] == "dkf-gp":
        q = regression.gp_predict_q(model, X, batch=True)
        Qd = np.array([regression.apply_q_calibration(row, meta["q_edges"], meta["q_scales"])
                       for row in q])
        Qs = np.einsum("ni,ij->nij", Qd, np.eye(F.shape[1]))
    else:
        Qs = np.broadcast_to(meta["q"].matrix, (X.shape[0],) + meta["q"].matrix.shape)
    return F, Qs


def dkf_moments(dyn, F: np.ndarray, Qs: np.ndarray):
    """Closed-form DKF recursion; returns (means, covs, clipped, dropped)."""
    A, G = dyn.A, dyn.Gamma
    S_inv = np.linalg.inv(dyn.S)
    mu = np.zeros(dyn.d)
    Sigma = np.array(dyn.S)
    means = np.empty((F.shape[0], dyn.d))
    covs = np.empty((F.shape[0], dyn.d, dyn.d))
    clipped = dropped = 0
    for t in range(F.shape[0]):
        Q, was_clipped = clip_q(Qs[t], dyn.S)
        clipped += was_clipped
        Q_inv = np.linalg.inv(Q)
        M_inv = np.linalg.inv(A @ Sigma @ A.T + G)
        P = Q_inv + M_inv - S_inv
        if not _is_pd(P):
            dropped += 1
            P = Q_inv + M_inv
        Sigma = np.linalg.inv(P)
        mu = Sigma @ (Q_inv @ F[t] + M_inv @ (A @ mu))
        means[t] = mu
        covs[t] = Sigma
    return means, covs, clipped, dropped


def check_cells(report, runs, table: str) -> list[tuple]:
    """Every recomputation for one run_benchmark report.

    ``runs`` holds the captured ``run_filter`` calls, one per cell that
    decoded, in the order run_benchmark appended its results.  Returns the
    problems found as ``((filter, trial) or None, message)``; None marks a
    problem of the report as a whole.
    """
    problems = []
    done = [r for r in report.results if r.error is None]
    if len(done) != len(runs):
        return [(None, f"{len(done)} scored cells but {len(runs)} decodes were captured")]
    clipped = dropped = 0
    scores = {}
    for r, (label, ds, dyn, obs, beliefs) in zip(done, runs):
        key = (r.filter_name, r.trial)

        def problem(msg):
            problems.append((key, f"{r.filter_name} trial {r.trial}: {msg}"))

        if label != r.filter_name:
            problem(f"decode captured for {label}")
            continue
        means = np.array([b.mean for b in beliefs])
        if not np.array_equal(means, r.means):
            problem("reported means differ from the decoded beliefs")
        truth = ds.test_states
        X = ds.test_observations
        scores[r.filter_name, r.trial] = score = nmse(means, truth)
        if abs(score - r.nmse) > 1e-12 * max(1.0, r.nmse):
            problem(f"nMSE {r.nmse!r} != recomputed {score!r}")
        if label == "kalman":
            gap = float(np.abs(kalman_means(dyn, obs, X) - means).max())
            if not gap <= MEAN_TOL:
                problem(f"Kalman means differ by {gap:.3g}")
        elif label.startswith("dkf"):
            F, Qs = observation_moments(obs, X)
            m2, c2, n_clip, n_drop = dkf_moments(dyn, F, Qs)
            clipped += n_clip
            dropped += n_drop
            covs = np.array([b.covariance for b in beliefs])
            gap = max(float(np.abs(m2 - means).max()), float(np.abs(c2 - covs).max()))
            if not gap <= MEAN_TOL:
                problem(f"DKF moments differ by {gap:.3g}")
    warn = report.warnings
    if (clipped, dropped) != (warn["q_regularized"], warn["prior_term_dropped"]):
        problems.append((None, f"intervention counts: program {warn}, recomputed "
                                f"q_regularized={clipped} prior_term_dropped={dropped}"))
    problems += _check_table(report, table, scores)
    return problems


def _check_table(report, table: str, scores: dict) -> list[str]:
    rows = {}
    for line in table.splitlines()[2:]:
        if line.startswith("#"):
            continue
        name, *vals = line.split()
        rows[name] = vals
    problems = []
    for name in report.config.filters:
        mine = [scores.get((name, trial), np.nan) for trial in range(report.config.trials)]
        want = mine + [float(np.mean(mine))]
        got = rows.get(name, [])
        if len(got) != len(want) or any(
            v == "fail" or not abs(float(v) - w) <= 5e-4 + 1e-9 for v, w in zip(got, want)
        ):
            problems.append((None, f"table row {name}: {got} does not match recomputed {want}"))
    return problems


def orderings(averages: dict[str, float], classic_above: bool) -> list[str]:
    """The paper's orderings on average nMSE: every DKF below Kalman, and on
    syn2 the EKF and UKF above it."""
    k = averages["kalman"]
    out = [f"{f} {v:.4f} not below kalman {k:.4f}"
           for f, v in averages.items() if f.startswith("dkf") and not v < k]
    if classic_above:
        out += [f"{f} {averages[f]:.4f} not above kalman {k:.4f}"
                for f in ("ekf", "ukf") if not averages[f] > k]
    return out


def bundle_round_trip(cell, ds, means: np.ndarray, work_dir) -> None:
    """save -> load -> save -> load, then replay a test prefix as `dkf run` does.

    Raises on any failure; the caller counts it as a failed operation.
    """
    from dkf import bench, filters
    from dkf.statespace import TrajectoryDataset

    first = work_dir / f"{cell.filter_name}.1.json"
    second = work_dir / f"{cell.filter_name}.2.json"
    bench.save_model_bundle(cell, first)
    bench.save_model_bundle(bench.load_model_bundle(first), second)
    loaded = bench.load_model_bundle(second)
    n = min(REPLAY_STEPS, ds.T - ds.split_index)
    prefix = TrajectoryDataset(ds.states[: ds.split_index + n],
                               ds.observations[: ds.split_index + n],
                               split_index=ds.split_index, lag=ds.lag)
    kind = "dkf" if loaded.filter_name.startswith("dkf") else loaded.filter_name
    replay = filters.run_filter(kind, prefix, loaded.dyn, loaded.obs)
    gap = float(np.abs(np.array([b.mean for b in replay]) - means[:n]).max())
    if not gap <= BUNDLE_TOL:
        raise AssertionError(f"replay from the reloaded bundle differs by {gap:.3g}")
