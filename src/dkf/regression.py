"""Learners mapping observations to state-space means and covariances.

Two regressors for f(x) = E[z | x]: independent RBF-kernel GPs per state
dimension (hyperparameters by marginal-likelihood ascent) and a small tanh
network.  Covariance models Q(x) come either from the GP predictive variance
(diagonal) or from holdout residuals (constant).  Everything is deterministic
given its RandomSource.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.spatial.distance

from .filters import DiscriminativeObservationModel, GenerativeObservationModel
from .statespace import RandomSource, TrajectoryDataset, _readonly, spd_floor

__all__ = [
    "FitFailure",
    "InsufficientData",
    "RbfKernel",
    "GpRegressor",
    "MlpRegressor",
    "QEstimate",
    "gp_fit",
    "gp_predict_mean",
    "gp_predict_q",
    "gp_log_marginal_likelihood",
    "mlp_fit",
    "mlp_predict",
    "fit_residual_Q",
    "build_dkf_variant",
    "SPEC_FIELDS",
    "fitted_observation",
    "save_model",
    "load_model",
    "model_to_dict",
    "model_from_dict",
]


class FitFailure(Exception):
    """No optimizer start produced a finite objective."""


class InsufficientData(Exception):
    """Too few points to estimate the requested quantity."""


def _standardize_stats(X: np.ndarray):
    mean = X.mean(axis=0)
    # tiny floor: degenerate coordinates standardize to ~0 and, on the target
    # side, scale network output back to the constant almost exactly
    scale = np.maximum(X.std(axis=0), 1e-12)
    return mean, scale


# ---------------------------------------------------------------------------
# Gaussian process regression, one independent GP per state dimension


@dataclass(frozen=True)
class RbfKernel:
    """k(x, x') = signal_variance * exp(-||x - x'||^2 / (2 length_scale^2))."""

    length_scale: float
    signal_variance: float

    def __post_init__(self):
        if not (self.length_scale > 0 and self.signal_variance > 0):
            raise ValueError("kernel parameters must be positive")

    def __call__(self, XA: np.ndarray, XB: np.ndarray) -> np.ndarray:
        sq = scipy.spatial.distance.cdist(XA, XB, "sqeuclidean")
        return self.signal_variance * np.exp(-0.5 * sq / self.length_scale ** 2)


@dataclass(frozen=True, eq=False)
class _GpDim:
    """Per-output-dimension state: kernel, noise, targets, and the factor."""

    kernel: RbfKernel
    noise_variance: float
    targets: np.ndarray
    chol_lower: np.ndarray
    alpha: np.ndarray


@dataclass(frozen=True, eq=False)
class GpRegressor:
    """Independent RBF GPs over standardized inputs, one per output dim."""

    inputs: np.ndarray
    input_mean: np.ndarray
    input_scale: np.ndarray
    dims: tuple[_GpDim, ...]

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def m(self) -> int:
        return self.inputs.shape[1]

    @property
    def d(self) -> int:
        return len(self.dims)

    def standardize(self, X: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(np.asarray(X, float)) - self.input_mean) / self.input_scale


def gp_log_marginal_likelihood(
    X: np.ndarray, z: np.ndarray, kernel: RbfKernel, noise_variance: float
) -> float:
    """log p(z | X, kernel, noise) for one output dimension (inputs as given)."""
    X = np.atleast_2d(np.asarray(X, float))
    z = np.asarray(z, float)
    n = X.shape[0]
    K = kernel(X, X) + noise_variance * np.eye(n)
    L = np.linalg.cholesky(K)
    alpha = scipy.linalg.cho_solve((L, True), z)
    return float(
        -0.5 * z @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * n * math.log(2.0 * math.pi)
    )


def _lml_and_grad(theta: np.ndarray, sq_dist: np.ndarray, z: np.ndarray):
    """(negative LML, gradient) in log-parameters (log l, log s2, log noise)."""
    log_l, log_s2, log_n2 = theta
    n = z.shape[0]
    ell2 = math.exp(2.0 * log_l)
    s2 = math.exp(log_s2)
    n2 = math.exp(log_n2)
    E = np.exp(-0.5 * sq_dist / ell2)
    K = s2 * E
    Ky = K + n2 * np.eye(n)
    try:
        L = np.linalg.cholesky(Ky)
    except np.linalg.LinAlgError:
        return np.inf, np.zeros(3)
    alpha = scipy.linalg.cho_solve((L, True), z)
    lml = -0.5 * z @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * n * math.log(2.0 * math.pi)
    Ky_inv = scipy.linalg.cho_solve((L, True), np.eye(n))
    inner = np.outer(alpha, alpha) - Ky_inv
    # dK/dlog l = K * sq_dist / ell2 ; dK/dlog s2 = K ; dK/dlog n2 = n2 I
    g_l = 0.5 * np.sum(inner * (K * (sq_dist / ell2)))
    g_s2 = 0.5 * np.sum(inner * K)
    g_n2 = 0.5 * n2 * np.trace(inner)
    return -float(lml), -np.array([g_l, g_s2, g_n2])


_GP_MAX_ITER = 60
_GP_N_STARTS = 8
_GP_VAL_MIN_ROWS = 25
_GP_VAL_SLACK = 1.25


def _candidate_mse(sq_fit: np.ndarray, z_fit: np.ndarray, sq_cross: np.ndarray,
                   z_out: np.ndarray, theta: np.ndarray) -> float:
    """MSE predicting z_out from the fit rows with hyperparameters theta."""
    log_l, log_s2, log_n2 = theta
    ell2 = math.exp(2.0 * log_l)
    s2 = math.exp(log_s2)
    n2 = math.exp(log_n2)
    K = s2 * np.exp(-0.5 * sq_fit / ell2) + n2 * np.eye(sq_fit.shape[0])
    try:
        L = np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        return np.inf
    alpha = scipy.linalg.cho_solve((L, True), z_fit)
    pred = (s2 * np.exp(-0.5 * sq_cross / ell2)) @ alpha
    return float(np.mean((pred - z_out) ** 2))


def gp_fit(
    X: np.ndarray,
    Z: np.ndarray,
    n_starts: int = _GP_N_STARTS,
    validation: tuple[np.ndarray, np.ndarray] | None = None,
) -> GpRegressor:
    """Fit per-dimension GPs by multi-start gradient ascent on the marginal likelihood.

    Starts are the deterministic grid {0.1, 0.3, 1, 3, 10} x median distance
    for the length scale, {0.1, 1} x target variance for the signal variance,
    and {0.001, 0.01, 0.1} x target variance for the noise; L-BFGS-B runs
    from the ``n_starts`` best-scoring combos.  The winner among all
    candidates (grid points and optima) is the best marginal likelihood
    subject to a held-out guard: prediction error on ``validation`` pairs
    when given, otherwise on the last 20% of the rows, must stay within a
    generous factor of the best candidate's.  The guard matters when target
    scatter is far from Gaussian, where the likelihood alone can prefer a
    degenerate optimum (huge signal variance absorbing the whole target)
    that predicts poorly; on well-specified data the likelihood optimum
    passes the guard and is kept.
    """
    X = np.atleast_2d(np.asarray(X, float))
    Z = np.asarray(Z, float)
    if Z.ndim == 1:
        Z = Z[:, None]
    n = X.shape[0]
    if n < 2:
        raise InsufficientData(f"GP fit needs at least 2 points, got {n}")
    if Z.shape[0] != n:
        raise ValueError("inputs and targets disagree in length")
    x_mean, x_scale = _standardize_stats(X)
    Xs = (X - x_mean) / x_scale
    sq_dist = scipy.spatial.distance.cdist(Xs, Xs, "sqeuclidean")
    off_diag = sq_dist[np.triu_indices(n, k=1)]
    med = math.sqrt(max(float(np.median(off_diag)), 1e-12)) if off_diag.size else 1.0

    Zv = None
    if validation is not None:
        Xv = np.atleast_2d(np.asarray(validation[0], float))
        Zv = np.asarray(validation[1], float)
        if Zv.ndim == 1:
            Zv = Zv[:, None]
        sq_val = scipy.spatial.distance.cdist((Xv - x_mean) / x_scale, Xs, "sqeuclidean")

    dims = []
    for j in range(Z.shape[1]):
        z = Z[:, j]
        var = max(float(z.var()), 1e-12)
        starts = [
            np.log([ls * med, sv * var, nv * var])
            for ls in (0.1, 0.3, 1.0, 3.0, 10.0)
            for sv in (0.1, 1.0)
            for nv in (0.001, 0.01, 0.1)
        ]
        scored = []
        for theta in starts:
            val, _ = _lml_and_grad(theta, sq_dist, z)
            if np.isfinite(val):
                scored.append((val, theta))
        if not scored:
            raise FitFailure(f"no finite marginal likelihood at any start (output dim {j})")
        scored.sort(key=lambda pair: pair[0])
        bounds = [
            (math.log(med) - 8.0, math.log(med) + 8.0),
            (math.log(var) - 12.0, math.log(var) + 8.0),
            (math.log(var) - 18.0, math.log(var) + 4.0),
        ]
        candidates = []  # (neg_lml, theta)
        for _, theta0 in scored[:n_starts]:
            res = scipy.optimize.minimize(
                _lml_and_grad,
                np.clip(theta0, [b[0] for b in bounds], [b[1] for b in bounds]),
                args=(sq_dist, z),
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
                options={"maxiter": _GP_MAX_ITER},
            )
            if np.isfinite(res.fun):
                candidates.append((float(res.fun), res.x))
        if not candidates:
            raise FitFailure(f"optimizer produced no finite optimum (output dim {j})")

        if Zv is not None:
            candidates += scored
            checks = [
                _candidate_mse(sq_dist, z, sq_val, Zv[:, j], theta)
                for _, theta in candidates
            ]
        elif n >= _GP_VAL_MIN_ROWS:
            candidates += scored
            n_fit = n - max(1, n // 5)
            checks = [
                _candidate_mse(
                    sq_dist[:n_fit, :n_fit], z[:n_fit], sq_dist[n_fit:, :n_fit],
                    z[n_fit:], theta,
                )
                for _, theta in candidates
            ]
        else:
            checks = None
        if checks is not None and np.isfinite(min(checks)):
            floor = min(checks)
            admissible = [
                pair for pair, mse in zip(candidates, checks)
                if mse <= _GP_VAL_SLACK * floor
            ]
            best_theta = min(admissible, key=lambda pair: pair[0])[1]
        else:
            best_theta = min(candidates, key=lambda pair: pair[0])[1]
        log_l, log_s2, log_n2 = best_theta
        kernel = RbfKernel(math.exp(log_l), math.exp(log_s2))
        noise = math.exp(log_n2)
        dims.append(_finalize_gp_dim(Xs, z, kernel, noise))
    return GpRegressor(
        inputs=_readonly(Xs), input_mean=_readonly(x_mean), input_scale=_readonly(x_scale),
        dims=tuple(dims),
    )


def _finalize_gp_dim(Xs: np.ndarray, z: np.ndarray, kernel: RbfKernel, noise: float) -> _GpDim:
    n = Xs.shape[0]
    K = kernel(Xs, Xs) + noise * np.eye(n)
    jitter = 0.0
    for _ in range(4):
        try:
            L = np.linalg.cholesky(K + jitter * np.eye(n))
            break
        except np.linalg.LinAlgError:
            jitter = max(jitter * 10.0, 1e-12 * kernel.signal_variance)
    else:
        raise FitFailure("kernel matrix could not be factorized")
    alpha = scipy.linalg.cho_solve((L, True), z)
    return _GpDim(kernel, noise, _readonly(np.asarray(z, float)), _readonly(L), _readonly(alpha))


def _gp_cross(model: GpRegressor, X: np.ndarray, dim: _GpDim) -> np.ndarray:
    return dim.kernel(model.standardize(X), model.inputs)


def gp_predict_mean(model: GpRegressor, x: np.ndarray, batch: bool = False) -> np.ndarray:
    """Posterior mean; (d,) for one observation or (N, d) when batch=True."""
    X = np.atleast_2d(np.asarray(x, float))
    out = np.empty((X.shape[0], model.d))
    for j, dim in enumerate(model.dims):
        out[:, j] = _gp_cross(model, X, dim) @ dim.alpha
    return out if batch else out[0]


def gp_predict_q(model: GpRegressor, x: np.ndarray, batch: bool = False) -> np.ndarray:
    """Predictive variance plus noise per output dim; (d,) or (N, d)."""
    X = np.atleast_2d(np.asarray(x, float))
    out = np.empty((X.shape[0], model.d))
    for j, dim in enumerate(model.dims):
        Kc = _gp_cross(model, X, dim)
        v = scipy.linalg.solve_triangular(dim.chol_lower, Kc.T, lower=True)
        var = dim.kernel.signal_variance - np.einsum("ij,ij->j", v, v)
        out[:, j] = np.maximum(var, 0.0) + dim.noise_variance
    return out if batch else out[0]


# ---------------------------------------------------------------------------
# small tanh network


@dataclass(frozen=True, eq=False)
class MlpRegressor:
    """One hidden tanh layer over standardized inputs and targets."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    x_mean: np.ndarray
    x_scale: np.ndarray
    z_mean: np.ndarray
    z_scale: np.ndarray
    holdout_indices: np.ndarray

    @property
    def hidden_width(self) -> int:
        return self.w1.shape[0]


def _mlp_forward(w1, b1, w2, b2, Xs):
    Hact = np.tanh(Xs @ w1.T + b1)
    return Hact, Hact @ w2.T + b2


def mlp_predict(model: MlpRegressor, x: np.ndarray, batch: bool = False) -> np.ndarray:
    X = np.atleast_2d(np.asarray(x, float))
    Xs = (X - model.x_mean) / model.x_scale
    _, P = _mlp_forward(model.w1, model.b1, model.w2, model.b2, Xs)
    out = P * model.z_scale + model.z_mean
    return out if batch else out[0]


def mlp_fit(
    X: np.ndarray,
    Z: np.ndarray,
    rng: RandomSource,
    hidden_width: int = 20,
    max_iter: int = 3000,
    learning_rate: float = 0.01,
    weight_decay: float = 1e-4,
    patience: int = 200,
) -> MlpRegressor:
    """Full-batch Adam with weight decay and early stopping.

    Rows are shuffled once (deterministically from rng) into 70/15/15
    train/validation/test partitions; validation MSE drives early stopping
    and the best weights are restored.  The test partition indices are kept
    on the model for downstream residual estimates.
    """
    X = np.atleast_2d(np.asarray(X, float))
    Z = np.asarray(Z, float)
    if Z.ndim == 1:
        Z = Z[:, None]
    n, m = X.shape
    d = Z.shape[1]
    if Z.shape[0] != n:
        raise ValueError("inputs and targets disagree in length")
    if n < 20:
        raise InsufficientData(f"network fit needs at least 20 rows, got {n}")
    x_mean, x_scale = _standardize_stats(X)
    z_mean, z_scale = _standardize_stats(Z)
    Xs = (X - x_mean) / x_scale
    Zs = (Z - z_mean) / z_scale

    perm = np.argsort(rng.uniforms(n), kind="stable")
    n_tr = int(round(0.70 * n))
    n_val = int(round(0.15 * n))
    n_tr = max(1, min(n_tr, n - 2))
    n_val = max(1, min(n_val, n - n_tr - 1))
    idx_tr = perm[:n_tr]
    idx_val = perm[n_tr : n_tr + n_val]
    idx_te = perm[n_tr + n_val :]

    h = hidden_width
    w1 = rng.normals(h * m).reshape(h, m) / math.sqrt(m)
    b1 = np.zeros(h)
    w2 = rng.normals(d * h).reshape(d, h) / math.sqrt(h)
    b2 = np.zeros(d)
    params = [w1, b1, w2, b2]
    mom = [np.zeros_like(p) for p in params]
    vel = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    Xtr, Ztr = Xs[idx_tr], Zs[idx_tr]
    Xval, Zval = Xs[idx_val], Zs[idx_val]
    best_val = np.inf
    best = [p.copy() for p in params]
    since_best = 0
    for it in range(1, max_iter + 1):
        Hact, P = _mlp_forward(w1, b1, w2, b2, Xtr)
        E = P - Ztr
        loss = float((E * E).mean())
        if not np.isfinite(loss):
            raise FitFailure(f"training loss became non-finite at iteration {it}")
        dP = (2.0 / E.size) * E
        g_w2 = dP.T @ Hact + 2.0 * weight_decay * w2
        g_b2 = dP.sum(axis=0)
        dH = (dP @ w2) * (1.0 - Hact * Hact)
        g_w1 = dH.T @ Xtr + 2.0 * weight_decay * w1
        g_b1 = dH.sum(axis=0)
        for p, g, mo, ve in zip(params, [g_w1, g_b1, g_w2, g_b2], mom, vel):
            mo *= beta1
            mo += (1 - beta1) * g
            ve *= beta2
            ve += (1 - beta2) * g * g
            m_hat = mo / (1 - beta1 ** it)
            v_hat = ve / (1 - beta2 ** it)
            p -= learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        _, Pv = _mlp_forward(w1, b1, w2, b2, Xval)
        val = float(((Pv - Zval) ** 2).mean())
        if val < best_val - 1e-12:
            best_val = val
            best = [p.copy() for p in params]
            since_best = 0
        else:
            since_best += 1
            if since_best >= patience:
                break
    w1, b1, w2, b2 = best
    return MlpRegressor(
        w1=_readonly(w1), b1=_readonly(b1), w2=_readonly(w2), b2=_readonly(b2),
        x_mean=_readonly(x_mean), x_scale=_readonly(x_scale),
        z_mean=_readonly(z_mean), z_scale=_readonly(z_scale),
        holdout_indices=_readonly(np.sort(idx_te)).astype(int),
    )


# ---------------------------------------------------------------------------
# covariance models and DKF assembly


@dataclass(frozen=True, eq=False)
class QEstimate:
    """Constant covariance model for the discriminative update.

    kind is "constant-from-residuals": one SPD matrix for all x, stored in
    ``matrix`` and returned by ``value``.
    """

    kind: str
    value: Callable[[np.ndarray], np.ndarray]
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind != "constant-from-residuals":
            raise ValueError(f"unknown QEstimate kind {self.kind!r}")

    @classmethod
    def constant(cls, matrix) -> "QEstimate":
        Qmat = _readonly(np.atleast_2d(matrix))
        return cls("constant-from-residuals", value=lambda x: Qmat, matrix=Qmat)


def fit_residual_Q(f_hat: Callable[[np.ndarray], np.ndarray], heldout) -> QEstimate:
    """Constant Q from prediction residuals on held-out (x, z) pairs.

    Denominator n, SPD-floored.  Needs at least d + 1 pairs.
    """
    pairs = list(heldout)
    if not pairs:
        raise InsufficientData("no held-out pairs")
    Z = np.atleast_2d(np.asarray([np.atleast_1d(z) for _, z in pairs], float))
    n, d = Z.shape
    if n < d + 1:
        raise InsufficientData(f"need at least d + 1 = {d + 1} held-out pairs, got {n}")
    resid = np.empty((n, d))
    for i, (x, _) in enumerate(pairs):
        resid[i] = np.atleast_1d(f_hat(np.asarray(x, float))) - Z[i]
    return QEstimate.constant(spd_floor(resid.T @ resid / n))


_GP_VAL_CAP = 750


def _subsample(X: np.ndarray, Z: np.ndarray, cap: int, rng: RandomSource):
    """Pick cap rows by greedy farthest-point traversal of standardized inputs.

    A space-filling subset covers the input support far better than a uniform
    draw when rows cluster, which is what keeps the capped exact GP accurate.
    Only the traversal start is random (seeded); ties resolve to the lowest
    index, so the subset is deterministic given the data and seed.  Returns
    (rows, targets, kept indices); the index array is None when nothing was
    dropped.
    """
    n = X.shape[0]
    if n <= cap:
        return X, Z, None
    scale = np.maximum(X.std(axis=0), 1e-12)
    Xs = (X - X.mean(axis=0)) / scale
    start = min(int(rng.uniforms(1)[0] * n), n - 1)
    keep = np.empty(cap, dtype=int)
    keep[0] = start
    gap = np.linalg.norm(Xs - Xs[start], axis=1)
    for i in range(1, cap):
        nxt = int(np.argmax(gap))
        keep[i] = nxt
        np.minimum(gap, np.linalg.norm(Xs - Xs[nxt], axis=1), out=gap)
    keep = np.sort(keep)
    return X[keep], Z[keep], keep


def _carve_validation(X: np.ndarray, Z: np.ndarray, keep, rng: RandomSource, parts: int = 1):
    """Disjoint uniform seeded draws (up to _GP_VAL_CAP rows each) from rows
    outside the fitted subset.

    The fitted subset is space-filling, so hyperparameter quality must be
    judged on rows distributed like the data; dropped rows provide exactly
    that.  Separate parts exist so that choosing hyperparameters and scaling
    the predictive variance use different rows, as the chooser's winning
    error is biased low on its own rows.  Parts are None when nothing was
    dropped or too few rows remain.
    """
    if keep is not None:
        rest = np.setdiff1d(np.arange(X.shape[0]), keep)
        if rest.size >= 20 * parts:
            order = np.argsort(rng.uniforms(rest.size), kind="stable")
            chosen = rest[order[: min(rest.size, _GP_VAL_CAP * parts)]]
            chunks = np.array_split(chosen, parts)
            return [(X[np.sort(c)], Z[np.sort(c)]) for c in chunks]
    return [None] * parts


_Q_CAL_BINS = 4
_Q_CAL_CLIP = (0.05, 20.0)


def _q_calibration(gp: GpRegressor, validation) -> tuple[np.ndarray, np.ndarray]:
    """Piecewise factors aligning predictive variance with realized errors.

    Predictive variance is only a relative uncertainty signal once the fit
    rows were subsampled: it saturates at the signal variance away from fit
    rows and understates errors near them, and the mismatch is not a single
    constant across its range.  Validation rows are bucketed by predicted
    variance into equal-count bins (up to _Q_CAL_BINS, fewer when rows are
    scarce) and each bin gets the ratio of mean squared residual to mean
    predicted variance, clipped to _Q_CAL_CLIP.  Returns (edges, scales):
    quantile cut points (d, nbins - 1) and per-bin factors (d, nbins).  With
    no validation set there is one bin with factor 1 (identity).
    """
    if validation is None:
        return np.zeros((gp.d, 0)), np.ones((gp.d, 1))
    Xv, Zv = validation
    Zv = np.asarray(Zv, float)
    if Zv.ndim == 1:
        Zv = Zv[:, None]
    resid2 = (gp_predict_mean(gp, Xv, batch=True) - Zv) ** 2
    qv = gp_predict_q(gp, Xv, batch=True)
    nb = max(1, min(_Q_CAL_BINS, qv.shape[0] // 50))
    lo, hi = _Q_CAL_CLIP
    edges = np.empty((gp.d, nb - 1))
    scales = np.empty((gp.d, nb))
    for j in range(gp.d):
        edges[j] = np.quantile(qv[:, j], np.linspace(0.0, 1.0, nb + 1)[1:-1])
        pooled = np.clip(resid2[:, j].mean() / max(qv[:, j].mean(), 1e-300), lo, hi)
        bins = np.digitize(qv[:, j], edges[j])
        for b in range(nb):
            sel = bins == b
            scales[j, b] = (
                np.clip(resid2[sel, j].mean() / max(qv[sel, j].mean(), 1e-300), lo, hi)
                if int(sel.sum()) >= 10 else pooled
            )
    return edges, scales


def apply_q_calibration(q: np.ndarray, edges: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Scale one predicted-variance vector by its per-dim calibration bin."""
    out = np.empty(q.shape[0])
    for j in range(q.shape[0]):
        out[j] = q[j] * scales[j, int(np.digitize(q[j], edges[j]))]
    return out


# The fields a fitted-model spec carries besides ``kind``, per filter, in
# bundle order.  ``model`` is the fitted regressor, ``q`` a constant QEstimate.
SPEC_FIELDS = {
    "kalman": ("H", "Lambda", "offset"),
    "ekf": ("model", "Lambda"),
    "ukf": ("model", "Lambda", "ukf_params"),
    "dkf-gp": ("model", "q_edges", "q_scales"),
    "dkf-gp-freq": ("model", "q"),
    "dkf-nn": ("model", "q"),
}


def fitted_observation(spec: dict):
    """The observation model a fitted-model spec describes.

    A spec is plain data: ``kind`` (a filter name) plus the fields SPEC_FIELDS
    lists for it.  It becomes the model's ``meta``, so the model alone saves.
    """
    kind = spec.get("kind")
    if kind not in SPEC_FIELDS:
        raise ValueError(f"unknown fitted-model kind {kind!r}, expected one of {list(SPEC_FIELDS)}")
    missing = [key for key in SPEC_FIELDS[kind] if key not in spec]
    if missing:
        raise ValueError(f"{kind} model spec is missing {missing}")
    model = spec.get("model")
    if kind == "kalman":
        return GenerativeObservationModel.linear(spec["H"], spec["Lambda"], spec["offset"], meta=spec)
    if kind in ("ekf", "ukf"):
        return GenerativeObservationModel(
            h=lambda z: mlp_predict(model, z), Lambda=spec["Lambda"],
            ukf_params=spec.get("ukf_params"), meta=spec,
        )
    if kind == "dkf-gp":
        edges, scales = spec["q_edges"], spec["q_scales"]
        Q = lambda x: np.diag(apply_q_calibration(gp_predict_q(model, x), edges, scales))
    else:
        Q = spec["q"].value
    if kind == "dkf-nn":
        f = lambda x: mlp_predict(model, x)
    else:
        f = lambda x: gp_predict_mean(model, x)
    return DiscriminativeObservationModel(f=f, Q=Q, meta=spec)


_DKF_KINDS = ("dkf-gp", "dkf-gp-freq", "dkf-nn")


def build_dkf_variant(
    kind: str,
    dataset: TrajectoryDataset,
    rng: RandomSource,
    gp_subsample_cap: int = 1000,
) -> DiscriminativeObservationModel:
    """Fit one discriminative observation model on the training segment.

    dkf-gp: GP mean with the x-dependent diagonal Q from the predictive
    variances.  dkf-gp-freq: GP fit on the first 80% of the training rows,
    constant Q from residuals on the contiguous last 20%.  dkf-nn: network
    mean, constant Q from residuals on the network's own test partition.
    GP fits subsample their rows to gp_subsample_cap (seeded farthest-point
    selection, kept indices sorted).
    """
    if kind not in _DKF_KINDS:
        raise ValueError(f"unknown variant {kind!r}, expected one of {_DKF_KINDS}")
    X = dataset.train_observations
    Z = dataset.train_states
    n = X.shape[0]
    if kind == "dkf-gp":
        Xf, Zf, keep = _subsample(X, Z, gp_subsample_cap, rng.derive(1))
        val_sel, val_cal = _carve_validation(X, Z, keep, rng.derive(3), parts=2)
        gp = gp_fit(Xf, Zf, validation=val_sel)
        edges, scales = _q_calibration(gp, val_cal)
        return fitted_observation({"kind": kind, "model": gp, "q_edges": edges, "q_scales": scales})
    if kind == "dkf-gp-freq":
        cut = n - max(1, n // 5)
        if cut < 2:
            raise InsufficientData(f"training segment too small to carve a holdout ({n} rows)")
        Xf, Zf, keep = _subsample(X[:cut], Z[:cut], gp_subsample_cap, rng.derive(1))
        val_sel, = _carve_validation(X[:cut], Z[:cut], keep, rng.derive(3))
        model = gp_fit(Xf, Zf, validation=val_sel)
        heldout = list(zip(X[cut:], Z[cut:]))
        f_hat = lambda x: gp_predict_mean(model, x)
    else:
        model = mlp_fit(X, Z, rng.derive(2))
        hold = model.holdout_indices
        heldout = list(zip(X[hold], Z[hold]))
        f_hat = lambda x: mlp_predict(model, x)
    return fitted_observation({"kind": kind, "model": model, "q": fit_residual_Q(f_hat, heldout)})


# ---------------------------------------------------------------------------
# model files


def model_to_dict(model) -> dict:
    if isinstance(model, GpRegressor):
        return {
            "format_version": 1,
            "kind": "gp-regressor",
            "input_mean": model.input_mean.tolist(),
            "input_scale": model.input_scale.tolist(),
            "inputs": model.inputs.tolist(),
            "dims": [
                {
                    "length_scale": dim.kernel.length_scale,
                    "signal_variance": dim.kernel.signal_variance,
                    "noise_variance": dim.noise_variance,
                    "targets": dim.targets.tolist(),
                }
                for dim in model.dims
            ],
        }
    if isinstance(model, MlpRegressor):
        return {
            "format_version": 1,
            "kind": "mlp-regressor",
            "w1": model.w1.tolist(),
            "b1": model.b1.tolist(),
            "w2": model.w2.tolist(),
            "b2": model.b2.tolist(),
            "x_mean": model.x_mean.tolist(),
            "x_scale": model.x_scale.tolist(),
            "z_mean": model.z_mean.tolist(),
            "z_scale": model.z_scale.tolist(),
            "holdout_indices": model.holdout_indices.tolist(),
        }
    raise TypeError(f"cannot serialize {type(model).__name__}")


def model_from_dict(payload: dict):
    kind = payload.get("kind")
    if kind == "gp-regressor":
        inputs = np.asarray(payload["inputs"], float)
        dims = []
        for spec in payload["dims"]:
            kernel = RbfKernel(spec["length_scale"], spec["signal_variance"])
            dims.append(
                _finalize_gp_dim(inputs, np.asarray(spec["targets"], float), kernel, spec["noise_variance"])
            )
        return GpRegressor(
            inputs=_readonly(inputs),
            input_mean=_readonly(np.asarray(payload["input_mean"], float)),
            input_scale=_readonly(np.asarray(payload["input_scale"], float)),
            dims=tuple(dims),
        )
    if kind == "mlp-regressor":
        return MlpRegressor(
            w1=_readonly(np.asarray(payload["w1"], float)),
            b1=_readonly(np.asarray(payload["b1"], float)),
            w2=_readonly(np.asarray(payload["w2"], float)),
            b2=_readonly(np.asarray(payload["b2"], float)),
            x_mean=_readonly(np.asarray(payload["x_mean"], float)),
            x_scale=_readonly(np.asarray(payload["x_scale"], float)),
            z_mean=_readonly(np.asarray(payload["z_mean"], float)),
            z_scale=_readonly(np.asarray(payload["z_scale"], float)),
            holdout_indices=np.asarray(payload["holdout_indices"], int),
        )
    raise ValueError(f"unknown model kind {kind!r}")


def save_model(model, path) -> None:
    """JSON snapshot; loading reproduces predictions bit-for-bit."""
    Path(path).write_text(json.dumps(model_to_dict(model)) + "\n")


def load_model(path):
    return model_from_dict(json.loads(Path(path).read_text()))
