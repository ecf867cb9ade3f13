"""Single-step filter updates and trajectory runners.

Four recursions over a shared state-space model: the classic Kalman filter,
extended and unscented variants for nonlinear observation maps, and the
discriminative recursion that consumes a learned posterior-approximation
(f(x), Q(x)) instead of a likelihood.  All steps map a GaussianBelief for
time t-1 plus the observation x_t to the belief for time t.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg

from .statespace import (
    GaussianBelief,
    LinearGaussianDynamics,
    TrajectoryDataset,
    _readonly,
)

__all__ = [
    "SingularInnovation",
    "JacobianUnavailable",
    "CholeskyFailure",
    "InvalidPosterior",
    "NoConvergence",
    "DiscriminativeObservationModel",
    "GenerativeObservationModel",
    "UkfParameters",
    "FilterStats",
    "kalman_step",
    "ekf_step",
    "ukf_step",
    "dkf_step",
    "regularize_Q",
    "dkf_steady_state_covariance",
    "discriminative_from_linear",
    "sigma_points",
    "finite_difference_jacobian",
    "run_filter",
    "save_beliefs",
    "load_beliefs",
]


class SingularInnovation(Exception):
    """Innovation covariance is not invertible at working precision."""


class JacobianUnavailable(Exception):
    """EKF asked for a Jacobian but none was supplied and finite differences were disabled."""


class CholeskyFailure(Exception):
    """A matrix that must be PD for sigma-point generation failed factorization."""


class InvalidPosterior(Exception):
    """Posterior precision is not PD even after the fallback correction."""


class NoConvergence(Exception):
    """Fixed-point iteration did not reach tolerance within the step budget."""


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


@dataclass(frozen=True, eq=False)
class DiscriminativeObservationModel:
    """Learned approximation of p(z | x) as N(f(x), Q(x)).

    f maps an observation (m,) to a state-space mean (d,); Q maps it to a
    (d, d) covariance.  ``meta`` is free-form provenance (fit sizes, model
    kind) carried along for reports.
    """

    f: Callable[[np.ndarray], np.ndarray]
    Q: Callable[[np.ndarray], np.ndarray]
    meta: dict | None = None


@dataclass(frozen=True, eq=False)
class GenerativeObservationModel:
    """Observation likelihood x | z ~ N(h(z), Lambda).

    ``jacobian`` optionally supplies dh/dz for the EKF.  When h is affine,
    ``H`` and ``offset`` hold the exact linear form h(z) = H z + offset and
    the Kalman step can use it directly.  ``ukf_params`` is the UKF's
    sigma-point spread for this model.  ``meta`` is free-form provenance.
    """

    h: Callable[[np.ndarray], np.ndarray]
    Lambda: np.ndarray
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    H: np.ndarray | None = None
    offset: np.ndarray | None = None
    ukf_params: UkfParameters | None = None
    meta: dict | None = None

    def __post_init__(self):
        Lam = _readonly(np.atleast_2d(np.asarray(self.Lambda, float)))
        if Lam.shape[0] != Lam.shape[1]:
            raise ValueError("Lambda must be square")
        scale = max(float(np.abs(Lam).max()), 1.0)
        if float(np.abs(Lam - Lam.T).max()) > 1e-12 * scale:
            raise ValueError("Lambda is not symmetric")
        try:
            np.linalg.cholesky(Lam)
        except np.linalg.LinAlgError:
            raise ValueError("Lambda is not positive definite") from None
        object.__setattr__(self, "Lambda", Lam)
        if self.H is not None:
            H = _readonly(np.atleast_2d(np.asarray(self.H, float)))
            if H.shape[0] != Lam.shape[0]:
                raise ValueError("H row count must match Lambda")
            object.__setattr__(self, "H", H)
            off = np.zeros(H.shape[0]) if self.offset is None else np.asarray(self.offset, float)
            object.__setattr__(self, "offset", _readonly(np.atleast_1d(off)))

    @classmethod
    def linear(cls, H, Lambda, offset=None, meta=None) -> "GenerativeObservationModel":
        H = np.atleast_2d(np.asarray(H, float))
        off = np.zeros(H.shape[0]) if offset is None else np.atleast_1d(np.asarray(offset, float))
        return cls(
            h=lambda z: H @ np.atleast_1d(z) + off,
            Lambda=Lambda,
            jacobian=lambda z: H,
            H=H,
            offset=off,
            meta=meta,
        )


@dataclass(frozen=True)
class UkfParameters:
    """Scaled sigma-point parameters; kappa=None resolves to 3 - d."""

    alpha: float = 1.0
    beta: float = 2.0
    kappa: float | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")

    def lam(self, d: int) -> float:
        kappa = (3.0 - d) if self.kappa is None else self.kappa
        lam = self.alpha ** 2 * (d + kappa) - d
        if d + lam <= 0:
            raise ValueError(f"d + lambda = {d + lam:.6g} must be positive")
        return lam


@dataclass
class FilterStats:
    """Counters for numeric interventions taken during a run."""

    q_regularized: int = 0
    prior_term_dropped: int = 0

    def merge(self, other: "FilterStats") -> None:
        self.q_regularized += other.q_regularized
        self.prior_term_dropped += other.prior_term_dropped


def _predict(belief: GaussianBelief, dyn: LinearGaussianDynamics):
    mean = dyn.A @ belief.mean
    cov = _sym(dyn.A @ belief.covariance @ dyn.A.T + dyn.Gamma)
    return mean, cov


def _innovation_factor(S_innov: np.ndarray):
    try:
        return scipy.linalg.cho_factor(S_innov, lower=True)
    except scipy.linalg.LinAlgError:
        raise SingularInnovation(
            "innovation covariance is not positive definite at working precision"
        ) from None


def kalman_step(
    belief: GaussianBelief,
    x: np.ndarray,
    dyn: LinearGaussianDynamics,
    obs: GenerativeObservationModel,
) -> GaussianBelief:
    """Exact conjugate update for an affine observation model."""
    if obs.H is None:
        raise ValueError("kalman_step needs an affine observation model (H set)")
    x = np.atleast_1d(np.asarray(x, float))
    pred_mean, M = _predict(belief, dyn)
    H = obs.H
    S_innov = _sym(H @ M @ H.T + obs.Lambda)
    factor = _innovation_factor(S_innov)
    gain = scipy.linalg.cho_solve(factor, H @ M).T
    innov = x - (H @ pred_mean + obs.offset)
    mean = pred_mean + gain @ innov
    cov = _sym((np.eye(belief.d) - gain @ H) @ M)
    return GaussianBelief(mean, cov)


def finite_difference_jacobian(
    h: Callable[[np.ndarray], np.ndarray], z: np.ndarray, rel_step: float = 1e-5
) -> np.ndarray:
    """Central differences with per-coordinate step rel_step * (1 + |z_i|)."""
    z = np.atleast_1d(np.asarray(z, float))
    cols = []
    for i in range(z.shape[0]):
        step = rel_step * (1.0 + abs(z[i]))
        zp = z.copy()
        zm = z.copy()
        zp[i] += step
        zm[i] -= step
        cols.append((np.atleast_1d(h(zp)) - np.atleast_1d(h(zm))) / (2.0 * step))
    return np.column_stack(cols)


def ekf_step(
    belief: GaussianBelief,
    x: np.ndarray,
    dyn: LinearGaussianDynamics,
    obs: GenerativeObservationModel,
    finite_diff: bool = True,
) -> GaussianBelief:
    """First-order linearization of h at the predicted mean."""
    x = np.atleast_1d(np.asarray(x, float))
    pred_mean, M = _predict(belief, dyn)
    if obs.jacobian is not None:
        H = np.atleast_2d(obs.jacobian(pred_mean))
    elif finite_diff:
        H = finite_difference_jacobian(obs.h, pred_mean)
    else:
        raise JacobianUnavailable("no jacobian supplied and finite differences disabled")
    S_innov = _sym(H @ M @ H.T + obs.Lambda)
    factor = _innovation_factor(S_innov)
    gain = scipy.linalg.cho_solve(factor, H @ M).T
    innov = x - np.atleast_1d(obs.h(pred_mean))
    mean = pred_mean + gain @ innov
    cov = _sym((np.eye(belief.d) - gain @ H) @ M)
    return GaussianBelief(mean, cov)


def sigma_points(mean: np.ndarray, cov: np.ndarray, params: UkfParameters):
    """Scaled sigma points and weights for a d-dimensional Gaussian.

    Returns (points (2d+1, d), mean_weights, cov_weights).  Point 0 is the
    mean; points i and d+i sit at +/- column i of chol((d + lambda) cov).
    """
    mean = np.atleast_1d(np.asarray(mean, float))
    cov = np.atleast_2d(np.asarray(cov, float))
    d = mean.shape[0]
    lam = params.lam(d)
    try:
        L = np.linalg.cholesky((d + lam) * cov)
    except np.linalg.LinAlgError:
        raise CholeskyFailure("sigma-point covariance is not positive definite") from None
    pts = np.empty((2 * d + 1, d))
    pts[0] = mean
    for i in range(d):
        pts[1 + i] = mean + L[:, i]
        pts[1 + d + i] = mean - L[:, i]
    wm = np.full(2 * d + 1, 0.5 / (d + lam))
    wm[0] = lam / (d + lam)
    wc = wm.copy()
    wc[0] += 1.0 - params.alpha ** 2 + params.beta
    return pts, wm, wc


def ukf_step(
    belief: GaussianBelief,
    x: np.ndarray,
    dyn: LinearGaussianDynamics,
    obs: GenerativeObservationModel,
    params: UkfParameters | None = None,
) -> GaussianBelief:
    """Unscented update: propagate sigma points of the predicted belief through h.

    The spread is params, else the model's ukf_params, else UkfParameters().
    """
    params = params or obs.ukf_params or UkfParameters()
    x = np.atleast_1d(np.asarray(x, float))
    pred_mean, M = _predict(belief, dyn)
    pts, wm, wc = sigma_points(pred_mean, M, params)
    Y = np.asarray([np.atleast_1d(obs.h(p)) for p in pts], float)
    y_mean = wm @ Y
    dY = Y - y_mean
    dZ = pts - pred_mean
    S_innov = _sym((dY * wc[:, None]).T @ dY + obs.Lambda)
    cross = (dZ * wc[:, None]).T @ dY
    factor = _innovation_factor(S_innov)
    gain = scipy.linalg.cho_solve(factor, cross.T).T
    mean = pred_mean + gain @ (x - y_mean)
    cov = _sym(M - gain @ S_innov @ gain.T)
    return GaussianBelief(mean, cov)


_Q_CLIP = 1e-6
_Q_PASS_TOL = 1e-12


def regularize_Q(Qx: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Clip Q so that both Q and S - Q are safely positive semidefinite.

    Works in the S-whitened basis: an input whose eigenvalues of
    S^{-1/2} Q S^{-1/2} already sit in [1e-12, 1 + 1e-12] (Q PD, S - Q PSD at
    working tolerance) is returned unchanged, same object.  Anything else has
    those eigenvalues clipped into [1e-6, 1 - 1e-6] and mapped back.
    """
    Qx = np.atleast_2d(np.asarray(Qx, float))
    S = np.atleast_2d(np.asarray(S, float))
    if Qx.shape != S.shape:
        raise ValueError(f"Q shape {Qx.shape} does not match S shape {S.shape}")
    w_S, V_S = np.linalg.eigh(_sym(S))
    if w_S.min() <= 0:
        raise ValueError("S must be positive definite")
    root = np.sqrt(w_S)
    S_half = (V_S * root) @ V_S.T
    S_half_inv = (V_S / root) @ V_S.T
    B = _sym(S_half_inv @ _sym(Qx) @ S_half_inv)
    w, U = np.linalg.eigh(B)
    if w.min() >= _Q_PASS_TOL and w.max() <= 1.0 + _Q_PASS_TOL:
        return Qx
    w = np.clip(w, _Q_CLIP, 1.0 - _Q_CLIP)
    out = S_half @ ((U * w) @ U.T) @ S_half
    return _sym(out)


def dkf_step(
    belief: GaussianBelief,
    x: np.ndarray,
    dyn: LinearGaussianDynamics,
    obs: DiscriminativeObservationModel,
    stats: FilterStats | None = None,
) -> GaussianBelief:
    """Discriminative update combining N(f(x), Q(x)) with the propagated prior.

    Posterior precision is Q(x)^{-1} + M^{-1} - S^{-1} with M the predicted
    covariance.  Q(x) is first clipped (see regularize_Q) so S - Q stays PSD;
    if the combined precision still fails Cholesky the -S^{-1} term is
    dropped for this step (counted in stats.prior_term_dropped), and only
    when that fallback also fails is InvalidPosterior raised.
    """
    x = np.atleast_1d(np.asarray(x, float))
    d = belief.d
    _, M = _predict(belief, dyn)
    f_val = np.atleast_1d(np.asarray(obs.f(x), float))
    Q_raw = np.atleast_2d(np.asarray(obs.Q(x), float))
    if f_val.shape != (d,) or Q_raw.shape != (d, d):
        raise ValueError(
            f"observation model returned f {f_val.shape}, Q {Q_raw.shape} for state dim {d}"
        )
    Q = regularize_Q(Q_raw, dyn.S)
    if stats is not None and Q is not Q_raw:
        stats.q_regularized += 1
    eye = np.eye(d)
    try:
        cQ = scipy.linalg.cho_factor(Q, lower=True)
    except scipy.linalg.LinAlgError:
        raise InvalidPosterior("regularized Q failed Cholesky") from None
    try:
        cM = scipy.linalg.cho_factor(M, lower=True)
    except scipy.linalg.LinAlgError:
        raise InvalidPosterior("predicted covariance is not positive definite") from None
    Q_inv = scipy.linalg.cho_solve(cQ, eye)
    M_inv = scipy.linalg.cho_solve(cM, eye)
    rhs = scipy.linalg.cho_solve(cQ, f_val) + scipy.linalg.cho_solve(cM, dyn.A @ belief.mean)
    P = _sym(Q_inv + M_inv - dyn.S_inv)
    try:
        cP = scipy.linalg.cho_factor(P, lower=True)
    except scipy.linalg.LinAlgError:
        # posterior precision went indefinite; retreat to the product of the
        # two proper Gaussians for this step only
        if stats is not None:
            stats.prior_term_dropped += 1
        P = _sym(Q_inv + M_inv)
        try:
            cP = scipy.linalg.cho_factor(P, lower=True)
        except scipy.linalg.LinAlgError:
            raise InvalidPosterior(
                f"posterior precision not PD even without the prior correction; "
                f"eigenvalues {np.linalg.eigvalsh(P)}"
            ) from None
    cov = _sym(scipy.linalg.cho_solve(cP, eye))
    mean = scipy.linalg.cho_solve(cP, rhs)
    return GaussianBelief(mean, cov)


def dkf_steady_state_covariance(
    dyn: LinearGaussianDynamics,
    Q: np.ndarray,
    max_iter: int = 10_000,
    rtol: float = 1e-12,
) -> np.ndarray:
    """Fixed point of Sigma = (Q^{-1} + (A Sigma A^T + Gamma)^{-1} - S^{-1})^{-1}.

    Q is held constant (clipped through regularize_Q first).  Iterates from
    Sigma_0 = S until successive iterates agree to rtol in Frobenius norm;
    the returned matrix satisfies the fixed-point equation to 1e-10 relative.
    """
    Q = regularize_Q(np.atleast_2d(np.asarray(Q, float)), dyn.S)
    eye = np.eye(dyn.d)
    cQ = scipy.linalg.cho_factor(Q, lower=True)
    Q_inv = scipy.linalg.cho_solve(cQ, eye)

    def apply(Sigma: np.ndarray) -> np.ndarray:
        M = _sym(dyn.A @ Sigma @ dyn.A.T + dyn.Gamma)
        M_inv = scipy.linalg.cho_solve(scipy.linalg.cho_factor(M, lower=True), eye)
        P = _sym(Q_inv + M_inv - dyn.S_inv)
        return _sym(scipy.linalg.cho_solve(scipy.linalg.cho_factor(P, lower=True), eye))

    Sigma = np.array(dyn.S)
    for _ in range(max_iter):
        nxt = apply(Sigma)
        gap = np.linalg.norm(nxt - Sigma)
        Sigma = nxt
        if gap <= rtol * np.linalg.norm(Sigma):
            break
    else:
        raise NoConvergence(f"no fixed point within {max_iter} iterations (last gap {gap:.3g})")
    resid = np.linalg.norm(apply(Sigma) - Sigma)
    if resid > 1e-10 * np.linalg.norm(Sigma):
        raise NoConvergence(f"fixed-point residual {resid:.3g} above tolerance")
    return Sigma


def discriminative_from_linear(
    dyn: LinearGaussianDynamics, obs: GenerativeObservationModel
) -> DiscriminativeObservationModel:
    """Exact conjugate (f, Q) for an affine-Gaussian observation model.

    Under the stationary prior N(0, S), x = H z + offset + noise gives
    z | x ~ N(G (x - offset), S - G H S) with G = S H^T (H S H^T + Lambda)^{-1}.
    Feeding this pair to dkf_step reproduces kalman_step exactly.
    """
    if obs.H is None:
        raise ValueError("needs an affine observation model (H set)")
    S = dyn.S
    H = obs.H
    innov = _sym(H @ S @ H.T + obs.Lambda)
    factor = _innovation_factor(innov)
    gain = scipy.linalg.cho_solve(factor, H @ S).T
    Q = _sym(S - gain @ H @ S)
    offset = obs.offset

    return DiscriminativeObservationModel(
        f=lambda x: gain @ (np.atleast_1d(x) - offset),
        Q=lambda x: Q,
        meta={"kind": "conjugate-linear"},
    )


_STEPS = {
    "kalman": kalman_step,
    "ekf": ekf_step,
    "ukf": ukf_step,
    "dkf": dkf_step,
}


def run_filter(
    filter_kind: str,
    dataset: TrajectoryDataset,
    dyn: LinearGaussianDynamics,
    obs,
    *,
    stats: FilterStats | None = None,
) -> list[GaussianBelief]:
    """Run one filter over the test segment from the stationary prior N(0, S).

    filter_kind is one of kalman | ekf | ukf | dkf.  Any step failure is
    re-raised with the test-segment index and absolute time attached.
    """
    if filter_kind not in _STEPS:
        raise ValueError(f"unknown filter kind {filter_kind!r}")
    if filter_kind == "dkf":
        if not isinstance(obs, DiscriminativeObservationModel):
            raise TypeError("dkf needs a DiscriminativeObservationModel")
    elif not isinstance(obs, GenerativeObservationModel):
        raise TypeError(f"{filter_kind} needs a GenerativeObservationModel")
    belief = dyn.stationary_belief()
    out: list[GaussianBelief] = []
    for i, x in enumerate(dataset.test_observations):
        try:
            if filter_kind == "ukf":
                belief = ukf_step(belief, x, dyn, obs)
            elif filter_kind == "dkf":
                belief = dkf_step(belief, x, dyn, obs, stats)
            else:
                belief = _STEPS[filter_kind](belief, x, dyn, obs)
        except Exception as exc:
            t = dataset.split_index + i
            raise type(exc)(f"{filter_kind} failed at test index {i} (t={t}): {exc}") from exc
        out.append(belief)
    return out


def save_beliefs(beliefs: list[GaussianBelief], path) -> None:
    """Write a belief trajectory as CSV: t, mu_1..mu_d, sigma_11..sigma_dd (row-major)."""
    if not beliefs:
        raise ValueError("no beliefs to save")
    d = beliefs[0].d
    header = (
        ["t"]
        + [f"mu_{i}" for i in range(1, d + 1)]
        + [f"sigma_{i}{j}" for i in range(1, d + 1) for j in range(1, d + 1)]
    )
    with Path(path).open("w") as fh:
        fh.write(",".join(header) + "\n")
        for t, b in enumerate(beliefs):
            vals = [str(t)]
            vals += [f"{v:.17g}" for v in b.mean]
            vals += [f"{v:.17g}" for v in b.covariance.ravel()]
            fh.write(",".join(vals) + "\n")


def load_beliefs(path) -> list[GaussianBelief]:
    with Path(path).open() as fh:
        header = fh.readline().strip().split(",")
        d = sum(1 for name in header if name.startswith("mu_"))
        if d == 0 or header[0] != "t" or len(header) != 1 + d + d * d:
            raise ValueError(f"unexpected belief header {header!r}")
        out = []
        for line in fh:
            if not line.strip():
                continue
            vals = np.asarray(line.strip().split(","), float)
            out.append(GaussianBelief(vals[1 : 1 + d], vals[1 + d :].reshape(d, d)))
    return out
