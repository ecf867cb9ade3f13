"""State-space types, stationary linear-Gaussian dynamics, and synthetic data.

The latent state follows Z_t = A Z_{t-1} + noise with noise ~ N(0, Gamma) and
a marginal stationary law N(0, S), S = A S A^T + Gamma.  Everything downstream
(filters, learners, benchmarks) works in terms of the small frozen containers
defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.linalg

__all__ = [
    "NonStationary",
    "RankDeficient",
    "RandomSource",
    "GaussianBelief",
    "LinearGaussianDynamics",
    "TrajectoryDataset",
    "spectral_radius",
    "spd_floor",
    "solve_stationary_covariance",
    "fit_dynamics",
    "simulate_states",
    "synthetic1_mean",
    "synthetic2_mean",
    "generate_synthetic1",
    "generate_synthetic2",
    "ar1_dynamics",
    "save_dataset",
]


class NonStationary(Exception):
    """Transition matrix has spectral radius at or above one."""


class RankDeficient(Exception):
    """Not enough independent state pairs to identify the dynamics."""


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# pinned random stream


_BLOCK = 8192


class RandomSource:
    """Deterministic random stream with a pinned, documented draw algorithm.

    The bit source is numpy's counter-based Philox generator seeded through
    ``SeedSequence(seed, spawn_key=key)``.  All draws consume one canonical
    stream of 53-bit uniform doubles on [0, 1):

    * ``uniforms(n)`` takes the next ``n`` stream values verbatim.
    * ``ternary(n)`` maps one stream value each to ``floor(3u) - 1``,
      i.e. uniform over {-1, 0, 1}.
    * ``normals(n)`` uses the Marsaglia polar method: consecutive stream
      pairs ``(u, v)`` become ``a = 2u - 1``, ``b = 2v - 1`` and are rejected
      unless ``0 < a*a + b*b < 1``; each accepted pair yields the single
      deviate ``a * sqrt(-2 log(s) / s)`` with ``s = a*a + b*b``.  The second
      deviate the pair could provide is discarded, never cached, so draw
      counts do not depend on call boundaries.

    Identical ``(seed, key)`` reproduce every sequence bit-for-bit, and the
    recipe is simple enough to replicate in another language.  Instances are
    stateful; use :meth:`derive` to split independent child streams instead
    of sharing one across components.
    """

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.key = tuple(int(k) for k in key)
        ss = np.random.SeedSequence(self.seed, spawn_key=self.key)
        self._gen = np.random.Generator(np.random.Philox(ss))
        self._buf = np.empty(0)
        self._pos = 0

    def derive(self, *key: int) -> "RandomSource":
        """Independent child stream addressed by a fixed purpose tag."""
        return RandomSource(self.seed, self.key + tuple(int(k) for k in key))

    def _ensure(self, n: int) -> None:
        avail = self._buf.size - self._pos
        if avail >= n:
            return
        fresh = self._gen.random(max(n - avail, _BLOCK))
        self._buf = np.concatenate([self._buf[self._pos:], fresh])
        self._pos = 0

    def uniforms(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("draw count must be nonnegative")
        self._ensure(n)
        out = self._buf[self._pos:self._pos + n].copy()
        self._pos += n
        return out

    def ternary(self, n: int) -> np.ndarray:
        return np.floor(3.0 * self.uniforms(n)) - 1.0

    def normals(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("draw count must be nonnegative")
        out = np.empty(n)
        filled = 0
        while filled < n:
            need = n - filled
            # ~pi/4 of pairs are accepted; buffer enough to finish in one pass
            self._ensure(2 * (int(need / 0.7) + 8))
            npairs = (self._buf.size - self._pos) // 2
            flat = self._buf[self._pos:self._pos + 2 * npairs]
            a = 2.0 * flat[0::2] - 1.0
            b = 2.0 * flat[1::2] - 1.0
            s = a * a + b * b
            hits = np.flatnonzero((s > 0.0) & (s < 1.0))
            if hits.size >= need:
                take = hits[:need]
                out[filled:] = a[take] * np.sqrt(-2.0 * np.log(s[take]) / s[take])
                # consume exactly through the pair that completed the request
                self._pos += 2 * (int(take[-1]) + 1)
                filled = n
            else:
                out[filled:filled + hits.size] = (
                    a[hits] * np.sqrt(-2.0 * np.log(s[hits]) / s[hits])
                )
                filled += hits.size
                self._pos += 2 * npairs
        return out


# ---------------------------------------------------------------------------
# containers


@dataclass(frozen=True, eq=False)
class GaussianBelief:
    """Gaussian filtering posterior: mean (d,) and SPD covariance (d, d)."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = _readonly(np.atleast_1d(np.asarray(self.mean, float)))
        cov = _readonly(np.atleast_2d(np.asarray(self.covariance, float)))
        if mean.ndim != 1:
            raise ValueError(f"mean must be a vector, got shape {mean.shape}")
        d = mean.shape[0]
        if cov.shape != (d, d):
            raise ValueError(f"covariance shape {cov.shape} does not match mean length {d}")
        _require_spd(cov, "covariance")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def d(self) -> int:
        return self.mean.shape[0]


def spectral_radius(A: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(np.atleast_2d(A)))))


def _require_spd(M: np.ndarray, name: str) -> None:
    scale = max(float(np.abs(M).max()), 1.0)
    if float(np.abs(M - M.T).max()) > 1e-12 * scale:
        raise ValueError(f"{name} is not symmetric")
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} is not positive definite") from None


_SPD_FLOOR_REL = 1e-9


def spd_floor(C: np.ndarray) -> np.ndarray:
    """Symmetrize and add a small diagonal ridge so a sample covariance is SPD.

    The ridge is _SPD_FLOOR_REL * mean diagonal entry, or _SPD_FLOOR_REL
    absolute if the trace is not positive (e.g. all-zero residuals).
    """
    C = np.atleast_2d(np.asarray(C, float))
    C = 0.5 * (C + C.T)
    d = C.shape[0]
    tr = float(np.trace(C))
    eps = _SPD_FLOOR_REL * tr / d if tr > 0 else _SPD_FLOOR_REL
    return C + eps * np.eye(d)


@dataclass(frozen=True, eq=False)
class LinearGaussianDynamics:
    """Stationary linear-Gaussian dynamics (A, Gamma) with marginal covariance S.

    S must solve the discrete Lyapunov equation S = A S A^T + Gamma; use
    :func:`solve_stationary_covariance` or the :meth:`from_transition`
    constructor rather than guessing it.
    """

    A: np.ndarray
    Gamma: np.ndarray
    S: np.ndarray

    def __post_init__(self):
        A = _readonly(np.atleast_2d(np.asarray(self.A, float)))
        Gamma = _readonly(np.atleast_2d(np.asarray(self.Gamma, float)))
        S = _readonly(np.atleast_2d(np.asarray(self.S, float)))
        d = A.shape[0]
        if A.shape != (d, d) or Gamma.shape != (d, d) or S.shape != (d, d):
            raise ValueError("A, Gamma, S must be square with matching shape")
        radius = spectral_radius(A)
        if radius >= 1.0 - 1e-9:
            raise NonStationary(f"spectral radius {radius:.12g} is not below 1 - 1e-9")
        _require_spd(Gamma, "Gamma")
        _require_spd(S, "S")
        resid = np.linalg.norm(S - A @ S @ A.T - Gamma)
        if resid > 1e-8 * np.linalg.norm(S):
            raise ValueError(
                f"S does not solve S = A S A^T + Gamma (relative residual {resid / np.linalg.norm(S):.3g})"
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "Gamma", Gamma)
        object.__setattr__(self, "S", S)

    @classmethod
    def from_transition(cls, A, Gamma) -> "LinearGaussianDynamics":
        A = np.atleast_2d(np.asarray(A, float))
        Gamma = np.atleast_2d(np.asarray(Gamma, float))
        return cls(A, Gamma, solve_stationary_covariance(A, Gamma))

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @cached_property
    def S_cho(self):
        return scipy.linalg.cho_factor(np.array(self.S), lower=True)

    @cached_property
    def S_inv(self) -> np.ndarray:
        inv = scipy.linalg.cho_solve(self.S_cho, np.eye(self.d))
        return _readonly(0.5 * (inv + inv.T))

    def stationary_belief(self) -> GaussianBelief:
        return GaussianBelief(np.zeros(self.d), self.S)


def solve_stationary_covariance(A, Gamma) -> np.ndarray:
    """Solve S = A S A^T + Gamma for the stationary covariance.

    Raises NonStationary when the spectral radius of A is not below 1 - 1e-9.
    The returned S is symmetrized and satisfies the equation to 1e-10
    relative Frobenius residual (a few refinement sweeps handle the nearly
    unstable corner where the direct solve alone is conditioning-limited).
    """
    A = np.atleast_2d(np.asarray(A, float))
    Gamma = np.atleast_2d(np.asarray(Gamma, float))
    radius = spectral_radius(A)
    if radius >= 1.0 - 1e-9:
        raise NonStationary(f"spectral radius {radius:.12g} is not below 1 - 1e-9")
    _require_spd(Gamma, "Gamma")
    S = scipy.linalg.solve_discrete_lyapunov(A, Gamma)
    S = 0.5 * (S + S.T)
    for _ in range(5):
        resid = A @ S @ A.T + Gamma - S
        if np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(S):
            return S
        delta = scipy.linalg.solve_discrete_lyapunov(A, resid)
        S = 0.5 * (S + S.T + delta + delta.T)
    resid = np.linalg.norm(A @ S @ A.T + Gamma - S) / np.linalg.norm(S)
    raise ArithmeticError(f"stationary covariance refinement stalled at residual {resid:.3g}")


def fit_dynamics(states: np.ndarray) -> LinearGaussianDynamics:
    """Least-squares fit of (A, Gamma, S) from a state trajectory (T, d).

    Its n = T - 1 consecutive pairs give A, the least-squares solution of
    ``z_t ~ A z_{t-1}``, and Gamma, the residual covariance with denominator
    n (floored to SPD); S comes from the Lyapunov solve.
    """
    states = np.asarray(states, float)
    if states.ndim != 2:
        raise ValueError(f"states must be a (T, d) array, got shape {states.shape}")
    prev, nxt = states[:-1], states[1:]
    n, d = prev.shape
    if n < d + 1:
        raise RankDeficient(f"need at least d + 1 = {d + 1} pairs, got {n}")
    if np.linalg.matrix_rank(prev) < d:
        raise RankDeficient("predecessor states do not span the state space")
    coef, *_ = np.linalg.lstsq(prev, nxt, rcond=None)
    A = coef.T
    resid = nxt - prev @ coef
    Gamma = spd_floor(resid.T @ resid / n)
    return LinearGaussianDynamics(A, Gamma, solve_stationary_covariance(A, Gamma))


# ---------------------------------------------------------------------------
# trajectories and synthetic data


@dataclass(frozen=True, eq=False)
class TrajectoryDataset:
    """Aligned latent states (T, d) and observations (T, m) with a train/test split.

    Rows [0, split_index) are the training segment, rows [split_index, T) the
    evaluation segment.  ``lag`` records how observations were shifted against
    states during ingest (0 for synthetic data).
    """

    states: np.ndarray
    observations: np.ndarray
    split_index: int
    lag: int = 0

    def __post_init__(self):
        states = _readonly(np.atleast_2d(np.asarray(self.states, float)))
        obs = _readonly(np.atleast_2d(np.asarray(self.observations, float)))
        if states.ndim != 2 or obs.ndim != 2:
            raise ValueError("states and observations must be 2-d arrays")
        if states.shape[0] != obs.shape[0]:
            raise ValueError(
                f"states have {states.shape[0]} rows but observations have {obs.shape[0]}"
            )
        if states.shape[0] < 2:
            raise ValueError("need at least two time steps")
        if not 0 < self.split_index < states.shape[0]:
            raise ValueError(f"split_index {self.split_index} must lie strictly inside (0, T)")
        if self.lag < 0:
            raise ValueError("lag must be nonnegative")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "observations", obs)

    @property
    def T(self) -> int:
        return self.states.shape[0]

    @property
    def d(self) -> int:
        return self.states.shape[1]

    @property
    def m(self) -> int:
        return self.observations.shape[1]

    @property
    def train_states(self) -> np.ndarray:
        return self.states[: self.split_index]

    @property
    def train_observations(self) -> np.ndarray:
        return self.observations[: self.split_index]

    @property
    def test_states(self) -> np.ndarray:
        return self.states[self.split_index:]

    @property
    def test_observations(self) -> np.ndarray:
        return self.observations[self.split_index:]


def simulate_states(dyn: LinearGaussianDynamics, T: int, rng: RandomSource) -> np.ndarray:
    """Sample a stationary trajectory of length T.

    Draw order (normative): (T, d) standard normals, row-major.  Row 0 maps
    through chol(S) so Z_0 ~ N(0, S); row t maps through chol(Gamma) for the
    innovation of Z_t = A Z_{t-1} + noise.
    """
    if T < 1:
        raise ValueError("T must be positive")
    d = dyn.d
    eps = rng.normals(T * d).reshape(T, d)
    Ls = np.linalg.cholesky(dyn.S)
    Lg = np.linalg.cholesky(dyn.Gamma)
    z = np.empty((T, d))
    z[0] = Ls @ eps[0]
    A = dyn.A
    for t in range(1, T):
        z[t] = A @ z[t - 1] + Lg @ eps[t]
    return z


_AR1_COEFF = 0.9
# stationary variance of z = 0.9 z + N(0,1): 1 / (1 - 0.81)
_AR1_STATIONARY_VAR = 1.0 / 0.19


def ar1_dynamics() -> LinearGaussianDynamics:
    """The d=1 dynamics shared by both synthetic generators: A=0.9, Gamma=1."""
    return LinearGaussianDynamics(
        [[_AR1_COEFF]], [[1.0]], [[_AR1_STATIONARY_VAR]]
    )


def synthetic1_mean(z: np.ndarray, m: int) -> np.ndarray:
    """Noise-free channel means arctan(z / k), k = 1..m, for scalar or vector z."""
    z = np.asarray(z, float)
    k = np.arange(1, m + 1, dtype=float)
    return np.arctan(z[..., None] / k)

def synthetic2_mean(z: np.ndarray) -> np.ndarray:
    """Noise-free two-channel means (|z|, sign(z)); sign(0) = 0."""
    z = np.asarray(z, float)
    return np.stack([np.abs(z), np.sign(z)], axis=-1)


def generate_synthetic1(T: int, m: int, rng: RandomSource) -> TrajectoryDataset:
    """Scalar AR(1) state observed through m arctan channels with mixture noise.

    Z_t = 0.9 Z_{t-1} + N(0,1), Z_0 ~ N(0, 1/0.19);
    X_tk = arctan(Z_t / k) + pi * zeta_tk + 0.2 * theta_tk
    with zeta uniform on {-1, 0, 1} and theta standard normal.

    Draw order (normative): T state normals first, then T*m ternary values
    row-major over (t, k), then T*m observation normals row-major.
    split_index = T // 2.
    """
    if T < 2:
        raise ValueError("T must be at least 2")
    if m < 1:
        raise ValueError("m must be positive")
    z = simulate_states(ar1_dynamics(), T, rng)[:, 0]
    zeta = rng.ternary(T * m).reshape(T, m)
    theta = rng.normals(T * m).reshape(T, m)
    x = synthetic1_mean(z, m) + math.pi * zeta + 0.2 * theta
    return TrajectoryDataset(z[:, None], x, split_index=T // 2)


def generate_synthetic2(T: int, rng: RandomSource) -> TrajectoryDataset:
    """Scalar AR(1) state observed through (|z|, sign(z)) with N(0, 0.01) noise.

    Draw order (normative): T state normals first, then T*2 observation
    normals row-major.  split_index = T // 2.
    """
    if T < 2:
        raise ValueError("T must be at least 2")
    z = simulate_states(ar1_dynamics(), T, rng)[:, 0]
    theta = rng.normals(T * 2).reshape(T, 2)
    x = synthetic2_mean(z) + 0.1 * theta
    return TrajectoryDataset(z[:, None], x, split_index=T // 2)


# ---------------------------------------------------------------------------
# dataset files


def save_dataset(ds: TrajectoryDataset, path, seed: int | None = None) -> None:
    """Write a dataset as CSV (t, z_1..z_d, x_1..x_m) plus a key=value sidecar.

    Floats use 17 significant digits so ``bench.ingest_csv`` reads the values
    back bit-exactly.  The sidecar at <path>.meta is a provenance record that
    nothing reads: d, m, split_index, lag, and optionally the generator seed.
    """
    path = Path(path)
    header = (
        ["t"]
        + [f"z_{i}" for i in range(1, ds.d + 1)]
        + [f"x_{j}" for j in range(1, ds.m + 1)]
    )
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for t in range(ds.T):
            vals = [str(t)]
            vals += [f"{v:.17g}" for v in ds.states[t]]
            vals += [f"{v:.17g}" for v in ds.observations[t]]
            fh.write(",".join(vals) + "\n")
    lines = [
        f"d={ds.d}",
        f"m={ds.m}",
        f"split_index={ds.split_index}",
        f"lag={ds.lag}",
    ]
    if seed is not None:
        lines.append(f"seed={seed}")
    Path(str(path) + ".meta").write_text("\n".join(lines) + "\n")

