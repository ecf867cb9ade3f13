"""Brute-force d=1 filtering by trapezoid quadrature on a fixed grid.

Ground truth for the closed-form recursions: represent the posterior density
on a dense grid, push it through the scalar transition kernel by explicit
integration, multiply by the observation factor, renormalize.  Slow on
purpose; only correctness matters here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .filters import DiscriminativeObservationModel, GenerativeObservationModel
from .statespace import LinearGaussianDynamics, _readonly

__all__ = [
    "DegenerateDensity",
    "GridSpec",
    "GridDensity",
    "stationary_grid",
    "transition_matrix",
    "grid_step_generative",
    "grid_step_discriminative",
    "grid_moments",
    "grid_filter_run",
]


class DegenerateDensity(Exception):
    """Unnormalized density mass underflowed to zero on the grid."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform quadrature grid on [lower, upper] with trapezoid weights."""

    lower: float
    upper: float
    points: int = 4000

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError("grid needs lower < upper")
        if self.points < 16:
            raise ValueError("grid needs at least 16 points")

    @cached_property
    def nodes(self) -> np.ndarray:
        return _readonly(np.linspace(self.lower, self.upper, self.points))

    @cached_property
    def weights(self) -> np.ndarray:
        h = (self.upper - self.lower) / (self.points - 1)
        w = np.full(self.points, h)
        w[0] = w[-1] = 0.5 * h
        return _readonly(w)


def stationary_grid(S: float, points: int = 4000, half_width: float = 8.0) -> GridSpec:
    """Grid covering +/- half_width stationary standard deviations."""
    s = math.sqrt(float(np.atleast_2d(S)[0, 0]))
    return GridSpec(-half_width * s, half_width * s, points)


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Nonnegative values on a grid, trapezoid-normalized to unit mass."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, float)
        if vals.shape != (self.grid.points,):
            raise ValueError(f"values shape {vals.shape} does not match grid {self.grid.points}")
        if not np.all(np.isfinite(vals)):
            raise DegenerateDensity("density values are not finite")
        if vals.min() < 0:
            raise ValueError("density values must be nonnegative")
        mass = float(self.grid.weights @ vals)
        if mass <= 0.0:
            raise DegenerateDensity("density mass underflowed to zero")
        object.__setattr__(self, "values", _readonly(vals / mass))

    def mass(self) -> float:
        return float(self.grid.weights @ self.values)


def gaussian_grid_density(grid: GridSpec, mean: float, var: float) -> GridDensity:
    if var <= 0:
        raise ValueError("variance must be positive")
    z = grid.nodes
    vals = np.exp(-0.5 * (z - mean) ** 2 / var) / math.sqrt(2.0 * math.pi * var)
    return GridDensity(grid, vals)


def transition_matrix(dyn: LinearGaussianDynamics, grid: GridSpec) -> np.ndarray:
    """Kernel K[i, j] = N(z_i ; a z_j, gamma) for the scalar transition.

    Precompute once per (dyn, grid) and pass to the step functions; building
    it is the expensive part of a grid run.
    """
    if dyn.d != 1:
        raise ValueError("grid oracle only supports d = 1")
    a = float(dyn.A[0, 0])
    gamma = float(dyn.Gamma[0, 0])
    z = grid.nodes
    diff = z[:, None] - a * z[None, :]
    diff *= diff
    diff /= -2.0 * gamma
    np.exp(diff, out=diff)
    diff /= math.sqrt(2.0 * math.pi * gamma)
    return diff


def _predict_density(
    prior: GridDensity, dyn: LinearGaussianDynamics, trans: np.ndarray | None
) -> np.ndarray:
    if trans is None:
        trans = transition_matrix(dyn, prior.grid)
    return trans @ (prior.grid.weights * prior.values)


def grid_step_generative(
    prior: GridDensity,
    x: np.ndarray,
    dyn: LinearGaussianDynamics,
    obs,
    trans: np.ndarray | None = None,
) -> GridDensity:
    """One predict/update sweep with an explicit likelihood.

    obs is a GenerativeObservationModel, or a callable mapping the grid nodes
    to likelihood values p(x | z) for the fixed x (already vectorized).
    """
    pred = _predict_density(prior, dyn, trans)
    z = prior.grid.nodes
    if isinstance(obs, GenerativeObservationModel):
        x = np.atleast_1d(np.asarray(x, float))
        resid = x[None, :] - obs.h(z[:, None])
        cL = scipy.linalg.cho_factor(np.array(obs.Lambda), lower=True)
        white = scipy.linalg.cho_solve(cL, resid.T)
        log_lik = -0.5 * np.einsum("ij,ij->j", resid.T, white)
    elif callable(obs):
        lik = np.asarray(obs(z), float)
        if lik.min() < 0:
            raise ValueError("likelihood values must be nonnegative")
        with np.errstate(divide="ignore"):
            log_lik = np.log(lik)
    else:
        raise TypeError("obs must be a GenerativeObservationModel or a callable")
    return _combine(prior.grid, log_lik, pred)


def grid_step_discriminative(
    prior: GridDensity,
    f_val: float,
    q_val: float,
    dyn: LinearGaussianDynamics,
    trans: np.ndarray | None = None,
) -> GridDensity:
    """One sweep using the density ratio N(z; f, q) / N(z; 0, S) as the factor.

    Requires 0 < q < S so the ratio is integrable against the prediction.
    """
    S = float(dyn.S[0, 0])
    if not 0.0 < q_val < S:
        raise ValueError(f"need 0 < q < S = {S:.6g}, got q = {q_val:.6g}")
    pred = _predict_density(prior, dyn, trans)
    z = prior.grid.nodes
    # log of N(z; f, q) / N(z; 0, S), constants kept for numeric symmetry
    log_ratio = (
        -0.5 * (z - f_val) ** 2 / q_val
        + 0.5 * z ** 2 / S
        + 0.5 * math.log(S / q_val)
    )
    return _combine(prior.grid, log_ratio, pred)


def _combine(grid: GridSpec, log_factor: np.ndarray, pred: np.ndarray) -> GridDensity:
    with np.errstate(divide="ignore"):
        log_post = log_factor + np.log(pred)
    peak = np.max(log_post)
    if not np.isfinite(peak):
        raise DegenerateDensity("posterior mass underflowed on the whole grid")
    return GridDensity(grid, np.exp(log_post - peak))


def grid_moments(density: GridDensity) -> tuple[float, float]:
    """Trapezoid mean and variance of a normalized grid density."""
    z = density.grid.nodes
    w = density.grid.weights * density.values
    mean = float(w @ z)
    var = float(w @ (z - mean) ** 2)
    return mean, var


def grid_filter_run(
    observations,
    dyn: LinearGaussianDynamics,
    model,
    grid: GridSpec | None = None,
) -> list[tuple[float, float]]:
    """Full filtering pass on the grid; returns (mean, var) per step.

    model is a DiscriminativeObservationModel (f and Q evaluated once on
    all observations) or a GenerativeObservationModel (h evaluated once per
    step on the grid nodes).  The prior is the stationary N(0, S).
    """
    if dyn.d != 1:
        raise ValueError("grid oracle only supports d = 1")
    S = float(dyn.S[0, 0])
    grid = grid or stationary_grid(S)
    trans = transition_matrix(dyn, grid)
    density = gaussian_grid_density(grid, 0.0, S)
    out: list[tuple[float, float]] = []
    if isinstance(model, DiscriminativeObservationModel):
        X = np.asarray(observations, float).reshape(len(observations), -1)
        F, Qs = model.f(X)[:, 0], model.Q(X)[:, 0, 0]
    for t, x in enumerate(observations):
        if isinstance(model, DiscriminativeObservationModel):
            density = grid_step_discriminative(density, float(F[t]), float(Qs[t]), dyn, trans)
        else:
            density = grid_step_generative(density, x, dyn, model, trans)
        out.append(grid_moments(density))
    return out
