"""Benchmark harness: data prep, model fitting, filter evaluation, reporting.

A benchmark run is a grid of (filter, trial) cells.  Each trial gets its own
dataset (generated with seed + trial, or a disjoint block of a CSV file);
within a trial every requested filter is fit on the training half and scored
on the test half by normalized MSE.  Cells fail independently: an error in
one fit or filter pass is recorded on that cell and the rest proceed.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .filters import (
    FilterStats,
    GenerativeObservationModel,
    UkfParameters,
    run_filter,
)
from .regression import (
    FORMAT_VERSION,
    SPEC_FIELDS,
    QEstimate,
    build_dkf_variant,
    check_payload,
    fitted_observation,
    mlp_fit,
    mlp_predict,
    model_from_dict,
    model_to_dict,
)
from .statespace import (
    GaussianBelief,
    LinearGaussianDynamics,
    RandomSource,
    TrajectoryDataset,
    fit_dynamics,
    generate_synthetic1,
    generate_synthetic2,
    spd_floor,
)

__all__ = [
    "ZeroVariance",
    "SchemaMismatch",
    "NonFinite",
    "EmptyAfterLag",
    "FILTER_NAMES",
    "BenchmarkConfig",
    "TrialResult",
    "MetricReport",
    "normalized_mse",
    "ingest_csv",
    "fit_linear_observation",
    "fit_mlp_observation",
    "fit_cell",
    "run_cell",
    "run_benchmark",
    "emit_report",
    "emit_trace",
    "save_model_bundle",
    "load_model_bundle",
]


class ZeroVariance(Exception):
    """Test-segment states have no variance; normalized MSE is undefined."""


class SchemaMismatch(Exception):
    """CSV columns do not match the declared or inferred layout."""


class NonFinite(Exception):
    """A CSV value failed the finiteness check; carries the data row index."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class EmptyAfterLag(Exception):
    """No usable aligned rows remain after applying the lag and split."""


FILTER_NAMES = ("kalman", "ekf", "ukf", "dkf-gp", "dkf-gp-freq", "dkf-nn")

# fixed purpose tags so each cell's random stream is independent of which
# other filters were requested
_PURPOSE = {"ekf": 11, "ukf": 11, "dkf-gp": 12, "dkf-gp-freq": 13, "dkf-nn": 14}

# The UKF baseline is fitted with the tight scaled sigma-point spread (the other
# classic default).  The wide Julier spread that UkfParameters defaults to
# straddles sharp features of a learned sensor map and absorbs them into the
# innovation covariance, so the filter stays well behaved; the tight spread
# degenerates to local linearization, which is the brittle baseline behavior
# this harness is meant to expose alongside the EKF.
UKF_BENCH_PARAMS = UkfParameters(alpha=1e-3, beta=2.0, kappa=0.0)


@dataclass(frozen=True)
class BenchmarkConfig:
    dataset: str = "syn1"
    csv_path: str | None = None
    d: int | None = None
    m: int = 5
    T: int = 10_000
    trials: int = 5
    filters: tuple[str, ...] = FILTER_NAMES
    seed: int = 0
    lag: int = 0
    gp_subsample_cap: int = 1000
    split_fraction: float = 0.5

    def __post_init__(self):
        if self.dataset not in ("syn1", "syn2", "csv"):
            raise ValueError(f"unknown dataset {self.dataset!r}")
        if self.dataset == "csv" and not self.csv_path:
            raise ValueError("dataset 'csv' needs csv_path")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if not self.filters:
            raise ValueError("no filters requested")
        unknown = [f for f in self.filters if f not in FILTER_NAMES]
        if unknown:
            raise ValueError(f"unknown filters {unknown}; valid: {list(FILTER_NAMES)}")
        if not 0.0 < self.split_fraction < 1.0:
            raise ValueError("split_fraction must lie in (0, 1)")
        if self.lag < 0:
            raise ValueError("lag must be nonnegative")
        object.__setattr__(self, "filters", tuple(self.filters))


@dataclass
class TrialResult:
    filter_name: str
    trial: int
    nmse: float | None
    means: np.ndarray | None = None
    fit_seconds: float = 0.0
    filter_seconds: float = 0.0
    error: str | None = None


@dataclass
class MetricReport:
    config: BenchmarkConfig
    results: list[TrialResult] = field(default_factory=list)
    warnings: dict[str, int] = field(default_factory=dict)

    def cells(self, filter_name: str) -> list[TrialResult]:
        return [r for r in self.results if r.filter_name == filter_name]

    def average(self, filter_name: str) -> float:
        vals = [r.nmse for r in self.cells(filter_name) if r.nmse is not None]
        if not vals:
            return float("nan")
        return float(np.mean(vals))


def normalized_mse(predicted: np.ndarray, truth: np.ndarray) -> float:
    """Mean squared error over time, divided by the summed per-dim population
    variance of the truth.  Predicting the truth's own mean gives exactly 1.
    """
    predicted = np.atleast_2d(np.asarray(predicted, float))
    truth = np.atleast_2d(np.asarray(truth, float))
    if predicted.shape != truth.shape:
        raise ValueError(f"shape mismatch {predicted.shape} vs {truth.shape}")
    if not np.all(np.isfinite(predicted)) or not np.all(np.isfinite(truth)):
        raise ValueError("normalized_mse needs finite inputs")
    denom = float(truth.var(axis=0).sum())
    if denom <= 0.0:
        raise ZeroVariance("truth trajectory has zero variance")
    mse = float(((predicted - truth) ** 2).sum(axis=1).mean())
    return mse / denom


# ---------------------------------------------------------------------------
# CSV ingest


def ingest_csv(
    path,
    *,
    d: int | None = None,
    m: int | None = None,
    lag: int = 0,
    split_fraction: float = 0.5,
    split_index: int | None = None,
) -> TrajectoryDataset:
    """Read aligned (state, observation) rows from a CSV file.

    With a header the layout t, z_1..z_d, x_1..x_m is inferred from the
    column names; headerless files use the same column order and require d
    and m.  A positive lag pairs z_t with x_{t+lag}: the first lag
    observations and last lag states drop out.  The split index defaults to
    floor(split_fraction * aligned length).
    """
    path = Path(path)
    with path.open() as fh:
        first = fh.readline()
        if not first.strip():
            raise SchemaMismatch(f"{path} is empty")
        tokens = [t.strip() for t in first.strip().split(",")]
        has_header = False
        try:
            [float(t) for t in tokens]
        except ValueError:
            has_header = True
        if has_header:
            n_z = sum(1 for t in tokens if t.startswith("z_"))
            n_x = sum(1 for t in tokens if t.startswith("x_"))
            expected = (
                ["t"]
                + [f"z_{i}" for i in range(1, n_z + 1)]
                + [f"x_{j}" for j in range(1, n_x + 1)]
            )
            if n_z == 0 or n_x == 0 or tokens != expected:
                raise SchemaMismatch(f"unrecognized header {tokens!r}")
            d, m = n_z, n_x
            raw_rows = []
        else:
            if d is None or m is None:
                raise SchemaMismatch("headerless CSV needs explicit d and m")
            raw_rows = [tokens]
        width = 1 + d + m
        for line in fh:
            line = line.strip()
            if not line:
                continue
            raw_rows.append(line.split(","))
    for i, row in enumerate(raw_rows):
        if len(row) != width:
            raise SchemaMismatch(
                f"row {i} has {len(row)} columns, expected {width} (t + {d} states + {m} observations)"
            )
    try:
        data = np.asarray(raw_rows, float)
    except ValueError:
        for i, row in enumerate(raw_rows):
            for tok in row:
                try:
                    float(tok)
                except ValueError:
                    raise NonFinite(f"row {i}: unparseable value {tok!r}", row=i) from None
        raise
    if data.size == 0:
        raise EmptyAfterLag("no data rows")
    bad = ~np.isfinite(data)
    if bad.any():
        row = int(np.argwhere(bad)[0, 0])
        raise NonFinite(f"row {row} contains a non-finite value", row=row)
    states = data[:, 1 : 1 + d]
    obs = data[:, 1 + d : 1 + d + m]
    if lag < 0:
        raise ValueError("lag must be nonnegative")
    if lag > 0:
        states = states[:-lag]
        obs = obs[lag:]
    n = states.shape[0]
    if n < 2:
        raise EmptyAfterLag(f"only {n} aligned rows remain after lag {lag}")
    if split_index is None:
        split_index = int(split_fraction * n)
    if not 0 < split_index < n:
        raise EmptyAfterLag(
            f"split at {split_index} leaves an empty segment ({n} aligned rows)"
        )
    return TrajectoryDataset(states, obs, split_index=split_index, lag=lag)


# ---------------------------------------------------------------------------
# observation-model fits for the baselines


def fit_linear_observation(Z: np.ndarray, X: np.ndarray) -> GenerativeObservationModel:
    """Affine least squares x ~ H z + offset with SPD-floored residual covariance."""
    Z = np.atleast_2d(np.asarray(Z, float))
    X = np.atleast_2d(np.asarray(X, float))
    z_mean = Z.mean(axis=0)
    x_mean = X.mean(axis=0)
    coef, *_ = np.linalg.lstsq(Z - z_mean, X - x_mean, rcond=None)
    H = coef.T
    offset = x_mean - H @ z_mean
    resid = X - (Z @ coef + offset)
    Lam = spd_floor(resid.T @ resid / X.shape[0])
    return fitted_observation({"kind": "kalman", "H": H, "Lambda": Lam, "offset": offset})


def fit_mlp_observation(
    Z: np.ndarray, X: np.ndarray, rng: RandomSource, kind: str = "ekf"
) -> GenerativeObservationModel:
    """Network fit of the forward map h: states -> observations for EKF/UKF.

    Lambda comes from residuals on the network's holdout partition
    (denominator n, SPD-floored); the Jacobian is left to finite differences.
    A ukf model also carries the UKF_BENCH_PARAMS sigma-point spread.
    """
    mlp = mlp_fit(Z, X, rng)
    hold = mlp.holdout_indices
    resid = X[hold] - mlp_predict(mlp, Z[hold], batch=True)
    spec = {"kind": kind, "model": mlp, "Lambda": spd_floor(resid.T @ resid / hold.shape[0])}
    if kind == "ukf":
        spec["ukf_params"] = UKF_BENCH_PARAMS
    return fitted_observation(spec)


# ---------------------------------------------------------------------------
# cells


@dataclass(frozen=True, eq=False)
class FittedCell:
    """Everything needed to run one filter: dynamics plus observation model."""

    filter_name: str
    dyn: LinearGaussianDynamics
    obs: object


def fit_cell(
    filter_name: str,
    dataset: TrajectoryDataset,
    rng: RandomSource,
    dyn: LinearGaussianDynamics | None = None,
    gp_subsample_cap: int = 1000,
) -> FittedCell:
    """Fit the models one filter needs, using only the training segment.

    rng must be the trial-level source; each filter family derives a fixed
    child stream so cells stay reproducible independently of one another.
    """
    if dyn is None:
        dyn = fit_dynamics(dataset.train_states)
    Z = dataset.train_states
    X = dataset.train_observations
    if filter_name == "kalman":
        obs = fit_linear_observation(Z, X)
    elif filter_name in ("ekf", "ukf"):
        obs = fit_mlp_observation(Z, X, rng.derive(_PURPOSE[filter_name]), filter_name)
    elif filter_name in ("dkf-gp", "dkf-gp-freq", "dkf-nn"):
        obs = build_dkf_variant(
            filter_name, dataset, rng.derive(_PURPOSE[filter_name]), gp_subsample_cap
        )
    else:
        raise ValueError(f"unknown filter {filter_name!r}")
    return FittedCell(filter_name, dyn, obs)


def run_cell(
    cell: FittedCell, dataset: TrajectoryDataset, stats: FilterStats | None = None
) -> list[GaussianBelief]:
    """Decode the test segment with the recursion the cell's filter runs on."""
    kind = "dkf" if cell.filter_name.startswith("dkf") else cell.filter_name
    return run_filter(kind, dataset, cell.dyn, cell.obs, stats=stats)


def _trial_dataset(config: BenchmarkConfig, trial: int, csv_full: TrajectoryDataset | None):
    if config.dataset == "syn1":
        return generate_synthetic1(config.T, config.m, RandomSource(config.seed + trial))
    if config.dataset == "syn2":
        return generate_synthetic2(config.T, RandomSource(config.seed + trial))
    # csv: trial i works on the i-th of `trials` disjoint contiguous blocks
    n = csv_full.T
    block = n // config.trials
    if block < 4:
        raise EmptyAfterLag(
            f"{n} aligned rows cannot support {config.trials} trials (block {block} < 4)"
        )
    lo = trial * block
    states = csv_full.states[lo : lo + block]
    obs = csv_full.observations[lo : lo + block]
    split = int(config.split_fraction * block)
    if not 0 < split < block:
        raise EmptyAfterLag(f"split at {split} leaves an empty segment in a {block}-row block")
    return TrajectoryDataset(states, obs, split_index=split, lag=csv_full.lag)


def run_benchmark(config: BenchmarkConfig) -> MetricReport:
    """Fit and score every (filter, trial) cell; cells fail independently."""
    report = MetricReport(config=config)
    totals = FilterStats()
    csv_full = None
    if config.dataset == "csv":
        csv_full = ingest_csv(
            config.csv_path,
            d=config.d,
            m=config.m,
            lag=config.lag,
            split_fraction=config.split_fraction,
        )
    for trial in range(config.trials):
        try:
            ds = _trial_dataset(config, trial, csv_full)
            dyn = fit_dynamics(ds.train_states)
        except Exception as exc:
            for name in config.filters:
                report.results.append(
                    TrialResult(name, trial, None, error=f"{type(exc).__name__}: {exc}")
                )
            continue
        trial_rng = RandomSource(config.seed + trial)
        for name in config.filters:
            t0 = time.perf_counter()
            try:
                cell = fit_cell(name, ds, trial_rng, dyn=dyn, gp_subsample_cap=config.gp_subsample_cap)
                t1 = time.perf_counter()
                stats = FilterStats()
                means = np.asarray([b.mean for b in run_cell(cell, ds, stats)])
                t2 = time.perf_counter()
                nmse = normalized_mse(means, ds.test_states)
                totals.merge(stats)
                report.results.append(
                    TrialResult(
                        name, trial, nmse, means=means, fit_seconds=t1 - t0, filter_seconds=t2 - t1
                    )
                )
            except Exception as exc:
                report.results.append(
                    TrialResult(
                        name,
                        trial,
                        None,
                        fit_seconds=time.perf_counter() - t0,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
    report.warnings = {
        "q_regularized": totals.q_regularized,
        "prior_term_dropped": totals.prior_term_dropped,
    }
    return report


# ---------------------------------------------------------------------------
# reporting


def _config_line(config: BenchmarkConfig) -> str:
    parts = [
        f"dataset={config.dataset}",
        f"T={config.T}",
        f"m={config.m}",
        f"trials={config.trials}",
        f"seed={config.seed}",
        f"split_fraction={config.split_fraction}",
    ]
    if config.dataset == "csv":
        parts.insert(1, f"csv_path={config.csv_path}")
        parts.append(f"lag={config.lag}")
    return " ".join(parts)


def emit_report(report: MetricReport, format: str = "table") -> str:
    """Serialize a report as an aligned text table or as CSV.

    CSV cells carry 17 significant digits so the emitted averages can be
    recomputed exactly from the emitted trial cells; failed cells are empty
    in CSV and 'fail' in the table.
    """
    trials = report.config.trials
    header = ["filter"] + [f"trial#{i + 1}" for i in range(trials)] + ["avg"]
    rows = []
    for name in report.config.filters:
        by_trial = {r.trial: r for r in report.cells(name)}
        cells = []
        for i in range(trials):
            r = by_trial.get(i)
            cells.append(r.nmse if r is not None else None)
        rows.append((name, cells, report.average(name)))
    if format == "csv":
        lines = [",".join(header)]
        for name, cells, avg in rows:
            vals = ["" if c is None else f"{c:.17g}" for c in cells]
            vals.append("" if np.isnan(avg) else f"{avg:.17g}")
            lines.append(",".join([name] + vals))
        return "\n".join(lines) + "\n"
    if format != "table":
        raise ValueError(f"unknown report format {format!r}")
    widths = [max(len(h), 12) for h in header]
    def fmt_row(cells):
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))
    lines = ["# " + _config_line(report.config), fmt_row(header)]
    for name, cells, avg in rows:
        vals = ["fail" if c is None else f"{c:.3f}" for c in cells]
        vals.append("nan" if np.isnan(avg) else f"{avg:.3f}")
        lines.append(fmt_row([name] + vals))
    warn = report.warnings or {}
    lines.append(
        "# warnings: "
        + " ".join(f"{k}={v}" for k, v in warn.items())
    )
    errors = [r for r in report.results if r.error]
    for r in errors:
        lines.append(f"# error {r.filter_name} trial#{r.trial + 1}: {r.error}")
    return "\n".join(lines) + "\n"


def emit_trace(beliefs: list[GaussianBelief], truth: np.ndarray, path) -> None:
    """Write per-step truth, posterior mean, and marginal sd as CSV."""
    truth = np.asarray(truth, float)
    if truth.ndim == 1:
        truth = truth[:, None]
    if len(beliefs) != truth.shape[0]:
        raise ValueError(f"{len(beliefs)} beliefs but {truth.shape[0]} truth rows")
    d = beliefs[0].d if beliefs else truth.shape[1]
    header = (
        ["t"]
        + [f"truth_{i}" for i in range(1, d + 1)]
        + [f"mean_{i}" for i in range(1, d + 1)]
        + [f"sd_{i}" for i in range(1, d + 1)]
    )
    with Path(path).open("w") as fh:
        fh.write(",".join(header) + "\n")
        for t, b in enumerate(beliefs):
            sd = np.sqrt(np.diag(b.covariance))
            vals = [str(t)]
            vals += [f"{v:.17g}" for v in truth[t]]
            vals += [f"{v:.17g}" for v in b.mean]
            vals += [f"{v:.17g}" for v in sd]
            fh.write(",".join(vals) + "\n")


# ---------------------------------------------------------------------------
# fitted-model files


# How spec fields go to and come from bundle JSON; other fields are arrays.
# The regressor is stored as h_model (ekf/ukf forward map) or f_model (DKF
# mean), and q as its matrix under Q.
_ENCODE = {"model": model_to_dict, "q": lambda q: q.matrix.tolist(), "ukf_params": asdict}
_DECODE = {"model": model_from_dict, "q": QEstimate, "ukf_params": lambda p: UkfParameters(**p)}
_FIELD = {"h_model": "model", "f_model": "model", "Q": "q"}


def save_model_bundle(cell: FittedCell, path) -> None:
    """JSON bundle from which the exact filter setup can be reloaded: the
    dynamics and the spec the observation model was built from (its meta)."""
    name = cell.filter_name
    spec = getattr(cell.obs, "meta", None) or {}
    if spec.get("kind") != name:
        raise ValueError(f"{name} bundles need an observation model built by fitted_observation")
    keys = {"model": "f_model" if name.startswith("dkf") else "h_model", "q": "Q"}
    dyn = cell.dyn
    payload = {
        "format_version": FORMAT_VERSION,
        "filter": name,
        "dynamics": {
            "A": dyn.A.tolist(),
            "Gamma": dyn.Gamma.tolist(),
            "S": dyn.S.tolist(),
        },
        "observation": {
            keys.get(field, field): _ENCODE.get(field, lambda v: np.asarray(v).tolist())(spec[field])
            for field in SPEC_FIELDS[name]
        },
    }
    Path(path).write_text(json.dumps(payload) + "\n")


def load_model_bundle(path) -> FittedCell:
    payload = json.loads(Path(path).read_text())
    check_payload(payload, "model bundle", ("filter", "dynamics", "observation"))
    dyn_spec = payload["dynamics"]
    dyn = LinearGaussianDynamics(dyn_spec["A"], dyn_spec["Gamma"], dyn_spec["S"])
    name = payload["filter"]
    spec = {"kind": name}
    for key, value in payload["observation"].items():
        field = _FIELD.get(key, key)
        spec[field] = _DECODE.get(field, lambda v: np.asarray(v, float))(value)
    return FittedCell(name, dyn, fitted_observation(spec))
