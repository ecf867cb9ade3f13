"""Command-line entry points: simulate, fit, run, bench, oracle-check.

Flags can also come from a key=value config file (--config); explicit flags
win over the file, the file wins over defaults.  Errors print one JSON line
to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bench import (
    FILTER_NAMES,
    BenchmarkConfig,
    emit_report,
    emit_trace,
    fit_cell,
    ingest_csv,
    load_model_bundle,
    run_benchmark,
    run_cell,
    save_model_bundle,
)
from .filters import DiscriminativeObservationModel, dkf_step
from .oracle import grid_filter_run, stationary_grid
from .statespace import (
    LinearGaussianDynamics,
    RandomSource,
    generate_synthetic1,
    generate_synthetic2,
    save_dataset,
)

__all__ = ["main", "build_parser"]

# the allowed values of a flag, also enforced on config-file values
_CHOICES = {"dataset": ("syn1", "syn2", "csv"), "format": ("csv", "table")}


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", choices=_CHOICES["dataset"], help="data source")
    p.add_argument("--csv-path", help="CSV file for --dataset csv")
    p.add_argument("--d", type=int, help="state dimension (headerless CSV only)")
    p.add_argument("--m", type=int, help="observation dimension (syn1 channels / headerless CSV)")
    p.add_argument("--T", type=int, help="trajectory length for synthetic data")
    p.add_argument("--seed", type=int, help="base seed")
    p.add_argument("--lag", type=int, help="pair z_t with x_(t+lag) during CSV ingest")
    p.add_argument("--split-fraction", type=float, help="training fraction of each trajectory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dkf", description="discriminative Kalman filtering benchmarks"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset CSV")
    _add_data_flags(p_sim)
    p_sim.add_argument("--out", help="output CSV path (sidecar written alongside)")
    p_sim.add_argument("--config", help="key=value config file")

    p_fit = sub.add_parser("fit", help="fit filter models on the training half")
    _add_data_flags(p_fit)
    p_fit.add_argument("--filters", help="comma-separated subset of " + ",".join(FILTER_NAMES))
    p_fit.add_argument("--gp-cap", type=int, help="GP training-row cap")
    p_fit.add_argument("--out", help="directory for model bundles")
    p_fit.add_argument("--config", help="key=value config file")

    p_run = sub.add_parser("run", help="run one fitted filter and write a trace")
    _add_data_flags(p_run)
    p_run.add_argument("--model", help="model bundle from `dkf fit`")
    p_run.add_argument("--out", help="trace CSV path")
    p_run.add_argument("--config", help="key=value config file")

    p_bench = sub.add_parser("bench", help="full (filter x trial) benchmark")
    _add_data_flags(p_bench)
    p_bench.add_argument("--filters", help="comma-separated subset of " + ",".join(FILTER_NAMES))
    p_bench.add_argument("--trials", type=int, help="number of trials")
    p_bench.add_argument("--gp-cap", type=int, help="GP training-row cap")
    p_bench.add_argument("--format", choices=_CHOICES["format"], help="report format")
    p_bench.add_argument("--out", help="report path (stdout when omitted)")
    p_bench.add_argument("--config", help="key=value config file")

    p_oracle = sub.add_parser(
        "oracle-check", help="compare the closed-form d=1 recursion against grid integration"
    )
    p_oracle.add_argument("--seed", type=int, help="base seed")
    p_oracle.add_argument("--trials", type=int, help="number of random configurations")
    p_oracle.add_argument("--T", type=int, help="steps per configuration")
    p_oracle.add_argument("--points", type=int, help="grid points")
    p_oracle.add_argument("--config", help="key=value config file")
    return parser


_DEFAULTS = {
    "simulate": {"dataset": "syn1", "T": 10_000, "m": 5, "seed": 0, "split_fraction": 0.5,
                 "lag": 0, "csv_path": None, "d": None, "out": None},
    "fit": {"dataset": "syn1", "T": 10_000, "m": 5, "seed": 0, "split_fraction": 0.5,
            "lag": 0, "csv_path": None, "d": None, "filters": "kalman", "gp_cap": 1000,
            "out": None},
    "run": {"dataset": "syn1", "T": 10_000, "m": 5, "seed": 0, "split_fraction": 0.5,
            "lag": 0, "csv_path": None, "d": None, "model": None, "out": None},
    "bench": {"dataset": "syn1", "T": 10_000, "m": 5, "seed": 0, "split_fraction": 0.5,
              "lag": 0, "csv_path": None, "d": None, "filters": ",".join(FILTER_NAMES),
              "trials": 5, "gp_cap": 1000, "format": "table", "out": None},
    "oracle-check": {"seed": 0, "trials": 5, "T": 50, "points": 4000},
}

_CONFIG_TYPES = {
    "dataset": str, "csv_path": str, "d": int, "m": int, "T": int, "seed": int,
    "lag": int, "split_fraction": float, "filters": str, "gp_cap": int,
    "trials": int, "format": str, "out": str, "model": str, "points": int,
}


def _load_config_file(path: str) -> dict:
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if not sep or key not in _CONFIG_TYPES:
            raise ValueError(f"{path}:{lineno}: cannot parse {line!r}")
        cast = _CONFIG_TYPES[key]
        try:
            out[key] = cast(value.strip())
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: {key} must be {cast.__name__}, got {value.strip()!r}"
            ) from None
        if key in _CHOICES and out[key] not in _CHOICES[key]:
            choices = ", ".join(_CHOICES[key])
            raise ValueError(f"{path}:{lineno}: {key} must be one of {choices}, got {out[key]!r}")
    return out


def _merge_options(command: str, args: argparse.Namespace) -> dict:
    opts = dict(_DEFAULTS[command])
    config_path = getattr(args, "config", None)
    if config_path:
        for key, value in _load_config_file(config_path).items():
            if key in opts:
                opts[key] = value
    for key in opts:
        given = getattr(args, key, None)
        if given is not None:
            opts[key] = given
    return opts


def _dataset_from_options(opts: dict):
    if opts["dataset"] == "syn1":
        return generate_synthetic1(opts["T"], opts["m"], RandomSource(opts["seed"]))
    if opts["dataset"] == "syn2":
        return generate_synthetic2(opts["T"], RandomSource(opts["seed"]))
    return ingest_csv(
        opts["csv_path"],
        d=opts["d"],
        m=opts["m"] if opts["d"] is not None else None,
        lag=opts["lag"],
        split_fraction=opts["split_fraction"],
    )


def _cmd_simulate(opts: dict) -> int:
    if not opts["out"]:
        raise ValueError("simulate needs --out")
    if opts["dataset"] == "csv":
        raise ValueError("simulate generates synthetic data; use syn1 or syn2")
    ds = _dataset_from_options(opts)
    save_dataset(ds, opts["out"], seed=opts["seed"])
    print(f"wrote {ds.T} rows (d={ds.d}, m={ds.m}) to {opts['out']}")
    return 0


def _cmd_fit(opts: dict) -> int:
    if not opts["out"]:
        raise ValueError("fit needs --out (a directory)")
    ds = _dataset_from_options(opts)
    out_dir = Path(opts["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    names = [f.strip() for f in opts["filters"].split(",") if f.strip()]
    rng = RandomSource(opts["seed"])
    for name in names:
        cell = fit_cell(name, ds, rng, gp_subsample_cap=opts["gp_cap"])
        path = out_dir / f"{name}.json"
        save_model_bundle(cell, path)
        print(f"wrote {path}")
    return 0


def _cmd_run(opts: dict) -> int:
    if not opts["model"]:
        raise ValueError("run needs --model")
    if not opts["out"]:
        raise ValueError("run needs --out")
    ds = _dataset_from_options(opts)
    beliefs = run_cell(load_model_bundle(opts["model"]), ds)
    emit_trace(beliefs, ds.test_states, opts["out"])
    print(f"wrote {len(beliefs)} steps to {opts['out']}")
    return 0


def _cmd_bench(opts: dict) -> int:
    config = BenchmarkConfig(
        dataset=opts["dataset"],
        csv_path=opts["csv_path"],
        d=opts["d"],
        m=opts["m"],
        T=opts["T"],
        trials=opts["trials"],
        filters=tuple(f.strip() for f in opts["filters"].split(",") if f.strip()),
        seed=opts["seed"],
        lag=opts["lag"],
        gp_subsample_cap=opts["gp_cap"],
        split_fraction=opts["split_fraction"],
    )
    report = run_benchmark(config)
    text = emit_report(report, format=opts["format"])
    if opts["out"]:
        Path(opts["out"]).write_text(text)
    else:
        sys.stdout.write(text)
    failed = [r for r in report.results if r.error]
    return 1 if failed else 0


def _cmd_oracle_check(opts: dict) -> int:
    rng = RandomSource(opts["seed"])
    worst_mean, worst_var = 0.0, 0.0
    for k in range(opts["trials"]):
        cfg_rng = rng.derive(k)
        a = 0.3 + 0.65 * cfg_rng.uniforms(1)[0]
        gamma = 0.5 + cfg_rng.uniforms(1)[0]
        dyn = LinearGaussianDynamics.from_transition([[a]], [[gamma]])
        S = float(dyn.S[0, 0])
        T = opts["T"]
        # each step's observation is its (f, q) pair, which the model reads off
        xs = np.column_stack([cfg_rng.normals(T) * 0.8 * np.sqrt(S),
                              (0.05 + 0.85 * cfg_rng.uniforms(T)) * S])
        model = DiscriminativeObservationModel(f=lambda X: X[:, :1], Q=lambda X: X[:, 1:, None])
        grid = stationary_grid(S, points=opts["points"])
        belief = dyn.stationary_belief()
        for x, (om, ov) in zip(xs, grid_filter_run(xs, dyn, model, grid=grid)):
            belief = dkf_step(belief, x, dyn, model)
            worst_mean = max(worst_mean, abs(belief.mean[0] - om))
            worst_var = max(worst_var, abs(belief.covariance[0, 0] - ov))
    ok = worst_mean <= 1e-4 and worst_var <= 1e-4
    print(
        f"{'PASS' if ok else 'FAIL'}: max |mean gap| {worst_mean:.3e}, "
        f"max |var gap| {worst_var:.3e} over {opts['trials']} configurations x {opts['T']} steps"
    )
    return 0 if ok else 1


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "run": _cmd_run,
    "bench": _cmd_bench,
    "oracle-check": _cmd_oracle_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _merge_options(args.command, args)
        return _COMMANDS[args.command](opts)
    except Exception as exc:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
