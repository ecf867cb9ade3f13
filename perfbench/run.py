#!/usr/bin/env python3
"""Benchmark of the DKF pipeline, driven the way `dkf bench` drives it.

Usage, from the root of the repository:

    python3 perfbench/run.py                       # every workload, untraced then traced
    python3 perfbench/run.py --workload syn1-gp --seed 3 --seconds 30 --trace 0

A run sets up its inputs from --seed, warms up, then repeats whole rounds
until --seconds would be exceeded (at least one round).  A round is one
``run_benchmark`` + ``emit_report`` on the workload's inputs (the timed
region), then the bundle round trips, the online pass and the checks.  With
--trace 1 a run does one untraced round and then one traced round on the
same inputs and reports the per-layer numbers.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  See
perfbench/README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import os
import sys
import time

_T_START = time.perf_counter()
# One BLAS thread, set before numpy loads: the plain single-threaded baseline.
# numpy's default OpenBLAS pool slows the GP fit on a two-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"

WORKLOADS = ("syn1-gp", "syn2-decode", "surrogate-m100")
FILTERS = ("kalman", "ekf", "ukf", "dkf-gp", "dkf-gp-freq", "dkf-nn")
SETUPS = 3           # set-ups per run; setup_s is import time + their median
WARM_SEED = 20160822  # fixed inputs of the warm-up, whose cells the bundle round trips use

# Input sizes.  Each round is sized to fill most of a 30-s run on a 2-core
# VM, and to average enough independent trials that the fit time, which
# depends on the data through the optimizers' stopping points, is steady
# from seed to seed.
SYN1 = dict(T=4000, trials=4, cap=500)
SYN2 = dict(block=3000, trials=16, split_fraction=0.17)
SURROGATE = dict(block=1600, trials=12, cap=300, m=100)


def _import_program():
    """Import dkf from this checkout's src/, never from anywhere else."""
    if not (SRC / "dkf" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import dkf

    if Path(dkf.__file__).resolve().parent != (SRC / "dkf").resolve():
        raise SystemExit(f"benchmark: imported dkf from {dkf.__file__}, not from {SRC}")
    import dkf.bench  # noqa: F401
    import dkf.surrogate  # noqa: F401


# ---------------------------------------------------------------------------
# workloads: inputs from the seed, and fixed warm-up inputs


def _inputs(workload: str, seed: int, work: Path):
    import numpy as np

    from dkf.bench import BenchmarkConfig
    from dkf.statespace import (RandomSource, TrajectoryDataset, generate_synthetic2,
                                save_dataset)
    from dkf.surrogate import generate_surrogate

    if workload == "syn1-gp":
        # run_benchmark generates trial i from seed + i; the stride keeps
        # the trials of different benchmark seeds disjoint
        return BenchmarkConfig(
            dataset="syn1", T=SYN1["T"], m=5, trials=SYN1["trials"],
            filters=("kalman", "dkf-gp", "dkf-gp-freq"), seed=1000 * seed,
            gp_subsample_cap=SYN1["cap"])
    if workload == "syn2-decode":
        path = work / "syn2.csv"
        T = SYN2["block"] * SYN2["trials"]
        save_dataset(generate_synthetic2(T, RandomSource(1000 * seed)), path, seed=1000 * seed)
        return BenchmarkConfig(
            dataset="csv", csv_path=str(path), trials=SYN2["trials"],
            filters=("kalman", "ekf", "ukf", "dkf-nn"), seed=1000 * seed,
            split_fraction=SYN2["split_fraction"])
    # One random rate map per trial block: the GP fit time and the nMSE
    # ordering depend mostly on the map, so a single map would make them
    # depend on the seed.  Each map's trajectory fills exactly one block.
    path = work / "surrogate.csv"
    maps = [generate_surrogate(SURROGATE["block"], SURROGATE["m"], seed=1000 * seed + j)
            for j in range(SURROGATE["trials"])]
    states = np.vstack([ds.states for ds in maps])
    save_dataset(TrajectoryDataset(states, np.vstack([ds.observations for ds in maps]),
                                   split_index=len(states) // 2), path, seed=1000 * seed)
    return BenchmarkConfig(
        dataset="csv", csv_path=str(path), m=SURROGATE["m"], trials=SURROGATE["trials"],
        filters=("kalman", "dkf-gp", "dkf-nn"), seed=1000 * seed,
        gp_subsample_cap=SURROGATE["cap"])


def _warmup_inputs(workload: str, work: Path):
    """A small run of the same pipeline on inputs that do not depend on --seed."""
    from dkf.bench import BenchmarkConfig
    from dkf.statespace import RandomSource, generate_synthetic2, save_dataset
    from dkf.surrogate import write_surrogate

    if workload == "syn1-gp":
        return BenchmarkConfig(dataset="syn1", T=400, m=5, trials=1,
                               filters=("kalman", "dkf-gp", "dkf-gp-freq"),
                               seed=WARM_SEED, gp_subsample_cap=100)
    if workload == "syn2-decode":
        path = work / "warm-syn2.csv"
        save_dataset(generate_synthetic2(400, RandomSource(WARM_SEED)), path)
        return BenchmarkConfig(dataset="csv", csv_path=str(path), trials=1,
                               filters=("kalman", "ekf", "ukf", "dkf-nn"), seed=WARM_SEED)
    path = work / "warm-surrogate.csv"
    write_surrogate(path, T=600, m=SURROGATE["m"], seed=WARM_SEED)
    return BenchmarkConfig(dataset="csv", csv_path=str(path), m=SURROGATE["m"], trials=1,
                           filters=("kalman", "dkf-gp", "dkf-nn"), seed=WARM_SEED,
                           gp_subsample_cap=100)


ONLINE_FILTER = {"syn1-gp": "dkf-gp", "syn2-decode": "dkf-nn", "surrogate-m100": "dkf-nn"}
# The paper's orderings are gated only on syn2-decode, where the margins are
# wide on every seed.  On syn1-gp a rare dkf-gp-freq fit whose residual Q
# exceeds the prior S diverges, and on the surrogate dkf-nn averages above
# kalman on most seeds (see README).  There the orderings are reported;
# gating them would make the verdict depend on the seed.
ORDERINGS_GATED = {"syn1-gp": False, "syn2-decode": True, "surrogate-m100": False}


def _setup(workload: str, seed: int, work: Path):
    """Inputs, CSV files and one warm-up run; returns (config, warm-up cells)."""
    from dkf import bench
    from tracer import Tracer

    config = _inputs(workload, seed, work)
    warm_config = _warmup_inputs(workload, work)
    with Tracer(full=False) as tracer:
        report = bench.run_benchmark(warm_config)
        bench.emit_report(report)
    errors = [f"{r.filter_name}: {r.error}" for r in report.results if r.error]
    if errors:
        raise RuntimeError(f"warm-up run failed: {errors}")
    cells = [(bench.FittedCell(label, dyn, obs), ds, _means(beliefs))
             for label, ds, dyn, obs, beliefs in tracer.runs]
    return config, cells


def _means(beliefs):
    import numpy as np

    return np.array([b.mean for b in beliefs])


# ---------------------------------------------------------------------------
# one round


def _round(workload: str, config, warm_cells, work: Path, spans_path) -> dict:
    """One round; traced when spans_path is given.  Returns a JSON-able summary."""
    import numpy as np

    import checks
    from dkf import bench, filters
    from tracer import Tracer

    tracer = Tracer(full=spans_path is not None)
    failures = []    # operations that failed: the program raised or disagreed
    problems = []    # check failures; any one makes the run incorrect
    with tracer:
        with tracer.phase("wall"):
            report = bench.run_benchmark(config)
            table = bench.emit_report(report)
        runs = list(tracer.runs)
        with tracer.phase("bundles"):
            for cell, ds, means in warm_cells:
                try:
                    checks.bundle_round_trip(cell, ds, means, work)
                except Exception as exc:
                    failures.append(f"bundle round trip {cell.filter_name}: "
                                    f"{type(exc).__name__}: {exc}")
    wall_spans = tracer.under("wall")
    wall = next(s for s in tracer.spans if s[0] == "phase.wall")
    steps_by_filter = {}
    for label, ds, _, _, _ in runs:
        steps_by_filter[label] = steps_by_filter.get(label, 0) + len(ds.test_observations)

    cell_problems = checks.check_cells(report, runs, table)
    problems += [msg for _, msg in cell_problems]
    bad_cells = {(r.filter_name, r.trial): r.error for r in report.results if r.error}
    for key, msg in cell_problems:
        if key is not None:
            bad_cells.setdefault(key, msg)
    failures += [f"cell {f} trial {t}: {msg}" for (f, t), msg in bad_cells.items()]

    # online pass: the discriminative filter fed one test observation at a time
    online = ONLINE_FILTER[workload]
    step_us = []
    try:
        _, ds, dyn, obs, beliefs = next(run for run in runs if run[0] == online)
        belief = dyn.stationary_belief()
        means = np.empty((len(ds.test_observations), dyn.d))
        for i, x in enumerate(ds.test_observations):
            t0 = time.perf_counter()
            belief = filters.dkf_step(belief, x, dyn, obs)
            step_us.append((time.perf_counter() - t0) * 1e6)
            means[i] = belief.mean
        gap = float(np.abs(means - _means(beliefs)).max())
        if not gap <= checks.ONLINE_TOL:
            raise AssertionError(f"means differ from the batch decode by {gap:.3g}")
    except Exception as exc:
        failures.append(f"online {online}: {type(exc).__name__}: {exc}")
        if isinstance(exc, AssertionError):
            problems.append(failures[-1])

    averages = {f: report.average(f) for f in config.filters}
    ordering = checks.orderings(averages, classic_above=workload == "syn2-decode")
    if ORDERINGS_GATED[workload]:
        problems += ordering
    out = {
        "wall_s": wall[2] - wall[1],
        "fit_s": sum(s[2] - s[1] for s, _ in wall_spans
                     if s[0] in ("bench.fit_cell", "statespace.fit_dynamics")),
        "decode_s": sum(s[2] - s[1] for s, _ in wall_spans if s[0] == "filters.run_filter"),
        "decode_steps": sum(steps_by_filter.values()),
        "steps_by_filter": steps_by_filter,
        "attempted": len(config.filters) * config.trials + len(warm_cells) + 1,
        "failed": len(failures),
        "failures": failures,
        "problems": problems,
        "orderings_held": not ordering,
        "nmse": averages,
        "warnings": dict(report.warnings),
        "step_us": step_us,
    }
    if spans_path is not None:
        out["per_layer"] = _per_layer(tracer, out)
        tracer.write(spans_path)
    return out


def _forked(fn, *args):
    """Run fn(*args) in a forked child and return its JSON-able result.

    Each round starts from the same post-set-up process state.  A round's
    large arrays (the checks' batch predictions among them) raise glibc's
    dynamic mmap and trim thresholds, after which the program's 500x500
    temporaries stop being returned to the OS and page-faulted back in; a
    later round in the same process then ran the GP fit about 25 % faster.
    """
    sys.stdout.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            payload = {"ok": fn(*args)}
        except BaseException:
            payload = {"error": traceback.format_exc()}
            code = 1
        with os.fdopen(write_fd, "w") as fh:
            json.dump(payload, fh)
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        payload = json.load(fh)   # drain the pipe before waiting on the child
    os.waitpid(pid, 0)
    if "error" in payload:
        raise RuntimeError("round failed:\n" + payload["error"])
    return payload["ok"]


# ---------------------------------------------------------------------------
# metrics


def _end_to_end(rounds, setup_s: float) -> dict:
    decode_s = sum(r["decode_s"] for r in rounds)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "fit_s": (statistics.median(r["fit_s"] for r in rounds), "s"),
        "decode_steps_per_s": (sum(r["decode_steps"] for r in rounds) / decode_s, "1/s"),
        "online_step_us": (statistics.median(x for r in rounds for x in r["step_us"]), "us"),
        "peak_rss_mb": (max(resource.getrusage(who).ru_maxrss for who in
                            (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0, "MB"),
    }


def _per_layer(tracer, traced: dict) -> dict:
    """Per-layer numbers of a traced round; trace.overhead_s is added by the caller."""
    wall = tracer.under("wall")
    bundles = tracer.under("bundles")

    def total(name, spans=wall):
        return sum(s[2] - s[1] for s, _ in spans if s[0] == name)

    def calls(name):
        return sum(1 for s, _ in wall if s[0] == name)

    def per(num, den, scale=1e6):
        return num * scale / den if den else 0.0

    out = {}
    for fn in ("gp_fit", "mlp_fit"):
        out[f"regression.{fn}_s"] = (total(f"regression.{fn}"), "s")
        out[f"regression.{fn}_calls"] = (calls(f"regression.{fn}"), "count")
    for fn in ("gp_predict_mean", "gp_predict_q", "mlp_predict"):
        name = f"regression.{fn}"
        rows = sum(s[4] for s, _ in wall if s[0] == name)
        out[f"{name}_us_per_row"] = (per(total(name), rows), "us")
        out[f"{name}_calls"] = (calls(name), "count")
        out[f"{name}_rows"] = (rows, "count")
    for fn in ("dkf_step", "ukf_step"):
        name = f"filters.{fn}"
        self_s = sum(own for s, own in wall if s[0] == name)
        out[f"{name}_self_us"] = (per(self_s, calls(name)), "us")
        out[f"{name}_calls"] = (calls(name), "count")
    out["filters.regularize_Q_us"] = (
        per(total("filters.regularize_Q"), calls("filters.regularize_Q")), "us")
    out["filters.regularize_Q_calls"] = (calls("filters.regularize_Q"), "count")
    for f in FILTERS:
        spans = [s for s, _ in wall if s[0] == "filters.run_filter" and s[4] == f]
        steps = traced["steps_by_filter"].get(f, 0)
        out[f"filters.run_filter.{f}_us_per_step"] = (
            per(sum(s[2] - s[1] for s in spans), steps), "us")
    out["filters.q_regularized"] = (traced["warnings"]["q_regularized"], "count")
    out["filters.prior_term_dropped"] = (traced["warnings"]["prior_term_dropped"], "count")
    for f in FILTERS:
        out[f"bench.fit_cell.{f}_s"] = (
            sum(s[2] - s[1] for s, _ in wall if s[0] == "bench.fit_cell" and s[4] == f), "s")
    out["bench.ingest_csv_s"] = (total("bench.ingest_csv"), "s")
    out["statespace.fit_dynamics_s"] = (total("statespace.fit_dynamics"), "s")
    out["bench.emit_report_s"] = (total("bench.emit_report"), "s")
    out["bench.save_model_bundle_s"] = (total("bench.save_model_bundle", bundles), "s")
    out["bench.load_model_bundle_s"] = (total("bench.load_model_bundle", bundles), "s")
    for f in FILTERS:
        # 0 where the workload does not run the filter
        out[f"bench.normalized_mse.{f}"] = (traced["nmse"].get(f, 0.0), "ratio")
    return out


# ---------------------------------------------------------------------------
# environment


def _reference_loop() -> float:
    """Seconds for a fixed mix of interpreter work and small numpy calls.

    It does not touch the program, so a change in it between runs measures
    the machine, not the code: it is recorded with each result to tell host
    CPU-speed drift apart from a regression, and is not a metric.
    """
    import numpy as np

    a = np.array([[2.0, 0.3], [0.3, 1.0]])
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(20_000):
            np.linalg.cholesky(a + i * 1e-9)
            sum(range(40))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _environment() -> dict:
    import ctypes

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                threads = int(fn())
                break
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads if threads is not None else os.environ["OPENBLAS_NUM_THREADS"],
    }


# ---------------------------------------------------------------------------
# running a workload


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> int:
    load_at_start = os.getloadavg()
    _import_program()
    import_s = time.perf_counter() - _T_START
    env = _environment()
    env["loadavg_at_start"] = [round(x, 2) for x in load_at_start]
    env["reference_loop_s"] = round(_reference_loop(), 4)
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()), flush=True)

    work = WORK / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            config, warm_cells = _setup(workload, seed, work)
            setups.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setups)
        print(f"# {workload} seed {seed}: setup {setup_s:.3f} s "
              f"(import {import_s:.3f} s, set-ups {[round(s, 3) for s in setups]})", flush=True)

        RESULTS.mkdir(exist_ok=True)
        stem = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}"
        rounds = []
        start = time.perf_counter()
        if trace:
            rounds.append(_forked(_round, workload, config, warm_cells, work, None))
            rounds.append(_forked(_round, workload, config, warm_cells, work,
                                  str(stem.with_suffix(".spans.csv.gz"))))
        else:
            while True:
                rounds.append(_forked(_round, workload, config, warm_cells, work, None))
                elapsed = time.perf_counter() - start
                if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still has its directory there
            pass

    for i, r in enumerate(rounds, 1):
        print(f"# round {i}{' (traced)' if trace and i == 2 else ''}: wall {r['wall_s']:.3f} s, "
              f"fit {r['fit_s']:.3f} s, decode {r['decode_steps']} steps in "
              f"{r['decode_s']:.3f} s, nMSE "
              + " ".join(f"{f}={v:.4f}" for f, v in r["nmse"].items())
              + f", orderings {'held' if r['orderings_held'] else 'did not hold'}", flush=True)
        for f in r["failures"]:
            print(f"#   failed: {f}")
        for p in r["problems"]:
            print(f"#   CHECK FAILED: {p}")

    if trace:
        metrics = {k: tuple(v) for k, v in rounds[1]["per_layer"].items()}
        metrics["trace.overhead_s"] = (rounds[1]["wall_s"] - rounds[0]["wall_s"], "s")
    else:
        metrics = _end_to_end(rounds, setup_s)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    env["reference_loop_s_at_end"] = round(_reference_loop(), 4)
    print(f"# reference loop {env['reference_loop_s']} s at start, "
          f"{env['reference_loop_s_at_end']} s at end")
    correct = not any(r["problems"] for r in rounds)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    print(f"# operations: {attempted} attempted, {failed} failed; "
          f"checks {'passed' if correct else 'FAILED'}")

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "setups_s": setups, "import_s": import_s,
        "rounds": [{k: v for k, v in r.items() if k not in ("per_layer", "step_us")}
                   for r in rounds],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: every workload, untraced then traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds positive")
    if args.workload:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    code = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", trace],
                check=False)
            code = code or proc.returncode
    return code


if __name__ == "__main__":
    sys.exit(main())
