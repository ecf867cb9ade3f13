import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from dkf.bench import (
    FILTER_NAMES,
    UKF_BENCH_PARAMS,
    BenchmarkConfig,
    EmptyAfterLag,
    FittedCell,
    MetricReport,
    NonFinite,
    SchemaMismatch,
    TrialResult,
    ZeroVariance,
    emit_report,
    emit_trace,
    fit_cell,
    fit_linear_observation,
    fit_mlp_observation,
    ingest_csv,
    load_model_bundle,
    normalized_mse,
    run_benchmark,
    run_cell,
    save_model_bundle,
)
from dkf.filters import run_filter
from dkf.statespace import (
    GaussianBelief,
    RandomSource,
    TrajectoryDataset,
    generate_synthetic1,
    generate_synthetic2,
    save_dataset,
)
from dkf.surrogate import generate_surrogate, write_surrogate


# ---------------------------------------------------------------------------
# normalized MSE


def test_nmse_perfect_prediction_is_zero():
    truth = np.arange(12.0).reshape(6, 2)
    assert normalized_mse(truth.copy(), truth) == 0.0


def test_nmse_mean_predictor_is_exactly_one():
    rng = np.random.default_rng(0)
    truth = rng.standard_normal((50, 3))
    pred = np.tile(truth.mean(axis=0), (50, 1))
    assert normalized_mse(pred, truth) == pytest.approx(1.0, abs=1e-12)


def test_nmse_scale_invariant():
    rng = np.random.default_rng(1)
    truth = rng.standard_normal((30, 2))
    pred = truth + 0.3 * rng.standard_normal((30, 2))
    a = normalized_mse(pred, truth)
    b = normalized_mse(17.0 * pred, 17.0 * truth)
    assert a == pytest.approx(b, rel=1e-12)


def test_nmse_rejects_degenerate_inputs():
    with pytest.raises(ZeroVariance):
        normalized_mse(np.zeros((5, 1)), np.ones((5, 1)))
    with pytest.raises(ValueError):
        normalized_mse(np.zeros((5, 1)), np.zeros((4, 1)))
    with pytest.raises(ValueError):
        normalized_mse(np.full((5, 1), np.nan), np.zeros((5, 1)))


# ---------------------------------------------------------------------------
# CSV ingest


def _write_csv(path, rows, header=None):
    lines = [header] if header else []
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def test_ingest_round_trips_saved_dataset(tmp_path):
    ds = generate_synthetic1(40, 3, RandomSource(5))
    path = tmp_path / "syn.csv"
    save_dataset(ds, path)
    back = ingest_csv(path, split_index=ds.split_index)
    assert np.array_equal(back.states, ds.states)
    assert np.array_equal(back.observations, ds.observations)
    assert back.split_index == ds.split_index


def test_ingest_lag_drops_first_observation(tmp_path):
    rows = [[t, 10.0 + t, 100.0 + t] for t in range(5)]
    path = tmp_path / "lag.csv"
    _write_csv(path, rows, header="t,z_1,x_1")
    ds = ingest_csv(path, lag=1, split_index=2)
    assert ds.T == 4
    assert np.array_equal(ds.states[:, 0], [10.0, 11.0, 12.0, 13.0])
    assert np.array_equal(ds.observations[:, 0], [101.0, 102.0, 103.0, 104.0])
    assert ds.lag == 1


def test_ingest_headerless_needs_dims(tmp_path):
    rows = [[t, 1.0, 2.0] for t in range(6)]
    path = tmp_path / "plain.csv"
    _write_csv(path, rows)
    with pytest.raises(SchemaMismatch):
        ingest_csv(path)
    ds = ingest_csv(path, d=1, m=1)
    assert ds.T == 6 and ds.d == 1 and ds.m == 1


def test_ingest_rejects_foreign_header(tmp_path):
    path = tmp_path / "odd.csv"
    _write_csv(path, [[0, 1.0, 2.0]], header="time,state,obs")
    with pytest.raises(SchemaMismatch):
        ingest_csv(path)


def test_ingest_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("t,z_1,x_1\n0,1.0,2.0\n1,1.0\n")
    with pytest.raises(SchemaMismatch, match="row 1"):
        ingest_csv(path)


def test_ingest_nan_reports_row_number(tmp_path):
    rows = [[t, float(t), float(t)] for t in range(30)]
    rows[17][1] = "nan"
    path = tmp_path / "nan.csv"
    _write_csv(path, rows, header="t,z_1,x_1")
    with pytest.raises(NonFinite) as info:
        ingest_csv(path)
    assert info.value.row == 17


def test_ingest_unparseable_reports_row_number(tmp_path):
    rows = [[t, float(t), float(t)] for t in range(9)]
    rows[4][2] = "oops"
    path = tmp_path / "junk.csv"
    _write_csv(path, rows, header="t,z_1,x_1")
    with pytest.raises(NonFinite) as info:
        ingest_csv(path)
    assert info.value.row == 4


def test_ingest_empty_after_lag(tmp_path):
    path = tmp_path / "tiny.csv"
    _write_csv(path, [[0, 1.0, 2.0], [1, 1.5, 2.5]], header="t,z_1,x_1")
    with pytest.raises(EmptyAfterLag):
        ingest_csv(path, lag=1)


# ---------------------------------------------------------------------------
# benchmark configuration and shape


def test_config_validation():
    with pytest.raises(ValueError):
        BenchmarkConfig(dataset="syn3")
    with pytest.raises(ValueError):
        BenchmarkConfig(dataset="csv")
    with pytest.raises(ValueError):
        BenchmarkConfig(trials=0)
    with pytest.raises(ValueError):
        BenchmarkConfig(filters=("kalman", "smoother"))
    with pytest.raises(ValueError):
        BenchmarkConfig(split_fraction=1.0)


def test_single_cell_report_shape():
    cfg = BenchmarkConfig(dataset="syn1", T=400, m=2, trials=1, filters=("kalman",), seed=3)
    report = run_benchmark(cfg)
    assert len(report.results) == 1
    cell = report.results[0]
    assert cell.filter_name == "kalman" and cell.trial == 0
    assert cell.nmse is not None and cell.nmse >= 0
    assert cell.means.shape == (200, 1)
    assert report.average("kalman") == pytest.approx(cell.nmse)


def test_benchmark_deterministic():
    cfg = BenchmarkConfig(dataset="syn2", T=400, trials=2, filters=("kalman", "dkf-nn"), seed=1)
    a = run_benchmark(cfg)
    b = run_benchmark(cfg)
    assert [r.nmse for r in a.results] == [r.nmse for r in b.results]
    for ra, rb in zip(a.results, b.results):
        assert np.array_equal(ra.means, rb.means)


def test_average_is_arithmetic_mean():
    cfg = BenchmarkConfig(dataset="syn1", T=400, m=2, trials=3, filters=("kalman",), seed=0)
    report = run_benchmark(cfg)
    vals = [r.nmse for r in report.cells("kalman")]
    assert report.average("kalman") == pytest.approx(float(np.mean(vals)), abs=1e-12)


def test_failing_cell_is_isolated():
    # a 30-row CSV block leaves 15 training rows: too few for the network,
    # so dkf-nn fails while kalman must be bit-identical to a solo run
    import tempfile
    from pathlib import Path

    ds = generate_synthetic1(30, 2, RandomSource(9))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "short.csv"
        save_dataset(ds, path)
        base = dict(dataset="csv", csv_path=str(path), trials=1, seed=4)
        both = run_benchmark(BenchmarkConfig(filters=("kalman", "dkf-nn"), **base))
        solo = run_benchmark(BenchmarkConfig(filters=("kalman",), **base))
    failed = both.cells("dkf-nn")[0]
    assert failed.error is not None and failed.nmse is None
    assert "InsufficientData" in failed.error
    assert both.cells("kalman")[0].nmse == solo.cells("kalman")[0].nmse


def test_csv_trials_use_disjoint_blocks(tmp_path):
    ds = generate_synthetic1(90, 2, RandomSource(2))
    path = tmp_path / "blocks.csv"
    save_dataset(ds, path)
    cfg = BenchmarkConfig(dataset="csv", csv_path=str(path), trials=3, filters=("kalman",), seed=0)
    report = run_benchmark(cfg)
    vals = [r.nmse for r in report.cells("kalman")]
    assert len(vals) == 3 and len(set(vals)) == 3
    # too many trials for the row count is a reported error, not a crash
    cfg = BenchmarkConfig(dataset="csv", csv_path=str(path), trials=40, filters=("kalman",))
    report = run_benchmark(cfg)
    assert all(r.error and "EmptyAfterLag" in r.error for r in report.results)


# ---------------------------------------------------------------------------
# no test-set leakage


def test_fits_ignore_test_segment():
    ds = generate_synthetic2(300, RandomSource(21))
    poisoned_states = ds.states.copy()
    poisoned_obs = ds.observations.copy()
    poisoned_states[ds.split_index :] = 1e6
    poisoned_obs[ds.split_index :] = -1e6
    evil = TrajectoryDataset(poisoned_states, poisoned_obs, split_index=ds.split_index)
    state_probes = np.linspace(-2, 2, 7)[:, None]
    obs_probes = np.linspace(-2, 2, 14).reshape(7, 2)
    for name in ("kalman", "ekf", "dkf-gp", "dkf-nn"):
        a = fit_cell(name, ds, RandomSource(33))
        b = fit_cell(name, evil, RandomSource(33))
        assert np.array_equal(a.dyn.A, b.dyn.A)
        assert np.array_equal(a.dyn.Gamma, b.dyn.Gamma)
        if name.startswith("dkf"):
            assert np.array_equal(a.obs.f(obs_probes), b.obs.f(obs_probes))
            assert np.array_equal(a.obs.Q(obs_probes), b.obs.Q(obs_probes))
        else:
            assert np.array_equal(a.obs.h(state_probes), b.obs.h(state_probes))
            assert np.array_equal(a.obs.Lambda, b.obs.Lambda)


def test_fit_cell_streams_do_not_interfere():
    # dkf-nn must see the same stream whether or not other filters were fit
    ds = generate_synthetic2(300, RandomSource(8))
    rng_a = RandomSource(50)
    fit_cell("ekf", ds, rng_a)
    nn_after = fit_cell("dkf-nn", ds, rng_a)
    nn_alone = fit_cell("dkf-nn", ds, RandomSource(50))
    x = np.array([[0.5, -0.5]])
    assert np.array_equal(nn_after.obs.f(x), nn_alone.obs.f(x))


# ---------------------------------------------------------------------------
# baseline observation fits


def test_fit_linear_observation_recovers_affine_map():
    rng = np.random.default_rng(3)
    Z = rng.standard_normal((500, 2))
    H = np.array([[1.0, -0.5], [0.3, 2.0], [0.0, 1.0]])
    offset = np.array([0.2, -1.0, 0.5])
    X = Z @ H.T + offset + 0.01 * rng.standard_normal((500, 3))
    obs = fit_linear_observation(Z, X)
    assert np.allclose(obs.H, H, atol=0.01)
    assert np.allclose(obs.offset, offset, atol=0.01)
    assert np.allclose(obs.Lambda, 1e-4 * np.eye(3), atol=3e-5)


def test_fit_mlp_observation_keeps_model_in_meta():
    ds = generate_synthetic2(300, RandomSource(14))
    obs = fit_mlp_observation(ds.train_states, ds.train_observations, RandomSource(1))
    assert obs.meta and "model" in obs.meta
    assert obs.Lambda.shape == (2, 2)
    assert obs.h(np.array([[0.4]])).shape == (1, 2)


@pytest.fixture(scope="module")
def surrogate_cells():
    ds = generate_surrogate(400, m=12, seed=3)
    rng = RandomSource(9)
    return ds, {name: fit_cell(name, ds, rng, gp_subsample_cap=60) for name in FILTER_NAMES}


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_fitted_models_are_batched(name, surrogate_cells):
    # d=2, m=12: h maps (N, d) -> (N, m), f (N, m) -> (N, d), Q (N, m) -> (N, d, d),
    # and a batch equals N batches of one (batched BLAS may differ in the last bits)
    ds, cells = surrogate_cells
    obs = cells[name].obs
    N, d, m = 7, ds.d, ds.m
    if name.startswith("dkf"):
        maps = ((obs.f, ds.test_observations[:N], (N, d)),
                (obs.Q, ds.test_observations[:N], (N, d, d)))
    else:
        maps = ((obs.h, ds.test_states[:N], (N, m)),)
    for fn, inputs, shape in maps:
        out = fn(inputs)
        assert out.shape == shape
        rows = np.stack([fn(row[None])[0] for row in inputs])
        assert np.allclose(out, rows, rtol=1e-12, atol=0.0)


def test_ukf_bench_params_are_tight_spread():
    assert UKF_BENCH_PARAMS.alpha == pytest.approx(1e-3)
    assert UKF_BENCH_PARAMS.kappa == 0.0


# ---------------------------------------------------------------------------
# report rendering


def _tiny_report() -> MetricReport:
    cfg = BenchmarkConfig(dataset="syn1", T=200, m=2, trials=2, filters=("kalman", "ekf"), seed=0)
    report = MetricReport(config=cfg)
    report.results = [
        TrialResult("kalman", 0, 0.5), TrialResult("kalman", 1, 0.7),
        TrialResult("ekf", 0, 1.25), TrialResult("ekf", 1, None, error="ValueError: boom"),
    ]
    report.warnings = {"q_regularized": 0, "prior_term_dropped": 0}
    return report


def test_emit_report_csv_avg_recomputable():
    text = emit_report(_tiny_report(), format="csv")
    lines = text.strip().splitlines()
    assert lines[0] == "filter,trial#1,trial#2,avg"
    row = lines[1].split(",")
    assert row[0] == "kalman"
    cells = [float(v) for v in row[1:3]]
    assert float(row[3]) == pytest.approx(np.mean(cells), abs=1e-9)
    ekf = lines[2].split(",")
    assert ekf[2] == ""  # failed cell stays empty
    assert float(ekf[3]) == pytest.approx(1.25)


def test_emit_report_table_marks_failures():
    text = emit_report(_tiny_report(), format="table")
    assert "fail" in text
    assert "# error ekf trial#2: ValueError: boom" in text
    header = text.splitlines()[1].split()
    assert header == ["filter", "trial#1", "trial#2", "avg"]
    with pytest.raises(ValueError):
        emit_report(_tiny_report(), format="yaml")


def test_emit_report_lists_all_six_filters():
    cfg = BenchmarkConfig(dataset="syn1", trials=1)
    report = MetricReport(config=cfg)
    report.results = [TrialResult(name, 0, 0.1) for name in FILTER_NAMES]
    text = emit_report(report, format="table")
    body = [line for line in text.splitlines() if not line.startswith("#")]
    assert len(body) == 1 + 6


# ---------------------------------------------------------------------------
# traces


def test_emit_trace_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    beliefs = [GaussianBelief(rng.standard_normal(2), np.eye(2) * (1 + t)) for t in range(4)]
    truth = rng.standard_normal((4, 2))
    path = tmp_path / "trace.csv"
    emit_trace(beliefs, truth, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,truth_1,truth_2,mean_1,mean_2,sd_1,sd_2"
    parsed = np.asarray([line.split(",") for line in lines[1:]], float)
    assert np.array_equal(parsed[:, 1:3], truth)
    assert np.array_equal(parsed[:, 3:5], np.asarray([b.mean for b in beliefs]))
    expect_sd = np.sqrt([np.diag(b.covariance) for b in beliefs])
    assert np.array_equal(parsed[:, 5:7], expect_sd)


def test_emit_trace_empty_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_trace([], np.zeros((0, 2)), path)
    assert path.read_text() == "t,truth_1,truth_2,mean_1,mean_2,sd_1,sd_2\n"


def test_emit_trace_length_mismatch(tmp_path):
    with pytest.raises(ValueError):
        emit_trace([GaussianBelief([0.0], [[1.0]])], np.zeros((2, 1)), tmp_path / "x.csv")


# ---------------------------------------------------------------------------
# model bundles


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_model_bundle_round_trip(name, tmp_path):
    ds = generate_synthetic2(240, RandomSource(6))
    cell = fit_cell(name, ds, RandomSource(77))
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model_bundle(cell, first)
    save_model_bundle(load_model_bundle(first), second)
    assert second.read_bytes() == first.read_bytes()
    loaded = load_model_bundle(second)
    assert loaded.filter_name == name
    assert np.allclose(loaded.dyn.A, cell.dyn.A, atol=1e-15)
    # replay the reloaded bundle as `dkf run` does, against the decode bench scores
    kind = "dkf" if name.startswith("dkf") else name
    scored = np.asarray([s.mean for s in run_cell(cell, ds)])
    replayed = np.asarray([s.mean for s in run_filter(kind, ds, loaded.dyn, loaded.obs)])
    assert np.allclose(replayed, scored, rtol=0.0, atol=1e-12)


def test_ukf_bundle_without_spread_is_rejected(tmp_path):
    ds = generate_synthetic2(240, RandomSource(6))
    path = tmp_path / "ukf.json"
    save_model_bundle(fit_cell("ukf", ds, RandomSource(77)), path)
    payload = json.loads(path.read_text())
    del payload["observation"]["ukf_params"]
    path.write_text(json.dumps(payload) + "\n")
    with pytest.raises(ValueError, match="ukf_params"):
        load_model_bundle(path)


def test_bundle_rejects_unknown_filter(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 1, "filter": "smoother", "dynamics": {"A": [[0.5]], "Gamma": [[1.0]], "S": [[1.3333333333333333]]}, "observation": {}}\n')
    with pytest.raises(ValueError, match="smoother"):
        load_model_bundle(path)


def _edited_bundle(tmp_path, edit):
    path = tmp_path / "dkf-nn.json"
    cell = fit_cell("dkf-nn", generate_synthetic2(240, RandomSource(6)), RandomSource(77))
    save_model_bundle(cell, path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload) + "\n")
    return path


@pytest.mark.parametrize("key", ["filter", "dynamics", "observation"])
def test_bundle_missing_key_names_it(key, tmp_path):
    path = _edited_bundle(tmp_path, lambda p: p.pop(key))
    with pytest.raises(ValueError, match=key):
        load_model_bundle(path)


@pytest.mark.parametrize("where", ["bundle", "regressor"])
def test_bundle_of_another_format_version_is_rejected(where, tmp_path):
    def stamp(payload):
        target = payload if where == "bundle" else payload["observation"]["f_model"]
        target["format_version"] = 2

    with pytest.raises(ValueError, match="format_version 2"):
        load_model_bundle(_edited_bundle(tmp_path, stamp))


# ---------------------------------------------------------------------------
# benchmark hooks


def test_perfbench_tracer_reaches_the_step_functions(monkeypatch):
    # perfbench/tracer.py times the program by replacing module attributes;
    # a step bound at import time, or a wrapped name that goes away, shows here
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracer

    cfg = BenchmarkConfig(
        dataset="syn2", T=200, trials=1, filters=("kalman", "ekf", "ukf", "dkf-nn"), seed=0
    )
    with tracer.Tracer(full=True) as tr:
        report = run_benchmark(cfg)
    assert not [r.error for r in report.results if r.error]
    names = {span[0] for span in tr.spans}
    assert {"filters.ukf_step", "filters.dkf_step", "filters.regularize_Q"} <= names
    assert sum(span[0] == "filters.ukf_step" for span in tr.spans) == 100


@pytest.mark.parametrize("cfg", [
    BenchmarkConfig(dataset="syn2", T=300, trials=1, filters=("kalman", "ekf", "ukf", "dkf-nn"),
                    seed=0),
    BenchmarkConfig(dataset="syn1", T=300, trials=1, filters=("kalman", "dkf-gp", "dkf-gp-freq"),
                    seed=0, gp_subsample_cap=60),
    BenchmarkConfig(dataset="csv", csv_path="surrogate.csv", trials=1,
                    filters=("kalman", "dkf-gp", "dkf-nn"), seed=0, gp_subsample_cap=60),
], ids=["syn2", "syn1", "surrogate"])
def test_perfbench_checks_pass(cfg, tmp_path, monkeypatch):
    # the benchmark's own checks read the fitted-model spec (meta["q"].matrix,
    # q_edges/q_scales), apply_q_calibration and FittedCell; a trim that breaks
    # what they read fails here rather than in the benchmark.  The d=2
    # surrogate covers the (N, d, d) diagonal Q of dkf-gp.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import checks
    import tracer

    if cfg.dataset == "csv":
        csv = tmp_path / cfg.csv_path
        write_surrogate(csv, T=600, m=100, seed=0)
        cfg = dataclasses.replace(cfg, csv_path=str(csv))

    with tracer.Tracer(full=False) as tr:
        report = run_benchmark(cfg)
        table = emit_report(report)
    assert checks.check_cells(report, tr.runs, table) == []
    assert [run[0] for run in tr.runs] == list(cfg.filters)
    for label, ds, dyn, obs, beliefs in tr.runs:
        means = np.array([b.mean for b in beliefs])
        checks.bundle_round_trip(FittedCell(label, dyn, obs), ds, means, tmp_path)
