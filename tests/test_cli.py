import json

import numpy as np
import pytest

from dkf.bench import FILTER_NAMES, BenchmarkConfig, ingest_csv, load_model_bundle, run_benchmark
from dkf import cli
from dkf.cli import build_parser, main
from dkf.statespace import RandomSource, generate_synthetic1, save_dataset


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _stderr_json(err: str) -> dict:
    return json.loads(err.strip().splitlines()[-1])


def _read_sidecar(csv_path) -> dict:
    out = {}
    for line in (csv_path.parent / (csv_path.name + ".meta")).read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            out[key.strip()] = int(value.strip())
    return out


# ---------------------------------------------------------------------------
# parser


def test_parser_lists_all_subcommands():
    parser = build_parser()
    for argv in (
        ["simulate", "--T", "10"],
        ["fit", "--gp-cap", "5"],
        ["run", "--model", "x"],
        ["bench", "--format", "csv"],
        ["oracle-check", "--points", "100"],
    ):
        args = parser.parse_args(argv)
        assert args.command == argv[0]
    with pytest.raises(SystemExit):
        parser.parse_args(["smooth"])


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_csv_and_sidecar(tmp_path, capsys):
    out = tmp_path / "data.csv"
    code, stdout, _ = _run(
        capsys, "simulate", "--dataset", "syn1", "--T", "60", "--m", "2",
        "--seed", "7", "--out", str(out),
    )
    assert code == 0
    assert "wrote 60 rows" in stdout
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,z_1,x_1,x_2"
    assert len(lines) == 61
    sidecar = _read_sidecar(out)
    assert sidecar["seed"] == 7 and sidecar["split_index"] == 30
    ds = generate_synthetic1(60, 2, RandomSource(7))
    back = ingest_csv(out)
    assert np.array_equal(back.states, ds.states)
    assert np.array_equal(back.observations, ds.observations)


def test_simulate_requires_out(capsys):
    code, _, err = _run(capsys, "simulate", "--T", "10")
    assert code == 1
    payload = _stderr_json(err)
    assert payload["error"] == "ValueError"
    assert "--out" in payload["message"]


def test_simulate_rejects_csv_source(tmp_path, capsys):
    code, _, err = _run(
        capsys, "simulate", "--dataset", "csv", "--out", str(tmp_path / "x.csv")
    )
    assert code == 1
    assert _stderr_json(err)["error"] == "ValueError"


# ---------------------------------------------------------------------------
# fit and run


def test_fit_then_run_produces_trace(tmp_path, capsys):
    models = tmp_path / "models"
    code, stdout, _ = _run(
        capsys, "fit", "--dataset", "syn2", "--T", "240", "--seed", "3",
        "--filters", "kalman,dkf-nn", "--out", str(models),
    )
    assert code == 0
    assert (models / "kalman.json").exists()
    assert (models / "dkf-nn.json").exists()
    assert stdout.count("wrote") == 2
    cell = load_model_bundle(models / "kalman.json")
    assert cell.filter_name == "kalman"

    trace = tmp_path / "trace.csv"
    code, stdout, _ = _run(
        capsys, "run", "--dataset", "syn2", "--T", "240", "--seed", "3",
        "--model", str(models / "kalman.json"), "--out", str(trace),
    )
    assert code == 0
    assert "wrote 120 steps" in stdout
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "t,truth_1,mean_1,sd_1"
    assert len(lines) == 121


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_fit_then_run_matches_bench(name, tmp_path, capsys):
    data = ["--dataset", "syn2", "--T", "300", "--seed", "3"]
    code, _, err = _run(
        capsys, "fit", *data, "--filters", name, "--gp-cap", "60", "--out", str(tmp_path)
    )
    assert code == 0, err
    trace = tmp_path / "trace.csv"
    code, _, err = _run(
        capsys, "run", *data, "--model", str(tmp_path / f"{name}.json"), "--out", str(trace)
    )
    assert code == 0, err
    header, *rows = trace.read_text().strip().splitlines()
    col = header.split(",").index("mean_1")
    means = np.asarray([row.split(",")[col] for row in rows], float)
    report = run_benchmark(BenchmarkConfig(
        dataset="syn2", T=300, trials=1, filters=(name,), seed=3, gp_subsample_cap=60
    ))
    assert report.results[0].error is None
    assert np.allclose(means, report.results[0].means[:, 0], rtol=0.0, atol=1e-12)


def test_fit_rejects_gp_cap_below_two(tmp_path, capsys):
    code, stdout, err = _run(
        capsys, "fit", "--dataset", "syn2", "--T", "300", "--filters", "dkf-gp",
        "--gp-cap", "0", "--out", str(tmp_path),
    )
    assert code == 1 and stdout == ""
    payload = _stderr_json(err)
    assert payload["error"] == "ValueError" and "gp_subsample_cap" in payload["message"]


@pytest.mark.parametrize("edit, key", [
    (lambda p: p.update(format_version=2), "format_version"),
    (lambda p: p.pop("dynamics"), "dynamics"),
], ids=["format_version", "missing-dynamics"])
def test_run_rejects_a_bad_bundle_naming_the_key(edit, key, tmp_path, capsys):
    data = ["--dataset", "syn2", "--T", "240", "--seed", "3"]
    code, _, err = _run(capsys, "fit", *data, "--filters", "kalman", "--out", str(tmp_path))
    assert code == 0, err
    bundle = tmp_path / "kalman.json"
    payload = json.loads(bundle.read_text())
    edit(payload)
    bundle.write_text(json.dumps(payload) + "\n")
    code, stdout, err = _run(
        capsys, "run", *data, "--model", str(bundle), "--out", str(tmp_path / "trace.csv")
    )
    assert code == 1 and stdout == ""
    payload = _stderr_json(err)
    assert payload["error"] == "ValueError" and key in payload["message"]


def test_run_requires_model_and_out(tmp_path, capsys):
    code, _, err = _run(capsys, "run", "--out", str(tmp_path / "t.csv"))
    assert code == 1 and "--model" in _stderr_json(err)["message"]
    code, _, err = _run(capsys, "run", "--model", str(tmp_path / "nope.json"))
    assert code == 1 and "--out" in _stderr_json(err)["message"]


# ---------------------------------------------------------------------------
# bench


def test_bench_stdout_table(capsys):
    code, stdout, err = _run(
        capsys, "bench", "--dataset", "syn1", "--T", "300", "--m", "2",
        "--trials", "2", "--filters", "kalman,ekf", "--seed", "1",
    )
    assert code == 0 and err == ""
    lines = stdout.splitlines()
    assert lines[0].startswith("# dataset=syn1 T=300")
    header = lines[1].split()
    assert header == ["filter", "trial#1", "trial#2", "avg"]
    assert any(line.startswith("kalman") for line in lines)
    assert any(line.startswith("ekf") for line in lines)


def test_bench_writes_report_file(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code, stdout, _ = _run(
        capsys, "bench", "--dataset", "syn1", "--T", "300", "--m", "2",
        "--trials", "1", "--filters", "kalman", "--format", "csv",
        "--out", str(out),
    )
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == "filter,trial#1,avg"
    assert stdout == ""


def test_bench_exit_code_reflects_cell_failures(tmp_path, capsys):
    ds = generate_synthetic1(30, 2, RandomSource(9))
    path = tmp_path / "short.csv"
    save_dataset(ds, path)
    code, stdout, _ = _run(
        capsys, "bench", "--dataset", "csv", "--csv-path", str(path),
        "--trials", "1", "--filters", "kalman,dkf-nn",
    )
    assert code == 1
    assert "# error dkf-nn trial#1" in stdout
    assert "fail" in stdout


# ---------------------------------------------------------------------------
# oracle-check


def test_oracle_check_passes(capsys):
    code, stdout, _ = _run(
        capsys, "oracle-check", "--trials", "2", "--T", "10", "--points", "3000",
    )
    assert code == 0
    assert stdout.startswith("PASS")
    assert "2 configurations x 10 steps" in stdout


# ---------------------------------------------------------------------------
# config files


def test_config_file_fills_defaults_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# small run\ndataset = syn1\nT = 50\nm = 2\nseed = 11\n")
    out_a = tmp_path / "a.csv"
    code, _, _ = _run(capsys, "simulate", "--config", str(cfg), "--out", str(out_a))
    assert code == 0
    assert len(out_a.read_text().strip().splitlines()) == 51

    out_b = tmp_path / "b.csv"
    code, _, _ = _run(
        capsys, "simulate", "--config", str(cfg), "--T", "20", "--out", str(out_b)
    )
    assert code == 0
    assert len(out_b.read_text().strip().splitlines()) == 21


def test_config_file_accepts_hyphenated_keys(tmp_path, capsys):
    # split-fraction applies to CSV ingest (synthetic generators pin T//2),
    # so route the config through simulate -> fit -> run on the saved CSV
    data = tmp_path / "d.csv"
    _run(capsys, "simulate", "--dataset", "syn2", "--T", "40", "--out", str(data))
    models = tmp_path / "models"
    _run(capsys, "fit", "--dataset", "syn2", "--T", "40", "--out", str(models))
    cfg = tmp_path / "frac.cfg"
    cfg.write_text(f"dataset = csv\ncsv-path = {data}\nsplit-fraction = 0.25\n")
    trace = tmp_path / "t.csv"
    code, stdout, _ = _run(
        capsys, "run", "--config", str(cfg),
        "--model", str(models / "kalman.json"), "--out", str(trace),
    )
    assert code == 0
    assert "wrote 30 steps" in stdout


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("banana = 3\n")
    code, _, err = _run(
        capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")
    )
    assert code == 1
    payload = _stderr_json(err)
    assert payload["error"] == "ValueError"
    assert "banana" in payload["message"]


@pytest.mark.parametrize(
    "command, line, key",
    [("bench", "format = xml", "format"), ("fit", "dataset = syn3", "dataset")],
)
def test_config_file_values_get_the_flag_choices(command, line, key, tmp_path, capsys, monkeypatch):
    # a value the flag's choices reject is refused before any data is made or fitted
    calls = []
    for name in ("run_benchmark", "fit_cell", "ingest_csv", "generate_synthetic1", "generate_synthetic2"):
        monkeypatch.setattr(cli, name, lambda *a, _n=name, **k: calls.append(_n))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"T = 40\n{line}\n")
    code, stdout, err = _run(capsys, command, "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 1 and stdout == ""
    payload = _stderr_json(err)
    assert payload["error"] == "ValueError"
    assert key in payload["message"]
    assert calls == []


def test_config_file_value_of_wrong_type_names_line_and_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed = 3\nT = abc\n")
    code, stdout, err = _run(
        capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")
    )
    assert code == 1 and stdout == ""
    payload = _stderr_json(err)
    assert payload == {"error": "ValueError", "message": f"{cfg}:2: T must be int, got 'abc'"}


def test_errors_are_json_on_stderr(tmp_path, capsys):
    code, stdout, err = _run(
        capsys, "bench", "--dataset", "csv", "--csv-path", str(tmp_path / "missing.csv"),
    )
    assert code == 1
    payload = _stderr_json(err)
    assert set(payload) == {"error", "message"}
