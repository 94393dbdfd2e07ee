"""End-to-end checks of the command-line interface.

Everything runs in-process through ``funcnet.cli.main`` so exit codes
and written artifacts can be asserted directly; datasets are kept tiny.
"""

import csv
import json

import numpy as np
import numpy.testing as npt
import pytest

from funcnet import baselines, cli, datagen, fbnn, fdnn, network, training
from funcnet.cli import main
from funcnet.grids import Grid
from funcnet.training import rmse


def run(*argv):
    return main([str(a) for a in argv])


def simulate_small(tmp_path, seed=3, n=26, name="sim"):
    out = tmp_path / name
    code = run("simulate", "--scenario", "linear", "--n", n, "--m", 9,
               "--m-y", 7, "--seed", seed, "--out", out)
    assert code == 0
    return out / "dataset.csv"


FIT_FAST = ("--neurons", "3", "--grid-points", "8", "--step-size", "1e-2",
            "--max-iterations", "25", "--patience", "10",
            "--n-train", "14", "--n-val", "5", "--n-test", "7")


# ---------------------------------------------------------------- simulate


def test_simulate_writes_dataset_and_sidecar(tmp_path, capsys):
    path = simulate_small(tmp_path, n=12)
    data = datagen.load_table(str(path), 9, 7)
    assert data.n == 12
    assert data.x.shape == (12, 1, 9)

    sidecar = json.loads((path.parent / "dataset.json").read_text())
    assert sidecar["m"] == 9
    assert sidecar["m_y"] == 7
    assert sidecar["seed"] == 3
    assert "12 rows" in capsys.readouterr().out


def test_simulate_is_deterministic_in_seed(tmp_path):
    a = simulate_small(tmp_path, seed=5, name="a")
    b = simulate_small(tmp_path, seed=5, name="b")
    c = simulate_small(tmp_path, seed=6, name="c")
    assert a.read_text() == b.read_text()
    assert a.read_text() != c.read_text()


# --------------------------------------------------------------------- fit


def test_fit_early_stopping_writes_artifacts(tmp_path):
    data = simulate_small(tmp_path)
    full = datagen.load_table(str(data), 9, 7)
    _, _, test = datagen.split(full, datagen.SplitSpec(14, 5, 7, seed=0))
    classes = {"fdnn": fdnn.FdnnNetwork, "fbnn": fbnn.FbnnNetwork,
               "vnn": baselines.VectorNN}
    for model, cls in classes.items():
        out = tmp_path / model
        code = run("fit", "--data", data, "--model", model, "--seed", "1",
                   "--num-basis", "5", "--hidden", "6", "--out", out, *FIT_FAST)
        assert code == 0

        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["model"] == model
        assert metrics["mode"] == "early-stopping"
        for key in ("train_rmse", "val_rmse", "test_rmse"):
            assert np.isfinite(metrics[key])
        assert metrics["best_iteration"] <= metrics["stopping_iteration"]

        with open(out / "history.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "train_loss", "val_loss"]
        assert len(rows) > 1

        # the saved model must reproduce the reported test RMSE exactly
        net = cls.from_dict(json.loads((out / "model.json").read_text()))
        npt.assert_allclose(rmse(net.predict(test.x), test.y, test.y_grid),
                            metrics["test_rmse"], rtol=1e-12)


def test_fit_reads_grid_layout_from_sidecar(tmp_path):
    data = simulate_small(tmp_path)
    code = run("fit", "--data", data, "--model", "fflm", "--num-basis", "5",
               "--out", tmp_path / "fit", *FIT_FAST)
    assert code == 0


def test_fit_fixed_mode_runs_requested_iterations(tmp_path):
    data = simulate_small(tmp_path)
    out = tmp_path / "fit"
    code = run("fit", "--data", data, "--model", "fdnn", "--mode", "fixed",
               "--iterations", "12", "--out", out, *FIT_FAST)
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["mode"] == "fixed"
    assert metrics["stopping_iteration"] == 12
    with open(out / "history.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 13  # header + one row per iteration
    assert rows[1][2] == ""  # no validation column in fixed mode


def test_fit_cv_mode_reports_fold_summary(tmp_path):
    data = simulate_small(tmp_path)
    out = tmp_path / "fit"
    code = run("fit", "--data", data, "--model", "fdnn", "--mode", "cv",
               "--folds", "3", "--cv-strategy", "median",
               "--max-iterations", "15", "--out", out,
               "--neurons", "3", "--grid-points", "8", "--patience", "5",
               "--n-train", "14", "--n-val", "5", "--n-test", "7")
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["cv"]["strategy"] == "median"
    assert len(metrics["cv"]["fold_best_iterations"]) == 3
    assert metrics["cv"]["aggregate_iterations"] >= 0


def test_fit_fflm_closed_form_with_lambda_grid(tmp_path):
    data = simulate_small(tmp_path)
    out = tmp_path / "fit"
    code = run("fit", "--data", data, "--model", "fflm", "--num-basis", "5",
               "--lam-grid", "0,1e-3", "--folds", "3", "--out", out, *FIT_FAST)
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["mode"] == "closed-form"
    assert metrics["tuned_lam"] in (0.0, 1e-3)
    assert metrics["lam_w"] == metrics["tuned_lam"]
    assert metrics["lam_b"] is None

    # the saved model must reproduce the reported test RMSE
    full = datagen.load_table(str(data), 9, 7)
    _, _, test = datagen.split(full, datagen.SplitSpec(14, 5, 7, seed=0))
    model = baselines.FflmModel.from_dict(json.loads((out / "model.json").read_text()))
    assert abs(rmse(model.predict(test.x), test.y, test.y_grid)
               - metrics["test_rmse"]) <= 1e-12


def test_fit_fflm_records_the_lambda_it_was_fitted_with(tmp_path):
    data = simulate_small(tmp_path)
    out = tmp_path / "fit"
    assert run("fit", "--data", data, "--model", "fflm", "--num-basis", "5",
               "--lam", "1e-3", "--out", out, *FIT_FAST) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["lam_w"] == 1e-3 and metrics["lam_b"] is None
    assert json.loads((out / "model.json").read_text())["lam"] == 1e-3


@pytest.mark.parametrize("flags", [("--lam-b", "5"), ("--mode", "cv")])
def test_fit_fflm_refuses_flags_it_does_not_take(tmp_path, capsys, monkeypatch, flags):
    def read(*args, **kwargs):
        raise AssertionError("data read before the usage check")

    data = simulate_small(tmp_path)
    monkeypatch.setattr(datagen, "load_table", read)
    out = tmp_path / "fit"
    assert run("fit", "--data", data, "--model", "fflm", "--out", out, *FIT_FAST, *flags) == 1
    assert f"{flags[0]} does not apply to model fflm" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, cls", [("fdnn", fdnn.FdnnNetwork), ("fbnn", fbnn.FbnnNetwork),
                                       ("fflm", baselines.FflmModel),
                                       ("vnn", baselines.VectorNN)])
def test_fit_saves_a_model_that_network_from_dict_restores(tmp_path, kind, cls):
    data = simulate_small(tmp_path)
    out = tmp_path / kind
    assert run("fit", "--data", data, "--model", kind, "--num-basis", "5", "--hidden", "6",
               "--out", out, *FIT_FAST) == 0
    net = network.Network.from_dict(json.loads((out / "model.json").read_text()))
    assert type(net) is cls
    _, _, test = datagen.split(datagen.load_table(str(data), 9, 7),
                               datagen.SplitSpec(14, 5, 7, seed=0))
    metrics = json.loads((out / "metrics.json").read_text())
    npt.assert_allclose(rmse(net.predict(test.x), test.y, test.y_grid), metrics["test_rmse"],
                        rtol=1e-12, atol=0)


def test_network_from_dict_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="'nope'"):
        network.Network.from_dict({"kind": "nope"})
    doc = fdnn.init(fdnn.FdnnConfig(9, 7, 1, (2,), (8,)), seed=0).to_dict()
    with pytest.raises(ValueError, match="'fdnn'"):
        fbnn.FbnnNetwork.from_dict(doc)


def test_fit_prints_a_test_rmse_of_zero(tmp_path, capsys):
    rng = np.random.default_rng(0)
    path = tmp_path / "zero.csv"
    datagen.save_table(str(path), datagen.FuncDataset(rng.normal(size=(26, 1, 9)),
                                                      np.zeros((26, 7)), Grid(9), Grid(7)))
    assert run("fit", "--data", path, "--m", "9", "--m-y", "7", "--model", "fflm",
               "--num-basis", "5", "--out", tmp_path / "fit") == 0
    assert capsys.readouterr().out == "fflm: train 0.0000, test 0.0000\n"


def test_fit_network_lambda_grid_records_choice(tmp_path):
    data = simulate_small(tmp_path)
    out = tmp_path / "fit"
    code = run("fit", "--data", data, "--model", "fdnn",
               "--lam-grid", "0,0.1", "--folds", "2",
               "--max-iterations", "10", "--out", out,
               "--neurons", "2", "--grid-points", "8", "--patience", "5",
               "--n-train", "14", "--n-val", "5", "--n-test", "7")
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["tuned_lam_b"] in (0.0, 0.1)
    assert metrics["lam_w"] == metrics["tuned_lam_w"]


def test_fit_vnn_smoke(tmp_path):
    data = simulate_small(tmp_path)
    code = run("fit", "--data", data, "--model", "vnn", "--hidden", "6",
               "--step-size", "1e-2", "--max-iterations", "20",
               "--patience", "10", "--n-train", "14", "--n-val", "5",
               "--n-test", "7", "--out", tmp_path / "fit")
    assert code == 0


# ------------------------------------------------------------- exit codes


def test_usage_errors_exit_one(tmp_path, capsys):
    assert run("fit") == 1
    assert "requires --data" in capsys.readouterr().err

    assert run("fit", "--data", "x.csv", "--model", "bogus") == 1
    assert run() == 1  # missing subcommand

    # a dataset with no sidecar and no explicit layout is unusable
    orphan = tmp_path / "orphan.csv"
    src = simulate_small(tmp_path)
    orphan.write_text(src.read_text())
    assert run("fit", "--data", orphan, "--out", tmp_path / "fit") == 1


@pytest.mark.parametrize("model", ["fdnn", "fbnn", "vnn"])
def test_early_stopping_without_validation_is_usage_error(tmp_path, capsys, model):
    data = simulate_small(tmp_path)
    code = run("fit", "--data", data, "--model", model, "--num-basis", "5",
               "--hidden", "4", "--out", tmp_path / "fit",
               *FIT_FAST[:-6], "--n-train", "19", "--n-val", "0", "--n-test", "7")
    assert code == 1
    assert "at least one validation curve" in capsys.readouterr().err


@pytest.mark.parametrize("given", [
    ("--n-train", "30"),
    ("--n-val", "8", "--n-test", "10"),
    ("--n-train", "30", "--n-test", "10"),
])
def test_partial_split_flags_are_usage_error(tmp_path, capsys, given):
    data = simulate_small(tmp_path, n=48)
    code = run("fit", "--data", data, "--model", "fflm", "--num-basis", "5",
               "--out", tmp_path / "fit", *given)
    assert code == 1
    flags = ("--n-train", "--n-val", "--n-test")
    named = capsys.readouterr().err.split("missing", 1)[1]
    assert {flag for flag in flags if flag in named} == set(flags) - set(given)
    assert not (tmp_path / "fit").exists()


@pytest.mark.parametrize("flags", [
    ("--model", "fdnn", "--activation", "bogus"),
    ("--model", "fbnn", "--num-basis", "3"),
    ("--model", "fflm", "--num-basis", "3"),
    ("--model", "vnn", "--hidden", "0"),
])
def test_fit_rejects_bad_architecture_before_reading_data(tmp_path, capsys, monkeypatch,
                                                          flags):
    def read(*args, **kwargs):
        raise AssertionError("data read before the usage check")

    data = simulate_small(tmp_path)
    monkeypatch.setattr(datagen, "load_table", read)
    out = tmp_path / "fit"
    assert run("fit", "--data", data, "--out", out, *FIT_FAST, *flags) == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [("--lam", "0.01"), ("--lam-b", "0.01"),
                                   ("--lam-w", "0.01"), ("--lam-grid", "0,0.1")])
def test_fit_rejects_penalised_vnn_before_training(tmp_path, capsys, monkeypatch, flags):
    def train(*args, **kwargs):
        raise AssertionError("training ran before the usage check")

    for name in ("train_early_stopping", "train_fixed", "tune_lambda", "cv_early_stopping"):
        monkeypatch.setattr(training, name, train)
    data = simulate_small(tmp_path)
    out = tmp_path / "fit"
    code = run("fit", "--data", data, "--model", "vnn", "--hidden", "4",
               "--out", out, *FIT_FAST, *flags)
    assert code == 1
    assert "vnn" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [("--lam", "nan"), ("--patience", "nan"),
                                   ("--lam-grid", "nan,1"), ("--lam-b", "inf")])
def test_fit_rejects_non_finite_floats(tmp_path, capsys, flags):
    data = simulate_small(tmp_path)
    out = tmp_path / "fit"
    assert run("fit", "--data", data, "--out", out, *FIT_FAST, *flags) == 1
    assert flags[0] in capsys.readouterr().err
    assert not out.exists()
    # inf is a patience: train until the iteration cap
    assert run("fit", "--data", data, "--out", out, *FIT_FAST, "--patience", "inf") == 0
    assert json.loads((out / "metrics.json").read_text())["stopping_iteration"] == 25


@pytest.mark.parametrize("flags, named", [
    (("--tolerance", "nan"), "--tolerance"),
    (("--eps", "nan"), "--eps"),
    (("--eps", "0"), "eps"),
])
def test_gradcheck_rejects_settings_that_switch_the_audit_off(tmp_path, capsys, flags, named):
    assert run("gradcheck", "--out", tmp_path / "gc", *flags) == 1
    captured = capsys.readouterr()
    assert named in captured.err and "OK" not in captured.out


def test_json_outputs_refuse_nan(tmp_path):
    path = tmp_path / "metrics.json"
    with pytest.raises(ValueError):
        cli._write_json(path, {"lam_b": float("nan")})
    assert not path.exists()


@pytest.mark.parametrize("argv, flag", [
    (("fit", "--mode", "fixed", "--iterations", "-3"), "--iterations"),
    (("fit", "--max-iterations", "-1"), "--max-iterations"),
    (("benchmark", "--workers", "0"), "--workers"),
    (("benchmark", "--workers", "-1"), "--workers"),
    (("benchmark", "--replicates", "0"), "--replicates"),
    (("fit", "--folds", "1"), "--folds"),
    (("fit", "--mode", "cv", "--folds", "1"), "--folds"),
    # the training flags are checked by TrainConfig, also before any data is read
    (("fit", "--step-size", "0"), "step_size"),
    (("fit", "--lam", "-1"), "smoothing"),
    (("fit", "--model", "fflm", "--lam", "-1"), "smoothing"),
    (("fit", "--lam-b", "-0.5"), "smoothing"),
    (("fit", "--patience", "0"), "patience"),
    # a grid needs two points, a dataset one curve, a benchmark split a validation curve
    (("simulate", "--m", "1"), "--m"),
    (("simulate", "--m-y", "0"), "--m-y"),
    (("simulate", "--n", "0"), "--n"),
    (("fit", "--m", "-3"), "--m"),
    (("fit", "--m-y", "1"), "--m-y"),
    (("benchmark", "--m", "1"), "--m"),
    (("benchmark", "--m-y", "1"), "--m-y"),
    (("benchmark", "--n", "10"), "--n"),
])
def test_count_flags_out_of_range_are_usage_errors(tmp_path, capsys, monkeypatch, argv, flag):
    def read(*args, **kwargs):
        raise AssertionError("data read before the usage check")

    monkeypatch.setattr(datagen, "generate", read)
    monkeypatch.setattr(datagen, "load_table", read)
    data = ("--data", tmp_path / "d.csv") if argv[0] == "fit" else ("--n", "30")
    out = tmp_path / "out"
    # the case's own flags come last, so they override these
    assert run(argv[0], *data, "--m", "9", "--m-y", "7", *argv[1:], "--out", out) == 1
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sidecar, key", [
    ({"m": 9, "n": 26}, "'m_y'"),
    ({"m": "ten", "m_y": 7}, "'m'"),
    ({"m": 9, "m_y": 7.0}, "'m_y'"),
    ([9, 7], "'m'"),
    ({"m": -3, "m_y": 7}, "'m'"),
    ({"m": 9, "m_y": 1}, "'m_y'"),
    ("{m: 9}", "not valid JSON"),  # written as it is
])
def test_malformed_dataset_sidecar_is_a_usage_error(tmp_path, capsys, sidecar, key):
    data = simulate_small(tmp_path)
    text = sidecar if isinstance(sidecar, str) else json.dumps(sidecar)
    (data.parent / "dataset.json").write_text(text)
    out = tmp_path / "fit"
    assert run("fit", "--data", data, "--model", "fflm", "--out", out, *FIT_FAST) == 1
    err = capsys.readouterr().err
    assert "dataset.json" in err and key in err
    assert not out.exists()


def test_layout_flags_fill_what_the_sidecar_lacks(tmp_path):
    data = simulate_small(tmp_path)
    (data.parent / "dataset.json").write_text(json.dumps({"m": 9}))
    code = run("fit", "--data", data, "--model", "fflm", "--num-basis", "5", "--m-y", "7",
               "--out", tmp_path / "fit", *FIT_FAST)
    assert code == 0


@pytest.mark.parametrize("flags", [
    ("--grid-points", "2", "--lam", "0.1"),
    ("--grid-points", "2", "--lam-b", "0.1"),
    ("--m-y", "2", "--lam-b", "0.1"),
    ("--m", "2", "--lam-w", "0.1"),
    ("--grid-points", "2", "--lam-grid", "0,0.1"),
])
def test_penalised_fdnn_on_a_two_point_grid_is_refused_before_reading_data(
        tmp_path, capsys, monkeypatch, flags):
    def read(*args, **kwargs):
        raise AssertionError("data read before the usage check")

    data = simulate_small(tmp_path)
    monkeypatch.setattr(datagen, "generate", read)
    monkeypatch.setattr(datagen, "load_table", read)
    fit_out, bench_out = tmp_path / "fit", tmp_path / "bench"
    assert run("fit", "--data", data, "--out", fit_out, *FIT_FAST, *flags) == 1
    assert "at least 3 points" in capsys.readouterr().err
    if "--lam-grid" not in flags:
        assert run("benchmark", "--models", "fflm,fdnn", "--out", bench_out,
                   *BENCH_FAST, *flags) == 1
        assert "at least 3 points" in capsys.readouterr().err
    assert not fit_out.exists() and not bench_out.exists()


def test_bool_options_reject_unknown_words(tmp_path, capsys):
    args = ("benchmark", "--models", "fflm", "--replicates", "1", "--n", "30",
            "--m", "9", "--m-y", "7", "--num-basis", "5")
    assert run(*args, "--write-params", "ture", "--out", tmp_path / "a") == 1
    assert "ture" in capsys.readouterr().err
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("write_params = ture\n")
    assert run(*args, "--config", cfg, "--out", tmp_path / "b") == 1
    assert f"{cfg}:1" in capsys.readouterr().err
    for word in ("OFF", "No", "0", "false"):
        cfg.write_text(f"write_params = {word}\n")
        assert run(*args, "--config", cfg, "--out", tmp_path / word) == 0
    for word in ("On", "YES", "1", "true"):
        assert run(*args, "--write-params", word, "--out", tmp_path / word) == 0


def test_help_exits_cleanly():
    assert run("--help") == 0


def test_missing_data_file_is_io_error(tmp_path):
    code = run("fit", "--data", tmp_path / "nope.csv", "--m", "9",
               "--m-y", "7", "--out", tmp_path / "fit")
    assert code == 3


def test_exploding_training_is_numerical_failure(tmp_path, capsys):
    data = simulate_small(tmp_path)
    with np.errstate(over="ignore"):  # the blow-up is the point
        code = run("fit", "--data", data, "--model", "fdnn",
                   "--optimizer", "gd", "--step-size", "1e6",
                   "--max-iterations", "80", "--out", tmp_path / "fit",
                   "--neurons", "3", "--grid-points", "8", "--patience", "80",
                   "--n-train", "14", "--n-val", "5", "--n-test", "7")
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


# --------------------------------------------------------------- benchmark


BENCH_FAST = ("--replicates", "2", "--n", "30", "--m", "9", "--m-y", "7",
              "--neurons", "2", "--grid-points", "8", "--num-basis", "5",
              "--step-size", "1e-2", "--max-iterations", "8",
              "--patience", "4", "--seed", "1")


def test_benchmark_writes_results_summary_and_params(tmp_path):
    out = tmp_path / "bench"
    code = run("benchmark", "--scenarios", "linear",
               "--models", "fflm,fdnn", "--out", out, *BENCH_FAST)
    assert code == 0

    with open(out / "results.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["scenario", "model", "replicate", "rmse", "error"]
    assert len(rows) == 5  # 1 scenario x 2 models x 2 replicates
    assert all(row[4] == "" and float(row[3]) > 0 for row in rows[1:])

    with open(out / "summary.csv") as fh:
        summary = {(r[0], r[1]): r for r in list(csv.reader(fh))[1:]}
    assert summary[("linear", "fdnn")][2] == "2"
    assert float(summary[("linear", "fflm")][3]) > 0

    # replicate 0 of each network dumps its parameter functions for plots
    with open(out / "params_linear_fdnn.csv") as fh:
        params = list(csv.reader(fh))
    assert params[0] == ["layer", "neuron", "source", "kind", "s", "t", "value"]
    kinds = {row[3] for row in params[1:]}
    assert kinds == {"intercept", "weight"}


def test_benchmark_is_deterministic(tmp_path):
    args = ("benchmark", "--scenarios", "linear", "--models", "fdnn",
            *BENCH_FAST)
    assert run(*args, "--out", tmp_path / "a") == 0
    assert run(*args, "--out", tmp_path / "b") == 0
    assert ((tmp_path / "a" / "results.csv").read_text()
            == (tmp_path / "b" / "results.csv").read_text())


def test_benchmark_files_match_with_one_and_two_workers(tmp_path):
    # every model of a replicate fits the same data, whichever process
    # runs it; the serial run used to hand each later model fresh data
    args = ("benchmark", "--scenarios", "linear,quadratic", "--models", "fflm,fdnn,fbnn",
            "--write-params", "true", *BENCH_FAST)
    assert run(*args, "--workers", "1", "--out", tmp_path / "one") == 0
    assert run(*args, "--workers", "2", "--out", tmp_path / "two") == 0
    names = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "two").iterdir())
    assert [n for n in names if n.startswith("params_")] == [
        f"params_{s}_{m}.csv" for s in ("linear", "quadratic") for m in ("fbnn", "fdnn")]
    for name in names:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_param_dump_writes_repr_values_like_csv_writer(tmp_path):
    # two layers (2 neurons on 3 points, then 1 neuron on 4 points) with
    # values whose repr is not their str in every Python: 1e-05, -0.0
    rng = np.random.default_rng(0)
    layers = [(rng.normal(size=(2, 3)), rng.normal(size=(2, 1, 3, 5))),
              (np.array([[1e-05, -0.0, 0.0, 1e300]]), rng.normal(size=(1, 2, 4, 3)))]
    layers[0][1][1, 0, 2, 4] = -1e-05
    path = tmp_path / "params.csv"
    cli._write_param_functions(str(path), layers)

    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "neuron", "source", "kind", "s", "t", "value"])
        for l_idx, (b, w) in enumerate(layers):
            s_pts, t_pts = np.linspace(0, 1, w.shape[2]), np.linspace(0, 1, w.shape[3])
            for k in range(b.shape[0]):
                for s_i, s in enumerate(s_pts):
                    writer.writerow([l_idx, k, "", "intercept", repr(float(s)), "",
                                     repr(float(b[k, s_i]))])
                for j in range(w.shape[1]):
                    for s_i, s in enumerate(s_pts):
                        for t_i, t in enumerate(t_pts):
                            writer.writerow([l_idx, k, j, "weight", repr(float(s)),
                                             repr(float(t)), repr(float(w[k, j, s_i, t_i]))])
    text = path.read_bytes()
    assert text == expected.read_bytes()
    assert text.startswith(b"layer,neuron,source,kind,s,t,value\r\n")
    assert b",,1e-05\r\n" in text and b",,-0.0\r\n" in text and b",-1e-05\r\n" in text
    assert text.count(b"\r\n") == 1 + 2 * (3 + 15) + (4 + 2 * 12)


def test_benchmark_records_failures_without_aborting(tmp_path, capsys):
    # a basis far richer than the data makes the linear solve singular;
    # the run must record the failure and keep going
    out = tmp_path / "bench"
    code = run("benchmark", "--scenarios", "linear", "--models", "fflm",
               "--replicates", "1", "--n", "30", "--m", "9", "--m-y", "7",
               "--num-basis", "40", "--out", out)
    assert code == 0
    assert "1 failed replicates" in capsys.readouterr().out
    with open(out / "results.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][3] == ""
    assert rows[1][4] != ""
    with open(out / "summary.csv") as fh:
        summary = list(csv.reader(fh))
    assert summary[1][2] == "0"


def test_benchmark_rejects_unknown_model(tmp_path, capsys):
    code = run("benchmark", "--models", "nope", "--out", tmp_path / "bench")
    assert code == 1
    assert "unknown model" in capsys.readouterr().err


def fail_if_called(*args, **kwargs):
    raise AssertionError("data generated before the usage check")


@pytest.mark.parametrize("flags", [
    ("--models", "fdnn,vnn", "--activation", "bogus"),
    ("--models", "fdnn", "--neurons", "0"),
    ("--models", "fbnn", "--num-basis", "3"),
    ("--models", "fflm", "--num-basis", "3"),
    ("--models", "vnn", "--hidden", "0"),
    ("--models", "fflm,fdnn", "--step-size", "0"),
    ("--models", "fflm,fdnn", "--lam", "-1"),
    ("--models", "fflm,fdnn", "--lam-b", "-0.5"),
    ("--models", "fflm,fdnn", "--patience", "0"),
])
def test_benchmark_rejects_bad_architecture_before_generating_data(tmp_path, capsys,
                                                                   monkeypatch, flags):
    monkeypatch.setattr(datagen, "generate", fail_if_called)
    out = tmp_path / "bench"
    assert run("benchmark", "--out", out, *BENCH_FAST, *flags) == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, config, named", [
    (("--models", "fdnn,fflm,fdnn"), "", "--models"),
    (("--scenarios", "linear,cam,linear"), "", "--scenarios"),
    ((), "models = fflm,fflm\n", "--models"),
])
def test_benchmark_refuses_duplicate_names(tmp_path, capsys, monkeypatch, flags, config,
                                           named):
    monkeypatch.setattr(datagen, "generate", fail_if_called)
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(config)
    out = tmp_path / "bench"
    assert run("benchmark", "--config", cfg, "--out", out, *BENCH_FAST, *flags) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_benchmark_rejects_penalised_vnn_before_generating_data(tmp_path, capsys,
                                                               monkeypatch):
    monkeypatch.setattr(datagen, "generate", fail_if_called)
    for flag in ("--lam", "--lam-b", "--lam-w"):
        out = tmp_path / flag.strip("-")
        code = run("benchmark", "--scenarios", "linear", "--models", "fflm,vnn",
                   flag, "0.01", "--out", out, *BENCH_FAST)
        assert code == 1
        err = capsys.readouterr().err
        assert "vnn" in err
        # every listed model that refuses the flag is named
        assert ("fflm" in err) == (flag == "--lam-b")
        assert not out.exists()
    out = tmp_path / "fdnn"
    assert run("benchmark", "--models", "fflm,fdnn", "--lam-b", "0.01", "--out", out,
               *BENCH_FAST) == 1
    assert "--lam-b does not apply to model fflm;" in capsys.readouterr().err
    assert not out.exists()


# --------------------------------------------------------------- gradcheck


def test_gradcheck_passes_and_writes_report(tmp_path, capsys):
    out = tmp_path / "gc"
    assert run("gradcheck", "--out", out) == 0
    report = json.loads((out / "gradcheck.json").read_text())
    assert report["worst"] < report["tolerance"]
    assert set(report["errors"]) == {"fdnn", "fbnn", "vnn"}
    assert "penalty" in report["errors"]["fdnn"]
    assert "OK" in capsys.readouterr().out


def test_gradcheck_detects_corrupted_gradient(tmp_path, capsys, monkeypatch):
    backward = network.Network.backward

    def broken(self, cache, resid):
        grads = backward(self, cache, resid)
        grads[0] = grads[0] + 1.0
        return grads

    monkeypatch.setattr(network.Network, "backward", broken)
    assert run("gradcheck", "--out", tmp_path / "gc") == 2
    assert "FAIL" in capsys.readouterr().err


def test_gradcheck_fails_on_a_nan_error_and_still_writes_its_report(tmp_path, capsys,
                                                                    monkeypatch):
    fdnn_kind = cli._KINDS["fdnn"]

    def with_nan_intercept(*args):
        net = fdnn_kind.build(*args)
        net.layers[0].b[0, 0] = np.nan
        return net

    monkeypatch.setitem(cli._KINDS, "fdnn", fdnn_kind._replace(build=with_nan_intercept))
    out = tmp_path / "gc"
    with np.errstate(invalid="ignore"):
        assert run("gradcheck", "--out", out) == 2
    report = json.loads((out / "gradcheck.json").read_text())
    assert report["errors"]["fdnn"]["loss"] is None
    assert report["worst"] is None
    assert report["errors"]["vnn"]["loss"] < report["tolerance"]
    assert "FAIL: worst error nan" in capsys.readouterr().err


# ------------------------------------------------------------ config files


def test_config_file_fills_unset_flags(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n = 15   # replicate count\nseed = 7\nm = 9\nm_y = 7\n")
    out = tmp_path / "sim"
    # explicit flag beats the file, file beats the hard default
    assert run("simulate", "--config", cfg, "--n", "10", "--out", out) == 0
    sidecar = json.loads((out / "dataset.json").read_text())
    assert sidecar["n"] == 10
    assert sidecar["seed"] == 7
    assert sidecar["scenario"] == "linear"


def test_malformed_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this line has no equals sign\n")
    assert run("simulate", "--config", cfg, "--out", tmp_path / "sim") == 1
    assert "expected key=value" in capsys.readouterr().err


def test_config_values_get_the_flag_checks(tmp_path, capsys):
    data = simulate_small(tmp_path)
    cfg = tmp_path / "fit.cfg"
    for line, key in (("mode = typo", "mode"), ("n_val = five", "n_val"),
                      ("model = bogus", "model")):
        cfg.write_text(f"# fit settings\n{line}\n")
        out = tmp_path / key
        assert run("fit", "--config", cfg, "--data", data, "--out", out) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:2" in err and key in err
        assert not out.exists()


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n = 12\nstepsize = 5\n")
    out = tmp_path / "sim"
    assert run("simulate", "--config", cfg, "--out", out) == 1
    err = capsys.readouterr().err
    assert f"{cfg}:2" in err and "stepsize" in err
    assert not out.exists()
    # keys of another subcommand stay accepted: one file serves several
    cfg.write_text("n = 12\nm = 9\nm_y = 7\nstep_size = 5\nmodels = fflm\n")
    assert run("simulate", "--config", cfg, "--out", out) == 0
    assert json.loads((out / "dataset.json").read_text())["n"] == 12
