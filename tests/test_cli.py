import gc
import json

import numpy as np
import pytest

from lle import cli, harness
from lle.canonical import ConfigurationError
from lle.extrapolation import LLECoefficients
from lle.numerics import load_array


@pytest.fixture
def config_path(tmp_path):
    cfg = {
        "prior": {"dim": 4, "components": 2, "seed": 3},
        "task": {"operator": {"kind": "mask", "keep_ratio": 0.5, "seed": 2},
                 "sigma_y": 0.05},
        "algorithm": {"name": "DDNM"},
        "steps": 2,
        "n_test": 3,
        "seeds": {"train": 5, "test": 6},
        "lle": {"n_refs": 4, "ref_steps": 25, "epochs": 4, "warmup": 2,
                "base_seed": 5},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_gen_prior(tmp_path, config_path, capsys):
    out = str(tmp_path / "prior.json")
    assert cli.main(["gen-prior", "--dim", "5", "--components", "3",
                     "--seed", "11", "--out", out]) == 0
    assert "prior" in capsys.readouterr().out
    # the file is what a config reads as prior.file: the seeded mixture, bit for bit
    path = _variant(tmp_path, config_path, "file.json", prior={"file": "prior.json"})
    prior = harness.load_config(path).prior
    expected = harness.random_prior(5, 3, 11)
    assert prior.d == 5 and prior.K == 3
    for key in ("weights", "means", "covariances"):
        assert np.array_equal(getattr(prior, key), getattr(expected, key))


def test_gen_refs_is_not_a_subcommand(tmp_path, config_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["gen-refs", "--config", config_path, "--out", str(tmp_path / "refs.bin")])
    assert exit_info.value.code == 2
    assert "invalid choice: 'gen-refs'" in capsys.readouterr().err


def test_train_run_eval_pipeline(tmp_path, config_path):
    coeffs_path = str(tmp_path / "coeffs.json")
    cli.main(["train", "--config", config_path, "--out", coeffs_path])
    coeffs = LLECoefficients.load(coeffs_path)
    assert coeffs.S == 2
    trace = (tmp_path / "coeffs.json.trace.csv").read_text()
    assert trace.startswith("timestep,epoch,loss")

    recon_path = str(tmp_path / "recon.bin")
    cli.main(["run", "--config", config_path, "--coeffs", coeffs_path,
              "--seed", "21", "--out", recon_path])
    rows, cols, recon = load_array(recon_path)
    assert (rows, cols) == (3, 4)
    _, _, truth = load_array(recon_path + ".truth")

    metrics_path = str(tmp_path / "metrics.csv")
    cli.main(["eval", "--recon", recon_path, "--truth", recon_path + ".truth",
              "--config", config_path, "--out", metrics_path])
    lines = (tmp_path / "metrics.csv").read_text().strip().split("\n")
    assert lines[0] == "sample,mse,psnr,oracle_mse"
    assert len(lines) == 4


def test_eval_with_oracle_column(tmp_path, config_path):
    recon_path = str(tmp_path / "r.bin")
    cli.main(["run", "--config", config_path, "--seed", "2", "--out", recon_path])
    out = str(tmp_path / "m.csv")
    cli.main(["eval", "--recon", recon_path, "--truth", recon_path + ".truth",
              "--config", config_path, "--out", out, "--oracle"])
    body = (tmp_path / "m.csv").read_text().strip().split("\n")[1:]
    assert all(row.split(",")[3] != "" for row in body)


def _variant(tmp_path, config_path, name, **overrides):
    with open(config_path) as f:
        cfg = json.load(f)
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_run_rejects_coefficients_of_another_time_grid(tmp_path, config_path):
    # the same S over schedule.T 1000 and 400: grids [1000, 500] and [400, 200]
    coeffs_path = str(tmp_path / "coeffs.json")
    cli.main(["train", "--config", config_path, "--out", coeffs_path])
    other = _variant(tmp_path, config_path, "t400.json", schedule={"T": 400})
    with pytest.raises(ConfigurationError) as info:
        cli.main(["run", "--config", other, "--coeffs", coeffs_path,
                  "--seed", "21", "--out", str(tmp_path / "recon.bin")])
    assert "[1000, 500]" in str(info.value) and "[400, 200]" in str(info.value)
    assert not (tmp_path / "recon.bin").exists()


def test_eval_oracle_needs_a_linear_operator(tmp_path, config_path):
    nonlinear = _variant(tmp_path, config_path, "nl.json", algorithm={"name": "DPS"},
                         task={"operator": {"kind": "nonlinear"}, "sigma_y": 0.05})
    recon_path = str(tmp_path / "r.bin")
    cli.main(["run", "--config", nonlinear, "--seed", "2", "--out", recon_path])
    with pytest.raises(ConfigurationError) as info:
        cli.main(["eval", "--recon", recon_path, "--truth", recon_path + ".truth",
                  "--config", nonlinear, "--out", str(tmp_path / "m.csv"), "--oracle"])
    assert "task.operator.kind" in str(info.value) and "linear operator" in str(info.value)


def test_run_repeatable_bytes(tmp_path, config_path):
    a = str(tmp_path / "a.bin")
    b = str(tmp_path / "b.bin")
    for out in (a, b):
        cli.main(["run", "--config", config_path, "--seed", "7", "--out", out])
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_sweep_cli(tmp_path, config_path):
    out = str(tmp_path / "sweep.csv")
    cli.main(["sweep", "--config", config_path, "--steps", "2,3", "--out", out])
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "algorithm,S,strategy,mean_mse,mean_psnr"
    assert len(lines) == 5


def test_missing_subcommand_errors():
    with pytest.raises(SystemExit):
        cli.main([])


def test_second_call_leaves_no_garbage_cycles(tmp_path, capsys):
    # the parser is built once per process; a parser per call left ~270
    # argparse objects in reference cycles, which an in-process caller's RSS
    # carried until a full collection
    argv = ["gen-prior", "--dim", "3", "--components", "2", "--seed", "1",
            "--out", str(tmp_path / "p.json")]
    cli.main(argv)
    gc.collect()
    gc.disable()
    try:
        cli.main(argv)
        assert gc.collect() == 0
    finally:
        gc.enable()
