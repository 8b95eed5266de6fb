import gc
import json
import warnings

import numpy as np
import pytest

from lle import cli, harness
from lle.errors import ConfigError, ConvergenceError, FormatError
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


def _error_line(capsys) -> str:
    """The one line `lle` wrote on stderr, without its "lle: " prefix."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("lle: "), lines
    return lines[0][len("lle: "):]


def test_run_rejects_coefficients_of_another_time_grid(tmp_path, config_path, capsys):
    # the same S over schedule.T 1000 and 400: grids [1000, 500] and [400, 200]
    coeffs_path = str(tmp_path / "coeffs.json")
    cli.main(["train", "--config", config_path, "--out", coeffs_path])
    other = _variant(tmp_path, config_path, "t400.json", schedule={"T": 400})
    capsys.readouterr()
    assert cli.main(["run", "--config", other, "--coeffs", coeffs_path,
                     "--seed", "21", "--out", str(tmp_path / "recon.bin")]) == 3
    message = _error_line(capsys)
    assert "[1000, 500]" in message and "[400, 200]" in message
    assert not (tmp_path / "recon.bin").exists()


def test_eval_oracle_needs_a_linear_operator(tmp_path, config_path, capsys):
    nonlinear = _variant(tmp_path, config_path, "nl.json", algorithm={"name": "DPS"},
                         task={"operator": {"kind": "nonlinear"}, "sigma_y": 0.05})
    recon_path = str(tmp_path / "r.bin")
    cli.main(["run", "--config", nonlinear, "--seed", "2", "--out", recon_path])
    capsys.readouterr()
    assert cli.main(["eval", "--recon", recon_path, "--truth", recon_path + ".truth",
                     "--config", nonlinear, "--out", str(tmp_path / "m.csv"), "--oracle"]) == 3
    message = _error_line(capsys)
    assert "task.operator.kind" in message and "linear operator" in message


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


@pytest.mark.parametrize("text, message", [
    ('{"prior": 3}', "missing config key task"),
    ("", "{path} is not valid JSON: Expecting value at line 1 column 1"),
    # earlier Python's bare ValueError from json.loads
    ('{"prior": {"dim": 4, "components": 2, "seed": ' + "1" * 5000 + "}}",
     "{path} cannot be parsed: Exceeds the limit (4300 digits) for integer string conversion:"
     " value has 5000 digits"),
])
def test_config_error_is_one_line_and_exit_3(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert cli.main(["run", "--config", str(path), "--seed", "1",
                     "--out", str(tmp_path / "r.bin")]) == ConfigError.exit_code == 3
    assert _error_line(capsys) == message.format(path=path)


def test_divergence_is_one_line_and_exit_4(tmp_path, config_path, capsys):
    # ReSample's inner step past its stable range; earlier this was a 28-line traceback
    path = _variant(tmp_path, config_path, "rs.json",
                    algorithm={"name": "ReSample", "inner_opt": {"lr": 1.95}})
    assert cli.main(["run", "--config", path, "--seed", "1",
                     "--out", str(tmp_path / "r.bin")]) == ConvergenceError.exit_code == 4
    message = _error_line(capsys)
    assert message.startswith("inner optimizer diverged") and "algorithm.inner_opt.lr" in message
    assert not (tmp_path / "r.bin").exists()


@pytest.mark.parametrize("content, message", [
    (b"junk", "bad magic at byte offset 0: b'junk'"),
    (None, "{recon} cannot be read: No such file or directory"),  # a missing --recon file
])
def test_array_file_error_is_one_line_and_exit_5(tmp_path, config_path, capsys, content,
                                                   message):
    recon = tmp_path / "recon.bin"
    if content is not None:
        recon.write_bytes(content)
    assert cli.main(["eval", "--recon", str(recon), "--truth", str(recon), "--config",
                     config_path, "--out", str(tmp_path / "m.csv")]) == FormatError.exit_code == 5
    assert _error_line(capsys) == message.format(recon=recon)


@pytest.mark.parametrize("run_with, eval_with, shapes", [
    ({"n_test": 5}, {}, "shape (3, 4), the reconstructions (5, 4)"),  # more rows than n_test
    ({}, {"prior": {"dim": 8, "components": 2, "seed": 3}},
     "shape (3, 8), the reconstructions (3, 4)"),
])
def test_eval_oracle_rejects_a_batch_that_is_not_the_configs(tmp_path, config_path, capsys,
                                                             run_with, eval_with, shapes):
    # earlier: an IndexError traceback, or a shape-mismatch error from mse
    recon_path = str(tmp_path / "r.bin")
    cli.main(["run", "--config", _variant(tmp_path, config_path, "run.json", **run_with),
              "--seed", "2", "--out", recon_path])
    capsys.readouterr()
    assert cli.main(["eval", "--recon", recon_path, "--truth", recon_path + ".truth",
                     "--config", _variant(tmp_path, config_path, "eval.json", **eval_with),
                     "--out", str(tmp_path / "m.csv"), "--oracle"]) == 3
    assert shapes in _error_line(capsys)


def test_sweep_steps_must_be_integers(tmp_path, config_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["sweep", "--config", config_path, "--steps", "3,x",
                  "--out", str(tmp_path / "s.csv")])
    assert exit_info.value.code == 2
    assert "argument --steps: invalid int_list value: '3,x'" in capsys.readouterr().err


def test_an_error_that_is_not_an_lle_error_stays_a_traceback(tmp_path, config_path,
                                                            monkeypatch):
    # only LLEError is reported as a line: anything else is a bug and propagates
    def broken(config, steps):
        raise ZeroDivisionError("a bug")

    monkeypatch.setattr(harness, "sweep", broken)
    with pytest.raises(ZeroDivisionError, match="a bug"):
        cli.main(["sweep", "--config", config_path, "--steps", "2",
                  "--out", str(tmp_path / "s.csv")])


def _run(config, tmp_path, out="r.bin"):
    return cli.main(["run", "--config", config, "--seed", "1", "--out", str(tmp_path / out)])


def test_unread_algorithm_key_is_one_line_and_exit_3(tmp_path, config_path, capsys):
    # earlier DDRM ran with these keys ignored, and exited 0
    path = _variant(tmp_path, config_path, "ddrm.json",
                    algorithm={"name": "DDRM", "zeta": 7, "xi": 3, "daps": {"eta0": 5}})
    assert _run(path, tmp_path) == 3
    assert _error_line(capsys) == "algorithm.zeta is not read by DDRM"
    assert not (tmp_path / "r.bin").exists()


def test_non_finite_estimate_is_one_line_and_exit_4(tmp_path, config_path, capsys):
    # DAPS past its stable Langevin step size; earlier an all-NaN file and exit 0
    path = _variant(tmp_path, config_path, "daps.json",
                    algorithm={"name": "DAPS", "daps": {"eta0": 0.5}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NumPy overflow warning would be another line
        assert _run(path, tmp_path) == 4
    assert _error_line(capsys) == "DAPS's estimate at t_i = 500 is not finite in row(s) [0, 1, 2]"
    assert not (tmp_path / "r.bin").exists()


def test_ref_steps_above_schedule_T_is_one_line_and_exit_3(tmp_path, config_path, capsys):
    # earlier training ran on a silently shortened 100-step reference chain
    path = _variant(tmp_path, config_path, "t100.json", schedule={"T": 100},
                    lle={"n_refs": 4, "ref_steps": 999, "epochs": 4})
    assert cli.main(["train", "--config", path, "--out", str(tmp_path / "c.json")]) == 3
    assert _error_line(capsys) == "lle.ref_steps must be <= schedule.T (100), got 999"


@pytest.mark.parametrize("flag, value", [("--dim", "0"), ("--components", "-1")])
def test_gen_prior_bad_size_is_one_line_and_exit_3(tmp_path, capsys, flag, value):
    # earlier a NumPy ValueError traceback
    argv = {"--dim": "3", "--components": "2", flag: value}
    out = tmp_path / "p.json"
    assert cli.main(["gen-prior", *(a for kv in argv.items() for a in kv), "--seed", "1",
                     "--out", str(out)]) == 3
    assert _error_line(capsys) == f"prior.{flag[2:]} must be >= 1, got {value}"
    assert not out.exists()


def test_unwritable_output_is_one_line_and_exit_5(tmp_path, config_path, capsys):
    # earlier a FileNotFoundError traceback
    assert _run(config_path, tmp_path, "nodir/r.bin") == 5
    assert _error_line(capsys) == (f"{tmp_path / 'nodir/r.bin'} cannot be written:"
                                   " No such file or directory")
