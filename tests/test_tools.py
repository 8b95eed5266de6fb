"""`tools/compare_outputs.py`: the per-file deviation and the exit status it reports."""

import importlib.util
import json
import os
import re
import types
from pathlib import Path

import numpy as np
import pytest

TOOLS_DIR = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("compare_outputs",
                                                  TOOLS_DIR / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sweep_csv(mse_s3):
    return ("algorithm,S,strategy,mean_mse,mean_psnr\n"
            f"DDNM,3,LLE,{mse_s3:.12g},10.1234567891\n"
            "DDNM,5,LLE,0.512345678901,11.4567890123\n").encode()


def test_csv_deviation_is_scaled_per_column(compare):
    # a mean_mse of ~0.7 moved by 1.6e-7 of itself is not measured against
    # the mean_psnr column's ~10
    old, new = 0.692360893746, 0.692360893746 * (1.0 + 1.6e-7)
    dev = compare.deviation("sweep-x.csv", _sweep_csv(old), _sweep_csv(new))
    assert dev == pytest.approx(abs(new - old) / old, rel=1e-6)
    assert dev == pytest.approx(1.6e-7, rel=1e-3)


def test_coefficient_vectors_are_scaled_each_by_its_own(compare):
    def coeffs(last):
        return json.dumps({"J": 2, "gamma": [[1000.0, 1.0], [0.5, last]]}).encode()

    dev = compare.deviation("coeffs-x.json", coeffs(0.5), coeffs(0.5 + 1e-9))
    assert dev == pytest.approx(2e-9, rel=1e-6)


def test_deviation_of_arrays_and_mismatches(compare):
    def lle(data):
        return b"LLEF64\n1 3\n" + np.asarray(data, dtype="<f8").tobytes()

    assert compare.deviation("recon-x.lle", lle([4.0, 1.0, 0.0]), lle([4.0, 1.0, 2e-12])) \
        == pytest.approx(5e-13)
    assert compare.deviation("sweep-x.csv", _sweep_csv(0.5), b"algorithm\nerror\n") is None
    assert compare.deviation("recon-x.lle.error", b"a", b"b") is None
    zero_col = b"a,b\n0,1\n"
    assert compare.deviation("x.csv", zero_col, b"a,b\n0,2\n") == 1.0
    assert compare.deviation("x.csv", zero_col, b"a,b\n1e-9,1\n") == float("inf")


def test_summary_groups_by_algorithm(compare):
    # on the run-nine outputs a change to one solver reads as one differing row
    groups = compare.fit_groups([5])
    rows = []
    for name in ("ddrm", "ddnm", "dps", "daps"):
        group = compare._group(os.path.join("5", "run-nine", f"recon-{name}.lle"), groups)
        assert group == ("recon", name.upper(), "none", "-")
        same = name != "daps"
        rows.append((group, same, 0.0 if same else 0.3))
    lines = compare.summary(rows).splitlines()
    assert lines[0].split("|")[2].strip() == "algorithm"
    differing = [line for line in lines[2:] if line.split("|")[6].strip() != "0"]
    assert differing == ["| recon | DAPS | none | - | 0 | 1 | 0.3 |"]
    assert len(lines) == 2 + 4


_RECON = os.path.join("5", "run-nine", "recon-ddrm.lle")
_SIDES = {
    "identical": ({_RECON: b"a"}, {_RECON: b"a"}),
    "differing": ({_RECON: b"a"}, {_RECON: b"b"}),
    "only-parent": ({_RECON: b"a"}, {}),
    "only-change": ({}, {_RECON: b"a"}),
    "error-on-both-sides": ({_RECON + ".error": b"exit 3"}, {_RECON + ".error": b"exit 3"}),
}


@pytest.mark.parametrize("case", list(_SIDES))
def test_exit_status_is_1_unless_every_file_is_identical(compare, monkeypatch, tmp_path,
                                                         case, capsys):
    # main's status, with each side's emitting process replaced by one that writes
    # the side's files at once: no subprocess runs
    old, new = _SIDES[case]

    class Side:
        def __init__(self, argv, env):
            out = argv[argv.index("--emit") + 1]
            for rel, blob in (old if env["PYTHONPATH"].endswith("parent") else new).items():
                os.makedirs(os.path.join(out, os.path.dirname(rel)), exist_ok=True)
                Path(out, rel).write_bytes(blob)

        def wait(self):
            return 0

    monkeypatch.setattr(compare.subprocess, "Popen", Side)
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--seeds", "5"]
    assert compare.main(argv) == (case != "identical")
    assert "1 files:" in capsys.readouterr().out


def test_grid_runs_ddrm_partial_blend_on_each_operator(compare):
    blend = [(name, calls) for name, cfg, calls in compare.grid_plan(3)
             if cfg["algorithm"].get("eta_b") == 0.5]
    assert blend == [("ddrm-mask-base-blend", ("run", "eval")),
                     ("ddrm-dense-base-blend", ("run", "eval"))]
    groups = compare.fit_groups([3])
    name = os.path.join("3", "grid", "metrics-ddrm-dense-base-blend.csv")
    assert compare._group(name, groups) == ("metrics", "DDRM", "none", "-")


def test_grid_runs_dps_partial_eta_on_each_operator(compare):
    # the DDIM noiser with both c1 and c2 non-zero, which no preset reaches
    partial = [(name, calls) for name, cfg, calls in compare.grid_plan(3)
               if cfg["algorithm"].get("eta") == 0.5]
    assert partial == [("dps-mask-base-eta", ("run", "eval")),
                       ("dps-dense-base-eta", ("run", "eval"))]
    groups = compare.fit_groups([3])
    name = os.path.join("3", "grid", "metrics-dps-dense-base-eta.csv")
    assert compare._group(name, groups) == ("metrics", "DPS", "none", "-")


def test_grid_runs_a_gen_prior_file_through_prior_file(compare):
    # the prior writer and the prior-file reader are compared too
    entries = [(name, cfg["prior"], calls) for name, cfg, calls in compare.grid_plan(3)
               if "gen-prior" in calls]
    assert len(entries) == 1
    name, spec, calls = entries[0]
    assert set(spec) == {"dim", "components", "seed"} and calls == ("gen-prior", "run", "eval")


def test_a_call_that_fails_writes_its_error(compare, tmp_path):
    # `lle` reports an LLEError as an exit code and one stderr line, not an exception
    from lle import cli

    config = tmp_path / "bad.json"
    config.write_text('{"prior": 3}')
    out = str(tmp_path / "recon.lle")
    compare._call(cli, ["run", "--config", str(config), "--seed", "1", "--out", out], out)
    assert Path(out + ".error").read_text() == "exit 3: lle: missing config key task\n"


def test_grid_runs_daps_on_linear_operators(compare):
    # DAPS's closed-form Langevin draw: both variants, each with the oracle, and a fit;
    # on the nonlinear operator its block draws, in a base run and in a fit
    daps = [(name, cfg["task"]["operator"]["kind"], cfg["algorithm"].get("daps"), calls)
            for name, cfg, calls in compare.grid_plan(3) if cfg["algorithm"]["name"] == "DAPS"]
    assert daps == [("daps-dense-base", "dense", None, ("run", "eval")),
                    ("daps-mask-base-noiseless", "mask", {"noiseless_linear": True},
                     ("run", "eval")),
                    ("daps-mask-coupled-closed", "mask", None, ("train", "run")),
                    ("daps-dense-base-langevin-7", "dense", {"n_langevin": 7, "eta0": 5e-4},
                     ("run", "eval")),
                    ("daps-blur-gauss-base", "blur", None, ("run", "eval")),
                    ("daps-blur-binomial-base", "blur", None, ("run", "eval")),
                    ("daps-avgpool-base", "avgpool", None, ("run", "eval")),
                    ("daps-hadamard-base", "hadamard", None, ("run", "eval")),
                    ("daps-nonlinear-base", "nonlinear", None, ("run", "eval")),
                    ("daps-nonlinear-coupled-closed", "nonlinear", None, ("train", "run")),
                    ("daps-mask-base-langevin-off", "mask", {"n_langevin": 0}, ("run", "eval")),
                    ("daps-mask-base-eta0-off", "mask", {"eta0": 0}, ("run", "eval"))]
    groups = compare.fit_groups([3])
    name = os.path.join("3", "grid", "recon-daps-mask-coupled-closed.lle")
    assert compare._group(name, groups) == ("recon", "DAPS", "closed", "coupled")
    name = os.path.join("3", "grid", "coeffs-daps-nonlinear-coupled-closed.json")
    assert compare._group(name, groups) == ("coeffs", "DAPS", "closed", "coupled")


def test_grid_evals_each_nonlinear_base_run_without_the_oracle(compare, monkeypatch, tmp_path):
    # so the metrics file with an empty oracle_mse column is compared too; the oracle
    # needs a linear operator, so every other eval passes --oracle
    plan = compare.grid_plan(3)
    evals = {name: cfg["task"]["operator"]["kind"] for name, cfg, calls in plan
             if "eval" in calls}
    assert [name for name, kind in evals.items() if kind == "nonlinear"] == [
        f"{algorithm.lower()}-nonlinear-base" for algorithm in compare.NONLINEAR_ALGORITHMS]
    argvs = {}
    monkeypatch.setattr(compare, "_bench_configs",
                        lambda: types.SimpleNamespace(WORKLOADS=(), SWEEP_STEPS=(3,)))
    monkeypatch.setattr(compare, "grid_plan", lambda seed: plan)
    monkeypatch.setattr(compare, "_call",
                        lambda cli, argv, out: argvs.setdefault(os.path.basename(out), argv))
    compare.emit(str(tmp_path), [3])  # records each call's argv, runs none
    for name, kind in evals.items():
        argv = argvs[f"metrics-{name}.csv"]
        assert argv[0] == "eval" and ("--oracle" in argv) == (kind != "nonlinear"), name


def test_grid_runs_each_structured_operator(compare):
    # each of them is its matrix factored by one SVD, so the grid must reach it
    structured = {}
    for name, cfg, calls in compare.grid_plan(3):
        kind = cfg["task"]["operator"]["kind"]
        if kind in ("blur", "avgpool", "hadamard"):
            structured.setdefault(name.split("-", 1)[1], []).append(
                (cfg["algorithm"]["name"], calls))
    runs = [(algorithm, ("run", "eval")) for algorithm in ("DDRM", "DPS", "ReSample", "DAPS")]
    assert structured == {"blur-gauss-base": runs, "blur-binomial-base": runs,
                          "avgpool-base": runs, "hadamard-base": runs,
                          "blur-gauss-decoupled-closed": [("DDRM", ("train", "run"))],
                          "blur-binomial-base-sigma-0": [("DDRM", ("run", "eval"))]}
    groups = compare.fit_groups([3])
    name = os.path.join("3", "grid", "coeffs-ddrm-blur-gauss-decoupled-closed.json")
    assert compare._group(name, groups) == ("coeffs", "DDRM", "closed", "decoupled")


def test_grid_runs_the_noiseless_oracle_on_a_rank_deficient_operator(compare):
    # every other sigma_y 0 entry has an operator of full row rank; this one's blur has a
    # zero singular value, and it draws nothing from the plan's rng, so no config moves
    from lle import operators as ops

    plan = compare.grid_plan(3)
    noiseless = [name for name, cfg, _ in plan if cfg["task"]["sigma_y"] == 0.0]
    assert noiseless == ["ddnm-dense-base-sigma-0", "diffpir-mask-base-noise-off",
                         "ddrm-blur-binomial-base-sigma-0"]
    names = [name for name, _, _ in plan]
    at = names.index("ddrm-blur-binomial-base-sigma-0")
    assert names[at - 1] == "diffpir-mask-base-noise-off"
    name, cfg, calls = plan[at]
    assert (cfg["algorithm"], cfg["task"]["operator"], cfg["lle"], calls) == (
        {"name": "DDRM"}, {"kind": "blur", "kernel": [0.25, 0.5, 0.25]}, "none",
        ("run", "eval"))
    op = ops.build_operator(cfg["prior"]["dim"], cfg["task"]["operator"])
    assert (op.m, op.r) == (8, 7)
    groups = compare.fit_groups([3])
    name = os.path.join("3", "grid", "metrics-ddrm-blur-binomial-base-sigma-0.csv")
    assert compare._group(name, groups) == ("metrics", "DDRM", "none", "-")


def test_grid_runs_resample_exact_hc_on_each_linear_operator(compare):
    # the closed-form hard data consistency, which no preset reaches
    exact = [(name, cfg["task"]["operator"]["kind"], calls)
             for name, cfg, calls in compare.grid_plan(3) if cfg["algorithm"].get("exact_hc")]
    assert exact == [("resample-mask-base-exact", "mask", ("run", "eval")),
                     ("resample-dense-base-exact", "dense", ("run", "eval"))]
    groups = compare.fit_groups([3])
    name = os.path.join("3", "grid", "metrics-resample-dense-base-exact.csv")
    assert compare._group(name, groups) == ("metrics", "ReSample", "none", "-")


def test_grid_runs_resample_linear_descent_off_its_preset(compare):
    # the recursion table at a step size, momentum and count no preset uses
    plan = compare.grid_plan(3)
    inner = [(name, cfg["task"]["operator"]["kind"], cfg["algorithm"]["inner_opt"], calls)
             for name, cfg, calls in plan
             if cfg["algorithm"]["name"] == "ReSample" and "inner_opt" in cfg["algorithm"]]
    assert inner == [
        ("resample-mask-base-steps-off", "mask", {"steps": 0}, ("run", "eval")),
        ("resample-mask-base-inner", "mask", {"lr": 0.5, "momentum": 0.5, "steps": 7},
         ("run", "eval")),
        ("resample-dense-base-inner", "dense", {"lr": 0.5, "momentum": 0.5, "steps": 7},
         ("run", "eval"))]
    # added after every draw, the dense run right after the mask run in the same process
    assert [name for name, _, _ in plan[-7:-5]] == ["resample-mask-base-inner",
                                                     "resample-dense-base-inner"]


def test_grid_builds_every_operator_form(compare):
    # each `OPERATORS` form, so that none escapes the comparison; the two before the
    # last three entries were added after every draw
    from lle import operators as ops

    plan = compare.grid_plan(3)
    built = set()
    for name, cfg, calls in plan:
        spec = cfg["task"]["operator"]
        forms = ops.OPERATORS[spec["kind"]]
        built.add((spec["kind"], next(key for key in forms if key in spec or key is None)))
    assert built == {(kind, key) for kind, forms in ops.OPERATORS.items() for key in forms}
    assert [(name, cfg["task"]["operator"], calls) for name, cfg, calls in plan[-5:-3]] == [
        ("ddrm-mask-indices-base", {"kind": "mask", "keep_indices": [0, 2, 3, 5, 6]},
         ("run", "eval")),
        ("dps-nonlinear-kernel-base",
         {"kind": "nonlinear", "kernel": [0.25, 0.5, 0.25], "scale": 0.5}, ("run",))]


def test_grid_runs_a_first_order_fit_at_warmup_0_last(compare):
    # every other first-order fit uses warmup 10, so the rule's warmup branch was always
    # taken; it is the last first-order fit, two entries before the plan's end
    plan = compare.grid_plan(3)
    warmups = [(name, cfg["lle"]["warmup"]) for name, cfg, _ in plan
               if isinstance(cfg["lle"], dict) and "warmup" in cfg["lle"]]
    assert {w for _, w in warmups[:-1]} == {10}
    name, cfg, calls = plan[-3]
    assert (name, cfg["algorithm"], cfg["task"]["operator"], calls) == (
        "ddnm-mask-coupled-first-no-warmup", {"name": "DDNM"}, plan[0][1]["task"]["operator"],
        ("train", "run"))
    grid = {entry: config for entry, config, _ in plan}["ddnm-mask-coupled-first"]["lle"]
    assert dict(cfg["lle"], decoupled=False, closed_form=False) == dict(grid, warmup=0)
    groups = compare.fit_groups([3])
    name = os.path.join("3", "grid", "coeffs-ddnm-mask-coupled-first-no-warmup.json")
    assert compare._group(name, groups) == ("coeffs", "DDNM", "first-order", "coupled")


def test_grid_runs_a_reddiff_fit_last(compare):
    # REDdiff anchors at the previous combined estimate, which a base run never moves;
    # it is one entry before the plan's end
    plan = compare.grid_plan(3)
    fits = [(name, calls) for name, cfg, calls in plan
            if cfg["algorithm"]["name"] == "REDdiff" and cfg["lle"] != "none"]
    assert fits == [("reddiff-mask-coupled-closed", ("train", "run"))]
    name, cfg, calls = plan[-2]
    assert (name, cfg["algorithm"], cfg["task"]["operator"]) == (
        "reddiff-mask-coupled-closed", {"name": "REDdiff", "xi": 0.5},
        plan[0][1]["task"]["operator"])
    closed = {entry: config for entry, config, _ in plan}["ddnm-mask-coupled-closed"]["lle"]
    assert dict(cfg["lle"], decoupled=False) == closed
    groups = compare.fit_groups([3])
    name = os.path.join("3", "grid", "recon-reddiff-mask-coupled-closed.lle")
    assert compare._group(name, groups) == ("recon", "REDdiff", "closed", "coupled")


def test_grid_runs_a_noisy_target_fit_last(compare):
    # the one fit whose target is the corrector applied to the references
    plan = compare.grid_plan(3)
    noisy = [(name, calls) for name, cfg, calls in plan
             if isinstance(cfg["lle"], dict) and cfg["lle"].get("noisy_gt")]
    assert noisy == [("ddrm-mask-coupled-closed-noisy-gt", ("train", "run"))]
    name, cfg, calls = plan[-1]
    assert (name, cfg["algorithm"], cfg["task"]["operator"]) == (
        "ddrm-mask-coupled-closed-noisy-gt", {"name": "DDRM"}, plan[0][1]["task"]["operator"])
    closed = {entry: config for entry, config, _ in plan}["ddrm-mask-coupled-closed"]["lle"]
    assert dict(cfg["lle"], decoupled=False) == dict(closed, noisy_gt=True)
    groups = compare.fit_groups([3])
    name = os.path.join("3", "grid", "coeffs-ddrm-mask-coupled-closed-noisy-gt.json")
    assert compare._group(name, groups) == ("coeffs", "DDRM", "closed", "coupled")


def test_grid_runs_each_stage_switched_off(compare):
    # a zero count, weight or noise level, or a draw that keeps everything, with no key it
    # leaves unread; and the one config whose prior is given inline
    off = [(name, cfg["algorithm"], cfg["task"]["operator"], cfg["lle"], calls)
           for name, cfg, calls in compare.grid_plan(3)
           if "off" in name or "keep-all" in name or "inline" in name]
    mask = compare.grid_plan(3)[0][1]["task"]["operator"]
    assert off == [
        ("daps-mask-base-langevin-off", {"name": "DAPS", "daps": {"n_langevin": 0}}, mask,
         "none", ("run", "eval")),
        ("daps-mask-base-eta0-off", {"name": "DAPS", "daps": {"eta0": 0}}, mask, "none",
         ("run", "eval")),
        ("resample-mask-base-steps-off", {"name": "ReSample", "inner_opt": {"steps": 0}}, mask,
         "none", ("run", "eval")),
        ("diffpir-nonlinear-base-steps-off", {"name": "DiffPIR", "inner_opt": {"steps": 0}},
         {"kind": "nonlinear"}, "none", ("run",)),
        ("reddiff-mask-base-xi-off", {"name": "REDdiff", "xi": 0}, mask, "none",
         ("run", "eval")),
        ("ddnm-keep-all-base", {"name": "DDNM"}, {"kind": "mask", "keep_ratio": 1.0}, "none",
         ("run", "eval")),
        ("dps-mask-base-zeta-off", {"name": "DPS", "zeta": 0}, mask, "none", ("run", "eval")),
        ("dmps-mask-base-lam-off", {"name": "DMPS", "lam": 0}, mask, "none", ("run", "eval")),
        ("resample-mask-base-gamma-off", {"name": "ReSample", "gamma_rs": 0}, mask, "none",
         ("run", "eval")),
        ("diffpir-mask-base-noise-off", {"name": "DiffPIR"}, mask, "none", ("run", "eval")),
        ("ddnm-mask-base-inline-prior", {"name": "DDNM"}, mask, "none", ("run", "eval")),
        ("ddnm-mask-coupled-first-epochs-off", {"name": "DDNM"}, mask,
         {"n_refs": 12, "ref_steps": 100, "base_seed": off[-1][3]["base_seed"], "epochs": 0},
         ("train", "run"))]
    plan = {name: cfg for name, cfg, _ in compare.grid_plan(3)}
    assert plan["diffpir-mask-base-noise-off"]["task"]["sigma_y"] == 0.0
    assert set(plan["ddnm-mask-base-inline-prior"]["prior"]) == {"weights", "means",
                                                                 "covariances"}
    groups = compare.fit_groups([3])
    name = os.path.join("3", "grid", "coeffs-ddnm-mask-coupled-first-epochs-off.json")
    assert compare._group(name, groups) == ("coeffs", "DDNM", "first-order", "coupled")


def test_every_grid_config_loads(compare, tmp_path):
    # a key its fit or solver leaves unread would turn its calls into .error files
    from lle import harness

    for name, cfg, _ in compare.grid_plan(3):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        harness.load_config(path)


def test_linecov_reports_each_function_of_a_reduced_target(tmp_path):
    # one `lle run` under the line collector: `run_with_combiner` ran, the oracle did not
    from lle import cli

    spec = importlib.util.spec_from_file_location("linecov", TOOLS_DIR / "linecov.py")
    linecov = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(linecov)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "prior": {"dim": 8, "components": 2, "seed": 5},
        "task": {"operator": {"kind": "mask", "keep_ratio": 0.5, "seed": 1}, "sigma_y": 0.05},
        "algorithm": {"name": "DDRM"}, "steps": 2, "n_test": 2, "lle": "none"}))
    out = str(tmp_path / "recon.lle")
    text = linecov.report(lambda: cli.main(["run", "--config", str(config), "--seed", "3",
                                            "--out", out]))
    ran = {m[1]: (int(m[2]), int(m[3])) for m in
           re.finditer(r"^(\S+: \S+): ran (\d+) of (\d+)$", text, re.M)}
    k, n = ran["canonical.py: run_with_combiner"]
    assert 0 < k <= n
    k, n = ran["harness.py: oracle_posterior"]
    assert k == 0 < n and "expected last dim" in text
    # lle was imported before the collector started, so no module-level line ran
    assert all(k == 0 for name, (k, _) in ran.items() if name.endswith(": <module>"))
    missed, total = map(int, re.fullmatch(r"(\d+) of (\d+) executable lines never ran",
                                          text.splitlines()[-1]).groups())
    assert missed == sum(n - k for k, n in ran.values()) and total == sum(
        n for _, n in ran.values())
