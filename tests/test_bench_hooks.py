"""The benchmark's span tracer wraps `lle` functions by name; check they resolve."""

import importlib.util
import json
from pathlib import Path

from lle import canonical as canon
from lle import diffusion as dif
from lle import harness
from lle import operators as ops
from lle.numerics import RngStream

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return _load_bench_module("tracer")


def test_tracer_targets_exist():
    tracer = load_tracer()
    for mod_name, names in tracer.FUNCTIONS.items():
        module = importlib.import_module(f"lle.{mod_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"lle.{mod_name}.{name}"
    for (mod_name, cls_name), names in tracer.METHODS.items():
        cls = getattr(importlib.import_module(f"lle.{mod_name}"), cls_name)
        for name in names:
            assert name in vars(cls), f"lle.{mod_name}.{cls_name}.{name}"
    assert set(canon.CORRECTORS) == set(canon.SOLVERS) == set(canon.ALGORITHMS)


def test_tracer_counts_driver_layers(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "prior": {"dim": 4, "components": 2, "seed": 9},
        "task": {"operator": {"kind": "mask", "keep_ratio": 0.5, "seed": 1},
                 "sigma_y": 0.05},
        "algorithm": {"name": "DDNM"},
        "steps": 2,
        "n_test": 2,
        "lle": {"n_refs": 4, "ref_steps": 10, "epochs": 3, "warmup": 1},
    }))
    cfg = harness.load_config(path)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        harness.run_experiment(cfg, seed=3)
        harness.train_lle(cfg)
    finally:
        tracer.uninstall()
    calls = tracer.end_pass()["calls"]
    # one test batch (both samples) plus one training batch, two steps each
    assert calls.get("canonical.corrector.DDNM") == 4
    assert calls.get("canonical.sample_phi") == 4
    assert calls.get("canonical.apply_noiser") == 4
    assert calls.get("canonical.run_with_combiner") == 2
    assert canon.CORRECTORS["DDNM"] is canon.corr_ddrm


def test_benchmark_configs_load_and_sweep_runs(tmp_path):
    configs = _load_bench_module("configs")
    for workload in configs.WORKLOADS:
        directory = tmp_path / workload
        directory.mkdir()
        plan = configs.workload_plan(workload, seed=1)
        for path in configs.write_configs(plan, str(directory)).values():
            harness.load_config(path)
    # the sweep workload's own config, with training shrunk to a few steps
    plan = configs.workload_plan("sweep-d8", seed=1)
    raw = plan["configs"]["ddnm"]
    raw["lle"].update(n_refs=4, ref_steps=20, epochs=3, warmup=1)
    path = tmp_path / "small-sweep.json"
    path.write_text(json.dumps(raw))
    text = harness.sweep(harness.load_config(path), list(configs.SWEEP_STEPS))
    rows = text.strip().split("\n")[1:]
    assert len(rows) == 2 * len(configs.SWEEP_STEPS)
    assert not any("error" in row for row in rows)


def test_tracer_counts_sweep_cells_and_driver_calls(tmp_path):
    # one traced sweep-d8 pass: the cell hook still sees 6 rows, from one test batch,
    # and each step count is two driver calls, its fit and the joint base-and-LLE run
    configs = _load_bench_module("configs")
    plan = configs.workload_plan("sweep-d8", seed=1)
    path = configs.write_configs(plan, str(tmp_path))["ddnm"]
    cfg = harness.load_config(path)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        text = harness.sweep(cfg, list(configs.SWEEP_STEPS))
    finally:
        tracer.uninstall()
    snap = tracer.end_pass()
    assert snap["counters"]["harness.cells"] == 6 == 2 * len(configs.SWEEP_STEPS)
    assert snap["counters"]["harness.cells_failed"] == 0 and "error" not in text
    assert snap["calls"]["harness.make_test_batch"] == 1
    assert snap["calls"]["canonical.run_with_combiner"] == 6
    n_refs = cfg.train_config.n_refs
    assert snap["counters"]["canonical.driver_rows"] == 3 * (n_refs + 2 * cfg.n_test)


def test_run_nine_rows_replay_canonical_run(tmp_path):
    # the benchmark's run-nine check, on a 3-sample test batch: row
    # run_seed % n_test of run_experiment equals canonical.run bit for bit
    configs = _load_bench_module("configs")
    plan = configs.workload_plan("run-nine", seed=1)
    run_seed = plan["run_seed"]
    assert len(plan["calls"]) == len(canon.ALGORITHMS)
    for _, name in plan["calls"]:
        raw = dict(plan["configs"][name], n_test=3)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(raw))
        cfg = harness.load_config(path)
        recons, _ = harness.run_experiment(cfg, run_seed)
        _, ys, op = harness.make_test_batch(cfg)
        i = run_seed % cfg.n_test
        obs = ops.Observation(y=ys[i], op=op, sigma_y=cfg.sigma_y)
        grid = dif.make_time_grid(cfg.schedule, cfg.steps)
        base = canon.run(cfg.params, cfg.prior, cfg.schedule, obs, grid, run_seed,
                         stream=RngStream(run_seed, 1000 + i))
        assert base.astype("<f8").tobytes() == recons[i].tobytes(), name
