"""The benchmark's span tracer wraps `lle` functions by name; check they resolve."""

import importlib.util
import json
from pathlib import Path

from lle import canonical as canon
from lle import harness

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    assert set(canon.CORRECTORS) == set(canon.NOISERS) == set(canon.ALGORITHMS)


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
    # two test samples plus one training batch, two steps each
    assert calls.get("canonical.corrector.DDNM") == 6
    assert calls.get("canonical.apply_noiser") == 6
    assert calls.get("canonical.run_with_combiner") == 3
    assert canon.CORRECTORS["DDNM"] is canon.corr_ddnm
