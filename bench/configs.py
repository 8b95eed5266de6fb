"""Workload definitions: the CLI configs each workload runs, generated from a seed.

Pure Python (no NumPy), so a workload process can write its configs before
it imports ``lle`` and starts timing set-up. The same workload seed always
gives the same configs; every seed the benchmark derives (prior, mask, test
batch, training and run streams) comes from it.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("train-d32", "run-nine", "sweep-d8")

ALGORITHMS = ("DDRM", "DDNM", "DPS", "PiGDM", "REDdiff", "DiffPIR", "DMPS",
              "ReSample", "DAPS")

SWEEP_STEPS = (3, 5, 10)


def derive_seeds(seed: int) -> dict:
    """Named sub-seeds for one workload seed; all in [1, 2**31)."""
    rng = random.Random(seed)
    names = ("prior", "mask", "test", "train", "lle", "run")
    return {name: rng.randrange(1, 2**31) for name in names}


def _config(seeds, dim, components, algorithm, steps, n_test, lle):
    return {
        "prior": {"dim": dim, "components": components, "seed": seeds["prior"]},
        # "keep_ratio", not "keep": build_operator has no "keep" key.
        "task": {"operator": {"kind": "mask", "keep_ratio": 0.5,
                              "seed": seeds["mask"]},
                 "sigma_y": 0.05},
        "algorithm": {"name": algorithm},
        "steps": steps,
        "n_test": n_test,
        "seeds": {"train": seeds["train"], "test": seeds["test"]},
        "lle": lle,
    }


def workload_plan(workload: str, seed: int) -> dict:
    """What one pass of the workload runs.

    Returns {"configs": {name: config dict}, "calls": [(kind, config name)],
    "run_seed": int}; the workload turns each call into one ``lle.cli.main``
    argv.
    """
    seeds = derive_seeds(seed)
    if workload == "train-d32":
        lle = {"n_refs": 50, "ref_steps": 999, "closed_form": True,
               "base_seed": seeds["lle"]}
        configs = {"dps": _config(seeds, 32, 4, "DPS", 5, 20, lle)}
        calls = [("train", "dps")]
    elif workload == "run-nine":
        configs = {a.lower(): _config(seeds, 32, 4, a, 10, 20, "none")
                   for a in ALGORITHMS}
        calls = [("run", a.lower()) for a in ALGORITHMS]
    elif workload == "sweep-d8":
        lle = {"n_refs": 50, "ref_steps": 999, "epochs": 100,
               "closed_form": False, "optimizer": "schedule-free",
               "base_seed": seeds["lle"]}
        configs = {"ddnm": _config(seeds, 8, 3, "DDNM", SWEEP_STEPS[0], 50, lle)}
        calls = [("sweep", "ddnm")]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return {"configs": configs, "calls": calls, "run_seed": seeds["run"]}


def write_configs(plan: dict, directory: str) -> dict:
    """Write each config as <name>.json under directory; returns name -> path."""
    paths = {}
    for name, cfg in plan["configs"].items():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w") as f:
            json.dump(cfg, f, indent=1, sort_keys=True)
        paths[name] = path
    return paths
