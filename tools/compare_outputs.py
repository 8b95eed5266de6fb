"""Compare the CLI outputs of two source trees, file by file.

    python3 tools/compare_outputs.py --parent OLD/src --change NEW/src --seeds 3,4

Each side runs in its own subprocess with PYTHONPATH set to its source tree
(the directory holding the ``lle`` package) and the BLAS pools pinned to one
thread. For every seed it makes the same ``lle.cli.main`` calls:

- every call of the three benchmark workloads (``bench/configs.workload_plan``,
  imported read-only);
- an LLE grid: DDRM, DDNM, DPS and DiffPIR x mask and dense operator x coupled
  and decoupled x closed-form and first-order fit, each with ``train``,
  ``run --coeffs`` and ``sweep``, plus one base (identity) ``run`` per
  algorithm and operator, one DDRM base ``run`` per operator at ``eta_b``
  0.5 (the spectral corrector's partial blend, which neither preset
  reaches), and one DPS base ``run`` per operator at ``eta`` 0.5 (the DDIM
  noiser with both c1 and c2 non-zero, which no preset reaches), and one
  ReSample base ``run`` per operator with ``exact_hc`` true (its closed-form
  hard data consistency), each followed by ``eval --oracle`` on its output,
  so the posterior oracle's numerics are compared too;
- one DDNM base ``run`` and ``eval --oracle`` whose config reads the grid's
  prior through ``prior.file``, from a file that ``gen-prior`` writes first,
  so the prior writer and the prior-file reader are compared too;
- one first-order fit with the gradient-domain loss term, one Adam fit
  with the dynamic lr rule and soft-nonlinear init, and one decoupled
  first-order fit with the gradient-domain term and soft-nonlinear init on
  the dense operator (the decoupled init's loss with omega > 0), each with
  ``train`` and ``run --coeffs``;
- DAPS on a linear operator, where its Langevin chain is drawn from its
  closed-form n-step law: one base ``run`` and ``eval --oracle`` on the dense
  operator, the same on the mask with ``daps.noiseless_linear`` true, and one
  coupled closed-form fit on the mask with ``train`` and ``run --coeffs``;
- the solver driver's per-run tables on counts and branches no preset
  reaches: one DAPS base ``run`` and ``eval --oracle`` on the dense operator
  at ``daps.n_langevin`` 7 and ``daps.eta0`` 5e-4 over S = 15 steps (the
  n-step factors of every step from one table, at an odd count), and one
  DDNM base ``run`` and ``eval --oracle`` on the dense operator at each of
  ``sigma_y`` 0 (its noisy branch off everywhere) and 0.5 (on at the last
  step, and earlier where s is small);
- the structured linear operators, each its matrix factored by one SVD: a
  base ``run`` and ``eval --oracle`` for each of DDRM, DPS, ReSample and DAPS
  on a full-rank Gaussian blur, on the rank-deficient ``[0.25, 0.5, 0.25]``
  blur, on 2x average pooling and on half the Hadamard rows, and one
  decoupled closed-form DDRM fit on the full-rank blur (whose null
  projections are zero) with ``train`` and ``run --coeffs``;
- on the ``nonlinear`` operator, one base ``run`` for each of DPS, REDdiff,
  DiffPIR, ReSample and DAPS (no ``eval --oracle``: the oracle needs a linear
  operator), one DPS first-order fit and one DAPS closed-form fit, each with
  ``train`` and ``run --coeffs`` (DAPS draws its Langevin noise there in
  blocks, ``standard_normal_block``, from the training stream as from a run's);
- each stage switched off by a zero count or weight, or a draw that keeps
  everything: one base ``run`` (and ``eval --oracle`` on the mask) of DAPS at
  ``daps.n_langevin`` 0 and at ``daps.eta0`` 0, ReSample at ``inner_opt.steps``
  0, DiffPIR on the nonlinear operator at ``inner_opt.steps`` 0, REDdiff at
  ``xi`` 0, DDNM on a mask at ``keep_ratio`` 1.0, DPS at ``zeta`` 0, DMPS at
  ``lam`` 0 and ReSample at ``gamma_rs`` 0, one DiffPIR base ``run`` and
  ``eval --oracle`` on the mask at ``task.sigma_y`` 0 (its exact projection
  onto the data, the rho -> 0 branch), one DDNM base ``run`` and
  ``eval --oracle`` whose config gives its prior inline (``weights``,
  ``means``, ``covariances``), and one DDNM first-order fit at ``epochs`` 0
  with ``train`` and ``run --coeffs``;
- ReSample's range-coordinate descent table off its preset: one base ``run``
  and ``eval --oracle`` on the mask at ``inner_opt`` lr 0.5, momentum 0.5 and
  7 steps, then the same on the dense operator, after every draw so that no
  earlier config changes; the two differ only in the operator's singular
  values s, so a descent table reused across a different s shows as a difference;
- the two ``operators.OPERATORS`` forms no entry above builds, after every
  draw: one DDRM base ``run`` and ``eval --oracle`` on a mask given by
  ``keep_indices``, and one DPS base ``run`` on the ``nonlinear`` operator
  given by its ``kernel`` (at ``scale`` 0.5), so every form is compared;
- one schedule-free DDNM first-order fit at ``warmup`` 0 with ``train`` and
  ``run --coeffs``, the last first-order fit in the plan: every other one
  uses ``warmup`` 10, so the rule's unscaled first steps are compared too;
- one REDdiff closed-form fit on the mask at ``xi`` 0.5 with ``train`` and
  ``run --coeffs``: REDdiff anchors at the previous step's combined
  estimate, which only a fit makes differ from the corrected one, and at its
  preset ``xi`` 1 the anchor cancels out of its step;
- one DDRM closed-form fit on the mask with ``lle.noisy_gt`` true, with
  ``train`` and ``run --coeffs``, last in the plan: the only fit whose
  target is the solver's corrector applied to the references
  (``extrapolation.make_ground_truth``), not the references themselves.

Every fit of the grid reads 12 references, not a power of two, so a change
that only reorders the fit's gradient scaling 2/n moves its coefficient files.
Every config sets only keys it reads: a closed-form fit takes no ``epochs``,
``warmup``, ``lr_rule`` or ``optimizer``, the Adam fit no ``warmup``, the fit at
``epochs`` 0 none of the three, and a switched-off stage none of the keys it
leaves unread, since ``lle`` rejects a key its switch leaves unread.

A call that fails writes ``<out>.error`` instead: the exception it raised, or
the exit code and stderr line of an error ``lle`` reports itself. For
every file the comparison prints ``identical``, or the maximum relative
deviation max|new - old| / max|old|, taken over each group of its numbers
with that group's own max|old| (the array of an LLEF64 file, each
coefficient vector of a JSON file, each CSV column) and maximized over the
groups, or ``differs`` when the files do not have the same shape or
non-numeric content.

A summary table follows, one row per group of files: kind (coeffs, recon,
sweep, trace, metrics) x algorithm x fit (closed, first-order, or none for a
base run) x coupling, taken from the config that made the file, so a change
to one solver reads as that solver's rows. Each row counts the identical and
the differing files and gives their maximum deviation.

The exit status is 0 only when every file is identical on both sides and no
side wrote an ``.error`` file. It is 1 when any file differs, exists on one
side only, or is an ``.error`` file, or when a side fails to run, so
``--parent src --change src`` checks that the same seed gives the same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(os.path.dirname(HERE), "bench")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

GRID_ALGORITHMS = ("DDRM", "DDNM", "DPS", "DiffPIR")
STRUCTURED_ALGORITHMS = ("DDRM", "DPS", "ReSample", "DAPS")
NONLINEAR_ALGORITHMS = ("DPS", "REDdiff", "DiffPIR", "ReSample", "DAPS")
GRID_STEPS = "2,3"


# ---------------------------------------------------------------------------
# the calls, made in the child process of one side
# ---------------------------------------------------------------------------


def _grid_config(seed, algorithm, operator, n_test, lle):
    return {
        "prior": {"dim": 8, "components": 3, "seed": seed},
        "task": {"operator": operator, "sigma_y": 0.05},
        "algorithm": {"name": algorithm},
        "steps": 3,
        "n_test": n_test,
        "seeds": {"train": seed + 1, "test": seed + 2},
        "lle": lle,
    }


def grid_plan(seed: int) -> list:
    """(name, config, calls) for the LLE grid, the optimizer variants, the
    DAPS linear-operator runs, the structured-operator runs and the
    nonlinear-operator runs."""
    rng = random.Random(seed)
    operators = {
        "mask": {"kind": "mask", "keep_ratio": 0.5, "seed": rng.randrange(1, 2**31)},
        "dense": {"kind": "dense",
                  "matrix": [[rng.gauss(0.0, 0.35) for _ in range(8)] for _ in range(4)]},
    }
    base_seed = rng.randrange(1, 2**31)
    prior_seed = rng.randrange(1, 2**31)
    # a closed-form fit reads no optimizer key, and a first-order one reads them
    fit = {"n_refs": 12, "ref_steps": 100, "base_seed": base_seed}
    first = dict(fit, epochs=30, warmup=10)
    plan = []
    for algorithm in GRID_ALGORITHMS:
        for op_name, operator in operators.items():
            name = f"{algorithm.lower()}-{op_name}-base"
            plan.append((name, _grid_config(prior_seed, algorithm, operator, 5, "none"),
                         ("run", "eval")))
            for decoupled in (False, True):
                for closed_form in (True, False):
                    lle = dict(fit if closed_form else first, decoupled=decoupled,
                               closed_form=closed_form)
                    name = (f"{algorithm.lower()}-{op_name}-"
                            f"{'decoupled' if decoupled else 'coupled'}-"
                            f"{'closed' if closed_form else 'first'}")
                    cfg = _grid_config(prior_seed, algorithm, operator, 5, lle)
                    plan.append((name, cfg, ("train", "run", "sweep")))
    for op_name, operator in operators.items():
        cfg = _grid_config(prior_seed, "DDRM", operator, 5, "none")
        cfg["algorithm"]["eta_b"] = 0.5
        plan.append((f"ddrm-{op_name}-base-blend", cfg, ("run", "eval")))
    for op_name, operator in operators.items():
        cfg = _grid_config(prior_seed, "DPS", operator, 5, "none")
        cfg["algorithm"]["eta"] = 0.5
        plan.append((f"dps-{op_name}-base-eta", cfg, ("run", "eval")))
    for op_name, operator in operators.items():
        cfg = _grid_config(prior_seed, "ReSample", operator, 5, "none")
        cfg["algorithm"]["exact_hc"] = True
        plan.append((f"resample-{op_name}-base-exact", cfg, ("run", "eval")))
    cfg = _grid_config(prior_seed, "DDNM", operators["mask"], 5, "none")
    plan.append(("ddnm-mask-base-prior-file", cfg, ("gen-prior", "run", "eval")))
    variants = {
        "dps-mask-plugin": ("DPS", "mask", dict(first, plugin="gradient-domain")),
        # Adam reads no warmup
        "ddnm-mask-adam": ("DDNM", "mask", dict(fit, epochs=30, optimizer="adam",
                                                lr_rule="dynamic", init_mode="soft-nonlinear")),
        "dps-dense-decoupled-plugin": ("DPS", "dense", dict(
            first, decoupled=True, plugin="gradient-domain", init_mode="soft-nonlinear")),
    }
    for name, (algorithm, op_name, lle) in variants.items():
        plan.append((name, _grid_config(prior_seed, algorithm, operators[op_name], 5, lle),
                     ("train", "run")))
    daps = {
        "daps-dense-base": ("dense", {}, "none", ("run", "eval")),
        "daps-mask-base-noiseless": ("mask", {"noiseless_linear": True}, "none",
                                     ("run", "eval")),
        "daps-mask-coupled-closed": ("mask", {}, dict(fit, closed_form=True), ("train", "run")),
    }
    for name, (op_name, block, lle, calls) in daps.items():
        cfg = _grid_config(prior_seed, "DAPS", operators[op_name], 5, lle)
        if block:
            cfg["algorithm"]["daps"] = block
        plan.append((name, cfg, calls))
    # the driver's per-run tables on counts and branches no preset reaches: DAPS's
    # n-step factors at an odd n_langevin over a 15-step grid, and DDNM's noisy
    # branch off everywhere (sigma_y 0) and on where s is small (sigma_y 0.5)
    cfg = _grid_config(prior_seed, "DAPS", operators["dense"], 5, "none")
    cfg["algorithm"]["daps"] = {"n_langevin": 7, "eta0": 5e-4}
    cfg["steps"] = 15
    plan.append(("daps-dense-base-langevin-7", cfg, ("run", "eval")))
    for sigma_y, label in ((0.0, "0"), (0.5, "0p5")):
        cfg = _grid_config(prior_seed, "DDNM", operators["dense"], 5, "none")
        cfg["task"]["sigma_y"] = sigma_y
        plan.append((f"ddnm-dense-base-sigma-{label}", cfg, ("run", "eval")))
    structured = {
        "blur-gauss": {"kind": "blur", "sigma": 1.2, "width": 5},
        "blur-binomial": {"kind": "blur", "kernel": [0.25, 0.5, 0.25]},
        "avgpool": {"kind": "avgpool", "factor": 2},
        "hadamard": {"kind": "hadamard", "keep_ratio": 0.5, "seed": rng.randrange(1, 2**31)},
    }
    for op_name, operator in structured.items():
        for algorithm in STRUCTURED_ALGORITHMS:
            plan.append((f"{algorithm.lower()}-{op_name}-base",
                         _grid_config(prior_seed, algorithm, operator, 5, "none"),
                         ("run", "eval")))
    plan.append(("ddrm-blur-gauss-decoupled-closed",
                 _grid_config(prior_seed, "DDRM", structured["blur-gauss"], 5,
                              dict(fit, decoupled=True, closed_form=True)), ("train", "run")))
    nonlinear = {"kind": "nonlinear"}
    for algorithm in NONLINEAR_ALGORITHMS:
        plan.append((f"{algorithm.lower()}-nonlinear-base",
                     _grid_config(prior_seed, algorithm, nonlinear, 5, "none"), ("run",)))
    plan.append(("dps-nonlinear-coupled-first",
                 _grid_config(prior_seed, "DPS", nonlinear, 5, first), ("train", "run")))
    plan.append(("daps-nonlinear-coupled-closed", _grid_config(
        prior_seed, "DAPS", nonlinear, 5, dict(fit, closed_form=True)), ("train", "run")))
    keep_all = {"kind": "mask", "keep_ratio": 1.0}  # every coordinate: no seed is read
    switched_off = {
        "daps-mask-base-langevin-off": ("DAPS", "mask", {"daps": {"n_langevin": 0}}),
        "daps-mask-base-eta0-off": ("DAPS", "mask", {"daps": {"eta0": 0}}),
        "resample-mask-base-steps-off": ("ReSample", "mask", {"inner_opt": {"steps": 0}}),
        "diffpir-nonlinear-base-steps-off": ("DiffPIR", "nonlinear", {"inner_opt": {"steps": 0}}),
        "reddiff-mask-base-xi-off": ("REDdiff", "mask", {"xi": 0}),
        "ddnm-keep-all-base": ("DDNM", "keep-all", {}),
        "dps-mask-base-zeta-off": ("DPS", "mask", {"zeta": 0}),
        "dmps-mask-base-lam-off": ("DMPS", "mask", {"lam": 0}),
        "resample-mask-base-gamma-off": ("ReSample", "mask", {"gamma_rs": 0}),
    }
    by_name = dict(operators, nonlinear=nonlinear, **{"keep-all": keep_all})
    for name, (algorithm, op_name, keys) in switched_off.items():
        cfg = _grid_config(prior_seed, algorithm, by_name[op_name], 5, "none")
        cfg["algorithm"].update(keys)
        plan.append((name, cfg, ("run",) if op_name == "nonlinear" else ("run", "eval")))
    cfg = _grid_config(prior_seed, "DiffPIR", operators["mask"], 5, "none")
    cfg["task"]["sigma_y"] = 0.0  # rho is 0: DiffPIR's exact projection onto the data
    plan.append(("diffpir-mask-base-noise-off", cfg, ("run", "eval")))
    cfg = _grid_config(prior_seed, "DDNM", operators["mask"], 5, "none")
    cfg["prior"] = {"weights": [0.25, 0.75],
                    "means": [[0.5 * (j % 3) - 0.5 for j in range(8)],
                              [1.0 - 0.25 * j for j in range(8)]],
                    "covariances": [[[0.3 * (i == j) + 0.05 * (k + 1) for j in range(8)]
                                     for i in range(8)] for k in range(2)]}
    plan.append(("ddnm-mask-base-inline-prior", cfg, ("run", "eval")))
    plan.append(("ddnm-mask-coupled-first-epochs-off", _grid_config(
        prior_seed, "DDNM", operators["mask"], 5, dict(fit, epochs=0)), ("train", "run")))
    for op_name in ("mask", "dense"):  # one process: a table reused across s shows here
        cfg = _grid_config(prior_seed, "ReSample", operators[op_name], 5, "none")
        cfg["algorithm"]["inner_opt"] = {"lr": 0.5, "momentum": 0.5, "steps": 7}
        plan.append((f"resample-{op_name}-base-inner", cfg, ("run", "eval")))
    # the two operator forms no entry above builds
    indices = {"kind": "mask", "keep_indices": [0, 2, 3, 5, 6]}
    plan.append(("ddrm-mask-indices-base", _grid_config(prior_seed, "DDRM", indices, 5, "none"),
                 ("run", "eval")))
    kernel = {"kind": "nonlinear", "kernel": [0.25, 0.5, 0.25], "scale": 0.5}
    plan.append(("dps-nonlinear-kernel-base", _grid_config(prior_seed, "DPS", kernel, 5, "none"),
                 ("run",)))
    plan.append(("ddnm-mask-coupled-first-no-warmup", _grid_config(
        prior_seed, "DDNM", operators["mask"], 5, dict(first, warmup=0)), ("train", "run")))
    cfg = _grid_config(prior_seed, "REDdiff", operators["mask"], 5, dict(fit, closed_form=True))
    cfg["algorithm"]["xi"] = 0.5  # at the preset's xi 1 the anchor cancels out of the step
    plan.append(("reddiff-mask-coupled-closed", cfg, ("train", "run")))
    plan.append(("ddrm-mask-coupled-closed-noisy-gt", _grid_config(
        prior_seed, "DDRM", operators["mask"], 5, dict(fit, closed_form=True, noisy_gt=True)),
        ("train", "run")))
    return plan


def _call(cli, argv, out):
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        error = f"exit {code}: {err.getvalue()}" if code else None
    except Exception as exc:  # an error row is an output too
        error = f"{type(exc).__name__}: {exc}\n"
    if error:
        with open(out + ".error", "w") as f:
            f.write(error)


def _bench_configs():
    sys.path.append(BENCH)
    import configs  # noqa: E402  (bench/configs.py: pure Python)

    return configs


def emit(outdir: str, seeds: list) -> None:
    """Make every call for every seed, writing outputs under outdir/<seed>/."""
    configs = _bench_configs()
    from lle import cli

    steps = ",".join(str(s) for s in configs.SWEEP_STEPS)
    for seed in seeds:
        for workload in configs.WORKLOADS:
            d = os.path.join(outdir, str(seed), workload)
            os.makedirs(d)
            plan = configs.workload_plan(workload, seed)
            paths = configs.write_configs(plan, d)
            for kind, name in plan["calls"]:
                if kind == "train":
                    out = os.path.join(d, f"coeffs-{name}.json")
                    _call(cli, ["train", "--config", paths[name], "--out", out], out)
                elif kind == "run":
                    out = os.path.join(d, f"recon-{name}.lle")
                    _call(cli, ["run", "--config", paths[name], "--seed",
                                str(plan["run_seed"]), "--out", out], out)
                else:
                    out = os.path.join(d, f"sweep-{name}.csv")
                    _call(cli, ["sweep", "--config", paths[name], "--steps", steps,
                                "--out", out], out)
        d = os.path.join(outdir, str(seed), "grid")
        os.makedirs(d)
        for name, cfg, calls in grid_plan(seed):
            if "gen-prior" in calls:  # the seeded prior, written to a file the config reads
                spec, cfg = cfg["prior"], dict(cfg, prior={"file": f"prior-{name}.json"})
                prior = os.path.join(d, cfg["prior"]["file"])
                _call(cli, ["gen-prior", "--dim", str(spec["dim"]), "--components",
                            str(spec["components"]), "--seed", str(spec["seed"]),
                            "--out", prior], prior)
            path = os.path.join(d, f"{name}.json")
            with open(path, "w") as f:
                json.dump(cfg, f)
            coeffs = os.path.join(d, f"coeffs-{name}.json")
            run_seed = str(seed + 3)
            for kind in calls:
                if kind == "train":
                    _call(cli, ["train", "--config", path, "--out", coeffs], coeffs)
                elif kind == "run":
                    out = os.path.join(d, f"recon-{name}.lle")
                    extra = ["--coeffs", coeffs] if "train" in calls else []
                    _call(cli, ["run", "--config", path, "--seed", run_seed, "--out", out]
                          + extra, out)
                elif kind == "eval":
                    recon = os.path.join(d, f"recon-{name}.lle")
                    out = os.path.join(d, f"metrics-{name}.csv")
                    _call(cli, ["eval", "--recon", recon, "--truth", recon + ".truth",
                                "--config", path, "--oracle", "--out", out], out)
                elif kind == "sweep":
                    out = os.path.join(d, f"sweep-{name}.csv")
                    _call(cli, ["sweep", "--config", path, "--steps", GRID_STEPS,
                                "--out", out], out)


# ---------------------------------------------------------------------------
# the comparison, in the launching process
# ---------------------------------------------------------------------------


def _numbers(path: str, blob: bytes):
    """(number groups, the non-numeric skeleton) of one output file: the one
    array of an LLEF64 file, each coefficient vector of a JSON file, each
    column of a CSV file."""
    import numpy as np

    if blob.startswith(b"LLEF64\n"):
        header, _, payload = blob[7:].partition(b"\n")
        return [np.frombuffer(payload, dtype="<f8")], header
    if path.endswith(".json"):
        obj = json.loads(blob)
        keys = sorted(k for k in obj if k.startswith("gamma"))
        skeleton = ({k: obj[k] for k in obj if k not in keys},
                    [[len(vec) for vec in obj[k]] for k in keys])
        return [np.array(vec, dtype=float) for k in keys for vec in obj[k]], json.dumps(skeleton)
    columns, skeleton = {}, []
    for line in blob.decode().splitlines():
        for j, field in enumerate(line.split(",")):
            try:
                columns.setdefault(j, []).append(float(field))
                skeleton.append("#")
            except ValueError:
                skeleton.append(field)
        skeleton.append("\n")
    return [np.array(columns[j]) for j in sorted(columns)], ",".join(skeleton)


def _relative(a, b) -> float:
    """max|b - a| / max|a| over one group of numbers; 0 when the two are equal
    (nan matching nan), inf when a is all zero and b is not."""
    import numpy as np

    same = (a == b) | (np.isnan(a) & np.isnan(b))
    if same.all():
        return 0.0
    scale = np.max(np.abs(a))
    return float(np.max(np.abs(b - a)[~same]) / scale) if scale else math.inf


def deviation(path: str, old: bytes, new: bytes) -> float | None:
    """The largest `_relative` deviation over the number groups of two differing
    files, each group scaled by its own max|old|, or None when they do not
    have the same shape and non-numeric content."""
    if path.endswith(".error"):
        return None
    a, skel_a = _numbers(path, old)
    b, skel_b = _numbers(path, new)
    if skel_a != skel_b or [g.shape for g in a] != [g.shape for g in b]:
        return None
    return max((_relative(ga, gb) for ga, gb in zip(a, b)), default=0.0)


def fit_groups(seeds: list) -> dict:
    """(seed, directory, config name) -> (algorithm, fit, coupling) of that
    config: its algorithm name and its LLE block."""
    configs = _bench_configs()
    groups = {}
    for seed in seeds:
        named = [(w, name, cfg) for w in configs.WORKLOADS
                 for name, cfg in configs.workload_plan(w, seed)["configs"].items()]
        named += [("grid", name, cfg) for name, cfg, _ in grid_plan(seed)]
        for directory, name, cfg in named:
            lle = cfg["lle"]
            groups[str(seed), directory, name] = (cfg["algorithm"]["name"],) + (
                ("none", "-") if lle == "none" else (
                    "closed" if lle.get("closed_form") else "first-order",
                    "decoupled" if lle.get("decoupled") else "coupled"))
    return groups


def _group(rel: str, groups: dict) -> tuple:
    """(kind, algorithm, fit, coupling) of one output file, e.g. 83/grid/recon-dps-mask-base.lle."""
    seed, directory, filename = rel.split(os.sep)
    kind, _, rest = filename.partition("-")
    if ".trace." in filename:
        kind = "trace"
    return (kind,) + groups[seed, directory, rest.split(".")[0]]


def summary(rows: list) -> str:
    """The markdown table of (group, identical, deviation or None) rows."""
    table = {}
    for group, same, dev in rows:
        counts = table.setdefault(group, [0, 0, 0.0, 0])  # identical, differing, max, other
        if same:
            counts[0] += 1
        elif dev is None:
            counts[1] += 1
            counts[3] += 1
        else:
            counts[1] += 1
            counts[2] = max(counts[2], dev)
    lines = ["| kind | algorithm | fit | coupling | identical | differing | max rel dev |",
             "| --- | --- | --- | --- | --- | --- | --- |"]
    for group, (same, differing, worst, other) in sorted(table.items()):
        dev = f"{worst:.2g}" if differing > other else "-"
        if other:
            dev += f" ({other} not comparable)"
        lines.append(f"| {' | '.join(group)} | {same} | {differing} | {dev} |")
    return "\n".join(lines)


def _files(root: str) -> dict:
    found = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            rel = os.path.relpath(path, root)
            if not rel.endswith(".json") or "coeffs-" in rel:  # configs are inputs
                with open(path, "rb") as f:
                    found[rel] = f.read()
    return found


def report(old: dict, new: dict, groups: dict) -> int:
    """Print each file's verdict, the counts and the summary table for the
    relative path -> bytes maps of the two sides; return the exit status: 1
    when any file differs, exists on one side only, or is an ``.error`` file."""
    counts, rows = {}, []
    for rel in sorted(old.keys() | new.keys()):
        if rel not in old or rel not in new:
            dev, verdict = None, f"only in {'change' if rel in new else 'parent'}"
        elif old[rel] == new[rel]:
            dev, verdict = 0.0, "identical"
        else:
            dev = deviation(rel, old[rel], new[rel])
            verdict = "differs" if dev is None else f"max rel dev {dev:.3g}"
        print(f"{rel}: {verdict}")
        kind = "deviating" if verdict.startswith("max") else verdict.split(" ")[0]
        counts[kind] = counts.get(kind, 0) + 1
        rows.append((_group(rel, groups), verdict == "identical", dev))
    print(f"{len(old.keys() | new.keys())} files: "
          + ", ".join(f"{n} {kind}" for kind, n in sorted(counts.items())))
    print(summary(rows))
    errors = sorted(rel for rel in old.keys() | new.keys() if rel.endswith(".error"))
    if errors:
        print(f"{len(errors)} call(s) failed: {', '.join(errors)}")
    return int(bool(errors) or any(kind != "identical" for kind in counts))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", help="source tree of the old code (holds lle/)")
    p.add_argument("--change", help="source tree of the new code (holds lle/)")
    p.add_argument("--seeds", required=True, help="comma-separated workload seeds")
    p.add_argument("--emit", help=argparse.SUPPRESS)  # child mode: output directory
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.emit:
        emit(args.emit, seeds)
        return 0
    if not (args.parent and args.change):
        p.error("--parent and --change are required")
    with tempfile.TemporaryDirectory(prefix="compare-") as work:
        procs = {}
        for side in ("parent", "change"):
            env = dict(os.environ, PYTHONPATH=os.path.abspath(getattr(args, side)))
            env.update({var: "1" for var in THREAD_VARS})
            out = os.path.join(work, side)
            procs[side] = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--seeds", args.seeds,
                 "--emit", out], env=env)
        if any(proc.wait() != 0 for proc in procs.values()):
            print("a side failed to run", file=sys.stderr)
            return 1
        old = _files(os.path.join(work, "parent"))
        new = _files(os.path.join(work, "change"))
    return report(old, new, fit_groups(seeds))


if __name__ == "__main__":
    sys.exit(main())
