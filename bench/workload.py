"""One benchmark workload in one process: set-up, a closed loop of CLI calls, checks.

Started by ``run.py`` with the BLAS and OpenMP pools pinned to one thread.
Every call goes through ``lle.cli.main(argv)`` in this process, one after
another (a closed loop with one caller), so the loop times what a user of
the ``lle`` command runs, minus interpreter start-up. The last line on
stdout is the result JSON.

With ``--trace 1`` untraced passes alternate with passes run under
``tracer.Tracer``; the median difference between adjacent pairs is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import calib
import configs
from tracer import Tracer

SETUP_SAMPLES = 9
MIN_PASSES = 3
PERCENTILES = (50, 90, 99, 99.9)


def measure_setup(config_path: str) -> float:
    """Seconds to import lle (NumPy included) and load one config."""
    t0 = time.perf_counter()
    import lle.cli  # noqa: F401
    from lle import harness

    harness.load_config(config_path)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail_percentile(samples):
    """Highest of PERCENTILES with at least ten samples beyond it, as (p, value)."""
    n = len(samples)
    best = None
    for p in PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            k = min(n - 1, math.ceil(p / 100 * n) - 1)
            best = (p, sorted(samples)[k])
    return best


def describe(name, samples, unit):
    med = statistics.median(samples)
    tail = tail_percentile(samples)
    tail_s = (f"p{tail[0]:g} {tail[1]:.6g} {unit}" if tail
              else "no percentile has 10 samples beyond it")
    return f"{name}: median {med:.6g} {unit}, {tail_s}, n={len(samples)}"


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Workload:
    """The CLI calls of one pass, their output files, and their checks."""

    def __init__(self, name, plan, paths, workdir):
        self.name = name
        self.plan = plan
        self.paths = paths
        self.calls = []  # (argv, output files)
        steps = ",".join(str(s) for s in configs.SWEEP_STEPS)
        for kind, cfg in plan["calls"]:
            if kind == "train":
                out = os.path.join(workdir, f"coeffs-{cfg}.json")
                argv = ["train", "--config", paths[cfg], "--out", out]
                files = [out, out + ".trace.csv"]
            elif kind == "run":
                out = os.path.join(workdir, f"recon-{cfg}.lle")
                argv = ["run", "--config", paths[cfg], "--seed", str(plan["run_seed"]),
                        "--out", out]
                files = [out, out + ".truth"]
            else:
                out = os.path.join(workdir, f"sweep-{cfg}.csv")
                argv = ["sweep", "--config", paths[cfg], "--steps", steps, "--out", out]
                files = [out]
            self.calls.append((argv, files))
        # one operation per CLI call, except that each sweep row is one
        self.rows_per_sweep = 2 * len(configs.SWEEP_STEPS)
        self.ops_per_call = self.rows_per_sweep if name == "sweep-d8" else 1

    def throughput(self, pass_s: float) -> str:
        """The workload's own rate, derived from the median pass time."""
        if self.name == "train-d32":
            return f"train_s: {pass_s:.6g} s per lle train call"
        if self.name == "run-nine":
            n = sum(self.plan["configs"][cfg]["n_test"] for _, cfg in self.plan["calls"])
            return f"run_samples_per_s: {n / pass_s:.6g} 1/s ({n} reconstructions per pass)"
        return f"sweep_cells_per_s: {self.rows_per_sweep / pass_s:.6g} 1/s (sweep rows)"

    @property
    def ops_per_pass(self) -> int:
        return self.ops_per_call * len(self.calls)

    def run_pass(self, cli):
        """Run every call once; returns (seconds, outputs, errors by call index)."""
        for _, files in self.calls:
            for path in files:
                if os.path.exists(path):
                    os.remove(path)
        errors = {}
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            for k, (argv, _) in enumerate(self.calls):
                try:
                    cli.main(argv)
                except Exception as exc:  # a failed call is counted, not fatal
                    errors[k] = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        outputs = []
        for _, files in self.calls:
            outputs.append(tuple(_read(path) for path in files))
        return seconds, outputs, errors


def _read(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except FileNotFoundError:
        return None


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


class Checker:
    """Records failed operations; the first pass's outputs are the reference.

    An operation is keyed (pass, call, row): row is always 0 except for sweep
    rows. A failed check marks the operations whose output it checked.
    """

    def __init__(self, wl: Workload):
        self.wl = wl
        self.reference = None
        self.passes = 0
        self.failed_ops: set = set()
        self.messages = []

    @property
    def attempted(self) -> int:
        return self.passes * self.wl.ops_per_pass

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def _fail(self, p, k, rows, message):
        self.failed_ops.update((p, k, r) for r in rows)
        if len(self.messages) < 20:
            self.messages.append(f"pass {p}, call {k}: {message}")

    def check_pass(self, outputs, errors):
        """Per-pass checks: no exception, finite, byte-identical to the first pass."""
        import numpy as np

        wl, p = self.wl, self.passes
        self.passes += 1
        if self.reference is None:
            self.reference = outputs
        every_row = range(wl.ops_per_call)
        for k, out in enumerate(outputs):
            if k in errors:
                self._fail(p, k, every_row, errors[k])
            elif None in out:
                self._fail(p, k, every_row, "output file missing")
            elif out != self.reference[k]:
                self._fail(p, k, every_row, "output differs from the first pass")
            elif wl.name == "sweep-d8":
                bad = _bad_sweep_rows(out[0].decode(), wl.rows_per_sweep)
                if bad:
                    self._fail(p, k, bad, f"error, missing or non-finite sweep rows {bad}")
            elif wl.name == "run-nine":
                if not all(np.all(np.isfinite(_array(blob))) for blob in out):
                    self._fail(p, k, every_row, "non-finite reconstruction")

    def check_reference(self) -> dict:
        """Deeper checks on the first pass's outputs; returns quality figures."""
        check = {"train-d32": self._check_train, "run-nine": self._check_run,
                 "sweep-d8": self._check_sweep}[self.wl.name]
        return check()

    def _check_train(self):
        from lle.extrapolation import LLECoefficients

        if None in self.reference[0]:
            return {}
        coeffs_blob, trace_blob = self.reference[0]
        try:
            LLECoefficients.from_json(coeffs_blob.decode())
        except ValueError as exc:  # raised for non-finite or malformed coefficients
            self._fail(0, 0, [0], f"coefficients do not load: {exc}")
        losses = {}
        for row in csv.DictReader(io.StringIO(trace_blob.decode())):
            losses.setdefault(int(row["timestep"]), []).append(float(row["loss"]))
        final = losses[min(losses)]
        ratio = min(final) / final[0]
        if not (math.isfinite(ratio) and ratio <= 1.0):
            self._fail(0, 0, [0], f"final-timestep loss ratio {ratio} is not <= 1")
        return {"train_loss_ratio": ratio}

    def _check_run(self):
        import numpy as np

        from lle import canonical, harness
        from lle.diffusion import make_time_grid
        from lle.numerics import RngStream
        from lle.operators import Observation

        wl = self.wl
        run_seed = wl.plan["run_seed"]
        mses, gaps = [], []
        oracle = truths = None
        for k, (kind, name) in enumerate(wl.plan["calls"]):
            if None in self.reference[k]:
                continue
            recon_blob, truth_blob = self.reference[k]
            recon, truth = _array(recon_blob), _array(truth_blob)
            cfg = harness.load_config(wl.paths[name])
            if oracle is None:
                truths, ys, op = harness.make_test_batch(cfg)
                oracle = np.stack([harness.oracle_posterior(cfg.prior, op, y, cfg.sigma_y)[0]
                                   for y in ys])
            if truth.tobytes() != truths.astype("<f8").tobytes():
                self._fail(0, k, [0], ".truth sidecar differs from make_test_batch")
            # identity coefficients must replay canonical.run bit for bit
            i = run_seed % cfg.n_test
            grid = make_time_grid(cfg.schedule, cfg.steps)
            obs = Observation(y=ys[i], op=op, sigma_y=cfg.sigma_y)
            base = canonical.run(cfg.params, cfg.prior, cfg.schedule, obs, grid, run_seed,
                                 stream=RngStream(run_seed, 1000 + i))
            if base.astype("<f8").tobytes() != recon[i].tobytes():
                self._fail(0, k, [0], f"row {i} differs from canonical.run")
            mses.append(np.mean((recon - truths) ** 2, axis=1))
            gaps.append(np.mean((recon - oracle) ** 2, axis=1))
        if not mses:
            return {}
        return {"recon_mse": float(np.mean(mses)), "oracle_gap_mse": float(np.mean(gaps)),
                "oracle_mse": float(np.mean((oracle - truths) ** 2))}

    def _check_sweep(self):
        (blob,) = self.reference[0]
        if blob is None:
            return {}
        rows = {}
        for row in csv.DictReader(io.StringIO(blob.decode())):
            if row["mean_mse"] != "error":
                rows[(int(row["S"]), row["strategy"])] = float(row["mean_mse"])
        gains = [10 * math.log10(rows[(s, "base")] / rows[(s, "LLE")])
                 for s in configs.SWEEP_STEPS if (s, "base") in rows and (s, "LLE") in rows]
        return {"lle_gain_db": statistics.fmean(gains)} if gains else {}


def _array(blob):
    """Decode an LLEF64 blob with the program's own reader's layout."""
    import numpy as np

    header_end = blob.index(b"\n", 7)
    rows, cols = (int(v) for v in blob[7:header_end].split())
    return np.frombuffer(blob[header_end + 1:], dtype="<f8").reshape(rows, cols)


def _bad_sweep_rows(text, expected) -> list:
    """Indices of error or non-finite rows, and of rows missing from `expected`."""
    rows = list(csv.DictReader(io.StringIO(text)))
    bad = []
    for j, row in enumerate(rows):
        try:
            ok = math.isfinite(float(row["mean_mse"])) and math.isfinite(float(row["mean_psnr"]))
        except ValueError:  # an "error" row
            ok = False
        if not ok:
            bad.append(j)
    return bad + list(range(len(rows), expected))


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass
# ---------------------------------------------------------------------------


def layer_metrics(snap) -> dict:
    calls, self_s, ctr = snap["calls"], snap["self_s"], snap["counters"]

    def n(prefix):
        return sum(v for k, v in calls.items() if k.startswith(prefix))

    def s(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    def ratio(a, b):
        return a / b if b else 0.0

    draws, rng_s = n("numerics.RngStream."), s("numerics.RngStream.")
    eps, eps_s = calls.get("diffusion.gmm_eps", 0), self_s.get("diffusion.gmm_eps", 0.0)
    ddim = calls.get("diffusion.ddim_step", 0)
    drivers = calls.get("canonical.run_with_combiner", 0)
    refs = calls.get("extrapolation.generate_references", 0)
    out = {
        "numerics.rng_draws": draws,
        "numerics.rng_s": rng_s,
        "numerics.rng_us_per_draw": 1e6 * ratio(rng_s, draws),
        "numerics.io_bytes": ctr.get("numerics.io_bytes", 0),
        "numerics.io_s": s("numerics.save_array") + s("numerics.load_array"),
        "diffusion.s": s("diffusion."),
        "diffusion.eps_calls": eps,
        "diffusion.eps_rows": ctr.get("diffusion.eps_rows", 0),
        "diffusion.eps_s": eps_s,
        "diffusion.eps_us_per_call": 1e6 * ratio(eps_s, eps),
        "diffusion.jvp_calls": calls.get("diffusion.gmm_eps_jvp", 0),
        "diffusion.jvp_s": self_s.get("diffusion.gmm_eps_jvp", 0.0),
        "diffusion.ddim_steps": ddim,
        "diffusion.eps_per_ddim_step": ratio(ctr.get("diffusion.eps_under_ddim", 0), ddim),
        "operators.calls": n("operators."),
        "operators.s": s("operators."),
        "canonical.driver_calls": drivers,
        "canonical.rows_per_driver_call": ratio(ctr.get("canonical.driver_rows", 0), drivers),
        "canonical.sampler_s": s("canonical.sample_phi"),
        "canonical.corrector_s": s("canonical.corrector."),
        "canonical.noiser_s": s("canonical.apply_noiser"),
    }
    for algo in configs.ALGORITHMS:
        out[f"canonical.corrector.{algo}_s"] = s(f"canonical.corrector.{algo}")
    out.update({
        "extrapolation.refs_calls": refs,
        "extrapolation.refs_unique_ratio": ratio(snap["unique_refs"], refs),
        "extrapolation.refs_s": s("extrapolation.generate_references"),
        "extrapolation.refs_total_s": snap["total_s"].get("extrapolation.generate_references", 0.0),
        "extrapolation.fit_calls": calls.get("extrapolation.train_timestep", 0),
        "extrapolation.fit_s": s("extrapolation.train_timestep"),
        "extrapolation.combine_s": s("extrapolation.combine"),
        "optim.steps": n("optim."),
        "optim.s": s("optim."),
        "harness.cells": ctr.get("harness.cells", 0),
        "harness.cells_failed": ctr.get("harness.cells_failed", 0),
        "harness.s": s("harness."),
        "cli.calls": calls.get("cli.main", 0),
        "cli.s": s("cli.main"),
        "trace.spans": snap["spans"],
    })
    return out


UNITS = {"_s": "s", "_mb": "MB", "_us_per_draw": "us", "_us_per_call": "us", "_bytes": "bytes",
         "_ratio": "ratio", "_per_ddim_step": "ratio", "_per_driver_call": "rows",
         ".s": "s", "_frac": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------


def machine_facts(root: str) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    src = os.path.join(root, "src", "lle")
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname), "rb") as f:
                src_lines += f.read().count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "LLE_THREADS": os.environ.get("LLE_THREADS"),
        "src_lines": src_lines,
    }


def _blas_threads():
    """OpenBLAS's own thread count, or None where the library is not found."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def run_loop(wl, cli, checker, seconds, tracer=None):
    """Closed loop until `seconds` have passed; returns pass times.

    Without a tracer, each pass is bracketed by runs of the reference kernel
    (`calib`); returns (wall times, times at the reference speed).
    With a tracer, passes alternate untraced / traced (wrappers installed
    for the traced pass only), so slow drift in machine speed cancels out of
    the overhead; returns (untraced times, traced times, traced aggregates).
    """
    times, scaled, traced, snaps = [], [], [], []
    kernel = calib.kernel_seconds() if tracer is None else None
    start = time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - start < seconds:
        dt, outputs, errors = wl.run_pass(cli)
        times.append(dt)
        checker.check_pass(outputs, errors)
        if tracer is None:
            after = calib.kernel_seconds()
            scaled.append(calib.scaled(dt, kernel, after))
            kernel = after
            continue
        tracer.install()
        tracer.begin_pass()
        try:
            dt, outputs, errors = wl.run_pass(cli)
        finally:
            tracer.uninstall()
        snaps.append(tracer.end_pass())
        traced.append(dt)
        checker.check_pass(outputs, errors)
    return (times, traced, snaps) if tracer is not None else (times, scaled)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--setup-probe", metavar="CONFIG",
                    help="only measure set-up on CONFIG and print the seconds")
    ap.add_argument("--workload", choices=configs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir")
    ap.add_argument("--outdir")
    args = ap.parse_args(argv)
    if args.setup_probe:
        print(f"{measure_setup(args.setup_probe):.9f}")
        return 0

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    plan = configs.workload_plan(args.workload, args.seed)
    paths = configs.write_configs(plan, args.workdir)
    first_config = paths[plan["calls"][0][1]]

    # set-up samples, each scaled by the reference kernel timed around it:
    # this process's own set-up, then fresh probe processes
    setup = [measure_setup(first_config)]
    kernel = calib.kernel_seconds()
    setup_scaled = [calib.scaled(setup[0], kernel, kernel)]
    for _ in range(SETUP_SAMPLES - 1):
        probe = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", first_config],
            capture_output=True, text=True, check=True, timeout=60,
        )
        setup.append(float(probe.stdout.split()[-1]))
        after = calib.kernel_seconds()
        setup_scaled.append(calib.scaled(setup[-1], kernel, after))
        kernel = after

    from lle import cli

    wl = Workload(args.workload, plan, paths, args.workdir)
    checker = Checker(wl)

    # warm-up pass: untimed, but checked, and its outputs are the reference
    _, outputs, errors = wl.run_pass(cli)
    checker.check_pass(outputs, errors)

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine_facts(root)}
    lines = []
    if args.trace:
        tracer = Tracer()
        tracer.calibrate()
        report["tracer_bias_us"] = {"inner": 1e6 * tracer.bias_inner,
                                    "outer": 1e6 * tracer.bias_outer}
        untraced, traced, snaps = run_loop(wl, cli, checker, args.seconds, tracer)
        per_pass = [layer_metrics(s) for s in snaps]
        metrics = {}
        for name in per_pass[0]:
            values = [p[name] for p in per_pass]
            if unit_of(name) in ("s", "us"):
                metrics[name] = statistics.median(values)
            else:
                if len(set(values)) != 1:
                    lines.append(f"warning: {name} differs between traced passes: {values}")
                metrics[name] = values[0]
        u, t = statistics.median(untraced), statistics.median(traced)
        overhead = statistics.median(b - a for a, b in zip(untraced, traced))
        bias = tracer.bias_inner + tracer.bias_outer
        metrics.update({"trace.untraced_pass_s": u, "trace.traced_pass_s": t,
                        "trace.overhead_s": overhead, "trace.overhead_frac": overhead / u,
                        "trace.overhead_est_s": metrics["trace.spans"] * bias})
        lines += [describe("untraced pass_s", untraced, "s"),
                  describe("traced pass_s", traced, "s")]
        os.makedirs(args.outdir, exist_ok=True)
        tracer.save(os.path.join(args.outdir, f"{args.workload}.spans.tsv.gz"))
        report["per_pass"] = per_pass
    else:
        times, scaled = run_loop(wl, cli, checker, args.seconds)
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "pass_s": statistics.median(scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        lines += [describe("setup_s", setup_scaled, "s"), describe("pass_s", scaled, "s"),
                  describe("setup wall time", setup, "s"),
                  describe("pass wall time", times, "s"),
                  wl.throughput(metrics["pass_s"])]
        report["pass_s"] = scaled
        report["pass_wall_s"] = times
    report["setup_s"] = setup_scaled
    report["setup_wall_s"] = setup
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    quality = checker.check_reference()
    report["quality"] = quality
    lines += [f"{k}: {v:.6g}" for k, v in quality.items()]
    lines += [f"check failed: {msg}" for msg in checker.messages]
    lines.append(f"failed_frac: {checker.failed / checker.attempted:.6g} "
                 f"({checker.failed} of {checker.attempted} operations)")

    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    report["result"] = result
    os.makedirs(args.outdir, exist_ok=True)
    with open(os.path.join(args.outdir, f"{args.workload}-trace{args.trace}.json"), "w") as f:
        json.dump(report, f, indent=1)
    for line in lines:
        print(f"[{args.workload}] {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
