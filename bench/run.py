"""Benchmark launcher: runs each workload in its own single-threaded process.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload it runs every workload in turn. It pins the BLAS and
OpenMP thread pools to one thread, removes LLE_THREADS, and starts
``workload.py`` against the ``src/`` tree of the checkout it sits in. Configs
and CLI outputs go to a temporary directory under ``.bench_work/``, removed
afterwards; reports and span files go to ``.bench_out/``. The last line of
stdout is the result JSON. Exits non-zero, printing no result, when the
checkout has no ``src/lle`` or a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from configs import WORKLOADS  # noqa: E402

TIMEOUT_S = 175
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def workload_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("LLE_THREADS", None)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_workload(name: str, args) -> dict:
    """Run one workload process; returns its result, or raises RuntimeError."""
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=work_root)
    try:
        cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", workdir,
               "--outdir", os.path.join(ROOT, ".bench_out")]
        proc = subprocess.run(cmd, env=workload_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"{name}: no result within {TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name}: workload process exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measured seconds per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lle", "__init__.py")):
        print(f"no lle package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    t0 = time.perf_counter()
    for name in names:
        try:
            results[name] = run_workload(name, args)
        except RuntimeError as exc:
            print(str(exc), file=sys.stderr)
            return 1
    if args.workload:
        print(json.dumps(results[args.workload]))
        return 0
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:10s} {metric:36s} {m['value']:.6g} {m['unit']}")
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{metric}": m for name, r in results.items()
                    for metric, m in r["metrics"].items()},
    }
    print(f"all workloads in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
