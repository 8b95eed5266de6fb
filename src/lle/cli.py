"""Command-line entry points.

Subcommands: gen-prior, train, run, eval, sweep. Configurations
are JSON files; arrays travel in the LLEF64 container (see numerics).
An `LLEError` is printed as one line, `lle: <message>`, and the exit code
is its kind's: 3 config, 4 divergence, 5 file format (see errors). An output
file that cannot be written is one line too, with exit code 5.
"""

from __future__ import annotations

import argparse
import csv as _csv
import functools
import sys

import numpy as np

from . import extrapolation as lle
from . import harness
from .errors import FormatError, LLEError
from .numerics import load_array, save_array


def _cmd_gen_prior(args):
    spec = harness.SeededPrior(dim=args.dim, components=args.components, seed=args.seed)
    prior = harness.random_prior(spec.dim, spec.components, spec.seed)
    prior.save(args.out)
    print(f"wrote {args.components}-component dim-{args.dim} prior to {args.out}")


def _cmd_train(args):
    cfg = harness.load_config(args.config)
    coeffs, traces = harness.train_lle(cfg)
    coeffs.save(args.out)
    trace_path = args.out + ".trace.csv"
    with open(trace_path, "w", newline="") as f:
        w = _csv.writer(f)
        w.writerow(["timestep", "epoch", "loss"])
        for t in sorted(traces, reverse=True):
            for epoch, val in enumerate(traces[t]):
                w.writerow([t, epoch, f"{val:.12g}"])
    print(f"wrote coefficients to {args.out} (loss trace: {trace_path})")


def _cmd_run(args):
    cfg = harness.load_config(args.config)
    coeffs = lle.LLECoefficients.load(args.coeffs) if args.coeffs else None
    recons, truths = harness.run_experiment(cfg, args.seed, coeffs=coeffs)
    save_array(args.out, recons.shape[0], recons.shape[1], recons)
    truth_path = args.out + ".truth"
    save_array(truth_path, truths.shape[0], truths.shape[1], truths)
    print(f"wrote {recons.shape[0]} reconstructions to {args.out} "
          f"(ground truth: {truth_path})")


def _cmd_eval(args):
    cfg = harness.load_config(args.config)
    _, _, recon = load_array(args.recon)
    _, _, truth = load_array(args.truth)
    oracle_means = None
    if args.oracle:
        _, ys, op = harness.make_test_batch(cfg)
        oracle_means = harness.oracle_posterior(cfg.prior, op, ys, cfg.sigma_y)[0]
    columns = harness.evaluate(recon, truth, cfg, oracle_means)
    with open(args.out, "w") as f:
        f.write(harness.metrics_csv(columns))
    mean_mse = float(np.mean(columns["mse"]))
    print(f"wrote per-sample metrics to {args.out} (mean mse {mean_mse:.6g})")


def _cmd_sweep(args):
    cfg = harness.load_config(args.config)
    text = harness.sweep(cfg, args.steps)
    with open(args.out, "w") as f:
        f.write(text)
    print(f"wrote sweep results for S in {args.steps} to {args.out}")


def int_list(text: str) -> list:
    """The --steps value "3,5,10" as [3, 5, 10]; argparse reports a bad one as a usage error."""
    return [int(s) for s in text.split(",")]


@functools.cache  # built once per process: each parser holds reference cycles
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lle", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-prior", help="generate a seeded random mixture prior")
    g.add_argument("--dim", type=int, required=True)
    g.add_argument("--components", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen_prior)

    g = sub.add_parser("train", help="train extrapolation coefficients")
    g.add_argument("--config", required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_train)

    g = sub.add_parser("run", help="reconstruct the held-out batch")
    g.add_argument("--config", required=True)
    g.add_argument("--coeffs", default=None)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_run)

    g = sub.add_parser("eval", help="score reconstructions against ground truth")
    g.add_argument("--recon", required=True)
    g.add_argument("--truth", required=True)
    g.add_argument("--config", required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--oracle", action="store_true",
                   help="also report distance to the closed-form posterior mean")
    g.set_defaults(func=_cmd_eval)

    g = sub.add_parser("sweep", help="train + evaluate across step counts")
    g.add_argument("--config", required=True)
    g.add_argument("--steps", required=True, type=int_list,
                   help="comma-separated, e.g. 3,4,5,7,10,15")
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_sweep)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a non-finite loss is reported as one ConvergenceError line by the
        # divergence guard, so NumPy's floating-point warnings on the way to it
        # would only add lines
        with np.errstate(all="ignore"):
            args.func(args)
    except LLEError as exc:
        print(f"lle: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # every input is read through an LLEError: this is an output
        print(f"lle: {exc.filename or args.out} cannot be written: {exc.strerror or exc}",
              file=sys.stderr)
        return FormatError.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
