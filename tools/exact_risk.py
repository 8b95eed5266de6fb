"""Exact risk of every solver at K = 1, and the law gate of the driver's noise tape.

    PYTHONPATH=src python3 tools/exact_risk.py [--steps 3,5]
    PYTHONPATH=src python3 tools/exact_risk.py --law-check [--steps 3,5]

With a one-component prior N(m, Sigma), a linear operator A and fixed inner
step counts, every branch of every solver is data-independent, so a run's
output is affine in the observation y and in the noise z the run reads, in
the order it reads it: x_hat = c + M_y y + M_z z, for the base solver and for
fixed LLE coefficients alike. The probe finds (c, M_y, M_z) without a real
stream:

- a zero-noise pass through a scripted stream counts each row's deviates;
- one batched driver call (`lle.infer`, an (N, 1, m) batch) then gives the
  maps: row 0 carries y = 0 and z = 0, which is the offset c; the next m
  rows carry unit y, and the rest a unit deviate each.

Over x0 ~ N(m, Sigma), y = A x0 + sigma_y e and z ~ N(0, I) the exact risk
E||x_hat - x0||^2 is then
||c + (M_y A - I) m||^2 + tr((M_y A - I) Sigma (M_y A - I)^T)
+ sigma_y^2 ||M_y||_F^2 + ||M_z||_F^2, which the default mode prints for the
nine solvers, the mask and the dense operator, and the base solver and
closed-form LLE coefficients from `lle.train`, beside the MMSE tr(Sigma_post)
and 2 MMSE (the risk of an exact posterior sample).

--law-check finds the maps twice for each case (LLE with one fixed
coefficient set per case): once with scripted per-row sources under a
`RowStreams` tape, so the tape runs, and once with the scripted batch stream
given straight to the driver, which hands every row its next values at each
draw, the layout before the tape. The output law is fixed by (c, M_y,
M_z M_z^T), so it prints the largest relative deviation of each between the
two and exits 1 above 1e-12. The tape hands the values out in draw order, so
M_z's columns are compared too, the tape's unread tail against zero.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from lle import canonical as canon
from lle import diffusion as dif
from lle import extrapolation as lle
from lle import harness
from lle import operators as ops
from lle.numerics import TAPE_CHUNK, RngStream, RowStreams

D = 8  # the signal dimension
SIGMA_Y = 0.05
OPERATORS = ("mask", "dense")
LAW_TOLERANCE = 1e-12


def setting(operator: str):
    """(prior, schedule, op): a seeded one-component prior on R^8 under the
    default linear schedule, and a mask keeping 4 of the 8 coordinates or a
    dense 5 x 8 Gaussian operator."""
    prior = harness.random_prior(D, 1, 17)
    if operator == "mask":
        op = ops.mask_operator(D, [0, 2, 5, 7])
    else:
        op = ops.dense_operator(RngStream(19, 0).standard_normal((5, D)) / math.sqrt(D))
    return prior, dif.linear_beta_schedule(), op


def coefficients(params, prior, schedule, op, grid, n_refs=50, ref_steps=999):
    """The closed-form coefficients `lle.train` fits for this solver and grid."""
    config = lle.TrainConfig(n_refs=n_refs, ref_steps=ref_steps, closed_form=True, base_seed=5)
    return lle.train(params, prior, schedule, op, SIGMA_Y, grid, config)[0]


def _values(script: np.ndarray, start: int, n: int) -> np.ndarray:
    """Columns start .. start + n - 1 of script (..., L), zeros past its end."""
    out = np.zeros(script.shape[:-1] + (n,))
    part = script[..., start:start + n]
    out[..., :part.shape[-1]] = part
    return out


class ScriptedSource:
    """One row's source under a `RowStreams` tape: each ``standard_normal(n)``
    hands out the script's next n values (zeros past its end) and advances
    `counter`, as one chunk of an `RngStream` does."""

    def __init__(self, script=()):
        self.script = np.asarray(script, dtype=float)
        self.counter = self.read = 0

    def standard_normal(self, n):
        n = math.prod(np.atleast_1d(n))
        out = _values(self.script, self.read, n)
        self.read += n
        self.counter += 1
        return out


class ScriptedBatch:
    """The driver's stream in the layout before the tape: a draw (N, ...) hands
    row i the next prod(shape[1:]) values of its row of scripts (N, L), in C
    order, zeros past its end, and a block of `count` draws what `count` draws
    would. `read` counts each row's values."""

    def __init__(self, scripts):
        self.scripts = np.asarray(scripts, dtype=float)
        self.read = 0

    def standard_normal(self, shape):
        shape = tuple(shape)
        n = math.prod(shape[1:])
        out = _values(self.scripts, self.read, n)
        self.read += n
        return out.reshape(shape)

    def standard_normal_block(self, count, shape):
        shape = tuple(shape)
        return np.moveaxis(self.standard_normal((shape[0], count) + shape[1:]), 1, 0)


def scripted_stream(scripts, tape=None):
    """The stream that gives row i the values scripts[i] in draw order: a
    `ScriptedBatch`, or with a tape class (`RowStreams`) that tape over one
    `ScriptedSource` per row."""
    if tape is None:
        return ScriptedBatch(scripts)
    return tape(ScriptedSource(row) for row in np.asarray(scripts, dtype=float))


def driver(params, prior, schedule, op, grid, coeffs, y, stream) -> np.ndarray:
    """One batched `lle.infer` call on the rows of y (N, m), each its own
    (1, m) observation; returns (N, d)."""
    obs = ops.Observation(y=np.asarray(y, dtype=float)[:, None, :], op=op, sigma_y=SIGMA_Y)
    return lle.infer(params, prior, schedule, obs, grid, coeffs, 0, stream=stream)[:, 0]


def deviates(params, prior, schedule, op, grid, coeffs) -> int:
    """The number of deviates one row reads in a run, from a zero-noise pass."""
    stream = ScriptedBatch(np.zeros((1, 0)))
    driver(params, prior, schedule, op, grid, coeffs, np.zeros((1, op.m)), stream)
    return stream.read


def affine_maps(params, prior, schedule, op, grid, coeffs=None, tape=None):
    """(c, M_y, M_z) of one run from one batched driver call. With a tape
    class, M_z has a column per value of every chunk the tape fills, so the
    columns past the deviates a run reads belong to values never read."""
    n = deviates(params, prior, schedule, op, grid, coeffs)
    if tape is not None:
        n = -(-n // TAPE_CHUNK) * TAPE_CHUNK
    m = op.m
    y = np.zeros((1 + m + n, m))
    y[1:1 + m] = np.eye(m)
    scripts = np.zeros((1 + m + n, n))
    scripts[1 + m:] = np.eye(n)
    out = driver(params, prior, schedule, op, grid, coeffs, y, scripted_stream(scripts, tape))
    c = out[0]
    return c, (out[1:1 + m] - c).T, (out[1 + m:] - c).T


def non_affinity(maps, params, prior, schedule, op, grid, coeffs=None, rows=6, seed=0,
                 tape=None) -> float:
    """The largest deviation of the driver's output on random (y, z) rows from
    c + M_y y + M_z z, relative to the largest output entry."""
    c, M_y, M_z = maps
    source = RngStream(seed, 0)
    y = source.standard_normal((rows, op.m))
    z = source.standard_normal((rows, M_z.shape[1]))
    got = driver(params, prior, schedule, op, grid, coeffs, y, scripted_stream(z, tape))
    return relative(c + y @ M_y.T + z @ M_z.T, got)


def relative(got, ref) -> float:
    """max|got - ref| / max|ref|; 0 when both are 0, inf when only ref is."""
    err, scale = float(np.max(np.abs(got - ref), initial=0.0)), float(np.max(np.abs(ref)))
    return err / scale if scale else (0.0 if err == 0.0 else math.inf)


def exact_risk(maps, prior, op) -> float:
    """E||x_hat - x0||^2 of the affine maps under the prior and y = A x0 + sigma_y e."""
    c, M_y, M_z = maps
    mean, cov = prior.means[0], prior.covariances[0]
    E = M_y @ op.dense() - np.eye(prior.d)
    bias = c + E @ mean
    return float(bias @ bias + np.trace(E @ cov @ E.T) + SIGMA_Y**2 * np.sum(M_y * M_y)
                 + np.sum(M_z * M_z))


def mmse(prior, op) -> float:
    """tr(Sigma_post) of x0 | y, the least risk any estimate has."""
    cov, A = prior.covariances[0], op.dense()
    gain = np.linalg.solve(A @ cov @ A.T + SIGMA_Y**2 * np.eye(op.m), A @ cov)
    return float(np.trace(cov - cov @ A.T @ gain))


def cases(steps):
    """(algorithm, operator, S) over the nine solvers, both operators and the step counts."""
    return [(name, operator, S) for operator in OPERATORS for S in steps
            for name in canon.ALGORITHMS]


def law_deviation(params, prior, schedule, op, grid, coeffs=None, tape=RowStreams) -> dict:
    """Relative deviation of c, M_y, M_z M_z^T and M_z's columns between the
    tape over scripted per-row sources and the scripted batch stream."""
    c, M_y, M_z = affine_maps(params, prior, schedule, op, grid, coeffs, tape=tape)
    c0, M_y0, M_z0 = affine_maps(params, prior, schedule, op, grid, coeffs)
    n = M_z0.shape[1]
    padded = np.hstack([M_z0, np.zeros((M_z0.shape[0], M_z.shape[1] - n))])
    return {"c": relative(c, c0), "M_y": relative(M_y, M_y0),
            "M_z M_z^T": relative(M_z @ M_z.T, M_z0 @ M_z0.T),
            "M_z columns": relative(M_z, padded) if M_z.shape == padded.shape else math.inf}


def law_check(steps, tape=RowStreams, n_refs=50, ref_steps=999, out=None) -> float:
    """Print each case's law deviations, base and LLE, to out (stdout when None);
    returns the largest."""
    out = out or sys.stdout
    worst = 0.0
    out.write(f"{'algorithm':<9} {'operator':<8} {'S':>2} {'fit':<4}"
              " c         M_y       MzMz^T    M_z cols\n")
    for name, operator, S in cases(steps):
        prior, schedule, op = setting(operator)
        params, grid = canon.default_params(name), dif.make_time_grid(schedule, S)
        fitted = coefficients(params, prior, schedule, op, grid, n_refs, ref_steps)
        for fit, coeffs in (("base", None), ("LLE", fitted)):
            dev = law_deviation(params, prior, schedule, op, grid, coeffs, tape)
            worst = max(worst, *dev.values())
            out.write(f"{name:<9} {operator:<8} {S:>2} {fit:<4} "
                      + " ".join(f"{v:<9.2e}" for v in dev.values()) + "\n")
    out.write(f"largest relative deviation {worst:.3g} (gate {LAW_TOLERANCE:g})\n")
    return worst


def risk_table(steps, n_refs=50, ref_steps=999, out=None) -> None:
    """Print each case's exact risk, base and LLE, beside the MMSE, to out (stdout when None)."""
    out = out or sys.stdout
    out.write(f"{'algorithm':<9} {'operator':<8} {'S':>2} {'base':>12} {'LLE':>12}"
              f" {'MMSE':>9} {'2 MMSE':>9}\n")
    for name, operator, S in cases(steps):
        prior, schedule, op = setting(operator)
        params, grid = canon.default_params(name), dif.make_time_grid(schedule, S)
        fitted = coefficients(params, prior, schedule, op, grid, n_refs, ref_steps)
        risks = [exact_risk(affine_maps(params, prior, schedule, op, grid, coeffs), prior, op)
                 for coeffs in (None, fitted)]
        floor = mmse(prior, op)
        out.write(f"{name:<9} {operator:<8} {S:>2} {risks[0]:>12.6g} {risks[1]:>12.6g}"
                  f" {floor:>9.5g} {2 * floor:>9.5g}\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--steps", default="3,5", help="comma-separated step counts S")
    p.add_argument("--law-check", action="store_true",
                   help="compare the tape's law with the layout before it; exit 1 above 1e-12")
    args = p.parse_args(argv)
    steps = [int(s) for s in args.steps.split(",")]
    if args.law_check:
        return int(law_check(steps) > LAW_TOLERANCE)
    risk_table(steps)
    return 0


if __name__ == "__main__":
    sys.exit(main())
