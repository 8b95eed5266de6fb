"""`tools/exact_risk.py`: every solver is affine at K = 1, its exact risk
against Monte Carlo, and the law gate of the driver's noise tape."""

import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

from lle import canonical as canon
from lle import diffusion as dif
from lle import operators as ops
from lle.numerics import RngStream, RowStreams

TOOLS_DIR = Path(__file__).resolve().parents[1] / "tools"
STEPS = (3, 5)


@pytest.fixture(scope="module")
def probe():
    spec = importlib.util.spec_from_file_location("exact_risk", TOOLS_DIR / "exact_risk.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_COEFFS = {}


def _case(probe, name, operator, S, fit):
    """(params, prior, schedule, op, grid, coeffs) of one probe case; the LLE
    case's closed-form coefficients are fitted once per (name, operator, S)."""
    prior, schedule, op = probe.setting(operator)
    params, grid = canon.default_params(name), dif.make_time_grid(schedule, S)
    coeffs = None
    if fit == "LLE":
        key = (name, operator, S)
        if key not in _COEFFS:
            _COEFFS[key] = probe.coefficients(params, prior, schedule, op, grid,
                                              n_refs=16, ref_steps=100)
        coeffs = _COEFFS[key]
    return params, prior, schedule, op, grid, coeffs


CASES = [(name, operator, S, fit) for operator in ("mask", "dense") for S in STEPS
         for name in canon.ALGORITHMS for fit in ("base", "LLE")]


@pytest.mark.parametrize("name, operator, S, fit", CASES)
def test_every_solver_is_affine_in_y_and_its_noise(probe, name, operator, S, fit):
    params, prior, schedule, op, grid, coeffs = _case(probe, name, operator, S, fit)
    maps = probe.affine_maps(params, prior, schedule, op, grid, coeffs, tape=RowStreams)
    assert maps[2].shape[1] % probe.TAPE_CHUNK == 0  # a column per value of each chunk
    dev = probe.non_affinity(maps, params, prior, schedule, op, grid, coeffs, seed=S,
                             tape=RowStreams)
    assert dev <= 1e-12, dev


@pytest.mark.parametrize("name, operator, S, fit", CASES)
def test_the_tape_keeps_the_law_of_the_layout_before_it(probe, name, operator, S, fit):
    params, prior, schedule, op, grid, coeffs = _case(probe, name, operator, S, fit)
    dev = probe.law_deviation(params, prior, schedule, op, grid, coeffs)
    assert max(dev.values()) <= 1e-12, dev


class Rereads(RowStreams):
    """A broken tape: after each read, the last value read is read again."""

    def _read(self, n):
        out = super()._read(n)
        self._pos -= n > 0
        return out


def test_the_law_gate_reports_a_tape_that_reads_a_value_twice(probe):
    gate = probe.LAW_TOLERANCE
    out = io.StringIO()
    assert probe.law_check([3], tape=Rereads, n_refs=16, ref_steps=100, out=out) > gate
    for name in canon.ALGORITHMS:  # every solver reads more than one draw
        params, prior, schedule, op, grid, _ = _case(probe, name, "mask", 3, "base")
        dev = probe.law_deviation(params, prior, schedule, op, grid, tape=Rereads)
        assert dev["M_z M_z^T"] > gate and dev["M_z columns"] > gate, (name, dev)
        assert dev["c"] == dev["M_y"] == 0.0, (name, dev)


def test_law_check_prints_every_case_and_exits_0(probe, capsys):
    assert probe.main(["--law-check", "--steps", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + 2 * 2 * len(canon.ALGORITHMS)
    assert lines[-1] == "largest relative deviation 0 (gate 1e-12)"


@pytest.mark.parametrize("name", ["DDRM", "DAPS"])
@pytest.mark.parametrize("fit", ["base", "LLE"])
def test_monte_carlo_risk_is_within_4_standard_errors_of_the_exact_risk(probe, name, fit):
    params, prior, schedule, op, grid, coeffs = _case(probe, name, "mask", 3, fit)
    exact = probe.exact_risk(probe.affine_maps(params, prior, schedule, op, grid, coeffs),
                             prior, op)
    n = 4000
    truths = prior.sample(RngStream(61, 21), n)
    y = ops.observe(op, truths, probe.SIGMA_Y, RngStream(61, 22))
    streams = RowStreams(RngStream(61, 1000 + i) for i in range(n))
    recon = probe.driver(params, prior, schedule, op, grid, coeffs, y, streams)
    err = np.sum((recon - truths) ** 2, axis=1)
    se = err.std(ddof=1) / np.sqrt(n)
    assert abs(err.mean() - exact) <= 4.0 * se, (err.mean(), exact, se)


def test_exact_risk_of_the_posterior_mean_is_the_mmse(probe):
    # the posterior mean is affine at K = 1 with no noise: c = m - G A m, M_y = G
    prior, _, op = probe.setting("dense")
    cov, mean, A = prior.covariances[0], prior.means[0], op.dense()
    G = cov @ A.T @ np.linalg.inv(A @ cov @ A.T + probe.SIGMA_Y**2 * np.eye(op.m))
    maps = (mean - G @ A @ mean, G, np.zeros((prior.d, 0)))
    assert probe.exact_risk(maps, prior, op) == pytest.approx(probe.mmse(prior, op), rel=1e-12)
