"""Diffusion inverse-problem solvers in canonical Sampler/Corrector/Noiser
form, with learnable linear extrapolation, on analytic Gaussian-mixture priors."""

from . import canonical, diffusion, errors, extrapolation, harness, numerics, operators, optim

__all__ = [
    "canonical",
    "diffusion",
    "errors",
    "extrapolation",
    "harness",
    "numerics",
    "operators",
    "optim",
]
