"""Closed-form Neumann Laplacian modes of the disk via Bessel functions.

Serves as an independent reference for the grid minimizer: eigenvalues come
from roots of J_n', eigenfunctions are J_n(alpha r/R) times an angular
harmonic.  J_n and the roots of J_n' come from scipy.special, so the
reference shares no code with the finite-difference solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
import scipy.special

from .grids import Field, PolarGrid

__all__ = [
    "NeumannMode",
    "neumann_root",
    "neumann_mode",
    "eigenfield",
]


def neumann_root(n: int, k: int) -> float:
    """k-th positive root of J_n' (0 <= n <= 16, 1 <= k <= 16)."""
    if not (0 <= n <= 16 and 1 <= k <= 16):
        raise ValueError("supported range is n <= 16, k <= 16")
    return float(scipy.special.jnp_zeros(n, k)[k - 1])


@dataclass(frozen=True)
class NeumannMode:
    """One Neumann Laplacian eigenmode of the disk of radius R.

    alpha_nk is the k-th positive root of J_n'; the eigenvalue is
    (alpha_nk / R)^2.
    """

    n: int
    k: int
    alpha_nk: float
    eigenvalue: float
    parity: Literal["cos", "sin"]


def neumann_mode(n: int, k: int, radius: float = 1.0, parity: str = "cos") -> NeumannMode:
    if parity not in ("cos", "sin"):
        raise ValueError("parity must be 'cos' or 'sin'")
    if parity == "sin" and n == 0:
        raise ValueError("sin parity requires n >= 1")
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError("radius must be finite and > 0")
    alpha = neumann_root(n, k)
    try:
        eigenvalue = (alpha / radius) ** 2
    except OverflowError:
        eigenvalue = math.inf
    if math.isinf(eigenvalue):
        raise ValueError(f"radius {radius} gives a non-finite eigenvalue (alpha_nk / radius)^2")
    return NeumannMode(n=n, k=k, alpha_nk=alpha, eigenvalue=eigenvalue, parity=parity)


def eigenfield(mode: NeumannMode, grid: PolarGrid) -> Field:
    """Sample the mode on a disk grid, normalized to unit L2 norm.

    Modes with n >= 1 have exactly zero quadrature mean because the angular
    nodes are uniform.
    """
    if grid.domain.kind != "disk":
        raise ValueError("closed-form modes exist on the disk only")
    radius = grid.domain.r_outer
    expected = (mode.alpha_nk / radius) ** 2
    if not math.isclose(expected, mode.eigenvalue, rel_tol=1e-12):
        raise ValueError("mode radius does not match grid radius")
    radial = scipy.special.jv(mode.n, mode.alpha_nk * grid.r_nodes / radius)
    if mode.parity == "cos":
        angular = np.cos(mode.n * grid.a_nodes)
    else:
        angular = np.sin(mode.n * grid.a_nodes)
    vals = radial[:, None] * angular[None, :]
    nrm = math.sqrt(float(np.sum(grid.w * vals**2)))
    if nrm == 0.0:
        raise ValueError("mode vanishes on this grid")
    return Field(grid, vals / nrm)
