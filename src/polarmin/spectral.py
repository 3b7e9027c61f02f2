"""Closed-form Neumann Laplacian modes of the disk via Bessel functions.

Serves as an independent reference for the grid minimizer: eigenvalues come
from roots of J_n', eigenfunctions are J_n(alpha r/R) times an angular
harmonic.  J_n comes from the trapezoid rule on Bessel's integral and the
roots of J_n' from a scan and Newton's method, so the reference shares no
code with the finite-difference solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .grids import Field, PolarGrid

__all__ = [
    "NeumannMode",
    "neumann_root",
    "neumann_mode",
    "eigenfield",
]


_TAU = 2.0 * np.pi * np.arange(256) / 256
_SIN = np.sin(_TAU)


def _bessel(n: int, x) -> tuple[np.ndarray, np.ndarray]:
    """(J_n(x), J_n'(x)) by the 256-node periodic trapezoid rule on
    J_n(x) = (1/2pi) int_0^2pi cos(n t - x sin t) dt and its x-derivative.
    The integrand is periodic and entire, so the rule's only error is the
    aliased J_{256-n}(x), below 1e-80 for n <= 16 and x <= 80."""
    # n t reduced mod 2 pi on the node index, so the argument stays small
    arg = _TAU[n * np.arange(256) % 256] - np.asarray(x, dtype=float)[..., None] * _SIN
    return np.mean(np.cos(arg), axis=-1), np.mean(np.sin(arg) * _SIN, axis=-1)


def neumann_root(n: int, k: int) -> float:
    """k-th positive root of J_n' (0 <= n <= 16, 1 <= k <= 16): the k-th sign
    change of J_n' on a 0.05-step scan from max(n, 1/2), where no root lies
    below (J_n' > 0 on (0, n] for n >= 1; J_0' = -J_1 < 0 up to 3.83),
    refined by Newton steps with J_n'' from Bessel's equation."""
    if not (0 <= n <= 16 and 1 <= k <= 16):
        raise ValueError("supported range is n <= 16, k <= 16")
    lo = max(n, 0.5)
    while True:
        x = lo + 0.05 * np.arange(65)
        d = _bessel(n, x)[1]
        flips = np.flatnonzero(np.signbit(d[1:]) != np.signbit(d[:-1]))
        if k <= flips.size:
            break
        k -= flips.size
        lo = x[-1]
    root = float(x[flips[k - 1]]) + 0.025
    for _ in range(20):
        j, dj = _bessel(n, root)
        step = dj / (dj / root + (1.0 - (n / root) ** 2) * j)  # -J_n' / J_n''
        root += float(step)
        if abs(step) <= 1e-12 * root:  # quadratic: the next step is at roundoff
            break
    return root


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
    radial = _bessel(mode.n, mode.alpha_nk * grid.r_nodes / radius)[0]
    if mode.parity == "cos":
        angular = np.cos(mode.n * grid.a_nodes)
    else:
        angular = np.sin(mode.n * grid.a_nodes)
    vals = radial[:, None] * angular[None, :]
    nrm = math.sqrt(float(np.sum(grid.w * vals**2)))
    if nrm == 0.0:
        raise ValueError("mode vanishes on this grid")
    return Field(grid, vals / nrm)
