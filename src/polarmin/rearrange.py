"""Two-point rearrangement, foliated symmetrization and symmetry defects.

All transforms but ``mollify`` act circle by circle (radius by radius)
through exact node permutations, so value multisets per circle are
preserved to the bit; ``mollify`` averages over neighboring nodes.
Half-planes through the origin are encoded by the angle of their inward
normal; a reflection is admissible only when it maps grid nodes to grid
nodes (normal at an exact multiple of half the angular spacing).
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .grids import (
    Field,
    PolarGrid,
    _half_units,
    _pow2_scale,
    reflect_field,
    reflection_index_map,
)

__all__ = [
    "HalfPlane",
    "HOrder",
    "Mollifier",
    "SymmetryReport",
    "grid_half_planes",
    "two_point_rearrange",
    "check_H_order",
    "foliated_symmetrize",
    "mollify",
    "mollification_matrix",
    "symmetry_report",
    "weighted_l2",
]


@dataclass(frozen=True)
class HalfPlane:
    """Open half-plane {x : x . e > 0} with e = (cos(normal_angle),
    sin(normal_angle)); the origin lies on its boundary line."""

    normal_angle: float

    def __post_init__(self):
        if not math.isfinite(self.normal_angle):
            raise ValueError("normal angle must be finite")


class HOrder(enum.Enum):
    IS_UH = "is_uh"
    IS_SIGMA_UH = "is_sigma_uh"
    NEITHER = "neither"


def grid_half_planes(grid: PolarGrid, count: int | None = None) -> list[HalfPlane]:
    """Half-planes with normals at the half-offset angles (k + 1/2) da, so no
    node lies on any boundary line.  Returns ``count`` of them, evenly
    spread (default: all n_a)."""
    n = grid.n_a if count is None else count
    if n < 1:
        raise ValueError("count must be positive")
    if grid.n_a % n != 0:
        raise ValueError("count must divide n_a")
    stride = grid.n_a // n
    da = grid.delta_a
    return [HalfPlane((k * stride + 0.5) * da) for k in range(n)]


def _inside(grid: PolarGrid, h: HalfPlane) -> np.ndarray:
    """Mask of the angular columns inside the open half-plane H, boundary
    line excluded (exact integer arithmetic in units of half cells)."""
    k2 = _half_units(grid, h.normal_angle)
    n_a = grid.n_a
    diff = (2 * np.arange(n_a) - k2) % (2 * n_a)
    return (diff < n_a // 2) | (diff > 3 * (n_a // 2))


def two_point_rearrange(f: Field, h: HalfPlane) -> Field:
    """Per reflection pair, put the larger value on the H side (a column on
    the boundary line is its own pair, so the minimum keeps it).  Idempotent,
    and preserves the value multiset on every circle."""
    grid = f.grid
    mirrored = f.values[:, reflection_index_map(grid, h.normal_angle)]
    out = np.where(
        _inside(grid, h), np.maximum(f.values, mirrored), np.minimum(f.values, mirrored)
    )
    return Field(grid, out)


def check_H_order(f: Field, h: HalfPlane, tol: float = 1e-12) -> HOrder:
    """Classify f against its reflection: IS_UH when f >= sigma_H f on H
    (within tol * max|f|), IS_SIGMA_UH for the reverse, NEITHER otherwise."""
    grid = f.grid
    idx = reflection_index_map(grid, h.normal_angle)
    diff = (f.values - f.values[:, idx])[:, _inside(grid, h)]
    tol *= float(np.max(np.abs(f.values)))
    if np.all(diff >= -tol):
        return HOrder.IS_UH
    if np.all(diff <= tol):
        return HOrder.IS_SIGMA_UH
    return HOrder.NEITHER


def _slot_order(n_a: int) -> np.ndarray:
    # Angular slots by increasing polar angle from +x1; within a +-pair the
    # positive-x2 node comes first so it receives the larger value.
    order = [0]
    for k in range(1, n_a // 2):
        order.append(k)
        order.append(n_a - k)
    order.append(n_a // 2)
    return np.array(order)


def foliated_symmetrize(f: Field) -> Field:
    """On each circle, redistribute the values so they are nonincreasing in
    the polar angle measured from the +x1 axis (ties across a +-pair broken
    toward positive x2).  The multiset per circle is preserved exactly."""
    grid = f.grid
    order = _slot_order(grid.n_a)
    ranked = -np.sort(-f.values, axis=1)
    out = np.empty_like(ranked)
    out[:, order] = ranked
    return Field(grid, out)


_MOLLIFIER_CACHE: dict[tuple, object] = {}
MOLLIFIER_MAX_NNZ = 2**27  # most terms (weight times node value) one mollification sums


@dataclass(frozen=True, eq=False)
class Mollifier:
    """The mollification operator as one read-only stencil per ring: node
    (i, j) takes weight vals[t] of node (src[t], j + s[t]) for each term t
    of ``stencils[i] = (vals, src, s)``; ``nnz`` counts the terms over all
    nodes."""

    grid: PolarGrid
    stencils: tuple

    @property
    def nnz(self) -> int:
        return self.grid.n_a * sum(vals.size for vals, _, _ in self.stencils)

    def __matmul__(self, values: np.ndarray) -> np.ndarray:
        """Apply to an (n_r, n_a) array ring by ring, holding one ring's
        terms at a time.  Each node sums its terms in stencil order, from
        the first term on."""
        n_a = self.grid.n_a
        # window[i, s] is ring i rotated by s cells (a view, not a copy)
        window = np.lib.stride_tricks.sliding_window_view(
            np.concatenate([values, values], axis=1), n_a, axis=1)
        out = np.empty(self.grid.shape)
        for i, (vals, src, s) in enumerate(self.stencils):
            terms = window[src, s]
            terms *= vals[:, None]
            np.add.reduce(terms, axis=0, out=out[i])
        return out


def mollification_matrix(grid: PolarGrid, eps: float) -> Mollifier:
    """Row-stochastic smoothing operator: compactly supported radial bump
    kernel (1 - (d/eps)^2)^2 at node-to-node Euclidean distances, columns
    weighted by quadrature weight, rows normalized to sum 1.

    The grid and the kernel are invariant under rotation by one angular
    cell, so entry ((i, j), (i', j + s)) depends only on the rings i, i'
    and the offset s.  Each ring's stencil is computed once, for
    s in [0, n_a/2], and mirrored to -s, so it is exactly even in s and
    the operator commutes exactly with the grid's rotations and axis
    reflections; ``Mollifier`` applies it to every node of the ring.
    """
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError("mollification radius must be positive and finite")
    key = (grid.key(), float(eps))
    cached = _MOLLIFIER_CACHE.get(key)
    if cached is not None:
        return cached
    n_r, n_a = grid.n_r, grid.n_a
    r = grid.r_nodes
    ring_w = grid.w[:, 0]
    eps2 = eps * eps
    # d^2 = (r - r')^2 + 4 r r' sin^2(s da / 2), with no cancellation at
    # small d; offsets s and n_a - s share one value, bit for bit
    half = np.arange(n_a // 2 + 1)
    sin2 = (4.0 * np.sin(half * (math.pi / n_a)) ** 2)[np.concatenate([half, half[-2:0:-1]])]
    stencils, nnz = [], 0
    for i in range(n_r):
        d2 = ((r[i] - r) ** 2)[:, None] + (r[i] * r)[:, None] * sin2[None, :]
        ring, s = np.nonzero(d2 <= eps2)
        nnz += ring.size * n_a
        if nnz > MOLLIFIER_MAX_NNZ:
            raise ValueError(f"mollification radius {eps} needs over {MOLLIFIER_MAX_NNZ} nonzeros")
        # the node itself (d = 0) is always in, so the sum is positive and
        # an isolated node keeps weight exactly 1, also when eps^2 underflows to 0
        d2 = d2[ring, s]
        vals = (1.0 - np.divide(d2, eps2, out=np.zeros_like(d2), where=d2 > 0)) ** 2 * ring_w[ring]
        stencil = (vals / vals.sum(), ring, s)
        for a in stencil:
            a.setflags(write=False)
        stencils.append(stencil)
    m = Mollifier(grid, tuple(stencils))
    if len(_MOLLIFIER_CACHE) > 32:
        _MOLLIFIER_CACHE.clear()
    _MOLLIFIER_CACHE[key] = m
    return m


def mollify(f: Field, eps: float) -> Field:
    """Smooth f by the normalized compact radial kernel.  Constants are
    preserved to roundoff; a radius below the node spacing gives the
    identity; two-point orderings (check_H_order classifications) are
    preserved."""
    return Field(f.grid, mollification_matrix(f.grid, eps) @ f.values)


def weighted_l2(grid: PolarGrid, values: np.ndarray) -> float:
    scale = _pow2_scale(values)
    u = values / scale
    u *= u  # in place: the exhaustive symmetry report calls this 2 n_a times
    u *= grid.w
    return scale * math.sqrt(float(np.sum(u)))


@dataclass(frozen=True)
class SymmetryReport:
    """Distances of a field from the three symmetry structures, normalized
    by its L2 norm: foliated (axially monotone) about the estimated axis,
    anti-symmetry across the x2-axis, evenness across the x1-axis."""

    axis_angle: float
    foliated_defect: float
    antisym_defect: float
    even_defect: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _moment_axis(f: Field, norm: float) -> float:
    """Angle in [0, 2 pi) of f's first angular Fourier moment (mass
    weighted); 0 when the moment is negligible against ``norm``, f's L2
    norm."""
    grid = f.grid
    moment = complex(np.sum(grid.w * f.values * np.exp(1j * grid.a_nodes)[None, :]))
    if abs(moment) < 1e-12 * norm * math.sqrt(grid.domain.area):
        return 0.0
    return math.atan2(moment.imag, moment.real) % (2.0 * math.pi)


def _align(f: Field, norm: float, exhaustive: bool = False) -> tuple[float, np.ndarray, float]:
    """Rotate f's symmetry axis onto +x1 by a grid rotation.

    The axis is ``_moment_axis``, and of its two grid neighbors the
    rotation is the one that leaves the smaller foliated defect, the
    distance to the nearer of the two tie-breaks of the +-pairs (mirror
    images across the x1-axis); ``exhaustive`` scans every grid rotation
    instead and takes the axis from the best.  Ties go to the first
    candidate.  Returns the axis, the rotated values and their defect over ``norm``.
    """
    grid = f.grid
    n_a, da = grid.n_a, grid.delta_a
    if exhaustive:
        steps = range(n_a)
    else:
        axis = _moment_axis(f, norm)
        s_lo = math.floor(axis / da)
        steps = (s_lo % n_a, (s_lo + 1) % n_a)
    # every rotation of a circle has the same value multiset, so all
    # candidates share the two foliated symmetrizations
    target = foliated_symmetrize(f).values
    mirror = target[:, reflection_index_map(grid, math.pi / 2)]
    best = None
    for s in steps:
        g = np.roll(f.values, -s, axis=1)
        fol = min(weighted_l2(grid, g - target), weighted_l2(grid, g - mirror)) / norm
        if best is None or fol < best[2]:
            best = (s, g, fol)
    s, g, fol = best
    if exhaustive:
        axis = (s * da) % (2 * math.pi)
    return axis, g, fol


def symmetry_report(f: Field, exhaustive: bool = False) -> SymmetryReport:
    """Estimate the symmetry axis (first angular Fourier moment, mass
    weighted), align it with +x1 by a grid rotation, and measure the
    defects.  ``exhaustive`` scans every grid rotation for the smallest
    foliated defect instead (slow verification mode)."""
    grid = f.grid
    norm = weighted_l2(grid, f.values)
    if norm == 0.0:
        raise ValueError("symmetry report of the zero field")
    axis, g, fol = _align(f, norm, exhaustive)
    gf = Field(grid, g)
    anti = weighted_l2(grid, g + reflect_field(gf, "x2").values) / (2.0 * norm)
    even = weighted_l2(grid, g - reflect_field(gf, "x1").values) / (2.0 * norm)
    return SymmetryReport(axis, fol, anti, even)
