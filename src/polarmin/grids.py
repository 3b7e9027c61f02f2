"""Polar tensor grids on disks and annuli: quadrature, gradients, reflections.

All fields live on a cell-centered-in-radius, uniform-in-angle mesh.  The
angular node count is a multiple of 4 so that reflections across the
coordinate axes (and across any half-plane whose normal is a multiple of
half the angular spacing) permute nodes exactly, with no interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Literal

import numpy as np
import scipy.linalg
import scipy.sparse as sp

__all__ = [
    "RadialDomain",
    "PolarGrid",
    "Field",
    "disk",
    "annulus",
    "build_polar_grid",
    "integrate",
    "grad_sq",
    "dirichlet_energy",
    "reflect_field",
    "rotate_field",
    "reflection_index_map",
    "dump_field",
    "parse_field",
]


@dataclass(frozen=True)
class RadialDomain:
    """Disk or annulus centered at the origin.

    Invariant under every rotation about the origin and every reflection
    through a line containing the origin.
    """

    kind: Literal["disk", "annulus"]
    r_inner: float
    r_outer: float

    def __post_init__(self):
        if self.kind not in ("disk", "annulus"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if not (math.isfinite(self.r_inner) and math.isfinite(self.r_outer)):
            raise ValueError("radii must be finite")
        if self.r_inner < 0.0:
            raise ValueError("r_inner must be >= 0")
        if self.r_outer <= self.r_inner:
            raise ValueError("degenerate domain: r_outer must exceed r_inner")
        if self.kind == "disk" and self.r_inner != 0.0:
            raise ValueError("disk requires r_inner = 0")
        if self.kind == "annulus" and self.r_inner == 0.0:
            raise ValueError("annulus requires r_inner > 0")

    @property
    def area(self) -> float:
        return math.pi * (self.r_outer**2 - self.r_inner**2)


def disk(radius: float = 1.0) -> RadialDomain:
    return RadialDomain("disk", 0.0, radius)


def annulus(r_inner: float, r_outer: float) -> RadialDomain:
    return RadialDomain("annulus", r_inner, r_outer)


@dataclass(frozen=True, eq=False)
class PolarGrid:
    """Tensor polar mesh with midpoint quadrature weights.

    Radial nodes are cell-centered, r_i = r_inner + (i + 1/2) dr, so no node
    sits at the origin on a disk.  Angular nodes are a_j = 2*pi*j/n_a.  The
    weight of node (i, j) is r_i*dr*da, which sums exactly to the domain
    area.
    """

    domain: RadialDomain
    n_r: int
    n_a: int
    r_nodes: np.ndarray
    a_nodes: np.ndarray
    w: np.ndarray

    @property
    def delta_r(self) -> float:
        return (self.domain.r_outer - self.domain.r_inner) / self.n_r

    @property
    def delta_a(self) -> float:
        return 2.0 * math.pi / self.n_a

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_r, self.n_a)

    @property
    def n_nodes(self) -> int:
        return self.n_r * self.n_a

    def key(self) -> tuple:
        """Hashable identity of the mesh (domain geometry + resolution)."""
        d = self.domain
        return (d.kind, d.r_inner, d.r_outer, self.n_r, self.n_a)

    # Differential operators are assembled once per grid and cached.  The
    # stiffness matrix is the exact Hessian of the discrete Dirichlet
    # energy, so -(A f)/w is the divergence-form Laplacian of f, the exact
    # first variation of that energy.

    @cached_property
    def _radial_diff(self) -> sp.csr_matrix:
        """Sparse radial derivative: central in the interior, one-sided at
        the radial boundaries, pole-transparent (neighbor at angle a+pi) on
        the innermost disk ring.  A 1-D stencil in r times the identity in
        angle, plus the pole term on the disk."""
        n_r, n_a = self.n_r, self.n_a
        dr = self.delta_r
        main = np.zeros(n_r)
        sub = np.full(n_r - 1, -0.5 / dr)
        sup = np.full(n_r - 1, 0.5 / dr)
        main[-1], sub[-1] = 1.0 / dr, -1.0 / dr
        if self.domain.kind == "annulus":
            main[0], sup[0] = -1.0 / dr, 1.0 / dr
        mat = sp.kron(sp.diags([sub, main, sup], [-1, 0, 1]), sp.identity(n_a))
        if self.domain.kind == "disk":
            ring0 = sp.coo_matrix(([1.0], ([0], [0])), shape=(n_r, n_r))
            half = n_a // 2
            antipode = sp.diags([-0.5 / dr, -0.5 / dr], [-half, half], shape=(n_a, n_a))
            mat = mat + sp.kron(ring0, antipode)
        mat = mat.tocsr()
        mat.eliminate_zeros()
        return mat

    @cached_property
    def _angular_fwd_diff(self) -> sp.csr_matrix:
        """Sparse forward angular edge difference (f_{j+1} - f_j)/(r*da):
        a per-ring scale times the periodic 1-D difference in angle."""
        n_a = self.n_a
        step = sp.diags([-1.0, 1.0, 1.0], [0, 1, 1 - n_a], shape=(n_a, n_a))
        mat = sp.kron(sp.diags(1.0 / (self.r_nodes * self.delta_a)), step).tocsr()
        mat.eliminate_zeros()
        return mat

    @cached_property
    def stiffness(self) -> sp.csr_matrix:
        """Symmetric PSD matrix A with f.A.f = integrate(grad_sq(f))."""
        W = sp.diags(self.w.ravel())
        dc = self._radial_diff
        df = self._angular_fwd_diff
        return (dc.T @ W @ dc + df.T @ W @ df).tocsr()

    @cached_property
    def h1_solve(self) -> Callable[[np.ndarray], tuple[np.ndarray, Callable]]:
        """Exact solver for H = (W + A), the discrete H1 metric.

        The operator commutes with rotation by one angular cell, so an
        angular DFT splits it into one SPD pentadiagonal radial system per
        Fourier mode (on the disk the pole coupling contributes (-1)^m).
        Stacked mode after mode they form one banded SPD matrix, factored
        once by LAPACK's banded Cholesky.  The returned callable takes an
        (n_nodes, k) block b and returns gram[i, j] = b_i . H^-1 b_j, taken
        by Parseval on the spectra, and combine(coef) = H^-1 (b @ coef) for
        a coefficient vector coef of length k, with one inverse transform.
        """
        a0, a1, a2 = (band.T.ravel() for band in _radial_bands(self))
        # upper band storage; a1, a2 vanish past each mode's last ring, so
        # no entry couples two modes.  Complex, so the spectrum goes through
        # LAPACK as it is: k columns, not the 2k of its real view.  Fortran
        # order, so LAPACK factors it in place.
        ab = np.zeros((3, a0.size), dtype=complex, order="F")
        ab[2], ab[1, 1:], ab[0, 2:] = a0, a1[:-1], a2[:-2]
        try:
            factor = scipy.linalg.cholesky_banded(ab, overwrite_ab=True)
        except np.linalg.LinAlgError:
            raise ValueError("H1 metric is not positive definite") from None
        n_r, n_a = self.n_r, self.n_a
        n_m = n_a // 2 + 1

        def solve(b: np.ndarray) -> tuple[np.ndarray, Callable]:
            k = b.shape[1]
            # unknown m * n_r + i, one column per input column: the Fortran
            # order LAPACK solves in
            spec = np.empty((k, n_m, n_r), dtype=complex)
            np.fft.rfft(b.T.reshape(k, n_r, n_a).transpose(0, 2, 1), axis=1, out=spec)
            x = scipy.linalg.cho_solve_banded(
                (factor, False), spec.reshape(k, -1).T, check_finite=False
            ).T.reshape(k, n_m, n_r)

            def vec(z):  # each column's spectrum as one real vector
                return z.reshape(k, -1).view(float)

            # Parseval: modes 0 and n_a/2 count once, every other mode twice
            ends = slice(None, None, n_m - 1)
            gram = (2.0 * (vec(spec) @ vec(x).T) - vec(spec[:, ends]) @ vec(x[:, ends]).T) / n_a

            def combine(coef) -> np.ndarray:
                y = (np.asarray(coef, dtype=float)[None] @ vec(x)).view(complex)
                out = np.empty((n_r, n_a))
                np.fft.irfft(y.reshape(1, n_m, n_r), n=n_a, axis=1, out=out.T[None])
                return out.ravel()

            return gram, combine

        return solve


def _radial_bands(grid: PolarGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-mode radial bands of (W + A), read off its rows at angle index 0.

    Entry (i, i') of the mode-m radial matrix is
    sum_d c_{ii'}[d] cos(2 pi m d / n_a), where c_{ii'}[d] couples node
    (i, 0) to node (i', d); the sine part must vanish.  Returns the diagonal
    and the first and second superdiagonals, each (n_r, n_a // 2 + 1), with
    entries past the last ring zero.
    """
    n_r, n_a = grid.n_r, grid.n_a
    mat = (sp.diags(grid.w.ravel()) + grid.stiffness).tocsr()
    rows = mat[np.arange(n_r) * n_a].tocoo()
    offset = rows.col // n_a - rows.row
    if np.any(np.abs(offset) > 2):
        raise ValueError("H1 metric couples rings more than two apart")
    coef = np.zeros((n_r, 5, n_a))
    np.add.at(coef, (rows.row, offset + 2, rows.col % n_a), rows.data)
    symbol = np.fft.rfft(coef, axis=2)
    if np.max(np.abs(symbol.imag)) > 1e-12 * np.max(np.abs(coef)):
        raise ValueError("H1 metric symbol is not real: operator not reflection invariant")
    bands = symbol.real
    return bands[:, 2], bands[:, 3], bands[:, 4]


@dataclass(frozen=True, eq=False)
class Field:
    """Real-valued grid function, immutable once built."""

    grid: PolarGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"field shape {vals.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must all be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def _check_dims(n_r: int, n_a: int) -> None:
    if n_a % 4 != 0 or n_a <= 0:
        raise ValueError("n_a must be divisible by 4")
    if n_r < 2 or n_a < 4:
        raise ValueError("grid needs n_r >= 2 and n_a >= 4")


def build_polar_grid(domain: RadialDomain, n_r: int, n_a: int) -> PolarGrid:
    """Build the polar tensor mesh.

    n_a must be a positive multiple of 4 so axis reflections map nodes to
    nodes.  Recommended resolutions are n_r >= 4, n_a >= 8; smaller meshes
    (n_r >= 2, n_a >= 4) are allowed for exact small-case checks.
    """
    _check_dims(n_r, n_a)
    dr = (domain.r_outer - domain.r_inner) / n_r
    r_nodes = domain.r_inner + (np.arange(n_r) + 0.5) * dr
    a_nodes = 2.0 * math.pi * np.arange(n_a) / n_a
    da = 2.0 * math.pi / n_a
    w = np.broadcast_to((r_nodes * dr * da)[:, None], (n_r, n_a)).copy()
    for arr in (r_nodes, a_nodes, w):
        arr.setflags(write=False)
    return PolarGrid(domain=domain, n_r=n_r, n_a=n_a, r_nodes=r_nodes, a_nodes=a_nodes, w=w)


def integrate(f: Field) -> float:
    """Quadrature sum over all nodes of f's grid; exact for constants."""
    return float(np.sum(f.grid.w * f.values))


def grad_sq(f: Field) -> Field:
    """Pointwise squared gradient (d_r f)^2 + (d_a f)^2 / r^2.

    Radial derivative: central in the interior, one-sided at the radial
    boundaries (the natural zero-flux closure), and across the origin on
    the innermost disk ring (neighbor at angle a + pi).  Angular part:
    mean of the squared forward and backward edge differences, which is
    second-order at the node and makes the quadrature of this field the
    exact discrete Dirichlet energy.  Both differences are the sparse
    stencils the stiffness matrix is assembled from.
    """
    grid = f.grid
    F = f.values.ravel()
    dradial = (grid._radial_diff @ F).reshape(grid.shape)
    dfwd = (grid._angular_fwd_diff @ F).reshape(grid.shape)
    gsq = dradial**2 + 0.5 * (dfwd**2 + np.roll(dfwd, 1, axis=1) ** 2)
    return Field(grid, gsq)


def dirichlet_energy(grid: PolarGrid, values: np.ndarray) -> float:
    """f.A.f, equal to integrate(grad_sq(f)) up to roundoff."""
    v = values.ravel()
    return float(v @ (grid.stiffness @ v))


def _half_units(grid: PolarGrid, angle: float) -> int:
    """Express an angle as an integer count of half angular cells, or fail."""
    step = grid.delta_a / 2.0
    k = angle / step
    k_round = round(k)
    if abs(k - k_round) > 1e-9:
        raise ValueError(
            f"angle {angle} is not a multiple of half the angular spacing; "
            "the reflection would not map nodes to nodes"
        )
    return int(k_round) % (2 * grid.n_a)


def reflection_index_map(grid: PolarGrid, normal_angle: float) -> np.ndarray:
    """Angular index permutation of the reflection through the line whose
    normal is ``normal_angle`` (a -> 2*normal + pi - a).  The angle must be
    an exact multiple of half the angular spacing."""
    k2 = _half_units(grid, normal_angle)
    n_a = grid.n_a
    j = np.arange(n_a)
    return (k2 + n_a // 2 - j) % n_a


def reflect_field(f: Field, axis) -> Field:
    """Reflect a field across a line through the origin.

    axis is "x1" (reflection across the x1-axis, a -> -a), "x2" (across the
    x2-axis, a -> pi - a), an object with a ``normal_angle`` attribute, or a
    bare normal angle in radians.  Rejects reflections that do not permute
    the node set.
    """
    if axis == "x1":
        axis = math.pi / 2
    elif axis == "x2":
        axis = 0.0
    angle = float(getattr(axis, "normal_angle", axis))
    return Field(f.grid, f.values[:, reflection_index_map(f.grid, angle)])


def rotate_field(f: Field, steps: int) -> Field:
    """Compose with the rotation by ``steps`` angular cells:
    output[i, j] = f[i, j + steps]."""
    if steps % f.grid.n_a == 0:
        return f
    return Field(f.grid, np.roll(f.values, -int(steps), axis=1))


def dump_field(f: Field) -> str:
    """Serialize as plain text: header '# n_r n_a r_inner r_outer', then one
    'r a value' line per node.  Uses shortest round-trip decimal so parsing
    recovers the exact bits."""
    grid = f.grid
    d = grid.domain
    lines = [f"# {grid.n_r} {grid.n_a} {float(d.r_inner)!r} {float(d.r_outer)!r}"]
    angles = [repr(a) for a in grid.a_nodes.tolist()]
    for r, ring in zip(grid.r_nodes.tolist(), f.values):
        r = repr(r)  # once per ring, not once per node
        lines.extend(f"{r} {a} {v!r}" for a, v in zip(angles, ring.tolist()))
    return "\n".join(lines) + "\n"


def parse_field(text: str) -> Field:
    """Inverse of dump_field.  Rejects a node line whose r or a is not the
    header grid's node at that position (lines reordered, or taken from
    another grid)."""
    lines = text.splitlines()
    # blank lines are skipped: before the header here, in the body by loadtxt
    k = next((i for i, ln in enumerate(lines) if ln.strip()), len(lines))
    if k == len(lines) or not lines[k].startswith("#"):
        raise ValueError("missing field header line")
    head = lines[k][1:].split()
    if len(head) != 4:
        raise ValueError("malformed field header")
    n_r, n_a = int(head[0]), int(head[1])
    r_inner, r_outer = float(head[2]), float(head[3])
    domain = disk(r_outer) if r_inner == 0.0 else annulus(r_inner, r_outer)
    grid = build_polar_grid(domain, n_r, n_a)
    del lines[: k + 1]  # leaves the node lines; a sliced copy raises peak memory
    try:
        if not any(map(str.strip, lines)):  # loadtxt would only warn
            raise ValueError("no node lines")
        nodes = np.loadtxt(lines, comments=None, ndmin=2)
        if nodes.shape[1] != 3:
            raise ValueError(f"{nodes.shape[1]} columns")
        count = len(nodes)
    except ValueError as err:
        nodes = None
        count = sum(1 for ln in lines if ln.strip())
        # name the first line without three columns, else what loadtxt found
        bad = next((repr(ln) for ln in lines if len(ln.split()) not in (0, 3)), str(err))
    # a wrong node count is reported before a malformed line
    if count != n_r * n_a:
        raise ValueError(f"expected {n_r * n_a} node lines, got {count}")
    if nodes is None:
        raise ValueError(f"malformed node line: {bad}")
    r, a, vals = nodes.T.reshape(3, n_r, n_a)
    r_ok = np.isclose(r, grid.r_nodes[:, None], rtol=0.0, atol=1e-9 * r_outer)
    off = np.argwhere(~(r_ok & np.isclose(a, grid.a_nodes, rtol=0.0, atol=1e-9)))
    if len(off):
        i, j = off[0]
        raise ValueError(f"node line {i * n_a + j + 1} is not at grid node ({i}, {j})")
    return Field(grid, vals)
