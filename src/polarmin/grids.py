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
import numpy.fft  # else imported on first use, once in each forked sweep process

__all__ = [
    "RadialDomain",
    "PolarGrid",
    "Field",
    "disk",
    "annulus",
    "build_polar_grid",
    "integrate",
    "grad_sq",
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
        try:  # r_outer**2 raises OverflowError above about 1.34e154
            finite = math.isfinite(self.area)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"domain area overflows at r_outer = {self.r_outer}")

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

    # Every operator is built from two 1-D stencils, the radial derivative D
    # and the periodic forward angular difference S.  The stiffness A is
    # the exact Hessian of the discrete Dirichlet energy, so -(A f)/w is the
    # divergence-form Laplacian of f, the exact first variation of it.

    @cached_property
    def _stencils(self) -> tuple:
        """(lo, mid, hi, pole, s).  Row i of D reads rings i-1, i, i+1 with
        coefficients lo[i], mid[i], hi[i] (lo[0] = hi[-1] = 0): central in
        the interior, one-sided at the radial boundaries.  On the disk the
        innermost ring also reads its antipode (angle a + pi) with
        coefficient pole; pole is 0 on an annulus.  s = 1/(r da) per ring."""
        dr = self.delta_r
        lo, mid, hi = np.zeros((3, self.n_r))
        lo[1:], hi[:-1] = -0.5 / dr, 0.5 / dr
        mid[-1], lo[-1] = 1.0 / dr, -1.0 / dr
        if self.domain.kind == "annulus":
            mid[0], hi[0] = -1.0 / dr, 1.0 / dr
        pole = -0.5 / dr if self.domain.kind == "disk" else 0.0
        return lo, mid, hi, pole, 1.0 / (self.r_nodes * self.delta_a)

    @cached_property
    def _products(self) -> tuple:
        """(k0, k1, k2, pc, a): the three upper bands of D^T W_r D (zero past
        the last ring; the pole's ring-0 diagonal is in k0), the pole's
        coupling pc of ring 0 to ring 1's antipode, and the ring weight
        a = w_r/(r da)^2 of S^T S.  Each entry sums at most three products,
        formed elementwise, not by BLAS: the same bits at any thread count."""
        lo, mid, hi, pole, s = self._stencils
        w = self.w[:, 0]
        k0, k1, k2 = (mid * w) * mid, np.zeros(self.n_r), np.zeros(self.n_r)
        k0[1:] += (hi[:-1] * w[:-1]) * hi[:-1]
        k0[:-1] += (lo[1:] * w[1:]) * lo[1:]
        k0[0] += (pole * w[0]) * pole
        k1[:-1] = (mid[:-1] * w[:-1]) * hi[:-1] + (lo[1:] * w[1:]) * mid[1:]
        k2[:-2] = (lo[1:-1] * w[1:-1]) * hi[1:-1]
        return k0, k1, k2, (pole * w[0]) * hi[0], (s * w) * s

    @cached_property
    def stiffness(self) -> Callable[[np.ndarray], np.ndarray]:
        """U -> 2AU on (n_r, n_a) arrays, A being the symmetric PSD matrix with
        f.A.f = integrate(grad_sq(f)): kron(D^T W_r D, I) + kron(W_r/(r da)^2,
        S^T S) + the disk's pole coupling.  Applied from the 1-D products,
        doubled (exactly), into a fresh array; it keeps no node-sized array."""
        k0, k1, k2, pc, a = (2.0 * x for x in self._products)
        diag, a, k2, h = (k0 + 2.0 * a)[:, None], a[:, None], k2[:-2, None], self.n_a // 2
        ones = np.flatnonzero(k1)  # the first band is nonzero on the end rings only

        def apply(U: np.ndarray) -> np.ndarray:
            out, t = diag * U, np.empty_like(U)  # t: the one scratch array
            np.add(U[:, :-2], U[:, 2:], out=t[:, 1:-1])  # angles j - 1 and j + 1
            t[:, [0, -1]] = U[:, [-1, -2]] + U[:, [1, 0]]  # the periodic ends
            out -= np.multiply(t, a, out=t)
            out[:-2] += np.multiply(k2, U[2:], out=t[:-2])  # rings i + 2 and i - 2
            out[2:] += np.multiply(k2, U[:-2], out=t[2:])
            out[ones] += k1[ones, None] * U[ones + 1]
            out[ones + 1] += k1[ones, None] * U[ones]
            if pc:  # the disk's rings 0 and 1 read each other's antipodes
                out[:2] += pc * np.roll(U[1::-1], h, axis=1)
            return out

        return apply

    @cached_property
    def h1_solve(self) -> Callable[[np.ndarray], tuple[np.ndarray, Callable]]:
        """Exact solver for H = (W + A), the discrete H1 metric, by fast
        diagonalization (Lynch, Rice & Thomas, Numer. Math. 6 (1964) 185-199).

        The operator commutes with rotation by one angular cell, so an
        angular DFT splits it into one SPD radial system per Fourier mode m,
        T_{m mod 2} + c_m diag(a) (`_radial_pencil`).  One symmetric
        eigendecomposition diag(a)^-1/2 T diag(a)^-1/2 = Q L Q^T per parity
        gives, with V = diag(a)^-1/2 Q, every mode's inverse in closed form:
        H_m^-1 = V (L + c_m)^-1 V^T.  The returned callable takes an
        (n_nodes, k) block b and returns gram[i, j] = b_i . H^-1 b_j, taken by
        Parseval in the eigenbasis after the angular rfft and one product by
        V per parity, and combine(coef) = H^-1 (b @ coef) for a coefficient
        vector coef of length k, which maps only that combination back: one
        product by V^T per parity and one inverse transform.

        The solver keeps one (2, k, n_a + 2, n_r) work array per column count
        k (1.6 MB at 128x256 for k = 3), into which the forward path writes the
        spectrum, y and z: a warm call allocates no spectrum-sized array.
        combine reads z there, so it raises RuntimeError once the solver has
        been called again; what it returns is a fresh array.
        """
        T, a = _radial_pencil(self)
        n_r, n_a = self.n_r, self.n_a
        n_e = n_a // 4 + 1  # the even modes 0, 2, ..., n_a/2; n_a/4 odd ones follow
        order = np.concatenate([np.arange(0, n_a // 2 + 1, 2), np.arange(1, n_a // 2, 2)])
        # a spectrum is held as rows (mode, real or imaginary part) of radial
        # profiles, the modes even-first, so each parity's rows are one block
        rows = (2 * order[:, None] + np.arange(2)).ravel()
        unrows = np.argsort(rows)
        c = 4.0 * np.sin(np.pi * order / n_a) ** 2
        s = 1.0 / np.sqrt(a)
        blocks, d = [], []
        for par, lo, hi in ((0, 0, n_e), (1, n_e, n_a // 2 + 1)):
            lam, Q = np.linalg.eigh(s[:, None] * T[par] * s)
            d.append(c[lo:hi, None] + lam)
            blocks.append((slice(2 * lo, 2 * hi), s[:, None] * Q))
        d = np.concatenate(d)
        if not np.all(d > 0.0):
            raise ValueError("H1 metric is not positive definite")
        scale = np.repeat(1.0 / d, 2, axis=0)  # H^-1 in each row's eigenbasis
        # Parseval: modes 0 and n_a/2 (the even block's ends) count once,
        # every other mode twice
        ends = [0, 1, 2 * n_e - 2, 2 * n_e - 1]

        works, calls = {}, 0  # one (2, k, n_a + 2, n_r) work array per column count k

        def solve(b: np.ndarray) -> tuple[np.ndarray, Callable]:
            nonlocal calls
            k = b.shape[1]
            if k not in works:
                works[k] = np.empty((2, k, n_a + 2, n_r))
            spec, y = works[k]  # spec, later z, and y
            call = calls = calls + 1
            raw = y.reshape(k, n_r, n_a + 2)  # the rfft's layout, gathered even-first
            np.fft.rfft(b.T.reshape(k, n_r, n_a), axis=2, out=spec.reshape(raw.shape).view(complex))
            np.take(spec.reshape(raw.shape), rows, axis=2, out=raw, mode="wrap")  # "raise" buffers
            np.copyto(spec, raw.transpose(0, 2, 1))
            # y = V^T b and z = (L + c_m)^-1 y, so b_i . H^-1 b_j = y_i . z_j,
            # and only the combination that combine asks for is mapped back.
            # A product's rows are spectrum rows, not radii: so placed,
            # OpenBLAS gave the same bits at 1 and 2 threads on the default
            # grids, and with the radii as rows it did not
            for block, V in blocks:
                np.matmul(spec[:, block], V, out=y[:, block])
            z = np.multiply(y, scale, out=spec)

            def vec(u):  # each column's spectrum as one real vector
                return u.reshape(k, -1)

            gram = (2.0 * (vec(y) @ vec(z).T) - vec(y[:, ends]) @ vec(z[:, ends]).T) / n_a

            def combine(coef) -> np.ndarray:
                if calls != call:
                    raise RuntimeError("combine is valid only until its solver's next call")
                zc = (np.asarray(coef, dtype=float)[None] @ vec(z)).reshape(-1, n_r)
                x = np.empty_like(zc)
                for block, V in blocks:
                    np.matmul(zc[block], V.T, out=x[block])
                x = x[unrows].T.copy().view(complex)
                return np.fft.irfft(x, n=n_a, axis=1).ravel()

            return gram, combine

        return solve


def _radial_pencil(grid: PolarGrid) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode radial matrices of (W + A) in closed form.  Angular mode m
    turns S^T S into c_m = 4 sin^2(pi m / n_a) and the antipode into
    (-1)^m, so the mode-m radial matrix is T[m mod 2] + c_m diag(a): T[par]
    is diag(w_r) + D^T W_r D with the pole coupling at sign (-1)^par, a the
    ring weight w_r/(r da)^2.  Returns T, (2, n_r, n_r), and a."""
    k0, k1, k2, pc, a = grid._products
    i = np.arange(grid.n_r)
    T = np.zeros((2, grid.n_r, grid.n_r))
    T[:, i, i] = grid.w[:, 0] + k0
    T[:, i[:-1], i[1:]] = T[:, i[1:], i[:-1]] = k1[:-1]
    T[:, i[:-2], i[2:]] = T[:, i[2:], i[:-2]] = k2[:-2]
    T[:, [0, 1], [1, 0]] += np.array([[pc], [-pc]])
    return T, a


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


def _pow2_scale(values: np.ndarray) -> float:
    """The power of two 2^e with 2^(e-1) <= max|values| < 2^e, at most
    2^1023 (1.0 for a zero array).  values / 2^e is exact, so a norm
    measured on it neither overflows nor underflows, and a sum of squares
    keeps its bits."""
    e = math.frexp(max(float(values.max()), -float(values.min())))[1]
    return math.ldexp(1.0, min(e, 1023))


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
    exact discrete Dirichlet energy.  Both are the 1-D stencils the
    stiffness is built from, applied to the (n_r, n_a) array.
    """
    lo, mid, hi, pole, s = f.grid._stencils
    F = f.values
    d_r = mid[:, None] * F
    d_r[1:] += lo[1:, None] * F[:-1]
    d_r[:-1] += hi[:-1, None] * F[1:]
    d_r[0] += pole * np.roll(F[0], F.shape[1] // 2)
    sF = s[:, None] * F
    fwd = np.roll(sF, -1, axis=1)
    fwd -= sF
    fwd *= fwd
    d_r *= d_r
    d_r += 0.5 * (fwd + np.roll(fwd, 1, axis=1))
    return Field(f.grid, d_r)


def _half_units(grid: PolarGrid, angle: float) -> int:
    """Express an angle as an integer count of half angular cells, or fail."""
    step = grid.delta_a / 2.0
    k = angle / step
    # k spaced wider than the tolerance (or inf, nan) is whole only by rounding
    if not math.ulp(k) <= 1e-9 or abs(k - round(k)) > 1e-9:
        raise ValueError(
            f"angle {angle} is not a multiple of half the angular spacing; "
            "the reflection would not map nodes to nodes"
        )
    return round(k) % (2 * grid.n_a)


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
    if not isinstance(steps, (int, np.integer)):
        raise ValueError(f"rotation step count {steps!r} is not an integer")
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
    _check_dims(n_r, n_a)  # the grid is built once the node count matches
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
    grid = build_polar_grid(domain, n_r, n_a)
    r, a, vals = nodes.T.reshape(3, n_r, n_a)
    r_ok = np.isclose(r, grid.r_nodes[:, None], rtol=0.0, atol=1e-9 * r_outer)
    off = np.argwhere(~(r_ok & np.isclose(a, grid.a_nodes, rtol=0.0, atol=1e-9)))
    if len(off):
        i, j = off[0]
        raise ValueError(f"node line {i * n_a + j + 1} is not at grid node ({i}, {j})")
    return Field(grid, vals)
