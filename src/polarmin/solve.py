"""Constrained minimizer for the damped Dirichlet energy.

Minimizes the energy over fields with zero quadrature mean and unit Lp
norm, in the full space or in the subspace anti-symmetric across the
x2-axis.  The optimization variable is the substituted field U = psi(u),
which turns the leading term into the plain Dirichlet energy.  Every start
and line-search trial is projected exactly onto the constraint set and
evaluated once, by functional.evaluate; the accepted trial's record is the
next step's point.  The duals (c, d) of the stationarity equation are
recovered each step by least squares in the discrete H1 metric, from the
Gram matrix of one block H1 solve (_duals); the reduced gradient drives a
preconditioned backtracking descent on half the objective, so the duals
share the integral identities' scale.  No momentum.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, replace
from typing import Literal

import numpy as np
import numpy.random  # else imported on first use, once in each forked sweep process

from .functional import (
    Multipliers,
    Point,
    ProblemParams,
    eval_objective,
    evaluate,
    lp_norm,
    multipliers_from_identities,
    phi,
    psi,
    signed_power,
    euler_residual,
    # functional.Point calls these two, solve never does: perfbench/spans.py's
    # hooks on them here record nothing, but need the names to exist
    g_term,
    phi_prime,
)
from .grids import Field, PolarGrid, integrate, reflect_field, reflection_index_map, rotate_field
from .rearrange import (
    HalfPlane,
    SymmetryReport,
    _align,
    _inside,
    _moment_axis,
    grid_half_planes,
    symmetry_report,
    two_point_rearrange,
    weighted_l2,
)
from .spectral import eigenfield, neumann_mode

__all__ = [
    "SolveOptions",
    "MinimizeResult",
    "CertificationRecord",
    "InfeasibleInitError",
    "minimize",
    "minimize_antisymmetric",
    "build_half_support_competitor",
    "restrict_positive_x1",
    "certify",
    "residual_rms",
]

RESIDUAL_TRIM = 2  # rings skipped at each radial end when reporting residuals
MAX_ITERS = 6000  # descent steps per start
# a start converges once the H1-dual norm of its reduced (projected)
# gradient is at most this
GRAD_TOL = 2e-5


class InfeasibleInitError(RuntimeError):
    """The initial field cannot be projected onto the constraint set."""


@dataclass(frozen=True)
class SolveOptions:
    """Knobs of one minimization; each start stops at GRAD_TOL or MAX_ITERS.

    init is "eigenmode", "random_smooth", or a Field to start from; extra
    starts perturb the base start with seeded low-order harmonics.
    """

    n_starts: int = 1
    seed: int = 0
    init: str | Field = "eigenmode"
    subspace: Literal["full", "antisymmetric"] = "full"

    def __post_init__(self):
        if self.n_starts < 1:
            raise ValueError("n_starts must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.subspace not in ("full", "antisymmetric"):
            raise ValueError("subspace must be 'full' or 'antisymmetric'")
        if not isinstance(self.init, Field) and not (
            isinstance(self.init, str) and self.init in ("eigenmode", "random_smooth")
        ):
            raise ValueError("init must be 'eigenmode', 'random_smooth' or a Field")


def _antisym_project(grid: PolarGrid, vals: np.ndarray) -> np.ndarray:
    """Odd part under the reflection across the x2-axis (a -> pi - a)."""
    return 0.5 * (vals - vals[:, reflection_index_map(grid, 0.0)])


def _project_feasible(params: ProblemParams, grid: PolarGrid, vals: np.ndarray) -> np.ndarray:
    mean = float(np.sum(grid.w * vals)) / grid.domain.area
    vals = vals - mean
    scale = float(np.max(np.abs(vals))) or 1.0  # so |v / scale|^p neither over- nor underflows
    vals = vals / scale
    nrm = float(np.sum(grid.w * np.abs(vals) ** params.p)) ** (1.0 / params.p)
    # a constant field leaves only the roundoff of its mean
    if not nrm > 1e-12 * abs(mean) / scale * grid.domain.area ** (1.0 / params.p):
        raise InfeasibleInitError("initial field vanishes after mean removal")
    return vals / nrm


def _eigenmode_values(grid: PolarGrid) -> np.ndarray:
    if grid.domain.kind == "disk":
        mode = neumann_mode(1, 1, radius=grid.domain.r_outer)
        return eigenfield(mode, grid).values.copy()
    # no closed form on the annulus; the lowest nonconstant mode is
    # cos-shaped in angle and nearly flat in radius
    return np.broadcast_to(np.cos(grid.a_nodes)[None, :], grid.shape).copy()


def _random_smooth_values(grid: PolarGrid, rng: np.random.Generator) -> np.ndarray:
    rho = (grid.r_nodes - grid.domain.r_inner) / (
        grid.domain.r_outer - grid.domain.r_inner
    )
    vals = np.zeros(grid.shape)
    for n in range(4):
        for m in range(3):
            radial = rho**m
            ca, sa = np.cos(n * grid.a_nodes), np.sin(n * grid.a_nodes)
            vals += rng.normal() * radial[:, None] * ca[None, :]
            if n > 0:
                vals += rng.normal() * radial[:, None] * sa[None, :]
    return vals


def _build_start(grid, opts, k: int) -> np.ndarray:
    rng = np.random.default_rng([opts.seed, k])
    if isinstance(opts.init, Field):
        if opts.init.grid.key() != grid.key():
            raise ValueError("provided start field lives on a different grid")
        base = opts.init.values.copy()
    elif opts.init == "eigenmode":
        base = _eigenmode_values(grid)
    else:
        base = _random_smooth_values(grid, rng)
    if k > 0:
        if isinstance(opts.init, Field) or opts.init == "eigenmode":
            scale = weighted_l2(grid, base) / math.sqrt(grid.domain.area)
            base = base + 0.5 * scale * _random_smooth_values(grid, rng)
        else:
            base = _random_smooth_values(grid, rng)
    return base


@dataclass(frozen=True)
class _RunRecord:
    """One start: its gauge-fixed field and descent diagnostics.

    lam is the objective recomputed at u; merits is the merit (half the
    objective) at each iterate; runtime is the start's wall time.
    """

    u: Field
    lam: float
    converged: bool
    iterations: int
    grad_norm: float
    merits: tuple[float, ...]
    runtime: float


@dataclass(frozen=True)
class MinimizeResult(_RunRecord):
    """The best start's record, with the diagnostics of its field.

    mult holds the duals (c, d) from the integral identities; certify
    compares them with the least-squares duals of u and checks that every
    grid half-plane orders u.  starts_agreement is the relative spread of
    lam across converged multi-starts; start_runtimes holds each start's
    wall time.
    """

    mult: Multipliers
    residual_rms: float
    symmetry: SymmetryReport
    starts_agreement: float
    start_runtimes: tuple

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "c": self.mult.c,
            "d": self.mult.d,
            "iterations": self.iterations,
            "converged": self.converged,
            "residual_rms": self.residual_rms,
            "symmetry": asdict(self.symmetry),
            "starts_agreement": self.starts_agreement,
            "grad_norm": self.grad_norm,
        }


def _duals(pt: Point):
    """The gradients at pt of half the objective and of the two constraints,
    their block H1 solve's combine, and the least-squares duals (c, d): the
    weights that remove the constraint parts in the H1-dual metric."""
    g_obj = 0.5 * pt.grad
    g_c1 = pt.grid.w * pt.dphi
    g_c2 = pt.grid.w * signed_power(pt.u, pt.params.p) * pt.dphi
    gram, combine = pt.grid.h1_solve(np.stack([g_obj.ravel(), g_c1.ravel(), g_c2.ravel()]).T)
    (b1, a11, a12), (b2, _, a22) = gram[1:].tolist()
    det = a11 * a22 - a12 * a12
    c = d = 0.0
    if det > 1e-300:
        c = -(a22 * b1 - a12 * b2) / det
        d = -(a11 * b2 - a12 * b1) / det
    return (g_obj, g_c1, g_c2), combine, (c, d)


def _solve_single(params, grid, u0_vals, opts) -> _RunRecord:
    t0 = time.perf_counter()
    theta = params.theta
    antisym = opts.subspace == "antisymmetric"

    def project(vals):
        # exact feasibility: subspace, zero mean, unit Lp norm
        if antisym:
            vals = _antisym_project(grid, vals)
        return _project_feasible(params, grid, vals)

    u = project(u0_vals)
    pt = evaluate(params, grid, psi(u, theta), u)
    iters = 0
    eta_step = 1.0
    converged = False
    gnorm = math.inf
    merits = []
    eps = np.finfo(float).eps

    while iters < MAX_ITERS:
        m_val = 0.5 * pt.value
        merits.append(m_val)
        (g_obj, g_c1, g_c2), combine, (c, d) = _duals(pt)
        g_red = g_obj + c * g_c1 + d * g_c2
        z_red = combine((1.0, c, d)).reshape(grid.shape)
        if antisym:
            g_red = _antisym_project(grid, g_red)
            z_red = _antisym_project(grid, z_red)
        gTz = float(np.sum(g_red * z_red))  # not a BLAS dot, as in evaluate
        gnorm = math.sqrt(max(gTz, 0.0))
        if gnorm <= GRAD_TOL:
            converged = True
            break
        eta = min(1.0, 2.0 * eta_step)
        accepted = False
        # required decrease is floored a few ulps above roundoff so a step
        # that cannot improve the merit in double precision registers as a
        # stall instead of spinning
        floor = 32.0 * eps * abs(m_val) if m_val != 0.0 else 0.0
        for _ in range(60):
            u = project(phi(pt.U - eta * z_red, theta))
            trial = evaluate(params, grid, psi(u, theta), u)
            if 0.5 * trial.value <= m_val - max(1e-4 * eta * gTz, floor):
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break
        pt = trial
        eta_step = eta
        iters += 1

    u_final = _gauge_fix(grid, pt.u, antisym)
    return _RunRecord(
        u=u_final,
        lam=eval_objective(params, u_final),
        converged=converged,
        iterations=iters,
        grad_norm=gnorm,
        merits=tuple(merits),
        runtime=time.perf_counter() - t0,
    )


def _gauge_fix(grid: PolarGrid, vals: np.ndarray, antisym: bool) -> Field:
    f = Field(grid, vals)
    norm = weighted_l2(grid, vals)
    n_a = grid.n_a
    # u and -u(-x) share energy, constraints and symmetry axis, and the
    # eigenmode start is invariant under the swap, so roundoff decides which
    # of the two a descent reaches; the flip rule below picks one.
    if antisym:
        # only rotations by 0 or pi preserve the anti-symmetric subspace;
        # take the one nearer the moment axis
        s0 = round(_moment_axis(f, norm) / grid.delta_a) % n_a
        out = rotate_field(f, 0 if min(s0, n_a - s0) <= abs(s0 - n_a // 2) else n_a // 2).values
        # here -u(-x) is u's mirror across the x1-axis: it keeps every value
        # at angle 0 but negates the sin 2a moment, so keep that moment
        # nonnegative unless it is negligible
        m2 = float(np.sum(grid.w * out * np.sin(2.0 * grid.a_nodes)[None, :]))
        if m2 < -1e-12 * norm * math.sqrt(grid.domain.area):
            out = np.roll(-out, -(n_a // 2), axis=1)
        out = _antisym_project(grid, out)
    else:
        # the same rotation symmetry_report measures the defects in; keep the
        # field whose outer-circle value at angle 0 outweighs the one at pi
        _, out, _ = _align(f, norm)
        if out[-1, 0] + out[-1, n_a // 2] < 0.0:
            out = np.roll(-out, -(n_a // 2), axis=1)
    return Field(grid, out)


def residual_rms(params, u: Field, mult: Multipliers) -> float:
    """Quadrature RMS of the stationarity residual over interior rings.

    RESIDUAL_TRIM rings are skipped at each radial end: their rows of the
    variational Laplacian are energy-consistent but not pointwise samples
    of the operator.
    """
    grid = u.grid
    res = euler_residual(params, u, mult).values
    t = RESIDUAL_TRIM
    if grid.n_r <= 2 * t + 1:
        t = 0
    w = grid.w[t : grid.n_r - t]
    r = res[t : grid.n_r - t]
    return math.sqrt(float(np.sum(w * r * r) / np.sum(w)))


def minimize(params: ProblemParams, grid: PolarGrid, opts: SolveOptions) -> MinimizeResult:
    """Best constrained minimizer over opts.n_starts starts.

    The returned field is gauge-fixed: symmetry axis rotated onto +x1, and
    of u and -u(-x) the one whose value nearest (+r_outer, 0) outweighs the
    value nearest (-r_outer, 0).  In the anti-symmetric subspace only a
    rotation by 0 or pi applies, chosen to make the cos a moment
    nonnegative; -u(-x) is then u's mirror across the x1-axis, with the
    same values at angle 0, and the one kept has a nonnegative sin 2a
    moment.  The sign at (r_outer, 0) cannot be fixed there as well.
    """
    runs = []
    for k in range(opts.n_starts):
        u0 = _build_start(grid, opts, k)
        runs.append(_solve_single(params, grid, u0, opts))
    conv = [r for r in runs if r.converged]
    pool = conv if conv else runs
    best = min(pool, key=lambda r: r.lam)
    if len(conv) >= 2:
        lams = [r.lam for r in conv]
        spread = (max(lams) - min(lams)) / max(abs(best.lam), 1e-300)
    else:
        spread = 0.0
    mult = multipliers_from_identities(params, best.u)
    return MinimizeResult(
        **vars(best),
        mult=mult,
        residual_rms=residual_rms(params, best.u, mult),
        symmetry=symmetry_report(best.u),
        starts_agreement=spread,
        start_runtimes=tuple(r.runtime for r in runs),
    )


def minimize_antisymmetric(
    params: ProblemParams, grid: PolarGrid, opts: SolveOptions
) -> MinimizeResult:
    """Minimize within the subspace u(x1, x2) = -u(-x1, x2); every iterate
    is re-projected so the result is anti-symmetric to the bit."""
    opts = replace(opts, subspace="antisymmetric")
    return minimize(params, grid, opts)


def restrict_positive_x1(v: Field) -> Field:
    """Zero the field outside the open half-disk {x1 > 0}."""
    return Field(v.grid, np.where(_inside(v.grid, HalfPlane(0.0)), v.values, 0.0))


def build_half_support_competitor(v_as: Field, params: ProblemParams) -> Field:
    """Feasible competitor supported on one side of the anti-symmetry
    interface: restrict to {x1 > 0}, remove the mean, renormalize to unit
    Lp norm."""
    grid = v_as.grid
    anti = weighted_l2(grid, v_as.values + reflect_field(v_as, "x2").values)
    scale = weighted_l2(grid, v_as.values)
    if scale == 0.0 or anti > 1e-8 * scale:
        raise ValueError("competitor requires an anti-symmetric input field")
    if abs(lp_norm(v_as, params.p) - 1.0) > 1e-6:
        raise ValueError("competitor requires a unit-norm input field")
    restricted = restrict_positive_x1(v_as)
    if weighted_l2(grid, restricted.values) == 0.0:
        raise ValueError("degenerate competitor: restriction vanishes")
    # nonzero on one half-disk and zero on the other, so never constant:
    # the projection cannot meet a field that vanishes after mean removal
    return Field(grid, _project_feasible(params, grid, restricted.values))


@dataclass(frozen=True)
class CertificationRecord:
    """Post-hoc checks of a converged field.  consistency_c and
    consistency_d are the gaps between the result's identity duals (mult)
    and the least-squares duals of its reported field.  order_violation is
    the worst, over grid half-planes H, of the max-norm distance from the
    two-point rearrangement u_H to the nearer of u and u o sigma_H, over
    max|u|; 0 is foliated order on the grid, not minimality."""

    mean_violation: float
    norm_violation: float
    consistency_c: float
    consistency_d: float
    order_violation: float
    passed: bool


def certify(result: MinimizeResult, params: ProblemParams) -> CertificationRecord:
    """Cross-validate a converged run: constraint violations, agreement of
    the identity-based duals with the least-squares duals of the same
    (gauge-fixed) field, and the polarization order of that field on every
    half-offset grid half-plane (Bartsch, Weth & Willem 2005)."""
    if not result.converged:
        raise ValueError("certification requires a converged result")
    u = result.u
    mean_v = abs(integrate(u))
    norm_v = abs(lp_norm(u, params.p) - 1.0)
    ident = result.mult
    _, _, (c, d) = _duals(evaluate(params, u.grid, psi(u.values, params.theta), u.values))
    cons_c = abs(ident.c - c)
    cons_d = abs(ident.d - d)
    order_v = 0.0
    # a half-plane and its opposite state the same order
    for h in grid_half_planes(u.grid)[: u.grid.n_a // 2]:
        u_h = two_point_rearrange(u, h).values
        dev = min(np.max(np.abs(u_h - u.values)), np.max(np.abs(u_h - reflect_field(u, h).values)))
        order_v = max(order_v, float(dev))
    order_v /= float(np.max(np.abs(u.values)))
    passed = (
        mean_v <= 1e-8
        and norm_v <= 1e-8
        and max(cons_c, cons_d) <= 1e-2 * max(abs(ident.d), 1.0)
        and order_v <= 64.0 * math.ulp(1.0)
    )
    return CertificationRecord(
        mean_violation=mean_v,
        norm_violation=norm_v,
        consistency_c=cons_c,
        consistency_d=cons_d,
        order_violation=order_v,
        passed=passed,
    )
