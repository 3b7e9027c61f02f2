import gc
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

import polarmin
from polarmin import grids
from polarmin.functional import ProblemParams, eval_objective
from polarmin.grids import (
    Field,
    annulus,
    build_polar_grid,
    disk,
    dump_field,
    grad_sq,
    integrate,
    parse_field,
    reflect_field,
    rotate_field,
)


def smooth_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    rho = (grid.r_nodes - grid.domain.r_inner) / (grid.domain.r_outer - grid.domain.r_inner)
    vals = np.zeros(grid.shape)
    for n in range(4):
        for m in range(3):
            vals += rng.normal() * (rho**m)[:, None] * np.cos(n * grid.a_nodes)[None, :]
            vals += rng.normal() * (rho**m)[:, None] * np.sin(n * grid.a_nodes)[None, :]
    return Field(grid, vals)


def test_disk_area_identity_small():
    g = build_polar_grid(disk(1.0), 2, 4)
    assert np.allclose(g.r_nodes, [0.25, 0.75])
    assert abs(g.w.sum() - math.pi) <= 1e-12 * math.pi


def test_annulus_area_identity():
    g = build_polar_grid(annulus(1.0, 2.0), 4, 8)
    assert abs(g.w.sum() - 3 * math.pi) <= 1e-12 * 3 * math.pi


def test_na_not_divisible_by_four_rejected():
    with pytest.raises(ValueError, match="divisible by 4"):
        build_polar_grid(disk(1.0), 4, 6)


def test_degenerate_domains_rejected():
    with pytest.raises(ValueError):
        annulus(1.0, 1.0)
    with pytest.raises(ValueError):
        annulus(2.0, 1.0)
    with pytest.raises(ValueError):
        disk(0.0)


@pytest.mark.parametrize("radius", [1.3e154, 1.4e154, 1e160])
def test_domain_whose_area_overflows_rejected(radius):
    # pi r^2 is inf at 1.3e154, and r**2 raises OverflowError from 1.4e154
    for make in (disk, lambda r: annulus(1.0, r)):
        with pytest.raises(ValueError, match="area overflows"):
            make(radius)
    assert math.isfinite(disk(7e153).area)


def test_weights_positive_and_area_exact_when_refined():
    for dom in (disk(2.0), annulus(0.3, 1.7)):
        g = build_polar_grid(dom, 37 if dom.kind == "annulus" else 36, 44)
        assert np.all(g.w > 0)
        assert abs(g.w.sum() - dom.area) <= 1e-12 * dom.area


def test_integrate_constants_and_zero():
    g = build_polar_grid(disk(1.0), 16, 16)
    assert abs(integrate(Field(g, np.ones(g.shape))) - math.pi) <= 1e-12 * math.pi
    assert integrate(Field(g, np.zeros(g.shape))) == 0.0


def test_integrate_r_squared():
    # closed form: int_0^1 r^2 * 2 pi r dr = pi / 2
    g = build_polar_grid(disk(1.0), 256, 16)
    f = Field(g, np.broadcast_to((g.r_nodes**2)[:, None], g.shape))
    assert abs(integrate(f) - math.pi / 2) <= 1e-4


def test_grad_sq_constant_is_zero():
    g = build_polar_grid(annulus(0.5, 1.0), 16, 16)
    gs = grad_sq(Field(g, np.full(g.shape, 3.7))).values
    assert np.max(np.abs(gs)) == 0.0


@pytest.mark.parametrize("domain", [annulus(0.5, 1.0), disk(1.0)], ids=["annulus", "disk"])
def test_grad_sq_coordinate_function(domain):
    # f = x1 has |grad f|^2 = 1 everywhere; on the disk the innermost ring
    # differences across the pole, against the antipodal node
    g = build_polar_grid(domain, 128, 256)
    f = Field(g, g.r_nodes[:, None] * np.cos(g.a_nodes)[None, :])
    gs = grad_sq(f).values
    assert np.max(np.abs(gs - 1.0)) <= 1e-3


def test_grad_sq_r_squared_interior():
    g = build_polar_grid(disk(1.0), 256, 16)
    f = Field(g, np.broadcast_to((g.r_nodes**2)[:, None], g.shape))
    gs = grad_sq(f).values
    exact = 4.0 * g.r_nodes[:, None] ** 2
    rel = np.abs(gs / exact - 1.0)
    # one-sided closure only affects the outermost ring
    assert np.max(rel[:-1]) <= 1e-3


def test_grad_sq_nonnegative():
    g = build_polar_grid(disk(1.0), 12, 16)
    rng = np.random.default_rng(5)
    for _ in range(20):
        gs = grad_sq(Field(g, rng.standard_normal(g.shape))).values
        assert np.min(gs) >= 0.0


def test_reflect_involution_and_parities():
    g = build_polar_grid(disk(1.0), 8, 16)
    f = smooth_field(g, 3)
    for axis in ("x1", "x2", 0.5 * g.delta_a, 3.0 * g.delta_a):
        assert np.array_equal(reflect_field(reflect_field(f, axis), axis).values, f.values)
    fc = Field(g, np.broadcast_to(np.cos(g.a_nodes), g.shape))
    fs = Field(g, np.broadcast_to(np.sin(g.a_nodes), g.shape))
    assert np.allclose(reflect_field(fc, "x1").values, fc.values, atol=1e-15)
    assert np.allclose(reflect_field(fs, "x1").values, -fs.values, atol=1e-15)


def test_reflect_rejects_non_node_preserving():
    g = build_polar_grid(disk(1.0), 8, 16)
    f = smooth_field(g)
    with pytest.raises(ValueError, match="map nodes to nodes"):
        reflect_field(f, 0.3 * g.delta_a)
    # past 2**23 half cells the float spacing of angle / step exceeds the
    # 1e-9 tolerance, so even an exact multiple cannot be told from its
    # neighbors; inf and nan are no angle at all
    step = g.delta_a / 2
    assert np.array_equal(reflect_field(f, 2.0**22 * step).values, reflect_field(f, 0.0).values)
    for angle in (2.0**23 * step, 1e17, -1e17, 1e300, math.inf, math.nan):
        with pytest.raises(ValueError, match="not a multiple of half the angular spacing"):
            reflect_field(f, angle)


def test_rotate_takes_only_an_integer_step_count():
    g = build_polar_grid(disk(1.0), 4, 8)
    f = smooth_field(g, 2)
    for steps in (3, np.int64(3), np.int32(-5)):
        assert np.array_equal(rotate_field(f, steps).values, np.roll(f.values, -3, axis=1))
    for steps in (1.5, 3.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="not an integer"):
            rotate_field(f, steps)


def test_reflection_rotation_preserve_integrals():
    g = build_polar_grid(annulus(0.4, 1.3), 24, 32)
    f = smooth_field(g, 11)
    base_i = integrate(f)
    base_e = integrate(grad_sq(f))
    for moved in (
        reflect_field(f, "x1"),
        reflect_field(f, "x2"),
        reflect_field(f, 2.5 * g.delta_a),
        rotate_field(f, 7),
        rotate_field(f, 17),
    ):
        assert abs(integrate(moved) - base_i) <= 1e-12 * max(1.0, abs(base_i))
        e = integrate(grad_sq(moved))
        assert abs(e - base_e) <= 1e-12 * base_e


def test_energy_matches_quadrature_of_grad_sq():
    g = build_polar_grid(disk(1.0), 32, 32)
    f = smooth_field(g, 2)
    e1 = integrate(grad_sq(f))
    # at theta = 0 with F = 0 the objective is the discrete Dirichlet energy
    e2 = eval_objective(ProblemParams(theta=0.0, p=2.0), f)
    assert abs(e1 - e2) <= 1e-12 * e1


def observed_order(values, exact):
    e = [abs(v - exact) for v in values]
    return math.log2(e[0] / e[1]), math.log2(e[1] / e[2])


def test_dirichlet_energy_refinement_order_disk():
    # f = x^2 y, smooth through the origin; int |grad f|^2 = 7 pi / 24
    exact = 7.0 * math.pi / 24.0
    vals = []
    for n in (32, 64, 128):
        g = build_polar_grid(disk(1.0), n, 2 * n)
        x = g.r_nodes[:, None] * np.cos(g.a_nodes)[None, :]
        y = g.r_nodes[:, None] * np.sin(g.a_nodes)[None, :]
        vals.append(integrate(grad_sq(Field(g, x * x * y))))
    o1, o2 = observed_order(vals, exact)
    assert min(o1, o2) >= 1.8


def test_dirichlet_energy_refinement_order_annulus():
    # f = r^3 cos a: int |grad f|^2 over [1/2, 1] = 105 pi / 64
    exact = 105.0 * math.pi / 64.0
    vals = []
    for n in (32, 64, 128):
        g = build_polar_grid(annulus(0.5, 1.0), n, 2 * n)
        f = Field(g, (g.r_nodes**3)[:, None] * np.cos(g.a_nodes)[None, :])
        vals.append(integrate(grad_sq(f)))
    o1, o2 = observed_order(vals, exact)
    assert min(o1, o2) >= 1.8


@settings(max_examples=60, deadline=None)
@given(
    r_inner=st.sampled_from([0.0, 0.1, 0.5, 2.0]),
    n_r=st.integers(2, 12),
    n_a=st.sampled_from(range(4, 33, 4)),
    columns=st.sampled_from([1, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_h1_solve_matches_sparse_direct_solve(r_inner, n_r, n_a, columns, seed):
    dom = disk(1.0) if r_inner == 0.0 else annulus(r_inner, r_inner + 1.0)
    g = build_polar_grid(dom, n_r, n_a)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((g.n_nodes, columns))
    ref = spsolve((sp.diags(g.w.ravel()) + kronecker_operators(g)[2]).tocsc(), b).reshape(b.shape)
    gram, combine = g.h1_solve(b)
    # the Parseval weights: modes 0 and n_a/2 once, every other mode twice
    gram_ref = b.T @ ref
    assert np.linalg.norm(gram - gram_ref) <= 1e-10 * np.linalg.norm(gram_ref)
    for j, e in enumerate(np.eye(columns)):
        x = combine(e)
        assert np.linalg.norm(x - ref[:, j]) <= 1e-10 * np.linalg.norm(ref[:, j])
    coef = rng.standard_normal(columns)
    x = combine(coef)
    assert x.shape == (g.n_nodes,)
    assert np.linalg.norm(x - ref @ coef) <= 1e-10 * np.linalg.norm(ref @ coef)


def kronecker_operators(g):
    """The reference construction of the grid operators: the 2-D radial and
    angular derivative matrices as Kronecker products, the stiffness
    dc^T W dc + df^T W df, and the per-mode radial bands as the angular FFT
    of the rows of W + A at angle index 0, in the order (diag, sup1, sup2)."""
    n_r, n_a, dr = g.n_r, g.n_a, g.delta_r
    main = np.zeros(n_r)
    sub = np.full(n_r - 1, -0.5 / dr)
    sup = np.full(n_r - 1, 0.5 / dr)
    main[-1], sub[-1] = 1.0 / dr, -1.0 / dr
    if g.domain.kind == "annulus":
        main[0], sup[0] = -1.0 / dr, 1.0 / dr
    dc = sp.kron(sp.diags([sub, main, sup], [-1, 0, 1]), sp.identity(n_a))
    if g.domain.kind == "disk":  # the innermost ring reads across the pole
        ring0 = sp.coo_matrix(([1.0], ([0], [0])), shape=(n_r, n_r))
        half = n_a // 2
        antipode = sp.diags([-0.5 / dr, -0.5 / dr], [-half, half], shape=(n_a, n_a))
        dc = dc + sp.kron(ring0, antipode)
    step = sp.diags([-1.0, 1.0, 1.0], [0, 1, 1 - n_a], shape=(n_a, n_a))
    df = sp.kron(sp.diags(1.0 / (g.r_nodes * g.delta_a)), step).tocsr()
    W = sp.diags(g.w.ravel())
    dc = dc.tocsr()
    A = (dc.T @ W @ dc + df.T @ W @ df).tocsr()
    rows = (W + A).tocsr()[np.arange(n_r) * n_a].tocoo()
    offset = rows.col // n_a - rows.row
    assert np.all(np.abs(offset) <= 2), "H1 metric couples rings more than two apart"
    coef = np.zeros((n_r, 5, n_a))
    np.add.at(coef, (rows.row, offset + 2, rows.col % n_a), rows.data)
    symbol = np.fft.rfft(coef, axis=2)
    assert np.max(np.abs(symbol.imag)) <= 1e-12 * np.max(np.abs(coef)), "symbol not real"
    return dc, df, A, [symbol.real[:, k] for k in (2, 3, 4)]


@settings(max_examples=60, deadline=None)
@given(
    r_inner=st.sampled_from([0.0, 0.1, 0.5, 2.0]),
    n_r=st.integers(2, 12),
    n_a=st.sampled_from(range(4, 33, 4)),
    seed=st.integers(0, 2**32 - 1),
)
def test_operators_match_the_kronecker_construction(r_inner, n_r, n_a, seed):
    dom = disk(1.0) if r_inner == 0.0 else annulus(r_inner, r_inner + 1.0)
    g = build_polar_grid(dom, n_r, n_a)
    dc, df, ref, ref_bands = kronecker_operators(g)
    ref = 2.0 * ref.toarray()
    # column k is the operator applied to unit field k; the bound leaves
    # no room where the reference is zero, so those entries must be 0.0
    applied = np.stack([g.stiffness(e.reshape(g.shape)).ravel() for e in np.eye(g.n_nodes)], axis=1)
    assert np.all(np.abs(applied - ref) <= 1e-14 * np.abs(ref))
    # mode m's radial matrix T[m mod 2] + c_m diag(a), as the three upper
    # bands, zero past the last ring; nothing couples rings further apart
    T, a = grids._radial_pencil(g)
    c = 4.0 * np.sin(np.pi * np.arange(n_a // 2 + 1) / n_a) ** 2
    mats = T[np.arange(n_a // 2 + 1) % 2] + c[:, None, None] * np.diag(a)
    assert np.array_equal(mats, mats.transpose(0, 2, 1))
    assert not np.any(np.triu(mats, 3))
    for q, ref_band in enumerate(ref_bands):
        band = np.zeros((n_r, n_a // 2 + 1))
        band[: n_r - q] = np.diagonal(mats, q, axis1=1, axis2=2).T
        assert ref_band.shape == (n_r, n_a // 2 + 1)
        assert np.max(np.abs(band - ref_band)) <= 1e-14 * np.max(np.abs(ref_band))
    F = np.random.default_rng(seed).standard_normal(g.n_nodes)
    dradial, dfwd = (dc @ F).reshape(g.shape), (df @ F).reshape(g.shape)
    gsq = dradial**2 + 0.5 * (dfwd**2 + np.roll(dfwd, 1, axis=1) ** 2)
    got = grad_sq(Field(g, F.reshape(g.shape))).values
    assert np.max(np.abs(got - gsq)) <= 1e-14 * np.max(gsq)


def test_operators_are_the_same_at_any_blas_thread_count():
    # the 1-D products are formed elementwise, so no sum is split across
    # BLAS threads.  The H1 solve runs LAPACK's eigh and BLAS's dgemm, so its
    # gram and combine outputs are hashed too, for four right-hand sides on
    # the default grids' ring counts: with the radii as a product's rows, one
    # of the 128-ring combines differed between 1 and 2 threads.  The 192-
    # and 256-ring disks are the default sweeps' refinement grids, which set
    # grid_tol in every sweep manifest
    code = (
        "import hashlib\n"
        "import numpy as np\n"
        "from polarmin.grids import Field, annulus, build_polar_grid, disk, grad_sq\n"
        "for dom, n_r in ((disk(1.0), 96), (annulus(0.5, 1.0), 96), (disk(1.0), 128),\n"
        "                 (disk(1.0), 192), (disk(1.0), 256)):\n"
        "    g = build_polar_grid(dom, n_r, 2 * n_r)\n"
        "    f = Field(g, np.random.default_rng(3).normal(size=g.shape))\n"
        "    h1 = hashlib.sha256()\n"
        "    for seed in range(4):\n"
        "        gram, combine = g.h1_solve(np.random.default_rng(seed).normal(size=(g.n_nodes, 3)))\n"
        "        for arr in (gram, *map(combine, np.eye(3))):\n"
        "            h1.update(arr.tobytes())\n"
        "    for arr in (g.stiffness(f.values), grad_sq(f).values):\n"
        "        print(hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest())\n"
        "    print(h1.hexdigest())\n"
    )
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": str(Path(polarmin.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        outs.append(out.stdout.split())
    assert len(outs[0]) == 15
    assert outs[0] == outs[1]


def test_stiffness_holds_no_node_sized_array():
    # the operator keeps only 1-D products; a stored 256x512 matrix would hold ~14 MiB
    import tracemalloc

    g = build_polar_grid(disk(1.0), 256, 512)
    tracemalloc.start()
    try:
        apply = g.stiffness
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert callable(apply)
    assert held < 0.1 * 2**20


def test_warm_h1_solve_allocates_no_spectrum_array():
    # the forward path and the Gram write into the solver's work array; the
    # rfft output, the even-first gather, y and z each took a fresh one
    import tracemalloc

    g = build_polar_grid(disk(1.0), 128, 256)
    b = np.random.default_rng(5).standard_normal((g.n_nodes, 3))
    g.h1_solve(b)  # the first call of a column count makes its work array
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        g.h1_solve(b)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 3 * (g.n_a + 2) * g.n_r * 8


@pytest.mark.parametrize("dom", [disk(1.0), annulus(0.5, 1.0)], ids=["disk", "annulus"])
def test_h1_solve_reuses_its_work_array_without_leaking(dom):
    # calls with other column counts and other right-hand sides in between
    # leave no trace in a later solve's gram or combine
    rng = np.random.default_rng(6)
    g = build_polar_grid(dom, 12, 24)
    b1, b2, b3 = (rng.standard_normal((g.n_nodes, k)) for k in (3, 1, 3))
    for b in (b1, b2, b3):
        g.h1_solve(b)[1](np.ones(b.shape[1]))
    gram, combine = g.h1_solve(b1)
    fresh_gram, fresh_combine = build_polar_grid(dom, 12, 24).h1_solve(b1)
    assert np.array_equal(gram, fresh_gram)
    coef = (1.0, -0.3, 2.5)
    assert np.array_equal(combine(coef), fresh_combine(coef))


def test_stale_combine_raises():
    # combine reads z from the work array the next solve overwrites
    g = build_polar_grid(disk(1.0), 6, 16)
    b = np.random.default_rng(7).standard_normal((g.n_nodes, 3))
    _, first = g.h1_solve(b)
    _, second = g.h1_solve(b[:, :1])
    with pytest.raises(RuntimeError, match="next call"):
        first(np.ones(3))
    second(np.ones(1))


@pytest.mark.parametrize("dom", [disk(1.0), annulus(0.5, 1.0)], ids=["disk", "annulus"])
def test_stiffness_returns_a_fresh_array_and_leaves_its_input(dom):
    # evaluate keeps the result as the gradient, so no call may share or
    # overwrite another's output, or write into its input
    g = build_polar_grid(dom, 6, 16)
    U = np.random.default_rng(4).standard_normal(g.shape)
    before = U.copy()
    out = g.stiffness(U)
    assert np.array_equal(U, before)
    again = g.stiffness(U)
    assert not np.shares_memory(out, U) and not np.shares_memory(out, again)
    assert np.array_equal(out, again)
    out[...] = np.nan
    assert np.array_equal(g.stiffness(U), again)
    ro = smooth_field(g, 2).values  # read-only: a write into it would raise
    assert np.array_equal(g.stiffness(ro), g.stiffness(ro.copy()))


def test_grid_is_freed_with_its_last_reference():
    # the cached H1 solver must not refer back to its grid: a reference cycle
    # would keep every dropped grid and its factorization alive until the
    # cycle collector happens to run, and peak memory would depend on when
    g = build_polar_grid(disk(1.0), 8, 16)
    g.h1_solve(np.ones((g.n_nodes, 2)))[1](np.ones(2))
    ref = weakref.ref(g)
    gc.disable()
    try:
        del g
        assert ref() is None
    finally:
        gc.enable()


def test_h1_solve_rejects_indefinite_metric(monkeypatch):
    products = grids.PolarGrid._products

    def one_negative_diagonal(grid):
        k0, k1, k2, pc, a = products.func(grid)  # fresh arrays
        k0[3] = -2.0 * grid.w[3, 0]  # mode 0 then has a negative diagonal entry
        return k0, k1, k2, pc, a

    monkeypatch.setattr(grids.PolarGrid, "_products", property(one_negative_diagonal))
    # LAPACK's LinAlgError is a ValueError too; the metric's own error is wanted
    with pytest.raises(ValueError, match="H1 metric is not positive definite") as exc:
        build_polar_grid(disk(1.0), 8, 16).h1_solve
    assert not isinstance(exc.value, np.linalg.LinAlgError)


def test_field_validation():
    g = build_polar_grid(disk(1.0), 4, 8)
    with pytest.raises(ValueError, match="shape"):
        Field(g, np.zeros((3, 8)))
    bad = np.zeros(g.shape)
    bad[1, 2] = np.inf
    with pytest.raises(ValueError, match="finite"):
        Field(g, bad)
    f = Field(g, np.zeros(g.shape))
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


def test_dump_parse_round_trip_bit_identical():
    g = build_polar_grid(annulus(0.25, 1.75), 6, 12)
    rng = np.random.default_rng(9)
    vals = rng.standard_normal(g.shape) * np.exp(rng.uniform(-30, 30, g.shape))
    f = Field(g, vals)
    back = parse_field(dump_field(f))
    assert back.grid.key() == g.key()
    assert np.array_equal(back.values, f.values)
    # disk header round-trips to a disk grid
    gd = build_polar_grid(disk(1.0), 4, 8)
    fd = Field(gd, rng.standard_normal(gd.shape))
    back = parse_field(dump_field(fd))
    assert back.grid.domain.kind == "disk"
    assert np.array_equal(back.values, fd.values)


@settings(max_examples=30, deadline=None)
@given(
    r_inner=st.sampled_from([0.0, 0.1, 0.5, 2.0]),
    n_r=st.integers(2, 12),
    n_a=st.sampled_from(range(4, 33, 4)),
    seed=st.integers(0, 2**32 - 1),
)
def test_dump_matches_per_node_reference(r_inner, n_r, n_a, seed):
    dom = disk(1.0) if r_inner == 0.0 else annulus(r_inner, r_inner + 1.0)
    g = build_polar_grid(dom, n_r, n_a)
    rng = np.random.default_rng(seed)
    # magnitudes from subnormal to near overflow, both signs, and zeros
    vals = rng.standard_normal(g.shape) * 10.0 ** rng.uniform(-310, 307, g.shape)
    vals[rng.random(g.shape) < 0.1] = 0.0
    f = Field(g, vals)
    d = g.domain
    ref = [f"# {n_r} {n_a} {float(d.r_inner)!r} {float(d.r_outer)!r}"]
    for i in range(n_r):
        for j in range(n_a):
            r, a, v = float(g.r_nodes[i]), float(g.a_nodes[j]), float(f.values[i, j])
            ref.append(f"{r!r} {a!r} {v!r}")
    assert dump_field(f) == "\n".join(ref) + "\n"


def test_parse_rejects_malformed():
    with pytest.raises(ValueError, match="header"):
        parse_field("1 2 3\n")
    g = build_polar_grid(disk(1.0), 2, 4)
    text = dump_field(Field(g, np.zeros(g.shape)))
    lines = text.splitlines()
    with pytest.raises(ValueError, match="node lines"):
        parse_field("\n".join(lines[:-1]))
    with pytest.raises(ValueError, match="expected 8 node lines, got 0"):
        parse_field(lines[0] + "\n \n\n")
    # a wrong node count is named before a malformed line
    with pytest.raises(ValueError, match="expected 8 node lines, got 7"):
        parse_field("\n".join(lines[:2] + [lines[2] + " 1.0"] + lines[3:-1]))
    # blank and whitespace-only lines are skipped anywhere
    spaced = "\n \n" + "\n\t\n".join(lines) + "\n\n"
    assert parse_field(spaced).values.tobytes() == parse_field(text).values.tobytes()


def test_parse_checks_the_header_before_building_the_grid(monkeypatch):
    # a short file whose header names a huge grid is refused without
    # building that grid (8e10 bytes of weights for the last header)
    import polarmin.grids

    def refuse(domain, n_r, n_a):
        raise AssertionError(f"built a {n_r}x{n_a} grid")

    monkeypatch.setattr(polarmin.grids, "build_polar_grid", refuse)
    body = "\n0.25 0.0 1.0\n"
    with pytest.raises(ValueError, match="expected 8000000 node lines, got 1"):
        parse_field("# 2000 4000 0.0 1.0" + body)
    with pytest.raises(ValueError, match="expected 10000000000 node lines, got 1"):
        parse_field("# 100000 100000 0.0 1.0" + body)
    with pytest.raises(ValueError, match="n_a must be divisible by 4"):
        parse_field("# 2000 4002 0.0 1.0" + body)


def test_parse_rejects_lines_off_the_grid():
    g = build_polar_grid(annulus(0.5, 1.0), 4, 8)
    lines = dump_field(smooth_field(g, 4)).splitlines()
    swapped = lines.copy()
    swapped[3], swapped[4] = swapped[4], swapped[3]
    with pytest.raises(ValueError, match="not at grid node"):
        parse_field("\n".join(swapped))
    # the same node count read under another grid's header
    with pytest.raises(ValueError, match="not at grid node"):
        parse_field("\n".join(["# 4 8 0.25 1.0"] + lines[1:]))
    with pytest.raises(ValueError, match="malformed node line"):
        parse_field("\n".join(lines[:5] + [lines[5] + " 1.0"] + lines[6:]))
