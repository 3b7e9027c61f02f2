import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from polarmin import grids
from polarmin.grids import (
    Field,
    annulus,
    build_polar_grid,
    dirichlet_energy,
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
    e2 = dirichlet_energy(g, f.values)
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
    ref = spsolve((sp.diags(g.w.ravel()) + g.stiffness).tocsc(), b).reshape(b.shape)
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
    bands = grids._radial_bands

    def one_negative_diagonal(grid):
        a0, a1, a2 = bands(grid)
        a0 = a0.copy()
        a0[3, 2] = -1.0
        return a0, a1, a2

    monkeypatch.setattr(grids, "_radial_bands", one_negative_diagonal)
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
