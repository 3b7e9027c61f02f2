import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polarmin
from polarmin.functional import psi
from polarmin.grids import (
    Field,
    annulus,
    build_polar_grid,
    disk,
    grad_sq,
    integrate,
    reflect_field,
    reflection_index_map,
    rotate_field,
)
from polarmin.rearrange import (
    HalfPlane,
    HOrder,
    check_H_order,
    foliated_symmetrize,
    grid_half_planes,
    mollification_matrix,
    mollify,
    symmetry_report,
    two_point_rearrange,
    weighted_l2,
)

from test_grids import smooth_field


def brute_force_rearrange(grid, vals, h):
    """Independent per-pair oracle: explicit loops over angular nodes."""
    n_a = grid.n_a
    e = np.array([math.cos(h.normal_angle), math.sin(h.normal_angle)])
    out = vals.copy()
    idx = reflection_index_map(grid, h.normal_angle)
    for i in range(grid.n_r):
        for j in range(n_a):
            x = np.array([math.cos(grid.a_nodes[j]), math.sin(grid.a_nodes[j])])
            side = float(np.dot(x, e))
            pair = vals[i, idx[j]]
            if side > 1e-12:
                out[i, j] = max(vals[i, j], pair)
            elif side < -1e-12:
                out[i, j] = min(vals[i, j], pair)
    return out


def test_pair_example():
    g = build_polar_grid(disk(1.0), 2, 4)
    h = HalfPlane(math.pi / 4)
    f = Field(g, np.array([[2.0, 0.0, 0.0, 5.0], [0.0, 0.0, 0.0, 0.0]]))
    out = two_point_rearrange(f, h)
    # pair (j=0, j=3): values (2, 5) with 2 on the H side -> swapped
    assert out.values[0, 0] == 5.0
    assert out.values[0, 3] == 2.0


def test_fixed_point():
    g = build_polar_grid(disk(1.0), 4, 16)
    h = grid_half_planes(g)[3]
    f = two_point_rearrange(smooth_field(g, 1), h)
    again = two_point_rearrange(f, h)
    assert np.array_equal(f.values, again.values)


def test_multiset_preserved_per_circle():
    g = build_polar_grid(annulus(0.3, 1.0), 5, 16)
    rng = np.random.default_rng(7)
    for k in range(5):
        f = Field(g, rng.standard_normal(g.shape))
        h = grid_half_planes(g)[rng.integers(0, 16)]
        out = two_point_rearrange(f, h)
        for i in range(g.n_r):
            assert np.array_equal(np.sort(f.values[i]), np.sort(out.values[i]))


@pytest.mark.parametrize(
    "domain, n_r, n_a",
    [(disk(1.0), 3, 8), (disk(1.0), 2, 4), (disk(2.0), 4, 16),
     (annulus(0.3, 1.0), 3, 12), (annulus(0.5, 1.5), 2, 24)],
    ids=["disk-3x8", "disk-2x4", "disk-4x16", "annulus-3x12", "annulus-2x24"],
)
def test_matches_brute_force_oracle(domain, n_r, n_a):
    # every half-plane whose reflection maps nodes to nodes: normals at the
    # 2 n_a multiples of half the angular spacing, half of them with nodes
    # on the boundary line
    g = build_polar_grid(domain, n_r, n_a)
    rng = np.random.default_rng(2)
    for k in range(2 * n_a):
        h = HalfPlane(k * g.delta_a / 2)
        vals = rng.standard_normal(g.shape)
        out = two_point_rearrange(Field(g, vals), h)
        assert np.array_equal(out.values, brute_force_rearrange(g, vals, h))


def test_rejects_non_node_preserving():
    g = build_polar_grid(disk(1.0), 2, 8)
    # 1e17 and 1e300 are integers in units of half cells only by rounding
    for angle in (0.17, 1e17, 1e300):
        with pytest.raises(ValueError, match="map nodes to nodes"):
            two_point_rearrange(smooth_field(g), HalfPlane(angle))


def test_check_h_order_cosine():
    g = build_polar_grid(disk(1.0), 4, 16)
    h = HalfPlane(0.0)  # e = +x1
    ca = np.broadcast_to(np.cos(g.a_nodes), g.shape)
    assert check_H_order(Field(g, ca), h) == HOrder.IS_UH
    assert check_H_order(Field(g, -ca), h) == HOrder.IS_SIGMA_UH
    # cos(2a) is invariant under this particular reflection (equal on every
    # node pair), which counts as ordered; second harmonics fail both
    # orders against the off-axis half-planes and against sin pairings
    c2 = np.broadcast_to(np.cos(2 * g.a_nodes), g.shape)
    assert check_H_order(Field(g, c2), h) == HOrder.IS_UH
    # tol is relative to max|f|, so the verdict does not depend on the scale
    for scale in (1.0, 1e-9, 1e-13):
        assert check_H_order(Field(g, scale * c2), grid_half_planes(g)[0]) == HOrder.NEITHER
    s2 = np.broadcast_to(np.sin(2 * g.a_nodes), g.shape)
    assert check_H_order(Field(g, s2), h) == HOrder.NEITHER


def test_foliated_example():
    g = build_polar_grid(disk(1.0), 2, 4)
    f = Field(g, np.array([[1.0, 3.0, 2.0, 0.0], [0.0, 0.0, 0.0, 0.0]]))
    out = foliated_symmetrize(f)
    assert np.array_equal(out.values[0], [3.0, 2.0, 0.0, 1.0])


def test_foliated_fixed_point_and_conservation():
    g = build_polar_grid(disk(1.0), 4, 16)
    f = smooth_field(g, 3)
    out = foliated_symmetrize(f)
    again = foliated_symmetrize(out)
    assert np.array_equal(out.values, again.values)
    assert abs(integrate(out) - integrate(f)) <= 1e-12 * max(1.0, abs(integrate(f)))
    for i in range(g.n_r):
        assert abs(out.values[i].sum() - f.values[i].sum()) <= 1e-12
        assert np.array_equal(np.sort(out.values[i]), np.sort(f.values[i]))


def polar_angle_chain(n_a):
    upper = list(range(0, n_a // 2 + 1))
    lower = [0] + [n_a - k for k in range(1, n_a // 2)] + [n_a // 2]
    return upper, lower


def test_foliated_monotone_per_circle():
    g = build_polar_grid(disk(1.0), 3, 16)
    rng = np.random.default_rng(11)
    upper, lower = polar_angle_chain(g.n_a)
    for _ in range(10):
        out = foliated_symmetrize(Field(g, rng.standard_normal(g.shape))).values
        for i in range(g.n_r):
            assert np.all(np.diff(out[i, upper]) <= 0)
            assert np.all(np.diff(out[i, lower]) <= 0)


def test_foliated_brute_force_assignment():
    # independent oracle: place sorted values by polar-angle level, larger
    # of each pair toward positive x2
    g = build_polar_grid(disk(1.0), 2, 8)
    rng = np.random.default_rng(4)
    for _ in range(50):
        row = rng.standard_normal(g.n_a)
        ranked = sorted(row, reverse=True)
        expect = np.empty(g.n_a)
        expect[0] = ranked[0]
        pos = 1
        for k in range(1, g.n_a // 2):
            expect[k] = ranked[pos]
            expect[g.n_a - k] = ranked[pos + 1]
            pos += 2
        expect[g.n_a // 2] = ranked[-1]
        vals = np.vstack([row, np.zeros(g.n_a)])
        out = foliated_symmetrize(Field(g, vals)).values
        assert np.array_equal(out[0], expect)


def test_mollify_preserves_constants_and_small_eps_identity():
    g = build_polar_grid(disk(1.0), 6, 16)
    c = Field(g, np.full(g.shape, 2.5))
    assert np.max(np.abs(mollify(c, 0.4).values - 2.5)) <= 1e-12
    f = smooth_field(g, 5)
    assert np.array_equal(mollify(f, 1e-9).values, f.values)
    for eps in (0.0, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            mollify(f, eps)


def test_mollifier_size_cap(monkeypatch):
    # a radius whose matrix would exceed the cap is refused while the ring
    # stencils are counted, before the matrix is tiled
    from polarmin import rearrange

    monkeypatch.setattr(rearrange, "MOLLIFIER_MAX_NNZ", 1000)
    monkeypatch.setattr(rearrange, "_MOLLIFIER_CACHE", {})
    f = smooth_field(build_polar_grid(disk(1.0), 8, 16), 4)
    with pytest.raises(ValueError, match="needs over 1000 nonzeros"):
        mollify(f, 3.0)
    assert mollification_matrix(f.grid, 0.05).nnz <= 1000
    # 0.05 is below the node spacing on every ring but the innermost
    assert np.array_equal(mollify(f, 0.05).values[1:], f.values[1:])


def test_mollify_preserves_two_point_order():
    g = build_polar_grid(disk(1.0), 6, 16)
    rng = np.random.default_rng(6)
    planes = grid_half_planes(g)
    for trial in range(300):
        h = planes[rng.integers(0, len(planes))]
        raw = Field(g, rng.standard_normal(g.shape))
        f = two_point_rearrange(raw, h)
        assert check_H_order(f, h, 1e-12) == HOrder.IS_UH
        for eps in (0.05, 0.3, 1.1):
            assert check_H_order(mollify(f, eps), h, 1e-12) == HOrder.IS_UH
        # and the mirrored ordering is preserved as well
        neg = Field(g, -f.values)
        assert check_H_order(neg, h, 1e-12) == HOrder.IS_SIGMA_UH
        assert check_H_order(mollify(neg, 0.3), h, 1e-12) == HOrder.IS_SIGMA_UH


def test_mollify_below_the_squared_radius_underflow_is_the_identity():
    # eps^2 underflows to 0.0 below about 1.5e-162; only the node itself is
    # in the stencil, with weight exactly 1
    f = smooth_field(build_polar_grid(disk(1.0), 6, 16), 5)
    for eps in (1e-162, 1e-200, 5e-324):
        assert np.array_equal(mollify(f, eps).values, f.values)


@pytest.mark.parametrize(
    "domain, n_r, n_a",
    [(disk(1.0), 6, 16), (disk(1.0), 12, 32), (annulus(0.5, 1.0), 8, 24),
     (annulus(0.1, 3.0), 7, 12)],
    ids=["disk-6x16", "disk-12x32", "annulus-8x24", "annulus-7x12"],
)
@pytest.mark.parametrize("eps", [1e-9, 0.137, 0.41, 2.5])
def test_mollify_equals_the_tiled_matrix_bit_for_bit(domain, n_r, n_a, eps):
    # named for the CSR product it used to match; the name keeps its 16 test
    # ids stable, and it now checks mollify against the dense oracle
    g = build_polar_grid(domain, n_r, n_a)
    inside, _ = dense_mollifier(g, eps)
    assert mollification_matrix(g, eps).nnz == np.count_nonzero(inside)
    rng = np.random.default_rng(n_r * n_a)
    mixed = rng.standard_normal(g.shape) * 10.0 ** rng.uniform(-5, 4, g.shape)
    signed_zeros = np.where(rng.random(g.shape) < 0.5, -0.0, 0.0)
    signed_zeros[::2, ::3] = 5e-324
    partly_zero = rng.standard_normal(g.shape)
    partly_zero[: n_r // 2] = -0.0
    for values in (mixed, signed_zeros, partly_zero):
        assert_mollify_matches_oracle(Field(g, values), eps)


def test_cold_mollify_holds_one_ring_of_terms(monkeypatch):
    # the 128x256 operator at eps = 0.05 has 6.6M terms (~80 MiB were they
    # all held at once); applied ring by ring, a cold call allocates under 16 MiB
    import tracemalloc

    from polarmin import rearrange

    monkeypatch.setattr(rearrange, "_MOLLIFIER_CACHE", {})
    f = smooth_field(build_polar_grid(disk(1.0), 128, 256), 3)
    tracemalloc.start()
    try:
        mollify(f, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_cached_mollifier_is_read_only():
    g = build_polar_grid(disk(1.0), 6, 16)
    m = mollification_matrix(g, 0.4)
    for vals, src, s in m.stencils:
        for a in (vals, src, s):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
    assert_mollify_matches_oracle(smooth_field(g, 5), 0.4)


def dense_mollifier(grid, eps):
    """Independent oracle: the kernel pair by pair from Cartesian node
    coordinates, times the column's quadrature weight, rows normalized."""
    r = np.repeat(grid.r_nodes, grid.n_a)
    a = np.tile(grid.a_nodes, grid.n_r)
    x, y = r * np.cos(a), r * np.sin(a)
    d = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
    inside = d <= eps
    m = np.where(inside, (1.0 - (d / eps) ** 2) ** 2, 0.0) * grid.w.ravel()[None, :]
    return inside, m / m.sum(axis=1, keepdims=True)


def assert_mollify_matches_oracle(f, eps):
    """mollify(f) is the oracle's M f, elementwise to 1e-13 of |M| |f|."""
    _, m = dense_mollifier(f.grid, eps)
    v = f.values.ravel()
    err = np.abs(mollify(f, eps).values.ravel() - m @ v)
    assert np.all(err <= 1e-13 * (np.abs(m) @ np.abs(v)))


def applied(m):
    """The operator m as a dense matrix: column k is m applied to the k-th
    unit field."""
    unit = np.eye(m.grid.n_nodes).reshape(-1, *m.grid.shape)
    return np.stack([(m @ e).ravel() for e in unit], axis=1)


def node_permutation(grid, angular):
    """Node index map of an angular index map applied on every ring."""
    return (np.arange(grid.n_r)[:, None] * grid.n_a + angular[None, :]).ravel()


@pytest.mark.parametrize(
    "domain, n_r, n_a",
    [(disk(1.0), 6, 16), (disk(1.0), 12, 32), (annulus(0.5, 1.0), 8, 24)],
    ids=["disk-6x16", "disk-12x32", "annulus-8x24"],
)
@pytest.mark.parametrize("eps", [0.01, 0.137, 0.41, 0.93, 2.5])
def test_mollification_matrix_matches_dense_oracle(domain, n_r, n_a, eps):
    g = build_polar_grid(domain, n_r, n_a)
    m = mollification_matrix(g, eps)
    inside, want = dense_mollifier(g, eps)
    # node (i, j) reads node (src, j + s) for each term of ring i's stencil
    j = np.arange(n_a)
    pattern = np.zeros(inside.shape, dtype=bool)
    for i, (_, src, s) in enumerate(m.stencils):
        pattern[(i * n_a + j)[:, None], src * n_a + (j[:, None] + s) % n_a] = True
    assert np.array_equal(pattern, inside)
    assert m.nnz == np.count_nonzero(inside)
    got = applied(m)
    assert np.max(np.abs(got - want)) <= 1e-14
    assert np.max(np.abs(got.sum(axis=1) - 1.0)) <= 1e-14
    # the stencil is exactly even in the angular offset, so the grid's
    # rotations and axis reflections permute M onto itself bit for bit
    for angular in ((j + 5) % n_a, reflection_index_map(g, math.pi / 2),
                    reflection_index_map(g, 0.0)):
        perm = node_permutation(g, angular)
        assert np.array_equal(got[np.ix_(perm, perm)], got)


def test_import_does_not_load_scipy_spatial():
    # no scipy module at all: scipy.linalg or scipy.special alone costs more
    # start-up time than a default sweep-theta solve; multiprocessing is
    # loaded only by a sweep, which forks its refinement
    code = (
        "import sys, polarmin; "
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules), 'multiprocessing' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(polarmin.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False False"


def test_weighted_l2_keeps_its_bits_in_range_and_scales_out_of_it():
    # measured on v over a power of two: exact, so in range the bits are
    # those of the plain sum of squares, and out of range nothing overflows
    g = build_polar_grid(disk(1.0), 12, 24)
    v = smooth_field(g, 5).values
    plain = math.sqrt(float(np.sum(g.w * v**2)))
    assert weighted_l2(g, v) == plain
    for scale in (1e160, 1e-170):
        assert abs(weighted_l2(g, scale * v) - scale * plain) <= 1e-15 * scale * plain


def test_symmetry_report_model_function():
    g = build_polar_grid(disk(1.0), 8, 32)
    f = Field(g, np.broadcast_to(np.cos(g.a_nodes), g.shape))
    rep = symmetry_report(f)
    assert rep.foliated_defect <= 1e-8
    assert rep.antisym_defect <= 1e-8
    assert rep.even_defect <= 1e-8
    assert min(rep.axis_angle % (2 * math.pi), 2 * math.pi - rep.axis_angle % (2 * math.pi)) <= 1e-8


def test_symmetry_report_second_harmonic():
    g = build_polar_grid(disk(1.0), 8, 32)
    f = Field(g, np.broadcast_to(np.cos(2 * g.a_nodes), g.shape))
    rep = symmetry_report(f)
    # reflection across the x2-axis maps cos(2a) to itself, so the
    # anti-symmetry defect is exactly 1
    assert rep.antisym_defect > 0.5
    assert abs(rep.antisym_defect - 1.0) <= 1e-12


def test_symmetry_report_equivariance():
    g = build_polar_grid(disk(1.0), 8, 32)
    f = smooth_field(g, 14)
    rep = symmetry_report(f)
    for k in (3, 9, 21):
        rep_k = symmetry_report(rotate_field(f, k))
        assert abs(rep_k.foliated_defect - rep.foliated_defect) <= 1e-12
        assert abs(rep_k.antisym_defect - rep.antisym_defect) <= 1e-12
        assert abs(rep_k.even_defect - rep.even_defect) <= 1e-12
        shift = (rep.axis_angle - rep_k.axis_angle - k * g.delta_a) % (2 * math.pi)
        assert min(shift, 2 * math.pi - shift) <= 1e-6


@pytest.mark.parametrize("exhaustive", [False, True])
def test_foliated_defect_ignores_the_tie_break(exhaustive):
    # foliated about an axis a quarter cell toward -x2 of the grid angle 0:
    # on each +-pair the -x2 node is the larger, against
    # foliated_symmetrize's tie-break; the x1-mirror leans toward +x2
    g = build_polar_grid(disk(1.0), 24, 48)
    r, a = g.r_nodes[:, None], g.a_nodes[None, :]
    for lean in (1.0, -1.0):
        f = Field(g, r * np.exp(np.cos(a + lean * g.delta_a / 4)))
        assert symmetry_report(f, exhaustive).foliated_defect == 0.0


def test_symmetry_report_zero_field():
    g = build_polar_grid(disk(1.0), 4, 8)
    with pytest.raises(ValueError, match="zero field"):
        symmetry_report(Field(g, np.zeros(g.shape)))


def test_report_defect_ranges_and_json():
    g = build_polar_grid(disk(1.0), 6, 16)
    rng = np.random.default_rng(3)
    for _ in range(20):
        rep = symmetry_report(Field(g, rng.standard_normal(g.shape)))
        for d in (rep.foliated_defect, rep.antisym_defect, rep.even_defect):
            assert 0.0 <= d <= 2.0
    assert "axis_angle" in rep.to_json()


def test_grid_half_planes_count_validation():
    g = build_polar_grid(disk(1.0), 4, 16)
    assert len(grid_half_planes(g, 8)) == 8
    for bad in (0, -4):
        with pytest.raises(ValueError, match="positive"):
            grid_half_planes(g, bad)
    with pytest.raises(ValueError, match="divide"):
        grid_half_planes(g, 3)


def all_grid_half_planes(grid):
    planes = [HalfPlane(k * grid.delta_a) for k in range(grid.n_a)]
    planes += list(grid_half_planes(grid))
    return planes


def test_dichotomy_implies_foliated():
    # fields that pass the two-point dichotomy against every grid
    # half-plane are foliated up to a grid rotation
    g = build_polar_grid(disk(1.0), 5, 16)
    rng = np.random.default_rng(8)
    for trial in range(10):
        base = foliated_symmetrize(Field(g, rng.standard_normal(g.shape)))
        f = rotate_field(base, int(rng.integers(0, g.n_a)))
        for h in all_grid_half_planes(g):
            assert check_H_order(f, h, 1e-8) != HOrder.NEITHER
        rep = symmetry_report(f, exhaustive=True)
        assert rep.foliated_defect <= 1e-6


def test_level_set_identities_exact():
    # composing with any profile then integrating is invariant under the
    # rearrangement, because nodes permute within circles of equal weight
    g = build_polar_grid(annulus(0.5, 1.5), 6, 16)
    rng = np.random.default_rng(10)
    theta, p = 0.2, 2.7
    profiles = [
        lambda r, t: t,
        lambda r, t: t**2,
        lambda r, t: np.abs(t) ** p,
        lambda r, t: -0.3 * np.abs(t) ** 1.4 / (1 + np.abs(t)) ** (2 * theta),
    ]
    for trial in range(5):
        f = Field(g, rng.standard_normal(g.shape))
        h = grid_half_planes(g)[int(rng.integers(0, g.n_a))]
        fh = two_point_rearrange(f, h)
        r = g.r_nodes[:, None]
        for prof in profiles:
            a = integrate(Field(g, prof(r, f.values)))
            b = integrate(Field(g, prof(r, fh.values)))
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_gradient_identity_under_refinement():
    # B(u) |grad u|^2 integral matches for u and its rearrangement up to
    # discretization error that shrinks under refinement
    def mismatch(n):
        g = build_polar_grid(disk(1.0), n, 2 * n)
        x = g.r_nodes[:, None] * np.cos(g.a_nodes)[None, :]
        y = g.r_nodes[:, None] * np.sin(g.a_nodes)[None, :]
        f = Field(g, x + 0.6 * x * y + 0.3 * y)
        h = HalfPlane((3 + 0.5) * g.delta_a)
        fh = two_point_rearrange(f, h)

        def bounded(t):
            return 1.0 / (1.0 + t * t)

        a = integrate(Field(g, bounded(f.values) * grad_sq(f).values))
        b = integrate(Field(g, bounded(fh.values) * grad_sq(fh).values))
        return abs(a - b) / abs(a)

    m128 = mismatch(128)
    assert m128 <= 1e-2
    assert mismatch(256) <= m128


def test_psi_composition_commutes_with_rearrangement():
    # monotone profiles commute with the per-pair min/max
    g = build_polar_grid(disk(1.0), 4, 16)
    f = smooth_field(g, 17)
    h = grid_half_planes(g)[5]
    a = two_point_rearrange(Field(g, psi(f.values, 0.3)), h).values
    b = psi(two_point_rearrange(f, h).values, 0.3)
    assert np.array_equal(a, b)
