import math

import mpmath
import numpy as np
import pytest
import scipy.special

from polarmin.grids import Field, build_polar_grid, disk, grad_sq, integrate
from polarmin.rearrange import symmetry_report
from polarmin.spectral import eigenfield, neumann_mode, neumann_root


def test_first_neumann_root_and_eigenvalue():
    a11 = neumann_root(1, 1)
    assert abs(a11 - 1.84118378) <= 1e-7
    assert abs(a11**2 - 3.3899577) <= 1e-6


def test_root_orderings():
    assert neumann_root(0, 1) > neumann_root(1, 1)
    assert neumann_root(1, 2) > neumann_root(1, 1)


def test_roots_full_table():
    for n in range(0, 17):
        ref = scipy.special.jnp_zeros(n, 16)
        prev = 0.0
        for k in range(1, 17):
            a = neumann_root(n, k)
            assert abs(a - ref[k - 1]) <= 1e-9
            assert abs(scipy.special.jvp(n, a)) <= 1e-9
            assert a > prev
            prev = a


def test_roots_against_mpmath():
    # mpmath counts the trivial stationary point x = 0 of J_0 as its first
    with mpmath.workdps(30):
        for n, k in ((0, 1), (1, 1), (1, 6), (6, 4), (0, 16), (16, 1), (16, 16)):
            ref = mpmath.besseljzero(n, k + (n == 0), derivative=1)
            assert abs(neumann_root(n, k) - ref) <= 1e-14 * ref
        ref = mpmath.besseljzero(1, 1, derivative=1) ** 2
        assert abs(neumann_mode(1, 1).eigenvalue - ref) <= 1e-14 * ref


def test_root_range_errors():
    with pytest.raises(ValueError):
        neumann_root(17, 1)
    with pytest.raises(ValueError):
        neumann_root(1, 0)


@pytest.mark.parametrize("radius", [0.0, -2.0, math.nan, math.inf, 1e-200])
def test_mode_rejects_bad_radius(radius):
    with pytest.raises(ValueError, match="radius"):
        neumann_mode(1, 1, radius=radius)


def test_eigenfield_symmetry_and_normalization():
    g = build_polar_grid(disk(1.0), 64, 128)
    mode = neumann_mode(1, 1)
    u = eigenfield(mode, g)
    assert abs(integrate(Field(g, u.values**2)) - 1.0) <= 1e-12
    assert abs(integrate(u)) <= 1e-12
    rep = symmetry_report(u)
    assert rep.foliated_defect <= 1e-8
    assert rep.even_defect <= 1e-8
    assert rep.antisym_defect <= 1e-8


def test_eigenfield_node_values():
    radius = 1.5
    g = build_polar_grid(disk(radius), 6, 12)
    for n, k, parity in ((0, 2, "cos"), (1, 1, "cos"), (2, 1, "sin")):
        mode = neumann_mode(n, k, radius=radius, parity=parity)
        angular = np.cos(n * g.a_nodes) if parity == "cos" else np.sin(n * g.a_nodes)
        radial = [scipy.special.jv(n, mode.alpha_nk * r / radius) for r in g.r_nodes]
        vals = np.outer(radial, angular)
        vals /= math.sqrt(integrate(Field(g, vals**2)))
        assert np.max(np.abs(eigenfield(mode, g).values - vals)) <= 1e-14


def test_eigenfield_rayleigh_quotient():
    g = build_polar_grid(disk(1.0), 96, 192)
    for n, k in ((1, 1), (2, 1), (0, 2)):
        mode = neumann_mode(n, k)
        u = eigenfield(mode, g)
        rq = integrate(grad_sq(u))
        assert abs(rq - mode.eigenvalue) <= 0.01 * mode.eigenvalue


def test_eigenfield_orthogonality():
    g = build_polar_grid(disk(1.0), 64, 128)
    u1 = eigenfield(neumann_mode(1, 1), g)
    u2 = eigenfield(neumann_mode(2, 1), g)
    inner = float(np.sum(g.w * u1.values * u2.values))
    assert abs(inner) <= 1e-8


def test_rayleigh_refinement_order():
    mode = neumann_mode(1, 1)
    errs = []
    for n in (48, 96, 192):
        g = build_polar_grid(disk(1.0), n, 2 * n)
        u = eigenfield(mode, g)
        errs.append(abs(integrate(grad_sq(u)) - mode.eigenvalue))
    o1 = math.log2(errs[0] / errs[1])
    o2 = math.log2(errs[1] / errs[2])
    assert min(o1, o2) >= 1.8


def test_eigenfield_requires_disk():
    from polarmin.grids import annulus

    g = build_polar_grid(annulus(0.5, 1.0), 8, 16)
    with pytest.raises(ValueError, match="disk"):
        eigenfield(neumann_mode(1, 1), g)


def test_mode_json():
    with pytest.raises(ValueError):
        neumann_mode(0, 1, parity="sin")
