"""Property tests of the symmetry maps on random disk and annulus grids.

Reflections and the half-plane restriction are checked against the node
coordinates, not against the index arithmetic that implements them.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from polarmin.functional import ProblemParams, lp_norm
from polarmin.grids import (
    Field,
    annulus,
    build_polar_grid,
    disk,
    integrate,
    reflect_field,
    rotate_field,
)
from polarmin.rearrange import HalfPlane, foliated_symmetrize, two_point_rearrange
from polarmin.solve import _antisym_project, _project_feasible, restrict_positive_x1


@st.composite
def random_fields(draw):
    r_inner = draw(st.sampled_from([0.0, 0.1, 0.5, 2.0]))
    dom = disk(1.0) if r_inner == 0.0 else annulus(r_inner, r_inner + 1.0)
    g = build_polar_grid(dom, draw(st.integers(2, 12)), draw(st.sampled_from(range(4, 33, 4))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return Field(g, rng.standard_normal(g.shape))


def node_columns(grid, angles):
    """Angular column of the node at each angle, found from coordinates."""
    dist = np.abs(np.exp(1j * angles)[:, None] - np.exp(1j * grid.a_nodes)[None, :])
    cols = np.argmin(dist, axis=1)
    assert np.all(dist[np.arange(len(angles)), cols] <= 1e-9)
    return cols


def assert_circles_keep_values(f, g):
    assert np.array_equal(np.sort(f.values, axis=1), np.sort(g.values, axis=1))


@settings(max_examples=60, deadline=None)
@given(f=random_fields())
def test_axis_reflections_sample_mirror_nodes(f):
    a = f.grid.a_nodes
    for axis, mirror in (("x1", -a), ("x2", math.pi - a)):
        out = reflect_field(f, axis)
        assert np.array_equal(out.values, f.values[:, node_columns(f.grid, mirror)])


@settings(max_examples=60, deadline=None)
@given(f=random_fields())
def test_restriction_keeps_exactly_the_positive_x1_columns(f):
    # nodes on the x2-axis (cos a = 0 up to roundoff) lie outside the open half-disk
    inside = np.cos(f.grid.a_nodes) > 1e-9
    out = restrict_positive_x1(f).values
    assert np.array_equal(out[:, inside], f.values[:, inside])
    assert np.all(out[:, ~inside] == 0.0)


@settings(max_examples=60, deadline=None)
@given(f=random_fields())
def test_antisym_projection_is_idempotent_and_odd(f):
    once = _antisym_project(f.grid, f.values)
    assert np.array_equal(_antisym_project(f.grid, once), once)
    assert np.array_equal(reflect_field(Field(f.grid, once), "x2").values, -once)


@settings(max_examples=60, deadline=None)
@given(f=random_fields(), steps=st.integers(-40, 40), k=st.integers(0, 63))
def test_maps_preserve_each_circle_multiset(f, steps, k):
    g = f.grid
    h = HalfPlane((k % (2 * g.n_a)) * 0.5 * g.delta_a)
    for out in (
        reflect_field(f, "x1"),
        reflect_field(f, "x2"),
        reflect_field(f, h),
        rotate_field(f, steps),
        two_point_rearrange(f, h),
        foliated_symmetrize(f),
    ):
        assert_circles_keep_values(f, out)


@settings(max_examples=60, deadline=None)
@given(f=random_fields(), p=st.floats(1.1, 32.0))
def test_feasibility_projection(f, p):
    params = ProblemParams(theta=0.1, p=p)
    v = Field(f.grid, _project_feasible(params, f.grid, f.values))
    assert abs(integrate(v)) <= 1e-12
    assert abs(lp_norm(v, p) - 1.0) <= 1e-12
