import math
from dataclasses import replace

import numpy as np
import pytest

from polarmin.functional import (
    ProblemParams,
    eval_objective,
    evaluate,
    lp_norm,
    phi,
    power_law,
    psi,
    zero_f,
)
from polarmin.grids import Field, annulus, build_polar_grid, disk, integrate, reflect_field
from polarmin.solve import (
    InfeasibleInitError,
    SolveOptions,
    build_half_support_competitor,
    certify,
    minimize,
    minimize_antisymmetric,
    residual_rms,
    restrict_positive_x1,
)
from polarmin.spectral import eigenfield, neumann_mode, neumann_root

from test_grids import smooth_field

LAM2 = neumann_root(1, 1) ** 2


def test_objective_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    for dom, f_spec in ((disk(1.0), None), (annulus(0.5, 1.0), None), (disk(1.0), power_law(0.5, 2.0))):
        g = build_polar_grid(dom, 16, 24)
        params = ProblemParams(theta=0.25, p=3.0, f_spec=f_spec or ProblemParams(theta=0.25, p=3.0).f_spec)
        U = smooth_field(g, 1).values
        grad = evaluate(params, g, U, phi(U, params.theta)).grad
        for _ in range(10):
            v = rng.standard_normal(g.shape)
            v /= np.linalg.norm(v)
            h = 1e-5
            plus = evaluate(params, g, U + h * v, phi(U + h * v, params.theta)).value
            minus = evaluate(params, g, U - h * v, phi(U - h * v, params.theta)).value
            fd = (plus - minus) / (2 * h)
            an = float(grad.ravel() @ v.ravel())
            assert abs(fd - an) <= 1e-5 * max(abs(fd), 1.0)


def test_minimize_matches_neumann_eigenvalue():
    g = build_polar_grid(disk(1.0), 48, 96)
    params = ProblemParams(theta=0.0, p=2.0)
    res = minimize(params, g, SolveOptions(n_starts=1, seed=0))
    assert res.converged
    assert abs(res.lam - LAM2) <= 0.02 * LAM2
    assert abs(integrate(res.u)) <= 1e-6
    assert abs(lp_norm(res.u, 2.0) - 1.0) <= 1e-6
    assert res.lam == eval_objective(params, res.u)
    assert res.u.values[-1, 0] >= 0.0
    assert abs(res.mult.d + LAM2) <= 0.02 * LAM2
    assert abs(res.mult.c) <= 1e-6


def test_minimize_refined_grid_tightens_oracle_agreement():
    g = build_polar_grid(disk(1.0), 192, 384)
    params = ProblemParams(theta=0.0, p=2.0)
    res = minimize(params, g, SolveOptions(n_starts=1, seed=0))
    assert res.converged
    assert abs(res.lam - LAM2) <= 0.005 * LAM2


def test_minimize_random_start_same_minimum():
    g = build_polar_grid(disk(1.0), 48, 96)
    params = ProblemParams(theta=0.1, p=2.0)
    a = minimize(params, g, SolveOptions(n_starts=1, seed=0, init="eigenmode"))
    b = minimize(params, g, SolveOptions(n_starts=3, seed=5, init="random_smooth"))
    assert a.converged and b.converged
    assert abs(a.lam - b.lam) <= 1e-6 * abs(a.lam)
    assert b.starts_agreement <= 1e-3


@pytest.mark.parametrize("init", ["eigenmode", "field", "random_smooth"])
def test_build_start_draws_as_a_per_start_generator(init):
    # each start k draws from its own generator seeded [seed, k], which a
    # random_smooth start k > 0 draws from twice and keeps the second field
    from polarmin.rearrange import weighted_l2
    from polarmin.solve import _build_start, _eigenmode_values, _random_smooth_values

    g = build_polar_grid(disk(1.0), 12, 24)
    field = Field(g, smooth_field(g).values)
    opts = SolveOptions(n_starts=3, seed=7, init=field if init == "field" else init)
    for k in range(3):
        rng = np.random.default_rng([7, k])
        if init == "random_smooth":
            want = _random_smooth_values(g, rng)
            if k > 0:
                want = _random_smooth_values(g, rng)
        else:
            want = field.values.copy() if init == "field" else _eigenmode_values(g)
            if k > 0:
                scale = weighted_l2(g, want) / math.sqrt(g.domain.area)
                want = want + 0.5 * scale * _random_smooth_values(g, rng)
        assert np.array_equal(_build_start(g, opts, k), want)


def test_gauge_invariance_under_pre_rotation():
    g = build_polar_grid(disk(1.0), 48, 96)
    params = ProblemParams(theta=0.1, p=2.0)
    from polarmin.solve import _eigenmode_values

    base = minimize(params, g, SolveOptions(n_starts=1, seed=0))
    for k in (5, 24):
        init = Field(g, np.roll(_eigenmode_values(g), -k, axis=1))
        r = minimize(params, g, SolveOptions(n_starts=1, seed=0, init=init))
        assert abs(r.lam - base.lam) <= 1e-10 * abs(base.lam)


def test_merit_monotone_within_segments():
    g = build_polar_grid(disk(1.0), 32, 64)
    params = ProblemParams(theta=0.2, p=3.0)
    res = minimize(params, g, SolveOptions(n_starts=1, seed=0))
    merits = np.array(res.merits)
    diffs = np.diff(merits)
    assert np.all(diffs <= 1e-12 * np.maximum(1.0, np.abs(merits[:-1])))


@pytest.mark.parametrize("f_spec", [zero_f(), power_law(0.5, 2.0)], ids=["zero_f", "power_law"])
def test_each_point_evaluated_once(monkeypatch, f_spec):
    import polarmin.solve as solve_mod

    seen, substituted = [], []

    def recording(params, grid, U, u):
        pt = evaluate(params, grid, U, u)
        seen.append(pt)
        return pt

    def recording_psi(xi, theta):
        substituted.append(xi)
        return psi(xi, theta)

    monkeypatch.setattr(solve_mod, "evaluate", recording)
    monkeypatch.setattr(solve_mod, "psi", recording_psi)
    g = build_polar_grid(disk(1.0), 16, 32)
    params = ProblemParams(theta=0.2, p=3.0, f_spec=f_spec)
    res = minimize(params, g, SolveOptions(n_starts=1, seed=0))
    assert res.converged and res.iterations >= 2
    halves = {0.5 * pt.value for pt in seen}
    assert all(m in halves for m in res.merits)
    points = [pt.U.tobytes() for pt in seen]
    assert len(set(points)) == len(points)
    # one psi call per evaluated point: perfbench counts line-search trials
    # as solve's psi calls minus the starts
    assert len(substituted) == len(seen)
    # the start and every trial, accepted or not, is feasible, and its field
    # is the one that was substituted
    for pt, xi in zip(seen, substituted):
        assert pt.u is xi
        u = Field(g, pt.u)
        assert abs(integrate(u)) <= 1e-12
        assert abs(lp_norm(u, params.p) - 1.0) <= 1e-12


def test_solve_options_validation():
    g = build_polar_grid(disk(1.0), 8, 16)
    SolveOptions(init="random_smooth")
    SolveOptions(init=smooth_field(g, 0))
    for bad in (None, 5, "cold", np.zeros(g.shape)):
        with pytest.raises(ValueError, match="init"):
            SolveOptions(init=bad)
    for kwargs in (
        {"n_starts": 0},
        {"subspace": "odd"},
        {"seed": -1},
    ):
        with pytest.raises(ValueError):
            SolveOptions(**kwargs)


def test_infeasible_init_raises():
    g = build_polar_grid(disk(1.0), 16, 32)
    params = ProblemParams(theta=0.1, p=2.0)
    const = Field(g, np.full(g.shape, 3.0))
    with pytest.raises(InfeasibleInitError):
        minimize(params, g, SolveOptions(n_starts=1, init=const))


@pytest.mark.parametrize(
    "p, scale",
    [
        (32.0, 1e12), (2.0, 1e160), (4.0, 1e80), (32.0, 1e-20), (2.0, 1e-170),
        (32.0, 3e-10), (2.0, 1e-158), (32.0, 1e-10), (2.0, 1.3e-161),
    ],
)
def test_start_scale_does_not_matter(p, scale):
    # |v|^p overflows, underflows or is subnormal at these scales; the
    # projection must not
    from polarmin.solve import _project_feasible

    g = build_polar_grid(disk(1.0), 12, 24)
    params = ProblemParams(theta=0.1, p=p)
    start = eigenfield(neumann_mode(1, 1), g).values
    u0 = Field(g, _project_feasible(params, g, scale * start))
    assert abs(lp_norm(u0, p) - 1.0) <= 1e-14
    lam = [
        minimize(params, g, SolveOptions(n_starts=1, seed=0, init=Field(g, s * start))).lam
        for s in (1.0, scale)
    ]
    assert abs(lam[1] - lam[0]) <= 1e-9 * lam[0]


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_extra_starts_do_not_depend_on_the_start_scale(scale):
    # the second start adds a perturbation sized by the start's L2 norm; a
    # norm that squared the values made it inf at 1e160 (the start was then
    # refused as infeasible) and 0 at 1e-170 (the second start repeated the first)
    g = build_polar_grid(disk(1.0), 12, 24)
    params = ProblemParams(theta=0.1, p=2.0)
    start = eigenfield(neumann_mode(1, 1), g).values
    ref, res = (
        minimize(params, g, SolveOptions(n_starts=2, seed=0, init=Field(g, s * start)))
        for s in (1.0, scale)
    )
    assert abs(res.lam - ref.lam) <= 1e-9 * ref.lam
    assert res.starts_agreement > 0.0
    assert abs(res.starts_agreement - ref.starts_agreement) <= 1e-4 * ref.starts_agreement


def test_antisymmetric_subspace():
    g = build_polar_grid(disk(1.0), 48, 96)
    params = ProblemParams(theta=0.1, p=2.0)
    res = minimize_antisymmetric(params, g, SolveOptions(n_starts=1, seed=0))
    assert res.converged
    # node-exact anti-symmetry across the x2-axis
    mirrored = reflect_field(res.u, "x2").values
    assert np.array_equal(res.u.values, -mirrored)
    full = minimize(params, g, SolveOptions(n_starts=1, seed=0))
    assert res.lam >= full.lam - 1e-6


def test_antisymmetric_classical_limit_matches_oracle():
    # the lowest nonconstant Neumann mode is itself anti-symmetric, so the
    # subspace minimum coincides with the full one at theta = 0, p = 2
    g = build_polar_grid(disk(1.0), 96, 192)
    params = ProblemParams(theta=0.0, p=2.0)
    res = minimize_antisymmetric(params, g, SolveOptions(n_starts=1, seed=0))
    assert res.converged
    assert abs(res.lam - LAM2) <= 0.02 * LAM2


@pytest.mark.parametrize("p", [2.0, 8.0])
def test_antisymmetric_on_annulus(p):
    # the projection onto the x2-odd subspace does not depend on the domain
    g = build_polar_grid(annulus(0.5, 1.0), 24, 96)
    params = ProblemParams(theta=0.1, p=p)
    res = minimize_antisymmetric(params, g, SolveOptions())
    assert res.converged
    assert np.array_equal(reflect_field(res.u, "x2").values, -res.u.values)
    assert abs(integrate(res.u)) <= 1e-12
    assert abs(lp_norm(res.u, p) - 1.0) <= 1e-12


def test_antisymmetric_dominates_at_large_p():
    g = build_polar_grid(disk(1.0), 48, 96)
    params = ProblemParams(theta=0.1, p=8.0)
    res_as = minimize_antisymmetric(params, g, SolveOptions(n_starts=1, seed=0))
    comp = build_half_support_competitor(res_as.u, params)
    res = minimize(params, g, SolveOptions(n_starts=1, seed=0, init=comp))
    assert res_as.converged and res.converged
    assert res.lam < res_as.lam
    comp_obj = eval_objective(params, comp)
    assert res.lam <= comp_obj < res_as.lam


def test_gauge_picks_one_of_the_mirror_minimizers():
    # u and -u(-x) have the same objective and constraints but opposite c;
    # starting from either must report the same field
    g = build_polar_grid(disk(1.0), 48, 96)
    params = ProblemParams(theta=0.1, p=8.0)
    res_as = minimize_antisymmetric(params, g, SolveOptions(n_starts=1, seed=0))
    comp = build_half_support_competitor(res_as.u, params)
    res = minimize(params, g, SolveOptions(n_starts=1, seed=0, init=comp))
    mirror = Field(g, -np.roll(res.u.values, g.n_a // 2, axis=1))
    again = minimize(params, g, SolveOptions(n_starts=1, seed=0, init=mirror))
    assert res.mult.c > 0.1
    assert np.max(np.abs(again.u.values - res.u.values)) <= 1e-6
    assert abs(again.mult.c - res.mult.c) <= 1e-6
    # the least-squares c is taken at the reported field, so it has the
    # identity c's sign whichever of the pair the descent reached
    for r in (res, again):
        assert certify(r, params).consistency_c <= 1e-3 * abs(r.mult.c)


@pytest.mark.parametrize("antisym", [False, True], ids=["full", "antisymmetric"])
def test_gauge_fix_maps_mirror_pair_to_same_bits(antisym):
    # u and -u(-x) share energy and constraints; in the anti-symmetric
    # subspace -u(-x) is u's mirror across the x1-axis
    from polarmin.solve import _antisym_project, _gauge_fix

    g = build_polar_grid(disk(1.0), 24, 48)
    u = smooth_field(g, 7).values
    if antisym:
        u = _antisym_project(g, u)
    image = -np.roll(u, g.n_a // 2, axis=1)
    assert np.array_equal(_gauge_fix(g, u, antisym).values, _gauge_fix(g, image, antisym).values)


def test_half_support_competitor_identities():
    g = build_polar_grid(disk(1.0), 96, 192)
    params = ProblemParams(theta=0.1, p=8.0)
    res_as = minimize_antisymmetric(params, g, SolveOptions(n_starts=1, seed=0))
    raw = restrict_positive_x1(res_as.u)
    # the restriction carries exactly half of the p-norm mass
    half_mass = lp_norm(raw, params.p) ** params.p
    assert abs(half_mass - 0.5) <= 1e-12
    # and half of the energy, up to the quadrature error of the cut
    obj = eval_objective(params, raw)
    assert abs(obj - res_as.lam / 2.0) <= 0.05 * res_as.lam
    comp = build_half_support_competitor(res_as.u, params)
    assert abs(integrate(comp)) <= 1e-12
    assert abs(lp_norm(comp, params.p) - 1.0) <= 1e-12


def test_competitor_rejects_bad_inputs():
    g = build_polar_grid(disk(1.0), 16, 32)
    params = ProblemParams(theta=0.1, p=4.0)
    sym = Field(g, np.broadcast_to(np.cos(2 * g.a_nodes), g.shape))
    with pytest.raises(ValueError, match="anti-symmetric"):
        build_half_support_competitor(sym, params)
    anti = Field(g, np.broadcast_to(np.cos(g.a_nodes), g.shape))
    with pytest.raises(ValueError, match="unit-norm"):
        build_half_support_competitor(anti, params)


def test_residual_rms_small_at_minimizer():
    g = build_polar_grid(disk(1.0), 48, 96)
    params = ProblemParams(theta=0.1, p=2.0)
    res = minimize(params, g, SolveOptions(n_starts=1, seed=0))
    unorm = math.sqrt(float(np.sum(g.w * res.u.values**2) / np.sum(g.w)))
    assert res.residual_rms <= 5e-2 * unorm
    assert res.residual_rms == residual_rms(params, res.u, res.mult)


def test_certify_converged_run():
    g = build_polar_grid(disk(1.0), 48, 96)
    params = ProblemParams(theta=0.1, p=2.0)
    res = minimize(params, g, SolveOptions(n_starts=1, seed=0))
    record = certify(res, params)
    assert record.passed
    assert record.mean_violation <= 1e-10
    assert record.norm_violation <= 1e-10
    assert record.consistency_d <= 1e-3 * abs(res.mult.d)
    assert record.order_violation <= 64 * math.ulp(1.0)


@pytest.fixture(scope="module")
def certified_16x32():
    g = build_polar_grid(disk(1.0), 16, 32)
    params = ProblemParams(theta=0.1, p=2.0)
    res = minimize(params, g, SolveOptions(n_starts=1, seed=0))
    assert certify(res, params).passed
    return res, params


def test_order_certificate_separates_foliated_fields(certified_16x32):
    res, params = certified_16x32
    g = res.u.grid
    r, a = g.r_nodes[:, None], g.a_nodes[None, :]
    # axis between grid angles, so no node pair is tied across it
    fol = r * np.cos(a - 0.3 * g.delta_a) + r**2
    record = certify(replace(res, u=Field(g, fol)), params)
    assert record.order_violation <= 64 * math.ulp(1.0)
    two_bump = np.broadcast_to(np.cos(2 * a), g.shape).copy()
    assert certify(replace(res, u=Field(g, two_bump)), params).order_violation > 0.1
    swapped = fol.copy()
    i = g.n_r // 2
    swapped[i, [0, g.n_a // 4]] = swapped[i, [g.n_a // 4, 0]]
    assert certify(replace(res, u=Field(g, swapped)), params).order_violation > 0.0


def test_certify_fails_a_non_foliated_field(certified_16x32):
    res, params = certified_16x32
    g = res.u.grid
    # two neighbors swapped on one ring: still feasible and near the duals,
    # so only the order fails
    swapped = res.u.values.copy()
    i = g.n_r // 2
    swapped[i, [1, 2]] = swapped[i, [2, 1]]
    record = certify(replace(res, u=Field(g, swapped)), params)
    assert max(record.mean_violation, record.norm_violation) <= 1e-8
    assert max(record.consistency_c, record.consistency_d) <= 1e-2 * abs(res.mult.d)
    assert record.order_violation > 0.0
    assert not record.passed


def test_certify_rejects_unconverged(monkeypatch):
    monkeypatch.setattr("polarmin.solve.MAX_ITERS", 1)
    g = build_polar_grid(disk(1.0), 16, 32)
    params = ProblemParams(theta=0.1, p=2.0)
    res = minimize(params, g, SolveOptions(n_starts=1, seed=0))
    assert not res.converged
    with pytest.raises(ValueError, match="converged"):
        certify(res, params)


def test_warm_start_agrees_with_cold():
    g = build_polar_grid(disk(1.0), 48, 96)
    cold = minimize(ProblemParams(theta=0.2, p=2.0), g, SolveOptions(n_starts=1, seed=0))
    warm_src = minimize(ProblemParams(theta=0.3, p=2.0), g, SolveOptions(n_starts=1, seed=0))
    warm = minimize(
        ProblemParams(theta=0.2, p=2.0), g, SolveOptions(n_starts=1, seed=0, init=warm_src.u)
    )
    assert abs(warm.lam - cold.lam) <= 1e-3 * abs(cold.lam)


def test_provided_field_round_trip_json():
    g = build_polar_grid(disk(1.0), 24, 48)
    params = ProblemParams(theta=0.1, p=2.0)
    res = minimize(params, g, SolveOptions(n_starts=1, seed=0))
    doc = res.to_json_dict()
    assert doc["converged"] is True
    assert set(doc["symmetry"]) == {"axis_angle", "foliated_defect", "antisym_defect", "even_defect"}
    # one pair of duals, from the integral identities
    assert set(doc) == {
        "lambda", "c", "d", "iterations", "converged", "residual_rms",
        "symmetry", "starts_agreement", "grad_norm",
    }


def test_substituted_variable_is_consistent():
    # the reported objective equals the substituted Dirichlet energy
    g = build_polar_grid(disk(1.0), 32, 64)
    params = ProblemParams(theta=0.25, p=2.0)
    res = minimize(params, g, SolveOptions(n_starts=1, seed=0))
    U = psi(res.u.values, params.theta)
    val = evaluate(params, g, U, res.u.values).value
    assert abs(val - res.lam) <= 1e-10 * abs(res.lam)


def test_line_search_stall_stops_the_descent(monkeypatch):
    # with no gradient tolerance to meet, each start runs until a step can
    # no longer lower the merit in double precision, and reports that
    from polarmin import solve

    monkeypatch.setattr(solve, "GRAD_TOL", 0.0)
    grid = build_polar_grid(disk(1.0), 16, 32)
    res = minimize(ProblemParams(theta=0.2, p=3.0), grid, SolveOptions(n_starts=2, seed=0))
    assert not res.converged
    assert 0 < res.iterations < solve.MAX_ITERS
    assert all(b <= a for a, b in zip(res.merits, res.merits[1:]))
