import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

import polarmin
from polarmin.functional import (
    FSpec,
    Multipliers,
    ProblemParams,
    config_from_dict,
    config_from_json,
    config_to_json,
    eval_objective,
    euler_residual,
    evaluate,
    g_term,
    lp_norm,
    multipliers_from_identities,
    phi,
    phi_prime,
    power_law,
    psi,
    signed_power,
    zero_f,
)
from polarmin.grids import (
    Field,
    annulus,
    build_polar_grid,
    disk,
    grad_sq,
    integrate,
)
from polarmin.solve import _antisym_project
from polarmin.spectral import eigenfield, neumann_mode

from test_grids import smooth_field


def test_psi_basics():
    for th in (0.0, 0.1, 0.25, 0.49):
        assert psi(0.0, th) == 0.0
    assert psi(2.5, 0.0) == 2.5
    assert psi(-2.5, 0.0) == -2.5


def test_psi_value_against_quadrature_oracle():
    # psi(3, 1/2) should equal the integral of (1+t)^(-1/2) over [0, 3]
    oracle, err = scipy.integrate.quad(lambda t: (1.0 + abs(t)) ** -0.5, 0.0, 3.0)
    assert err < 1e-10
    assert abs(oracle - 2.0) <= 1e-10
    assert abs(psi(3.0, 0.5) - oracle) <= 1e-12


def test_psi_bounded_by_identity_and_monotone():
    xs = np.linspace(-50, 50, 401)
    for th in (0.1, 0.25, 0.49):
        vals = psi(xs, th)
        assert np.all(np.abs(vals) <= np.abs(xs) + 1e-15)
        assert np.all(np.diff(vals) > 0)
        assert np.allclose(vals, -psi(-xs, th), atol=1e-15)


THETAS = st.floats(0.0, 0.5, exclude_max=True)
SIGNS = st.sampled_from((-1.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(th=THETAS, sign=SIGNS, mag=st.floats(1e-8, 1e3))
def test_phi_inverse_pair(th, sign, mag):
    x = sign * mag
    assert abs(phi(psi(x, th), th) - x) <= 1e-12 * mag
    assert phi(0.0, th) == 0.0
    assert abs(phi(2.0, 0.5) - 3.0) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(th=THETAS, sign=SIGNS, mag=st.floats(1e-8, 1e3))
def test_phi_prime_is_the_damping_factor(th, sign, mag):
    # phi'(t) = (1 + |phi(t)|)^theta: the factor euler_residual multiplies
    # the pointwise terms by
    t = sign * mag
    expected = (1.0 + abs(phi(t, th))) ** th
    assert abs(phi_prime(t, th) - expected) <= 1e-12 * expected


def test_objective_zero_field():
    g = build_polar_grid(disk(1.0), 16, 16)
    params = ProblemParams(theta=0.2, p=2.0)
    assert eval_objective(params, Field(g, np.zeros(g.shape))) == 0.0


def test_objective_equivalence_with_substituted_energy():
    for dom in (disk(1.0), annulus(0.5, 1.0)):
        g = build_polar_grid(dom, 24, 48)
        for th in (0.0, 0.25, 0.49):
            for f_spec in (zero_f(), power_law(0.5, 2.0)):
                params = ProblemParams(theta=th, p=2.0, f_spec=f_spec)
                for seed in range(3):
                    v = smooth_field(g, seed)
                    lhs = eval_objective(params, v)
                    # F(r, v) = -c0 |v|^alpha over (1 + |v|)^{2 theta}, at v itself
                    av = np.abs(v.values)
                    f_v = -f_spec.c0 * av**f_spec.alpha / (1.0 + av) ** (2.0 * th)
                    rhs = integrate(grad_sq(Field(g, psi(v.values, th)))) - integrate(Field(g, f_v))
                    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_objective_at_eigenfunction():
    g = build_polar_grid(disk(1.0), 96, 192)
    mode = neumann_mode(1, 1)
    u = eigenfield(mode, g)
    params = ProblemParams(theta=0.0, p=2.0)
    val = eval_objective(params, u)
    assert abs(val - 3.3900) <= 0.01 * 3.39


def test_objective_nonnegative_for_zero_f():
    g = build_polar_grid(disk(1.0), 12, 16)
    params = ProblemParams(theta=0.3, p=4.0)
    rng = np.random.default_rng(0)
    for _ in range(10):
        v = Field(g, rng.standard_normal(g.shape))
        assert eval_objective(params, v) >= 0.0


def test_mean_and_lp_norm():
    g = build_polar_grid(disk(1.0), 32, 64)
    fs = Field(g, np.broadcast_to(np.sin(g.a_nodes), g.shape))
    assert abs(integrate(fs)) <= 1e-12
    f = smooth_field(g, 4)
    for p in (1.5, 2.0, 7.0):
        n1 = lp_norm(f, p)
        n2 = lp_norm(Field(g, -2.5 * f.values), p)
        assert abs(n2 - 2.5 * n1) <= 1e-12 * n2
    const = Field(g, np.full(g.shape, (1.0 / math.pi) ** (1.0 / 3.0)))
    assert abs(lp_norm(const, 3.0) - 1.0) <= 1e-10


@pytest.mark.parametrize(
    "pointwise",
    [
        lambda x: psi(x, 0.3),
        lambda x: phi(x, 0.3),
        lambda x: phi_prime(x, 0.3),
        lambda x: g_term(x, ProblemParams(theta=0.3, p=2.0)),
        lambda x: g_term(x, ProblemParams(theta=0.3, p=3.0, f_spec=power_law(0.7, 2.5))),
    ],
    ids=["psi", "phi", "phi_prime", "g_term-zero", "g_term-power-law"],
)
def test_pointwise_map_takes_a_float_or_an_array(pointwise):
    # a float gives a float; an array gives an array of its shape, bit for
    # bit the elementwise float calls
    x = np.array([[-7.5, -1.0, -1e-9, 0.0], [-0.0, 2e-300, 0.25, 40.0]])
    assert isinstance(pointwise(0.25), float)
    out = pointwise(x)
    assert isinstance(out, np.ndarray) and out.shape == x.shape
    each = np.array([pointwise(float(v)) for v in x.ravel()]).reshape(x.shape)
    assert np.array_equal(out.view(np.int64), each.view(np.int64))


def test_lp_norm_refuses_a_p_that_is_not_finite():
    f = Field(build_polar_grid(disk(1.0), 4, 8), np.full((4, 8), 11.6))
    for p in (math.inf, math.nan):
        with pytest.raises(ValueError, match="p must be finite and exceed 1"):
            lp_norm(f, p)


def test_g_term_zero_f():
    params = ProblemParams(theta=0.2, p=2.0)
    t = np.linspace(-5, 5, 11)
    assert np.all(g_term(t, params) == 0.0)


def test_g_term_matches_finite_differences():
    params = ProblemParams(theta=0.25, p=3.0, f_spec=power_law(1.0, 2.0))

    def halfweighted(t):
        return -1.0 * abs(t) ** 2.0 / (2.0 * (1.0 + abs(t)) ** 0.5)

    h = 1e-6
    for t in np.concatenate([np.linspace(-50, -0.5, 40), np.linspace(0.5, 50, 40)]):
        fd = (halfweighted(t + h) - halfweighted(t - h)) / (2 * h)
        assert abs(g_term(t, params) - fd) <= 1e-6
    # value at t = 1 frozen from the finite-difference oracle
    assert abs(g_term(1.0, params) - (-0.6187184335382291)) <= 1e-12


def test_g_term_odd():
    params = ProblemParams(theta=0.1, p=4.0, f_spec=power_law(0.3, 2.5))
    t = np.linspace(0.01, 30, 57)
    assert np.allclose(g_term(-t, params), -g_term(t, params), atol=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    th=THETAS,
    c0=st.floats(0.0, 1e3),
    exponents=st.lists(
        st.floats(1.0, 2.0, exclude_min=True, exclude_max=True), min_size=2, max_size=2
    ),
    t=st.floats(-1e3, 1e3),
)
def test_sign_condition_consequence_for_small_p(th, c0, exponents, t):
    # every admissible power law with p < 2 (1 < alpha <= p) meets the sign
    # condition, so t * d/dt[F/(1+|t|)^{2theta}] is nonpositive; the
    # derivative is twice g
    alpha, p = sorted(exponents)
    params = ProblemParams(theta=th, p=p, f_spec=power_law(c0, alpha))
    assert t * g_term(t, params) <= 0.0


def test_m_term_monotone_and_odd():
    # the M term |phi(t)|^{p-2} phi(t) phi'(t) of the stationarity equation
    # in t = psi(u), the one d multiplies, is odd and nondecreasing
    def term(t, th, p):
        return signed_power(phi(t, th), p) * phi_prime(t, th)

    for th, p in ((0.1, 2.0), (0.25, 1.5), (0.49, 32.0), (0.0, 8.0)):
        assert term(0.0, th, p) == 0.0
        t = np.linspace(-40, 40, 10001)
        vals = term(t, th, p)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.allclose(vals, -term(-t, th, p), atol=1e-12)


def test_n_term_zero_f_zero_c():
    # the N term (c - g(|x|, phi(t))) phi'(t) vanishes with F = 0 and c = 0;
    # with d = 0 too only the Dirichlet term is left, so testing the
    # residual with U = psi(u) gives the Dirichlet energy of U
    g = build_polar_grid(disk(1.0), 12, 16)
    params = ProblemParams(theta=0.2, p=2.0)
    u = smooth_field(g, 5)
    U = psi(u.values, params.theta)
    res = euler_residual(params, u, Multipliers(0.0, 0.0)).values
    energy = integrate(grad_sq(Field(g, U)))
    assert abs(float(np.sum(g.w * res * U)) - energy) <= 1e-12 * energy


def test_euler_residual_at_eigenfunction():
    g = build_polar_grid(disk(1.0), 128, 256)
    mode = neumann_mode(1, 1)
    u = eigenfield(mode, g)
    params = ProblemParams(theta=0.0, p=2.0)
    res = euler_residual(params, u, Multipliers(0.0, -mode.eigenvalue)).values
    w = g.w[2:-2]
    rms = math.sqrt(float(np.sum(w * res[2:-2] ** 2) / np.sum(w)))
    unorm = math.sqrt(float(np.sum(g.w * u.values**2) / np.sum(g.w)))
    assert rms <= 1e-2 * unorm


def test_euler_residual_total_on_constant():
    g = build_polar_grid(disk(1.0), 8, 8)
    params = ProblemParams(theta=0.2, p=3.0)
    res = euler_residual(params, Field(g, np.full(g.shape, 2.0)), Multipliers(0.3, -1.2))
    assert np.all(np.isfinite(res.values))


def test_euler_residual_sign_symmetry():
    # with even F the equation is odd under (u, c) -> (-u, -c)
    g = build_polar_grid(disk(1.0), 12, 16)
    params = ProblemParams(theta=0.2, p=3.0, f_spec=power_law(0.5, 2.0))
    u = smooth_field(g, 8)
    r1 = euler_residual(params, u, Multipliers(0.17, -2.0)).values
    r2 = euler_residual(params, Field(g, -u.values), Multipliers(-0.17, -2.0)).values
    assert np.allclose(r1, -r2, atol=1e-13)


def test_eval_objective_computes_only_the_value(monkeypatch):
    # phi' and the gradient are computed on first read of a Point, so the
    # energy alone (certify's competitors, the reported lambda) needs neither
    import polarmin.functional as functional

    def unexpected(*args):
        raise AssertionError("phi' or g computed for a value alone")

    monkeypatch.setattr(functional, "phi_prime", unexpected)
    monkeypatch.setattr(functional, "g_term", unexpected)
    g = build_polar_grid(annulus(0.5, 1.0), 8, 16)
    params = ProblemParams(theta=0.2, p=1.5, f_spec=power_law(0.1, 1.2))
    assert math.isfinite(eval_objective(params, smooth_field(g, 3)))


@pytest.mark.parametrize("f_spec", [zero_f(), power_law(0.5, 2.0)], ids=["zero", "power_law"])
def test_euler_residual_is_the_descent_gradient(f_spec):
    # w * residual is the gradient of half the objective plus the two
    # constraint gradients weighted by the duals, all in the variable U
    g = build_polar_grid(disk(1.0), 16, 32)
    params = ProblemParams(theta=0.2, p=3.0, f_spec=f_spec)
    u = smooth_field(g, 8)
    mult = Multipliers(0.17, -2.0)
    U = psi(u.values, params.theta)
    grad = evaluate(params, g, U, u.values).grad
    dphi = phi_prime(U, params.theta)
    stationarity = (
        0.5 * grad
        + mult.c * g.w * dphi
        + mult.d * g.w * signed_power(u.values, params.p) * dphi
    )
    res = euler_residual(params, u, mult).values * g.w
    assert np.max(np.abs(res - stationarity)) <= 1e-12 * np.max(np.abs(stationarity))


def test_multipliers_at_eigenfunction():
    g = build_polar_grid(disk(1.0), 96, 192)
    mode = neumann_mode(1, 1)
    u = eigenfield(mode, g)
    params = ProblemParams(theta=0.0, p=2.0)
    m = multipliers_from_identities(params, u)
    assert abs(m.c) <= 1e-8
    assert abs(m.d + mode.eigenvalue) <= 0.02 * mode.eigenvalue


def test_multipliers_antisymmetric_c_vanishes():
    g = build_polar_grid(disk(1.0), 32, 64)
    raw = smooth_field(g, 13).values
    u = Field(g, _antisym_project(g, raw))
    params = ProblemParams(theta=0.2, p=2.0)
    m = multipliers_from_identities(params, u)
    assert abs(m.c) <= 1e-12


def test_multipliers_match_norm_identity_for_zero_f():
    # with F = 0, p = 2 the d formula reduces to the damped Dirichlet integral
    g = build_polar_grid(disk(1.0), 24, 48)
    params = ProblemParams(theta=0.15, p=2.0)
    u = smooth_field(g, 21)
    theta = params.theta
    au = np.abs(u.values)
    gs = grad_sq(u).values
    explicit = -float(
        np.sum(g.w * gs * (1.0 + (1.0 - theta) * au) / (1.0 + au) ** (2 * theta + 1))
    )
    m = multipliers_from_identities(params, u)
    assert abs(m.d - explicit) <= 1e-12 * max(1.0, abs(explicit))


def test_params_validation():
    with pytest.raises(ValueError):
        ProblemParams(theta=0.5, p=2.0)
    with pytest.raises(ValueError):
        ProblemParams(theta=-0.01, p=2.0)
    with pytest.raises(ValueError):
        ProblemParams(theta=0.1, p=1.0)
    ProblemParams(theta=0.0, p=2.0)  # classical limit admitted


def test_config_q_range():
    # a configuration may state the Sobolev exponent q; it must lie in
    # [2(1 - theta), 2), and nothing keeps it
    def config(theta, q):
        return {"theta": theta, "p": 2.0, "q": q, "domain": {"kind": "disk"}}

    for theta, q in ((0.1, 1.0), (0.1, 2.1)):
        with pytest.raises(ValueError, match="q must lie in"):
            config_from_dict(config(theta, q))
    for theta, q in ((0.0, 2.0), (0.25, 1.5), (0.1, 1.9)):
        params, _ = config_from_dict(config(theta, q))
        assert params == ProblemParams(theta=theta, p=2.0)


def test_fspec_validation():
    with pytest.raises(ValueError, match="exceed 1"):
        FSpec("power_law", c0=0.1, alpha=0.5)
    with pytest.raises(ValueError, match="exceed 1"):
        FSpec("power_law", c0=0.1, alpha=1.0)
    with pytest.raises(ValueError):
        FSpec("power_law", c0=-1.0, alpha=2.0)
    # F = 0 carries no coefficients that a manifest would record
    for c0, alpha in ((5.0, 3.0), (5.0, 0.0), (0.0, 3.0)):
        with pytest.raises(ValueError, match="F = 0 takes no"):
            FSpec("zero", c0=c0, alpha=alpha)
    with pytest.raises(ValueError, match="<= p"):
        ProblemParams(theta=0.1, p=1.5, f_spec=power_law(0.1, 1.8))
    # the p < 2 sign condition holds for the admissible family
    ProblemParams(theta=0.2, p=1.5, f_spec=power_law(0.1, 1.2))
    ProblemParams(theta=0.49, p=1.5, f_spec=power_law(2.0, 1.1))


def test_config_round_trip_and_strictness():
    params = ProblemParams(theta=0.2, p=1.5, f_spec=power_law(0.1, 1.2))
    dom = annulus(0.5, 1.0)
    text = config_to_json(params, dom)
    back_p, back_d = config_from_json(text)
    assert back_p == params
    assert back_d == dom
    doc = json.loads(text)
    doc["extra"] = 1
    with pytest.raises(ValueError, match="unknown"):
        config_from_dict(doc)
    doc = json.loads(text)
    doc["F"]["bogus"] = 2
    with pytest.raises(ValueError, match="F specification"):
        config_from_dict(doc)
    doc = json.loads(text)
    doc["domain"]["slant"] = 2
    with pytest.raises(ValueError, match="domain"):
        config_from_dict(doc)
    with pytest.raises(ValueError, match="missing"):
        config_from_dict({"theta": 0.1})
    # a missing radius or a non-numeric value is a ValueError; the domain's
    # own checks reject a bad domain
    for domain, message in (
        ({"kind": "annulus", "r_outer": 1.0}, "missing configuration value 'r_inner'"),
        ({"kind": "annulus", "r_inner": 0.5}, "missing configuration value 'r_outer'"),
        ({"kind": "disk", "r_outer": "1.0"}, "'r_outer' must be a number"),
        ({"kind": "disk", "r_inner": 0.3}, "disk requires r_inner = 0"),
        ({"kind": "square", "r_inner": 0.5, "r_outer": 1.0}, "unknown domain kind"),
    ):
        with pytest.raises(ValueError, match=message):
            config_from_dict({"theta": 0.1, "p": 2.0, "domain": domain})
    for key, doc in (
        ("theta", {"theta": None, "p": 2.0}),
        ("p", {"theta": 0.1, "p": True}),
        ("q", {"theta": 0.1, "p": 2.0, "q": "1.9"}),
        ("c0", {"theta": 0.1, "p": 2.0, "F": {"kind": "power_law", "c0": None, "alpha": 1.5}}),
    ):
        with pytest.raises(ValueError, match=f"'{key}' must be a number"):
            config_from_dict({**doc, "domain": {"kind": "disk"}})
    # json reads NaN and Infinity; a strict config rejects them
    for bad in (
        '"F": {"kind": "power_law", "c0": NaN, "alpha": 1.2}, "p": 1.5',
        '"F": {"kind": "power_law", "c0": 0.1, "alpha": NaN}, "p": 1.5',
        '"p": Infinity',
    ):
        doc = '{"theta": 0.2, %s, "domain": {"kind": "disk", "r_outer": 1.0}}' % bad
        with pytest.raises(ValueError, match="finite"):
            config_from_json(doc)


def test_config_defaults():
    params, dom = config_from_dict(
        {"theta": 0.1, "p": 2.0, "domain": {"kind": "disk", "r_outer": 1.0}}
    )
    assert params.f_spec == zero_f()
    assert dom == disk(1.0)
    # a disk's radii default to the unit disk; q = null is accepted
    params, dom = config_from_dict(
        {"theta": 0.1, "p": 2.0, "q": None, "domain": {"kind": "disk"}}
    )
    assert params == ProblemParams(theta=0.1, p=2.0)
    assert dom == disk(1.0)


def test_energy_is_the_same_at_any_blas_thread_count():
    # a BLAS dot product splits its sum across the BLAS threads, so its
    # last bit could depend on the thread count; sweep manifests are
    # byte-identical only if the energy is not
    code = (
        "import numpy as np\n"
        "from polarmin.functional import ProblemParams, eval_objective\n"
        "from polarmin.grids import Field, build_polar_grid, disk\n"
        "params = ProblemParams(theta=0.1, p=4.0)\n"
        "for dims in ((96, 192), (128, 256)):\n"
        "    grid = build_polar_grid(disk(1.0), *dims)\n"
        "    for seed in range(8):\n"
        "        vals = np.random.default_rng(seed).normal(size=grid.shape)\n"
        "        print(eval_objective(params, Field(grid, vals)).hex())\n"
    )
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": str(Path(polarmin.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        outs.append(out.stdout.split())
    assert len(outs[0]) == 16
    assert outs[0] == outs[1]


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_lp_norm_does_not_depend_on_the_scale(scale):
    # |v|^p overflows at 1e160 and underflows at 1e-170 for p = 2; the norm
    # is measured on v divided by a power of two near max|v|
    g = build_polar_grid(disk(1.0), 12, 24)
    f = eigenfield(neumann_mode(1, 1), g)
    for p in (2.0, 3.5, 32.0):
        assert abs(lp_norm(Field(g, scale * f.values), p) - scale * lp_norm(f, p)) <= 1e-14 * scale
