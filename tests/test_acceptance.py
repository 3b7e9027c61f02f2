"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.  Shared sweeps are computed once per session.  Criterion 6b
(monotone decay of the anti-symmetric value starting at p = 2) states a
property the computed problem does not have between p = 2 and p = 4; it is
implemented as stated and left failing, with the measured table in the
assertion message.
"""

import itertools
import math
import time

import numpy as np
import pytest

from polarmin.cli import SweepSpec, run_sweep_p, run_sweep_theta
from polarmin.functional import (
    ProblemParams,
    eval_objective,
    evaluate,
    phi,
    power_law,
    psi,
    zero_f,
)
from polarmin.grids import (
    Field,
    annulus,
    build_polar_grid,
    disk,
    grad_sq,
    integrate,
    reflection_index_map,
    rotate_field,
)
from polarmin.rearrange import (
    HOrder,
    check_H_order,
    foliated_symmetrize,
    grid_half_planes,
    mollification_matrix,
    mollify,
    two_point_rearrange,
)
from polarmin.solve import SolveOptions, certify, minimize
from polarmin.spectral import neumann_root

from test_grids import smooth_field
from test_rearrange import applied

LAM2 = neumann_root(1, 1) ** 2


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


# --- shared heavy fixtures ----------------------------------------------------


@pytest.fixture(scope="module")
def theta_sweep(tmp_path_factory):
    spec = SweepSpec(
        params_base=ProblemParams(theta=0.1, p=2.0),
        domain=disk(1.0),
        axis="theta",
        values=(0.02, 0.05, 0.10, 0.20, 0.30),
        grid=(96, 192),
        n_starts=4, seed=0,
        out_dir=str(tmp_path_factory.mktemp("sweep_theta")),
    )
    return run_sweep_theta(spec)


@pytest.fixture(scope="module")
def p_sweep(tmp_path_factory):
    spec = SweepSpec(
        params_base=ProblemParams(theta=0.1, p=2.0),
        domain=disk(1.0),
        axis="p",
        values=(2.0, 4.0, 8.0, 16.0, 24.0, 32.0),
        grid=None,
        n_starts=2, seed=0,
        out_dir=str(tmp_path_factory.mktemp("sweep_p")),
    )
    return run_sweep_p(spec)


@pytest.fixture(scope="module")
def theta01_run():
    grid = build_polar_grid(disk(1.0), 96, 192)
    params = ProblemParams(theta=0.1, p=2.0)
    res = minimize(params, grid, SolveOptions(n_starts=2, seed=0))
    return params, grid, res


# --- criterion 1: spectral oracle --------------------------------------------


def test_criterion_1_spectral_oracle():
    grid = build_polar_grid(disk(1.0), 96, 192)
    params = ProblemParams(theta=0.0, p=2.0)
    res = minimize(params, grid, SolveOptions(n_starts=8, seed=0, init="random_smooth"))
    rel = abs(res.lam - LAM2) / LAM2
    slowest = max(res.start_runtimes)
    ok = res.converged and rel <= 0.02 and slowest <= 60.0
    report(
        "1 spectral-oracle",
        ok,
        f"lambda={res.lam:.6f} ref={LAM2:.6f} rel={rel:.2e} "
        f"slowest_start={slowest:.1f}s spread={res.starts_agreement:.1e}",
    )
    assert res.converged
    assert rel <= 0.02
    assert slowest <= 60.0


# --- criteria 2-4: theta sweep ------------------------------------------------


def test_criterion_2_lambda_monotone_in_theta(theta_sweep):
    rows, extras = theta_sweep
    grid_tol = extras["grid_tol"]
    lam = [r.lam for r in rows]  # rows run with theta decreasing
    mono = all(lam[i] >= lam[i - 1] - grid_tol for i in range(1, len(lam)))
    bounded = all(v <= LAM2 + grid_tol for v in lam)
    ok = mono and bounded and all(r.converged for r in rows)
    report(
        "2 theta-monotonicity",
        ok,
        f"lambdas={[f'{v:.5f}' for v in lam]} grid_tol={grid_tol:.2e}",
    )
    assert mono
    assert bounded


def test_criterion_3_norm_dual_limit(theta_sweep):
    rows, extras = theta_sweep
    grid_tol = extras["grid_tol"]
    by_theta = {r.value: r for r in rows}
    gap_002 = abs(by_theta[0.02].d + LAM2)
    gaps = [abs(r.d + LAM2) for r in rows]  # theta decreasing
    decreasing = all(gaps[i] <= gaps[i - 1] + grid_tol for i in range(1, len(gaps)))
    ok = gap_002 <= 0.05 * LAM2 and decreasing
    report(
        "3 dual-limit",
        ok,
        f"|d(0.02)+lam2|={gap_002:.4f} ({gap_002 / LAM2:.2%} of lam2) gaps={[f'{v:.3f}' for v in gaps]}",
    )
    assert gap_002 <= 0.05 * LAM2
    assert decreasing


def test_criterion_4_antisymmetry_small_theta(theta_sweep):
    rows, _ = theta_sweep
    by_theta = {r.value: r for r in rows}
    checks = []
    for th in (0.02, 0.05):
        r = by_theta[th]
        checks.append(
            r.antisym_defect <= 1e-2
            and r.even_defect <= 1e-2
            and abs(r.c) <= 1e-3
            and r.starts_agreement <= 1e-3
        )
    ok = all(checks)
    detail = "; ".join(
        f"theta={th}: anti={by_theta[th].antisym_defect:.1e} even={by_theta[th].even_defect:.1e} "
        f"|c|={abs(by_theta[th].c):.1e} spread={by_theta[th].starts_agreement:.1e}"
        for th in (0.02, 0.05)
    )
    report("4 anti-symmetry", ok, detail)
    for th in (0.02, 0.05):
        r = by_theta[th]
        assert r.antisym_defect <= 1e-2
        assert r.even_defect <= 1e-2
        assert abs(r.c) <= 1e-3
        assert r.starts_agreement <= 1e-3


# --- criterion 5: foliated symmetry matrix ------------------------------------

MATRIX_CASES = [
    (0.1, 2.0, None),
    (0.2, 3.0, None),
    (0.2, 1.5, (0.1, 1.2)),
]


@pytest.mark.parametrize("domname", ["disk", "annulus"])
@pytest.mark.parametrize("case", MATRIX_CASES, ids=["t01p2", "t02p3", "t02p15pl"])
def test_criterion_5_foliated_matrix(domname, case):
    theta, p, pl = case
    f_spec = zero_f() if pl is None else power_law(*pl)
    params = ProblemParams(theta=theta, p=p, f_spec=f_spec)
    dom = disk(1.0) if domname == "disk" else annulus(0.5, 1.0)
    coarse = build_polar_grid(dom, 96, 192)
    fine = build_polar_grid(dom, 192, 384)
    res_c = minimize(params, coarse, SolveOptions(n_starts=2, seed=0))
    res_f = minimize(params, fine, SolveOptions(n_starts=2, seed=0))
    d_c, d_f = res_c.symmetry.foliated_defect, res_f.symmetry.foliated_defect
    # gauge rotations are grid multiples, so a foliated minimizer whose axis
    # falls between grid angles still measures a defect of order the angular
    # spacing; improvement is meaningful only above that resolution
    improving = d_f < max(d_c, fine.delta_a)
    converged = res_c.converged and res_f.converged
    # every grid half-plane orders each minimizer (certify needs convergence)
    orders = [certify(r, params).order_violation for r in (res_c, res_f)] if converged else [math.inf]
    ok = converged and d_c <= 5e-2 and improving and max(orders) <= 64 * math.ulp(1.0)
    report(
        f"5 foliated [{domname} theta={theta} p={p} F={f_spec.kind}]",
        ok,
        f"defect_96x192={d_c:.2e} defect_192x384={d_f:.2e} lam={res_c.lam:.5f} "
        f"order_violation={orders}",
    )
    assert res_c.converged and res_f.converged
    assert d_c <= 5e-2
    assert improving
    assert max(orders) <= 64 * math.ulp(1.0)


# --- criterion 6: symmetry breaking -------------------------------------------


def test_criterion_6a_symmetry_breaking_and_competitor(p_sweep):
    rows, extras = p_sweep
    grid_tol = extras["grid_tol"]
    comp = {float(k): v for k, v in extras["competitor_objectives"].items()}
    onset = None
    for r in rows:
        if r.lam_as - r.lam > 3.0 * grid_tol:
            onset = r.value
            break
    ok = onset is not None
    if ok:
        row = {r.value: r for r in rows}[onset]
        c = comp[onset]
        ok = row.lam <= c + 1e-12 and c < row.lam_as
        detail = (
            f"onset p={onset} lam={row.lam:.5f} competitor={c:.5f} "
            f"lam_as={row.lam_as:.5f} grid_tol={grid_tol:.2e}"
        )
    else:
        detail = f"no gap above 3*grid_tol={3 * grid_tol:.2e}"
    report("6a symmetry-breaking", ok, detail)
    assert onset is not None
    row = {r.value: r for r in rows}[onset]
    assert row.lam <= comp[onset] + 1e-12
    assert comp[onset] < row.lam_as


def test_criterion_6b_lambda_as_decay(p_sweep):
    rows, _ = p_sweep
    seq = [(r.value, r.lam_as) for r in rows]
    strictly_decreasing = all(b[1] < a[1] for a, b in zip(seq, seq[1:]))
    report(
        "6b lambda_as-decay",
        strictly_decreasing,
        f"table={[(v, f'{l:.5f}') for v, l in seq]}",
    )
    # the computed anti-symmetric value rises from p=2 to p=4 before
    # decaying; asserted as specified and expected to fail there
    assert strictly_decreasing, (
        "lambda_as is not strictly decreasing across the sweep: "
        + ", ".join(f"p={v}: {l:.6f}" for v, l in seq)
    )


# --- criterion 7: rearrangement suite ------------------------------------------


def test_criterion_7_level_set_identities_and_idempotence():
    g = build_polar_grid(annulus(0.5, 1.5), 6, 16)
    rng = np.random.default_rng(3)
    p = 2.7
    worst = 0.0
    for _ in range(20):
        f = Field(g, rng.standard_normal(g.shape))
        h = grid_half_planes(g)[int(rng.integers(0, g.n_a))]
        fh = two_point_rearrange(f, h)
        assert np.array_equal(two_point_rearrange(fh, h).values, fh.values)
        for prof in (lambda t: t, lambda t: t**2, lambda t: np.abs(t) ** p):
            a = integrate(Field(g, prof(f.values)))
            b = integrate(Field(g, prof(fh.values)))
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    ok = worst <= 1e-12
    report("7 level-set-identities", ok, f"worst relative mismatch={worst:.2e}")
    assert worst <= 1e-12


def test_criterion_7_foliated_monotone_multiset():
    g = build_polar_grid(disk(1.0), 4, 16)
    rng = np.random.default_rng(5)
    upper = list(range(0, g.n_a // 2 + 1))
    lower = [0] + [g.n_a - k for k in range(1, g.n_a // 2)] + [g.n_a // 2]
    for _ in range(200):
        f = Field(g, rng.standard_normal(g.shape))
        out = foliated_symmetrize(f).values
        for i in range(g.n_r):
            assert np.all(np.diff(out[i, upper]) <= 0)
            assert np.all(np.diff(out[i, lower]) <= 0)
            assert np.array_equal(np.sort(out[i]), np.sort(f.values[i]))
    report("7 foliated-structure", True, "monotone per circle, multiset preserved (200 fields)")


def test_criterion_7_mollify_preserves_order_million_trials():
    grid = build_polar_grid(disk(1.0), 4, 8)
    planes = grid_half_planes(grid)
    eps_values = (0.05, 0.15, 0.4, 0.9)
    n_nodes = grid.n_nodes
    total = 0
    violations = 0
    t0 = time.time()
    rng = np.random.default_rng(7)
    per_combo = 1_000_000 // (len(planes) * len(eps_values)) + 1
    for hp in planes:
        idx = reflection_index_map(grid, hp.normal_angle)
        e = np.array([math.cos(hp.normal_angle), math.sin(hp.normal_angle)])
        xs = np.cos(grid.a_nodes) * e[0] + np.sin(grid.a_nodes) * e[1]
        inside = xs > 1e-12
        for eps in eps_values:
            m = applied(mollification_matrix(grid, eps))
            batch = rng.standard_normal((per_combo, grid.n_r, grid.n_a))
            mirrored = batch[:, :, idx]
            arranged = np.where(
                inside[None, None, :],
                np.maximum(batch, mirrored),
                np.minimum(batch, mirrored),
            )
            smoothed = (arranged.reshape(per_combo, n_nodes) @ m.T).reshape(
                per_combo, grid.n_r, grid.n_a
            )
            diff = (smoothed - smoothed[:, :, idx])[:, :, inside]
            bad = np.sum(np.any(diff < -1e-12, axis=(1, 2)))
            violations += int(bad)
            total += per_combo
    # a slice of trials through the public operator itself
    for k in range(2000):
        hp = planes[k % len(planes)]
        f = two_point_rearrange(Field(grid, rng.standard_normal(grid.shape)), hp)
        sm = mollify(f, eps_values[k % len(eps_values)])
        if check_H_order(sm, hp, 1e-12) != HOrder.IS_UH:
            violations += 1
        total += 1
    ok = violations == 0 and total >= 1_000_000
    report(
        "7 mollify-order-preservation",
        ok,
        f"{total} trials, {violations} violations, {time.time() - t0:.1f}s",
    )
    assert total >= 1_000_000
    assert violations == 0


def _oracle_two_point(grid, batch, normal_angle):
    """Geometry-based oracle: sides and the pairing derived from float
    angles, independent of the modular-index implementation."""
    angles = grid.a_nodes
    sigma_angles = (2.0 * normal_angle + math.pi - angles) % (2.0 * math.pi)
    pair = np.array([int(np.argmin(np.abs(((angles - s + math.pi) % (2 * math.pi)) - math.pi)))
                     for s in sigma_angles])
    side = np.cos(angles - normal_angle)
    out = batch.copy()
    hi = side > 1e-9
    lo = side < -1e-9
    mirrored = batch[:, pair]
    out[:, hi] = np.maximum(batch, mirrored)[:, hi]
    out[:, lo] = np.minimum(batch, mirrored)[:, lo]
    return out


def _oracle_foliated(grid, batch):
    """Slot assignment from float polar angles with explicit tie-breaking
    toward positive x2."""
    angles = grid.a_nodes
    polar = np.minimum(angles, 2.0 * math.pi - angles)
    order = sorted(range(len(angles)), key=lambda j: (round(polar[j], 12), -math.sin(angles[j])))
    ranked = -np.sort(-batch, axis=1)
    out = np.empty_like(ranked)
    out[:, order] = ranked
    return out


def test_criterion_7_exhaustive_small_circle_oracles():
    grid = build_polar_grid(disk(1.0), 2, 8)
    tuples = np.array(list(itertools.product(range(4), repeat=8)), dtype=float)
    assert tuples.shape == (65536, 8)
    t0 = time.time()
    for hp in grid_half_planes(grid):
        idx = reflection_index_map(grid, hp.normal_angle)
        e = np.cos(grid.a_nodes - hp.normal_angle)
        inside = e > 1e-12
        mirrored = tuples[:, idx]
        got = np.where(
            inside[None, :],
            np.maximum(tuples, mirrored),
            np.minimum(tuples, mirrored),
        )
        want = _oracle_two_point(grid, tuples, hp.normal_angle)
        assert np.array_equal(got, want)
        # spot-check the Field-level operator on a slice
        for row in range(0, 65536, 16384):
            f = Field(grid, np.vstack([tuples[row], np.zeros(8)]))
            assert np.array_equal(two_point_rearrange(f, hp).values[0], want[row])
    # foliated symmetrization against the angle-sorting oracle
    want = _oracle_foliated(grid, tuples)
    from polarmin.rearrange import _slot_order

    order = _slot_order(grid.n_a)
    ranked = -np.sort(-tuples, axis=1)
    got = np.empty_like(ranked)
    got[:, order] = ranked
    assert np.array_equal(got, want)
    for row in range(0, 65536, 8192):
        f = Field(grid, np.vstack([tuples[row], np.zeros(8)]))
        assert np.array_equal(foliated_symmetrize(f).values[0], want[row])
    report(
        "7 exhaustive-oracles",
        True,
        f"4^8 tuples x 8 half-planes (two-point) + 4^8 (foliated), {time.time() - t0:.1f}s",
    )


# --- criterion 8: calculus suite ------------------------------------------------


def test_criterion_8_inverse_pair():
    xs = np.concatenate([-np.logspace(-6, 3, 400), [0.0], np.logspace(-6, 3, 400)])
    worst = 0.0
    for th in (0.0, 0.1, 0.25, 0.49):
        back = phi(psi(xs, th), th)
        worst = max(worst, float(np.max(np.abs(back - xs) / np.maximum(np.abs(xs), 1e-30))))
    ok = worst <= 1e-12
    report("8 inverse-pair", ok, f"worst relative error={worst:.2e}")
    assert worst <= 1e-12


def test_criterion_8_objective_equivalence():
    worst = 0.0
    for dom in (disk(1.0), annulus(0.5, 1.0)):
        g = build_polar_grid(dom, 32, 64)
        for th in (0.1, 0.25, 0.49):
            params = ProblemParams(theta=th, p=2.0)
            for seed in range(4):
                v = smooth_field(g, seed)
                lhs = eval_objective(params, v)
                rhs = integrate(grad_sq(Field(g, psi(v.values, th))))
                worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
    ok = worst <= 1e-10
    report("8 objective-equivalence", ok, f"worst relative mismatch={worst:.2e}")
    assert worst <= 1e-10


def test_criterion_8_gradient_check():
    g = build_polar_grid(disk(1.0), 24, 48)
    params = ProblemParams(theta=0.25, p=2.0)
    U = smooth_field(g, 11).values
    grad = evaluate(params, g, U, phi(U, params.theta)).grad
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(100):
        v = rng.standard_normal(g.shape)
        v /= np.linalg.norm(v)
        h = 1e-5
        plus = evaluate(params, g, U + h * v, phi(U + h * v, params.theta)).value
        minus = evaluate(params, g, U - h * v, phi(U - h * v, params.theta)).value
        fd = (plus - minus) / (2 * h)
        an = float(grad.ravel() @ v.ravel())
        worst = max(worst, abs(fd - an) / max(abs(fd), 1e-12))
    ok = worst <= 1e-5
    report("8 gradient-check", ok, f"worst relative error over 100 directions={worst:.2e}")
    assert worst <= 1e-5


def test_criterion_8_multiplier_consistency(theta01_run):
    params, grid, res = theta01_run
    record = certify(res, params)
    gap_d = record.consistency_d
    ok = res.converged and gap_d <= 1e-3 * abs(res.mult.d)
    report(
        "8 multiplier-consistency",
        ok,
        f"identity d={res.mult.d:.6f} least-squares d gap={gap_d:.2e} "
        f"(<= {1e-3 * abs(res.mult.d):.2e}); certify passed={record.passed}",
    )
    assert res.converged
    assert gap_d <= 1e-3 * abs(res.mult.d)
    assert record.passed
