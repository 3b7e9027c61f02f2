import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import polarmin
from polarmin.cli import (
    CSV_HEADER,
    SweepSpec,
    main,
    run_check_foliated,
    run_sweep_p,
    run_sweep_theta,
)
from polarmin.functional import ProblemParams, config_to_json, power_law
from polarmin.grids import (
    Field,
    annulus,
    build_polar_grid,
    disk,
    dump_field,
    parse_field,
)
from polarmin.rearrange import foliated_symmetrize
from polarmin.solve import SolveOptions

from test_grids import smooth_field


def small_theta_spec(out_dir, seed=0):
    return SweepSpec(
        params_base=ProblemParams(theta=0.1, p=2.0),
        domain=disk(1.0),
        axis="theta",
        values=(0.1, 0.2),
        grid=(32, 64),
        n_starts=1, seed=seed,
        out_dir=str(out_dir),
    )


def test_sweep_spec_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        SweepSpec(
            params_base=ProblemParams(theta=0.1, p=2.0),
            domain=disk(1.0),
            axis="theta",
            values=(0.2, 0.1),
            grid=(32, 64),
        )
    with pytest.raises(ValueError):
        SweepSpec(
            params_base=ProblemParams(theta=0.1, p=2.0),
            domain=disk(1.0),
            axis="theta",
            values=(0.1, 0.6),  # inadmissible theta
            grid=(32, 64),
        )
    with pytest.raises(ValueError, match="p sweep is posed on the disk"):
        SweepSpec(
            params_base=ProblemParams(theta=0.1, p=2.0),
            domain=annulus(0.5, 1.0),
            axis="p",
            values=(2.0, 4.0),
            grid=(32, 64),
        )
    # only the theta axis fixes the base p and F
    SweepSpec(
        params_base=ProblemParams(theta=0.1, p=3.0, f_spec=power_law(0.1, 1.5)),
        domain=disk(1.0),
        axis="p",
        values=(2.0, 4.0),
        grid=(32, 64),
    )


def test_sweep_theta_outputs(tmp_path):
    rows, extras = run_sweep_theta(small_theta_spec(tmp_path))
    assert [r.value for r in rows] == [0.2, 0.1]  # runs theta downward
    assert all(r.converged for r in rows)
    csv = (tmp_path / "sweep_theta.csv").read_text().splitlines()
    # the column set the README documents
    assert CSV_HEADER == (
        "value,lambda,lambda_as,c,d,foliated_defect,antisym_defect,"
        "even_defect,converged,runtime_s"
    )
    assert csv[0] == CSV_HEADER
    assert len(csv) == 3
    manifest = json.loads((tmp_path / "sweep_theta_manifest.json").read_text())
    assert manifest["axis"] == "theta"
    assert len(manifest["rows"]) == 2
    assert set(manifest["rows"][0]) == {
        "value", "lambda", "lambda_as", "c", "d", "foliated_defect",
        "antisym_defect", "even_defect", "converged", "starts_agreement",
    }
    assert "runtime" not in json.dumps(manifest)
    assert manifest["opts"] == {"n_starts": 1, "seed": 0}
    assert extras["grid_tol"] > 0


def test_sweep_reproducible_manifest(tmp_path):
    run_sweep_theta(small_theta_spec(tmp_path / "a", seed=42))
    run_sweep_theta(small_theta_spec(tmp_path / "b", seed=42))
    m1 = (tmp_path / "a" / "sweep_theta_manifest.json").read_bytes()
    m2 = (tmp_path / "b" / "sweep_theta_manifest.json").read_bytes()
    assert m1 == m2
    # CSV rows agree except for the wall-time column
    c1 = (tmp_path / "a" / "sweep_theta.csv").read_text().splitlines()
    c2 = (tmp_path / "b" / "sweep_theta.csv").read_text().splitlines()
    for l1, l2 in zip(c1, c2):
        assert l1.rsplit(",", 1)[0] == l2.rsplit(",", 1)[0]


def test_sweep_theta_preconditions():
    # the spec checks the preconditions of its axis when it is built
    with pytest.raises(ValueError, match="p = 2"):
        SweepSpec(
            params_base=ProblemParams(theta=0.1, p=3.0),
            domain=disk(1.0),
            axis="theta",
            values=(0.1, 0.2),
            grid=(32, 64),
        )
    with pytest.raises(ValueError, match="F = 0"):
        SweepSpec(
            params_base=ProblemParams(theta=0.1, p=2.0, f_spec=power_law(0.1, 1.5)),
            domain=disk(1.0),
            axis="theta",
            values=(0.1, 0.2),
            grid=(32, 64),
        )
    with pytest.raises(ValueError, match="disk"):
        SweepSpec(
            params_base=ProblemParams(theta=0.1, p=2.0),
            domain=annulus(0.5, 1.0),
            axis="theta",
            values=(0.1, 0.2),
            grid=(32, 64),
        )


def test_sweep_p_outputs(tmp_path):
    spec = SweepSpec(
        params_base=ProblemParams(theta=0.1, p=2.0),
        domain=disk(1.0),
        axis="p",
        values=(4.0, 8.0),
        grid=(32, 64),
        n_starts=1, seed=0,
        out_dir=str(tmp_path),
    )
    rows, extras = run_sweep_p(spec)
    assert [r.value for r in rows] == [4.0, 8.0]
    assert all(r.lam_as is not None for r in rows)
    assert all(r.lam <= r.lam_as + 1e-9 for r in rows)
    manifest = json.loads((tmp_path / "sweep_p_manifest.json").read_text())
    assert "symmetry_breaking_onset_p" in manifest["flags"]
    assert len(manifest["competitor_objectives"]) == 2


def test_sweep_sets_its_solves_options(tmp_path, monkeypatch):
    # the spec carries only the starts and seed its manifest records; the
    # sweep picks each solve's start and subspace.  Calls are logged to a
    # file so the forked refinement child's call is seen too.
    from polarmin import cli

    log = tmp_path / "calls.jsonl"

    def recording(name, solve):
        def call(params, grid, opts):
            entry = [name, params.p, grid.n_r, opts.n_starts, opts.seed,
                     isinstance(opts.init, Field), opts.subspace]
            with open(log, "a") as fh:
                fh.write(json.dumps(entry) + "\n")
            return solve(params, grid, opts)
        return call

    monkeypatch.setattr(cli, "minimize", recording("full", cli.minimize))
    monkeypatch.setattr(cli, "minimize_antisymmetric", recording("as", cli.minimize_antisymmetric))
    spec = SweepSpec(
        params_base=ProblemParams(theta=0.1, p=2.0),
        domain=disk(1.0),
        axis="p",
        values=(2.0, 8.0),
        grid=(24, 48),
        n_starts=2, seed=7,
        out_dir=str(tmp_path),
    )
    run_sweep_p(spec)
    calls = [json.loads(ln) for ln in log.read_text().splitlines()]
    # per row: the anti-symmetric and the full row solves, warm once a
    # previous row exists, then the one-start competitor solve
    assert [c for c in calls if c[2] == 24] == [
        ["as", 2.0, 24, 2, 7, False, "full"],
        ["full", 2.0, 24, 2, 7, False, "full"],
        ["full", 2.0, 24, 1, 7, True, "full"],
        ["as", 8.0, 24, 2, 7, True, "full"],
        ["full", 8.0, 24, 2, 7, True, "full"],
        ["full", 8.0, 24, 1, 7, True, "full"],
    ]
    # the refinement of the middle value: one cold start on the doubled grid
    assert [c for c in calls if c[2] != 24] == [["full", 8.0, 48, 1, 7, False, "full"]]
    manifest = json.loads((tmp_path / "sweep_p_manifest.json").read_text())
    assert manifest["opts"] == {"n_starts": 2, "seed": 7}
    for bad, message in ((dict(n_starts=0), "n_starts must be positive"),
                         (dict(seed=-1), "seed must be nonnegative")):
        with pytest.raises(ValueError, match=message):
            replace(spec, **bad)


def test_sweep_p_grid_defaults():
    spec = SweepSpec(
        params_base=ProblemParams(theta=0.1, p=2.0),
        domain=disk(1.0),
        axis="p",
        values=(2.0, 16.0),
        grid=None,
    )
    assert spec.grid_for(2.0) == (96, 192)
    assert spec.grid_for(16.0) == (128, 256)


def test_check_foliated_runs(tmp_path):
    params = ProblemParams(theta=0.2, p=3.0)
    out = run_check_foliated(params, disk(1.0), (32, 64), n_starts=1, seed=0)
    assert out["passed"]
    assert out["result"]["converged"]
    assert out["certification"]["order_violation"] <= 64 * math.ulp(1.0)


def test_check_foliated_reports_a_stalled_solve(monkeypatch):
    from polarmin import solve

    monkeypatch.setattr(solve, "GRAD_TOL", 0.0)  # every start stalls unconverged
    out = run_check_foliated(ProblemParams(theta=0.2, p=3.0), disk(1.0), (16, 32), n_starts=2)
    assert out["passed"] is False
    assert out["reason"] == "solver did not converge"
    assert "certification" not in out


def test_sweep_with_an_unconverged_row_exits_1(monkeypatch, capsys):
    from polarmin import solve

    monkeypatch.setattr(solve, "GRAD_TOL", 0.0)
    assert main(["sweep-theta", "--values", "0.1", "--grid", "16x32"]) == 1
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[CSV_HEADER.split(",").index("converged")] == "false"


def test_check_foliated_rejects_inadmissible_config():
    with pytest.raises(ValueError):
        ProblemParams(theta=0.2, p=1.5, f_spec=power_law(0.1, 0.5))


def test_cli_eig(capsys):
    assert main(["eig", "--n-max", "2", "--k-max", "1"]) == 0
    out = capsys.readouterr().out
    assert "1.8411837813" in out
    assert main(["eig", "--n-max", "1", "--k-max", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert any(abs(m["alpha_nk"] - 1.8411837813) < 1e-9 for m in data)


# configuration documents the usage-error cases below refer to by name
BAD_CONFIGS = {
    "cfg": '{"theta": 0.1, "p": Infinity, "domain": {"kind": "disk"}}',
    "annulus": '{"theta": 0.1, "p": 2.0, '
    '"domain": {"kind": "annulus", "r_inner": 0.5, "r_outer": 1.0}}',
    "p3": '{"theta": 0.1, "p": 3.0, "domain": {"kind": "disk"}}',
    "no_r_inner": '{"theta": 0.1, "p": 2.0, "domain": {"kind": "annulus", "r_outer": 1.0}}',
    "theta_null": '{"theta": null, "p": 2.0, "domain": {"kind": "disk"}}',
    "c0_null": '{"theta": 0.1, "p": 2.0, "F": {"kind": "power_law", "c0": null, "alpha": 1.5}, '
    '"domain": {"kind": "disk"}}',
    "zero_f_c0": '{"theta": 0.1, "p": 2.0, "F": {"kind": "zero", "c0": 5.0, "alpha": 3.0}, '
    '"domain": {"kind": "disk"}}',
    "huge_disk": '{"theta": 0.1, "p": 2.0, "domain": {"kind": "disk", "r_outer": 1e160}}',
}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep-p", "--seed", "-1", "--values", "2"], "seed must be nonnegative"),
        (["sweep-p", "--starts", "0", "--values", "2"], "n_starts must be positive"),
        (["sweep-p", "--config", "{cfg}", "--values", "2"], "p must be finite"),
        (["eig", "--n-max", "17"], "supported range is n <= 16"),
        (["eig", "--radius", "0"], "radius must be finite and > 0"),
        (["eig", "--radius", "-2", "--n-max", "0", "--k-max", "1"], "radius must be finite and > 0"),
        (["eig", "--radius", "nan"], "radius must be finite and > 0"),
        (["eig", "--radius", "1e-200"], "radius 1e-200"),
        (["check-foliated", "--seed", "-1"], "seed must be nonnegative"),
        (["check-foliated", "--starts", "0"], "n_starts must be positive"),
        (["check-foliated", "--grid", "1x2"], "n_a must be divisible by 4"),
        (["sweep-p", "--grid", "1x2", "--values", "2"], "n_a must be divisible by 4"),
        (["sweep-theta", "--grid", "8x6", "--values", "0.1"], "n_a must be divisible by 4"),
        (["sweep-p", "--config", "{annulus}", "--values", "2"], "p sweep is posed on the disk"),
        (["sweep-theta", "--config", "{p3}", "--values", "0.1"], "posed at p = 2 with F = 0"),
        (["check-foliated", "--config", "{no_r_inner}"], "missing configuration value 'r_inner'"),
        (["check-foliated", "--config", "{theta_null}"], "'theta' must be a number"),
        (["sweep-p", "--config", "{c0_null}", "--values", "2"], "'c0' must be a number"),
        (["check-foliated", "--threshold", "0.1"], "unrecognized arguments: --threshold"),
        (["check-foliated", "--config", "{zero_f_c0}"], "F = 0 takes no coefficient"),
        (["check-foliated", "--config", "{huge_disk}"], "domain area overflows"),
        (["sweep-p", "--config", "{missing}", "--values", "2"], "No such file or directory"),
        (["check-foliated", "--config", "{missing}"], "No such file or directory"),
        (["eig", "--n-max", "-1"], "--n-max must be >= 0 and --k-max >= 1"),
        (["eig", "--k-max", "0"], "--n-max must be >= 0 and --k-max >= 1"),
        (["rearrange", "--op", "foliated", "--in", "{bad_field}"], "n_a must be divisible by 4"),
        (["rearrange", "--op", "foliated", "--in", "{missing}"], "No such file or directory"),
        (["rearrange", "--op", "mollify", "--eps", "1e150", "--in", "{huge_field}"],
         "domain area overflows"),
        (["rearrange", "--op", "mollify", "--eps", "-1", "--in", "{field}"],
         "mollification radius must be positive"),
        (["rearrange", "--op", "mollify", "--eps", "inf", "--in", "{field}"],
         "mollification radius must be positive and finite"),
        (["rearrange", "--op", "two-point", "--angle", "0.001", "--in", "{field}"],
         "not a multiple of half the angular spacing"),
        (["rearrange", "--op", "two-point", "--angle", "1e17", "--in", "{field}"],
         "not a multiple of half the angular spacing"),
        (["check-foliated", "--grid", "16x32", "--out", "{field}"], "File exists"),
        (["sweep-p", "--values", "2", "--grid", "16x32", "--out", "{field}"], "File exists"),
        (["rearrange", "--op", "foliated", "--in", "{field}", "--out", "{missing}/x.txt"],
         "does not exist"),
        (["rearrange", "--op", "foliated", "--in", "{bad_field}", "--out", "{tmp}"],
         "is a directory"),
    ],
    ids=["seed", "starts", "config", "eig", "radius-zero", "radius-negative", "radius-nan",
         "radius-overflow",
         "check-foliated-seed", "check-foliated-starts",
         "grid-check-foliated", "grid-sweep-p", "grid-sweep-theta", "sweep-p-annulus",
         "sweep-theta-p3", "config-no-r-inner", "config-theta-null", "config-c0-null",
         "no-threshold-flag", "config-zero-f-c0", "config-area-overflow", "sweep-p-missing-config",
         "check-foliated-missing-config", "eig-negative-n-max", "eig-zero-k-max",
         "rearrange-malformed-field", "rearrange-missing-field", "rearrange-area-overflow",
         "rearrange-negative-eps",
         "rearrange-infinite-eps",
         "rearrange-off-grid-angle", "rearrange-huge-angle",
         "check-foliated-out-is-file", "sweep-p-out-is-file",
         "rearrange-out-dir-missing", "rearrange-out-is-dir"],
)
def test_cli_rejected_input_is_usage_error(tmp_path, capsys, argv, message):
    paths = {"tmp": tmp_path}
    for name, text in BAD_CONFIGS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    paths["missing"] = tmp_path / "missing.json"
    paths["bad_field"] = tmp_path / "bad_field.txt"
    paths["bad_field"].write_text("# 2 6 0.0 1.0\n")
    paths["huge_field"] = tmp_path / "huge_field.txt"
    paths["huge_field"].write_text("# 4 8 0.0 1e160\n")
    paths["field"] = tmp_path / "field.txt"
    paths["field"].write_text(dump_field(smooth_field(build_polar_grid(disk(1.0), 4, 8), 3)))
    with pytest.raises(SystemExit) as exc:
        main([a.format(**paths) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: polarmin" in err
    assert message in err


def test_cli_mollifier_over_the_size_cap_is_usage_error(tmp_path, monkeypatch, capsys):
    from polarmin import rearrange

    monkeypatch.setattr(rearrange, "MOLLIFIER_MAX_NNZ", 1000)
    monkeypatch.setattr(rearrange, "_MOLLIFIER_CACHE", {})
    src = tmp_path / "field.txt"
    src.write_text(dump_field(smooth_field(build_polar_grid(disk(1.0), 8, 16), 3)))
    with pytest.raises(SystemExit) as exc:
        main(["rearrange", "--op", "mollify", "--eps", "3", "--in", str(src)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: polarmin" in err
    assert "needs over 1000 nonzeros" in err


def test_cli_rearrange_round_trip(tmp_path, capsys):
    g = build_polar_grid(disk(1.0), 4, 8)
    f = smooth_field(g, 3)
    src = tmp_path / "field.txt"
    src.write_text(dump_field(f))
    dst = tmp_path / "out.txt"
    assert main(["rearrange", "--op", "foliated", "--in", str(src), "--out", str(dst)]) == 0
    got = parse_field(dst.read_text())
    assert np.array_equal(got.values, foliated_symmetrize(f).values)
    # reflection op to stdout
    assert main(["rearrange", "--op", "reflect-x1", "--in", str(src)]) == 0
    text = capsys.readouterr().out
    got = parse_field(text)
    assert np.allclose(got.values, f.values[:, (-np.arange(8)) % 8])


def test_cli_mollify_below_the_squared_radius_underflow_is_the_identity(tmp_path, capsys):
    f = smooth_field(build_polar_grid(disk(1.0), 6, 16), 3)
    src = tmp_path / "field.txt"
    src.write_text(dump_field(f))
    assert main(["rearrange", "--op", "mollify", "--eps", "1e-200", "--in", str(src)]) == 0
    assert np.array_equal(parse_field(capsys.readouterr().out).values, parse_field(dump_field(f)).values)


def test_cli_check_foliated(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config_to_json(ProblemParams(theta=0.1, p=2.0), disk(1.0)))
    code = main(["check-foliated", "--config", str(cfg), "--grid", "32x64", "--seed", "0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["passed"]


def test_check_foliated_report_records_its_starts_and_seed(tmp_path, capsys):
    # the report names the run that reproduces it, byte for byte
    for name in ("a", "b"):
        argv = ["check-foliated", "--grid", "16x32", "--starts", "2", "--seed", "3"]
        main(argv + ["--out", str(tmp_path / name)])
    capsys.readouterr()
    report = json.loads((tmp_path / "a" / "check_foliated.json").read_text())
    assert report["opts"] == {"n_starts": 2, "seed": 3}
    for name in ("check_foliated.json", "minimizer.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cli_check_foliated_certifies_on_any_admitted_grid(capsys):
    # n_a = 36 is a multiple of 4 but not of 8; the order certificate reads
    # every half-offset half-plane of any admitted grid
    code = main(["check-foliated", "--grid", "16x36"])
    out = json.loads(capsys.readouterr().out)
    assert code in (0, 1)
    assert "certification" in out


def test_warm_start_rows_agree_with_cold(tmp_path):
    from polarmin.solve import minimize

    spec = SweepSpec(
        params_base=ProblemParams(theta=0.1, p=2.0),
        domain=disk(1.0),
        axis="theta",
        values=(0.05, 0.1, 0.2),
        grid=(32, 64),
        n_starts=1, seed=0,
        out_dir=str(tmp_path),
    )
    rows, _ = run_sweep_theta(spec)
    grid = build_polar_grid(disk(1.0), 32, 64)
    for r in rows:
        cold = minimize(
            ProblemParams(theta=r.value, p=2.0), grid, SolveOptions(n_starts=1, seed=0)
        )
        assert abs(cold.lam - r.lam) <= 1e-3 * abs(cold.lam)


def theta_spec_24x48():
    return SweepSpec(
        params_base=ProblemParams(theta=0.1, p=2.0),
        domain=disk(1.0),
        axis="theta",
        values=(0.05, 0.1, 0.2),
        grid=(24, 48),
        n_starts=1, seed=0,
    )


def test_grid_tol_is_the_in_process_refinement_gap():
    from polarmin.solve import minimize

    spec = theta_spec_24x48()
    rows, extras = run_sweep_theta(spec)
    mid = next(r for r in rows if r.value == 0.1)
    fine = minimize(
        spec.params_at(0.1), build_polar_grid(disk(1.0), 48, 96), SolveOptions(n_starts=1, seed=0)
    )
    assert extras["grid_tol"] == max(abs(fine.lam - mid.lam), 1e-9)


def test_sweep_leaves_no_child_process(monkeypatch):
    from polarmin import cli

    run_sweep_theta(theta_spec_24x48())
    assert multiprocessing.active_children() == []

    def reject(params, res):
        raise RuntimeError("row validation failed: rejected by the test")

    monkeypatch.setattr(cli, "_validate_result", reject)
    with pytest.raises(RuntimeError, match="rejected by the test"):
        run_sweep_theta(theta_spec_24x48())
    assert multiprocessing.active_children() == []


def test_one_child_sweep_leaves_no_child_process(monkeypatch):
    # on 2 CPUs one child runs the first grid segment and then the refinement
    from polarmin import cli

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    children = count_children(monkeypatch)
    run_sweep_p(two_grid_p_spec(monkeypatch))
    assert len(children) == 1
    assert multiprocessing.active_children() == []

    def reject(params, res):
        raise RuntimeError("row validation failed: rejected by the test")

    monkeypatch.setattr(cli, "_validate_result", reject)
    with pytest.raises(RuntimeError, match="rejected by the test"):
        run_sweep_p(two_grid_p_spec(monkeypatch))
    assert multiprocessing.active_children() == []


def test_refinement_failure_surfaces_in_the_parent(monkeypatch):
    from polarmin import cli

    build = cli.build_polar_grid

    def build_failing_fine(domain, n_r, n_a):
        if (n_r, n_a) == (48, 96):
            raise ValueError("doubled grid refused by the test")
        return build(domain, n_r, n_a)

    monkeypatch.setattr(cli, "build_polar_grid", build_failing_fine)
    with pytest.raises(ValueError, match="doubled grid refused by the test"):
        run_sweep_theta(theta_spec_24x48())
    assert multiprocessing.active_children() == []

    # a child that dies without sending is an error, not a hang
    def build_exiting_fine(domain, n_r, n_a):
        if (n_r, n_a) == (48, 96):
            os._exit(3)
        return build(domain, n_r, n_a)

    monkeypatch.setattr(cli, "build_polar_grid", build_exiting_fine)
    with pytest.raises(RuntimeError, match="exited with code 3"):
        run_sweep_theta(theta_spec_24x48())
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
@pytest.mark.parametrize(
    "stalls, sweep",
    [
        # the refinement child stalls on the doubled grid
        ("True",
         "cli.run_sweep_theta(cli.SweepSpec(ProblemParams(theta=0.1, p=2.0), disk(1.0),\n"
         "                                  'theta', (0.05, 0.1, 0.2), (24, 48)))\n"),
        # the child running the first grid segment stalls on its grid
        ("(n_r, n_a) == (16, 32)",
         "cli.SweepSpec.grid_for = lambda self, v: (16, 32) if v <= 8.0 else (24, 48)\n"
         "cli.run_sweep_p(cli.SweepSpec(ProblemParams(theta=0.1, p=2.0), disk(1.0),\n"
         "                              'p', (2.0, 4.0, 16.0), None))\n"),
        # on 2 CPUs one child runs the first grid segment, then stalls on
        # the refinement's doubled grid
        ("(n_r, n_a) == (32, 64)",
         "cli._usable_cpus = lambda: 2\n"
         "cli.SweepSpec.grid_for = lambda self, v: (16, 32) if v <= 8.0 else (24, 48)\n"
         "cli.run_sweep_p(cli.SweepSpec(ProblemParams(theta=0.1, p=2.0), disk(1.0),\n"
         "                              'p', (2.0, 4.0, 16.0), None))\n"),
        # the same child stalls on its first job, the segment's grid
        ("(n_r, n_a) == (16, 32)",
         "cli._usable_cpus = lambda: 2\n"
         "cli.SweepSpec.grid_for = lambda self, v: (16, 32) if v <= 8.0 else (24, 48)\n"
         "cli.run_sweep_p(cli.SweepSpec(ProblemParams(theta=0.1, p=2.0), disk(1.0),\n"
         "                              'p', (2.0, 4.0, 16.0), None))\n"),
    ],
    ids=["refinement", "segment", "one-child-refinement", "one-child-segment"],
)
def test_forked_child_dies_with_a_killed_sweep(tmp_path, stalls, sweep):
    # a sweep killed by SIGKILL runs no cleanup; its forked children must
    # not keep running on their own.  The helper's child writes its pid and
    # stalls, then the helper is killed while it waits for that child.
    pid_file = tmp_path / "child.pid"
    code = (
        "import os, time\n"
        "from polarmin import cli\n"
        "from polarmin.functional import ProblemParams\n"
        "from polarmin.grids import disk\n"
        "helper, build = os.getpid(), cli.build_polar_grid\n"
        "def stall(domain, n_r, n_a):\n"
        f"    if os.getpid() != helper and {stalls}:\n"
        f"        open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
        "        time.sleep(60)\n"
        "    return build(domain, n_r, n_a)\n"
        "cli.build_polar_grid = stall\n"
        + sweep
    )
    env = {**os.environ, "PYTHONPATH": str(Path(polarmin.__file__).parents[1])}
    helper = subprocess.Popen([sys.executable, "-c", code], env=env)
    try:
        deadline = time.monotonic() + 60.0
        while not (pid_file.exists() and pid_file.read_text()):
            assert helper.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        child = int(pid_file.read_text())
    finally:
        helper.kill()
        helper.wait()
    stat = Path(f"/proc/{child}/stat")

    def alive():  # neither gone nor a zombie
        try:
            return stat.read_text().rsplit(")", 1)[1].split()[0] != "Z"
        except FileNotFoundError:
            return False

    deadline = time.monotonic() + 2.0
    while alive() and time.monotonic() < deadline:
        time.sleep(0.02)
    if alive():
        os.kill(child, signal.SIGKILL)
        pytest.fail("the forked child outlived its killed sweep")


def two_grid_p_spec(monkeypatch, out_dir=None):
    # p <= 8 on one grid and p > 8 on another: two grid segments, the first
    # of which runs in a forked child
    monkeypatch.setattr(SweepSpec, "grid_for", lambda self, v: (16, 32) if v <= 8.0 else (24, 48))
    return SweepSpec(ProblemParams(theta=0.1, p=2.0), disk(1.0), "p", (2.0, 4.0, 16.0), None,
                     out_dir=None if out_dir is None else str(out_dir))


@contextmanager
def inline(fn):
    """cli._in_child's stand-in that runs fn in the calling process."""
    out = fn()
    yield lambda: out


def test_grid_segments_give_the_in_process_outputs(tmp_path, monkeypatch):
    from polarmin import cli

    rows, extras = run_sweep_p(two_grid_p_spec(monkeypatch, tmp_path / "forked"))
    assert multiprocessing.active_children() == []

    monkeypatch.setattr(cli, "_in_child", inline)
    rows_in, extras_in = run_sweep_p(two_grid_p_spec(monkeypatch, tmp_path / "inline"))
    assert [r.value for r in rows] == [2.0, 4.0, 16.0]
    assert [r.to_manifest() for r in rows] == [r.to_manifest() for r in rows_in]
    assert extras == extras_in
    name = "sweep_p_manifest.json"
    assert (tmp_path / "forked" / name).read_bytes() == (tmp_path / "inline" / name).read_bytes()


def count_children(monkeypatch):
    """Wrap cli._in_child; the returned list gains one entry per fork."""
    from polarmin import cli

    entries, in_child = [], cli._in_child

    def counted(fn):
        entries.append(fn)
        return in_child(fn)

    monkeypatch.setattr(cli, "_in_child", counted)
    return entries


@pytest.mark.parametrize("cpus, children", [(1, [1, 1, 1]), (2, [1, 1, 1]), (3, [2, 2, 1]),
                                             (8, [2, 3, 1])])
def test_sweeps_fork_at_most_one_child_per_spare_cpu(tmp_path, monkeypatch, cpus, children):
    # forked jobs: the two-grid p sweep's first segment and refinement; the
    # three-grid p sweep's first two segments and refinement (on 3 CPUs the
    # refinement follows p = 2 in the first child); a theta sweep's
    # refinement.  Any layout writes the in-process manifests.
    from polarmin import cli

    grids = {2.0: (12, 24), 4.0: (16, 32), 16.0: (24, 48)}

    def sweeps(out):
        yield run_sweep_p(two_grid_p_spec(monkeypatch, out / "two"))
        with monkeypatch.context() as m:
            m.setattr(SweepSpec, "grid_for", lambda self, v: grids[v])
            yield run_sweep_p(SweepSpec(ProblemParams(theta=0.1, p=2.0), disk(1.0), "p",
                                        (2.0, 4.0, 16.0), None, out_dir=str(out / "three")))
        yield run_sweep_theta(replace(theta_spec_24x48(), out_dir=str(out / "theta")))

    with monkeypatch.context() as m:
        m.setattr(cli, "_in_child", inline)
        list(sweeps(tmp_path / "inline"))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    entries = count_children(monkeypatch)
    forked = []
    for _ in sweeps(tmp_path / "forked"):
        forked.append(len(entries))
        entries.clear()
    assert forked == children
    assert multiprocessing.active_children() == []
    for name in ("two/sweep_p_manifest.json", "three/sweep_p_manifest.json",
                 "theta/sweep_theta_manifest.json"):
        want = (tmp_path / "inline" / name).read_bytes()
        assert (tmp_path / "forked" / name).read_bytes() == want


def test_each_grid_segment_builds_its_grid_once(monkeypatch):
    # a segment's rows share one grid: the two segments and the refinement
    # build three grids between them
    from polarmin import cli

    built = []
    build = cli.build_polar_grid

    def counting(domain, n_r, n_a):
        built.append((n_r, n_a))
        return build(domain, n_r, n_a)

    monkeypatch.setattr(cli, "_in_child", inline)
    monkeypatch.setattr(cli, "build_polar_grid", counting)
    run_sweep_p(two_grid_p_spec(monkeypatch))
    assert sorted(built) == [(16, 32), (24, 48), (32, 64)]


@pytest.mark.parametrize("rejected, raised", [((2.0, 16.0), 2.0), ((16.0,), 16.0), ((4.0,), 4.0)])
def test_earliest_failing_row_wins_across_grid_segments(monkeypatch, rejected, raised):
    # p = 2 and 4 run in the child's segment, p = 16 in the parent's
    from polarmin import cli

    validate = cli._validate_result

    def reject(params, res):
        if params.p in rejected:
            raise RuntimeError(f"row validation failed: p={params.p} rejected by the test")
        validate(params, res)

    monkeypatch.setattr(cli, "_validate_result", reject)
    with pytest.raises(RuntimeError, match=f"p={raised} rejected"):
        run_sweep_p(two_grid_p_spec(monkeypatch))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [2, 3], ids=["one-child", "two-children"])
@pytest.mark.parametrize("rejected, raised", [((2.0, 16.0), 2.0), ((16.0,), 16.0), ((4.0,), 4.0)])
def test_earliest_failing_row_wins_in_either_layout(monkeypatch, cpus, rejected, raised):
    # one child runs p = 2 and 4 and then the refinement, or two children
    # run the segment and the refinement; p = 16 runs in the parent
    from polarmin import cli

    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    reject_rows(monkeypatch, rejected)
    with pytest.raises(RuntimeError, match=f"p={raised} rejected"):
        run_sweep_p(two_grid_p_spec(monkeypatch))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [2, 3, 8])
@pytest.mark.parametrize("rejected, raised", [((4.0, 8.0), 4.0), ((8.0, 16.0), 8.0), ((2.0, 4.0), 2.0)])
def test_earliest_failing_row_wins_across_dealt_segments(monkeypatch, cpus, rejected, raised):
    # four grid segments: p = 2, 4 and 8 and the refinement are dealt over
    # one, two or four children (on 3 CPUs, p = 2 and 8 share one child and
    # p = 4 and the refinement the other); p = 16 runs in the parent
    from polarmin import cli

    grids = {2.0: (12, 24), 4.0: (16, 32), 8.0: (20, 40), 16.0: (24, 48)}
    monkeypatch.setattr(SweepSpec, "grid_for", lambda self, v: grids[v])
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    reject_rows(monkeypatch, rejected)
    spec = SweepSpec(ProblemParams(theta=0.1, p=2.0), disk(1.0), "p", (2.0, 4.0, 8.0, 16.0), None)
    with pytest.raises(RuntimeError, match=f"p={raised} rejected"):
        run_sweep_p(spec)
    assert multiprocessing.active_children() == []


def reject_rows(monkeypatch, rejected):
    from polarmin import cli

    validate = cli._validate_result

    def reject(params, res):
        if params.p in rejected:
            raise RuntimeError(f"row validation failed: p={params.p} rejected by the test")
        validate(params, res)

    monkeypatch.setattr(cli, "_validate_result", reject)


def test_check_foliated_writes_field_dump(tmp_path):
    params = ProblemParams(theta=0.1, p=2.0)
    out = run_check_foliated(params, disk(1.0), (32, 64), n_starts=1, seed=0, out_dir=str(tmp_path))
    assert out["passed"]
    dumped = parse_field((tmp_path / "minimizer.txt").read_text())
    assert dumped.grid.key() == build_polar_grid(disk(1.0), 32, 64).key()
    assert (tmp_path / "check_foliated.json").exists()


def test_cli_sweep_theta(tmp_path, capsys):
    code = main(
        [
            "sweep-theta",
            "--values", "0.1,0.2",
            "--grid", "32x64",
            "--out", str(tmp_path),
            "--seed", "0",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == CSV_HEADER
    assert (tmp_path / "sweep_theta_manifest.json").exists()


def test_no_command_loads_scipy(tmp_path):
    # importing scipy.linalg or scipy.special costs more start-up time and
    # memory than a default sweep-theta solve, so no command may reach it;
    # nor numpy.random, which only a start that draws from it needs
    field = tmp_path / "field.txt"
    field.write_text(dump_field(smooth_field(build_polar_grid(disk(1.0), 8, 16))))
    runs = [
        ["sweep-p", "--grid", "8x16", "--values", "2,4", "--out", str(tmp_path / "p")],
        ["sweep-theta", "--grid", "8x16", "--values", "0.1,0.2", "--out", str(tmp_path / "theta")],
        ["check-foliated", "--grid", "8x16", "--out", str(tmp_path / "foliated")],
        *(["rearrange", "--in", str(field), "--op", *op]
          for op in (["foliated"], ["two-point", "--angle", "0"], ["mollify", "--eps", "0.3"])),
        ["eig"],
    ]
    code = (
        "import contextlib, io, sys\n"
        "import polarmin\n"
        "from polarmin.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) in (0, 1), argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(polarmin.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.split() == ["[]", "False"]


def test_only_a_drawing_start_loads_numpy_random(tmp_path):
    # a sweep's forked jobs run one-start solves, as the parent's rows do:
    # run in-process, the whole sweep loads no numpy.random.  A second start
    # draws from it, and loading it on first use leaves the outputs as they
    # are when it is loaded up front.
    code = (
        "import contextlib, io, sys\n"
        "from polarmin import cli\n"
        "if sys.argv[1] == 'preload':\n"
        "    import numpy.random\n"
        "@contextlib.contextmanager\n"
        "def inline(fn):\n"
        "    out = fn()\n"
        "    yield lambda: out\n"
        "cli._in_child = inline\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(sys.argv[2:]) in (0, 1)\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(polarmin.__file__).parents[1])}

    def run(*argv):
        out = subprocess.run([sys.executable, "-c", code, *argv],
                             capture_output=True, text=True, check=True, env=env)
        return out.stdout.strip()

    assert run("lazy", "sweep-p", "--grid", "8x16", "--values", "2,4,16") == "False"
    foliated = ["check-foliated", "--grid", "16x32", "--starts", "2"]
    assert run("lazy", *foliated, "--out", str(tmp_path / "lazy")) == "True"
    assert run("preload", *foliated, "--out", str(tmp_path / "preload")) == "True"
    for name in ("check_foliated.json", "minimizer.txt"):
        assert (tmp_path / "lazy" / name).read_bytes() == (tmp_path / "preload" / name).read_bytes()
