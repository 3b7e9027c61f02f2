import json
import math
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

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
        opts=SolveOptions(n_starts=1, seed=seed),
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
            opts=SolveOptions(),
        )
    with pytest.raises(ValueError):
        SweepSpec(
            params_base=ProblemParams(theta=0.1, p=2.0),
            domain=disk(1.0),
            axis="theta",
            values=(0.1, 0.6),  # inadmissible theta
            grid=(32, 64),
            opts=SolveOptions(),
        )
    with pytest.raises(ValueError, match="p sweep is posed on the disk"):
        SweepSpec(
            params_base=ProblemParams(theta=0.1, p=2.0),
            domain=annulus(0.5, 1.0),
            axis="p",
            values=(2.0, 4.0),
            grid=(32, 64),
            opts=SolveOptions(),
        )
    # only the theta axis fixes the base p and F
    SweepSpec(
        params_base=ProblemParams(theta=0.1, p=3.0, f_spec=power_law(0.1, 1.5)),
        domain=disk(1.0),
        axis="p",
        values=(2.0, 4.0),
        grid=(32, 64),
        opts=SolveOptions(),
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
            opts=SolveOptions(),
        )
    with pytest.raises(ValueError, match="F = 0"):
        SweepSpec(
            params_base=ProblemParams(theta=0.1, p=2.0, f_spec=power_law(0.1, 1.5)),
            domain=disk(1.0),
            axis="theta",
            values=(0.1, 0.2),
            grid=(32, 64),
            opts=SolveOptions(),
        )
    with pytest.raises(ValueError, match="disk"):
        SweepSpec(
            params_base=ProblemParams(theta=0.1, p=2.0),
            domain=annulus(0.5, 1.0),
            axis="theta",
            values=(0.1, 0.2),
            grid=(32, 64),
            opts=SolveOptions(),
        )


def test_sweep_p_outputs(tmp_path):
    spec = SweepSpec(
        params_base=ProblemParams(theta=0.1, p=2.0),
        domain=disk(1.0),
        axis="p",
        values=(4.0, 8.0),
        grid=(32, 64),
        opts=SolveOptions(n_starts=1, seed=0),
        out_dir=str(tmp_path),
    )
    rows, extras = run_sweep_p(spec)
    assert [r.value for r in rows] == [4.0, 8.0]
    assert all(r.lam_as is not None for r in rows)
    assert all(r.lam <= r.lam_as + 1e-9 for r in rows)
    manifest = json.loads((tmp_path / "sweep_p_manifest.json").read_text())
    assert "symmetry_breaking_onset_p" in manifest["flags"]
    assert len(manifest["competitor_objectives"]) == 2


def test_sweep_p_grid_defaults():
    spec = SweepSpec(
        params_base=ProblemParams(theta=0.1, p=2.0),
        domain=disk(1.0),
        axis="p",
        values=(2.0, 16.0),
        grid=None,
        opts=SolveOptions(),
    )
    assert spec.grid_for(2.0) == (96, 192)
    assert spec.grid_for(16.0) == (128, 256)


def test_check_foliated_runs(tmp_path):
    params = ProblemParams(theta=0.2, p=3.0)
    out = run_check_foliated(params, disk(1.0), (32, 64), SolveOptions(n_starts=1, seed=0))
    assert out["passed"]
    assert out["result"]["converged"]
    assert out["certification"]["rearrange_min_gap"] >= -1e-2 * out["result"]["lambda"]


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
        (["sweep-p", "--config", "{missing}", "--values", "2"], "No such file or directory"),
        (["check-foliated", "--config", "{missing}"], "No such file or directory"),
        (["eig", "--n-max", "-1"], "--n-max must be >= 0 and --k-max >= 1"),
        (["eig", "--k-max", "0"], "--n-max must be >= 0 and --k-max >= 1"),
        (["rearrange", "--op", "foliated", "--in", "{bad_field}"], "n_a must be divisible by 4"),
        (["rearrange", "--op", "foliated", "--in", "{missing}"], "No such file or directory"),
        (["rearrange", "--op", "mollify", "--eps", "-1", "--in", "{field}"],
         "mollification radius must be positive"),
        (["rearrange", "--op", "two-point", "--angle", "0.001", "--in", "{field}"],
         "not a multiple of half the angular spacing"),
        (["check-foliated", "--grid", "16x32", "--out", "{field}"], "File exists"),
        (["sweep-p", "--values", "2", "--grid", "16x32", "--out", "{field}"], "File exists"),
        (["rearrange", "--op", "foliated", "--in", "{field}", "--out", "{missing}/x.txt"],
         "does not exist"),
        (["rearrange", "--op", "foliated", "--in", "{bad_field}", "--out", "{tmp}"],
         "is a directory"),
    ],
    ids=["seed", "starts", "config", "eig", "radius-zero", "radius-negative", "radius-nan",
         "grid-check-foliated", "grid-sweep-p", "grid-sweep-theta", "sweep-p-annulus",
         "sweep-theta-p3", "config-no-r-inner", "config-theta-null", "config-c0-null",
         "no-threshold-flag", "config-zero-f-c0", "sweep-p-missing-config",
         "check-foliated-missing-config", "eig-negative-n-max", "eig-zero-k-max",
         "rearrange-malformed-field", "rearrange-missing-field", "rearrange-negative-eps",
         "rearrange-off-grid-angle", "check-foliated-out-is-file", "sweep-p-out-is-file",
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
    paths["field"] = tmp_path / "field.txt"
    paths["field"].write_text(dump_field(smooth_field(build_polar_grid(disk(1.0), 4, 8), 3)))
    with pytest.raises(SystemExit) as exc:
        main([a.format(**paths) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: polarmin" in err
    assert message in err


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


def test_cli_check_foliated(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config_to_json(ProblemParams(theta=0.1, p=2.0), disk(1.0)))
    code = main(["check-foliated", "--config", str(cfg), "--grid", "32x64", "--seed", "0"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["passed"]


def test_warm_start_rows_agree_with_cold(tmp_path):
    from polarmin.solve import minimize

    spec = SweepSpec(
        params_base=ProblemParams(theta=0.1, p=2.0),
        domain=disk(1.0),
        axis="theta",
        values=(0.05, 0.1, 0.2),
        grid=(32, 64),
        opts=SolveOptions(n_starts=1, seed=0),
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
        opts=SolveOptions(n_starts=1, seed=0),
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


def test_check_foliated_writes_field_dump(tmp_path):
    params = ProblemParams(theta=0.1, p=2.0)
    out = run_check_foliated(
        params, disk(1.0), (32, 64), SolveOptions(n_starts=1, seed=0), out_dir=str(tmp_path)
    )
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
