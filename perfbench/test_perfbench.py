"""The benchmark's own tests, at smoke size.

    python3 -m pytest perfbench

Run from the repository root.  The traced smoke runs exercise every hook,
the work-counter repeat check and the correctness gate of each workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_REFS = json.loads(workloads.REFERENCES.read_text())["smoke"]


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_what_run_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [*spans.LAYER_METRICS, "trace.overhead_s"]
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]


# layer metrics each smoke workload must drive above zero
EXERCISED = {
    "sweep_p": ["grids.h1_factor_calls", "grids.h1_solve_columns", "solve.gradient_evals",
                "solve.line_search_trials", "solve.competitor_s", "cli.refine_s", "cli.row_s.max",
                "spectral.eigenfield_s"],
    "sweep_theta": ["grids.distinct_grids", "grids.h1_factor_s", "functional.eval_objective_calls",
                    "solve.accept_ratio", "rearrange.symmetry_report_calls"],
    "check_foliated_annulus": ["solve.certify_s", "rearrange.two_point_s", "grids.dump_s",
                               "functional.multipliers_s", "solve.residual_s"],
    "field_transforms": ["grids.parse_s", "grids.dump_s", "rearrange.mollifier_nnz",
                         "rearrange.mollify_apply_s", "rearrange.foliated_s", "grids.build_calls"],
}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_smoke_run(workload):
    res = _result(_run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1", "--smoke"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    metrics = res["metrics"]
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert all(m["value"] is not None for m in metrics.values())
    for name in EXERCISED[workload]:
        assert metrics[name]["value"] > 0, name
    if workload == "field_transforms":
        assert metrics["grids.h1_solve_calls"]["value"] == 0


def test_untraced_smoke_run_reports_end_to_end_metrics():
    res = _result(_run("--workload", "sweep_theta", "--seed", "1", "--seconds", "0", "--trace", "0", "--smoke"))
    assert res["correct"] and res["failed"] == 0
    assert {k: m["unit"] for k, m in res["metrics"].items()} == {
        "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "sweep_p", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_missing_hook_reports_null_and_names_target(monkeypatch):
    fake = types.ModuleType("perfbench_fake")
    fake.minimize = lambda params, grid, opts: None
    fake.PolarGrid = type("PolarGrid", (), {"h1_solve": property(lambda self: None)})
    monkeypatch.setitem(sys.modules, "perfbench_fake", fake)
    monkeypatch.setattr(spans, "FUNCTION_HOOKS", {
        "grids.build": ("perfbench_fake", "build_polar_grid", ("perfbench_fake",)),
        "solve.minimize": ("perfbench_fake", "minimize", ("perfbench_fake",)),
    })
    monkeypatch.setattr(spans, "PROPERTY_HOOKS", {
        "grids.h1_factor": ("perfbench_fake", "PolarGrid", "h1_solve"),
    })
    tracer = spans.Tracer("test")
    tracer.install()
    fake.minimize(None, None, types.SimpleNamespace(n_starts=2))
    values = spans.layer_metrics(tracer)
    assert tracer.missing == ["perfbench_fake.build_polar_grid", "perfbench_fake.PolarGrid.h1_solve"]
    assert values["grids.build_calls"] is None and values["grids.h1_solve_s"] is None
    assert values["solve.minimize_calls"] == 1 and values["solve.starts"] == 2


def test_gate_fails_rows_that_leave_the_references(tmp_path):
    wl = workloads.SweepTheta(0, True, tmp_path)
    wl.prepare()
    wl.run()
    ref = json.loads(json.dumps(SMOKE_REFS["sweep_theta"]))
    assert wl.check(ref) == (3, [])
    ref["rows"][0]["lambda"] *= 1.0 + 1e-5
    ref["flags"]["d_limit_gap_monotone"] = not ref["flags"]["d_limit_gap_monotone"]
    attempted, failures = wl.check(ref)
    assert attempted == 3 and len(failures) == 2
    assert "lambda" in failures[0] and "d_limit_gap_monotone" in failures[1]


def test_gate_fails_a_transform_that_mixes_circles(tmp_path):
    from polarmin.grids import dump_field, parse_field

    wl = workloads.FieldTransforms(5, True, tmp_path)
    wl.prepare()
    wl.run()
    assert wl.check({}) == (len(wl.ops) + 1, [])
    k = next(i for i, (op, _) in enumerate(wl.ops) if op == "reflect-x1")
    g = parse_field(wl._outfile(k).read_text())
    vals = np.array(g.values)
    vals[[0, 1], 0] = vals[[1, 0], 0]
    wl._outfile(k).write_text(dump_field(type(g)(g.grid, vals)))
    _, failures = wl.check({})
    assert len(failures) == 1 and "multisets" in failures[0]
