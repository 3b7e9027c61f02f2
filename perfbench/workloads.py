"""The four benchmark workloads and their correctness gate.

Each workload is closed-loop with one client: calls run in sequence in one
process, through the entry points the ``polarmin`` command uses.  A
workload object makes its inputs from the seed (``prepare``, counted as
set-up), runs the timed part (``run``) and then checks what the program
wrote (``check``), returning ``(attempted, failures)``: an operation is one
sweep row, the sweep's refinement and flags, one foliated check or one
field transform, and fails if it raised, did not converge or left the
references or invariants below.

``smoke`` runs every workload at a reduced size so the benchmark's own
tests exercise every hook and check in seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

REFERENCES = Path(__file__).with_name("references.json")

# lambda, lambda_as and the grid gap are converged to far below these; d is
# a dual recovered by quadrature; c is ~0 on symmetric rows and moved by
# ~1e-3 when only the BLAS thread count changed, so it gets an absolute bound
LAMBDA_RTOL = 1e-6
D_RTOL = 1e-4
C_ATOL = 1e-2
GRID_TOL_RTOL = 1e-4

# The README example configuration: the only annulus, F != 0 and p < 2 case.
FOLIATED_CONFIG = {
    "theta": 0.2,
    "p": 1.5,
    "q": 1.6,
    "F": {"kind": "power_law", "c0": 0.1, "alpha": 1.2},
    "domain": {"kind": "annulus", "r_inner": 0.5, "r_outer": 1.0},
}

SMOKE_GRID = "24x48"

# The second start of check-foliated is a seeded random perturbation whose
# iteration count depends on the seed: wall time ranged 1.05-1.92 s over
# seeds 0-3, far beyond any usable bound.  The check therefore always runs
# at this solver seed; the sweeps start from the eigenmode alone, so the run
# seed passed to them does not change their work.
FOLIATED_SOLVER_SEED = 0


def _quiet(argv) -> int:
    from polarmin import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _rel_ok(x, ref, rtol) -> bool:
    return x is not None and abs(x - ref) <= rtol * max(abs(ref), 1e-300)


class _Sweep:
    """A default ``polarmin sweep-p`` or ``sweep-theta`` run."""

    command = ""
    stem = ""
    smoke_values = ""
    # flag -> absolute tolerance; flags not listed must match exactly
    float_flags: dict = {}

    def __init__(self, seed: int, smoke: bool, work: Path):
        self.seed, self.smoke, self.work = seed, smoke, work

    def prepare(self) -> None:
        self.out = self.work / "out"
        self.argv = [self.command, "--out", str(self.out), "--seed", str(self.seed)]
        if self.smoke:
            self.argv += ["--values", self.smoke_values, "--grid", SMOKE_GRID]

    def run(self) -> None:
        _quiet(self.argv)

    def manifest_bytes(self) -> bytes:
        return (self.out / f"{self.stem}_manifest.json").read_bytes()

    def manifest_digest(self) -> str | None:
        try:
            return hashlib.sha256(self.manifest_bytes()).hexdigest()
        except OSError:
            return None

    def check(self, ref: dict) -> tuple[int, list]:
        attempted = len(ref["rows"]) + 1
        try:
            man = json.loads(self.manifest_bytes())
        except (OSError, ValueError) as exc:
            return attempted, [f"no manifest: {exc}"] * attempted
        rows = {r["value"]: r for r in man["rows"]}
        failures = []
        for want in ref["rows"]:
            got = rows.get(want["value"])
            bad = []
            if got is None:
                bad.append("missing")
            else:
                if not got["converged"]:
                    bad.append("not converged")
                if not _rel_ok(got["lambda"], want["lambda"], LAMBDA_RTOL):
                    bad.append(f"lambda {got['lambda']!r} vs {want['lambda']!r}")
                if want["lambda_as"] is not None and not _rel_ok(
                    got["lambda_as"], want["lambda_as"], LAMBDA_RTOL
                ):
                    bad.append(f"lambda_as {got['lambda_as']!r} vs {want['lambda_as']!r}")
                if not _rel_ok(got["d"], want["d"], D_RTOL):
                    bad.append(f"d {got['d']!r} vs {want['d']!r}")
                if not abs(got["c"] - want["c"]) <= C_ATOL:
                    bad.append(f"c {got['c']!r} vs {want['c']!r}")
            if bad:
                failures.append(f"row {want['value']}: " + "; ".join(bad))
        bad = []
        if not _rel_ok(man.get("grid_tol"), ref["grid_tol"], GRID_TOL_RTOL):
            bad.append(f"grid_tol {man.get('grid_tol')!r} vs {ref['grid_tol']!r}")
        for key, want in ref["flags"].items():
            got = man.get("flags", {}).get(key)
            if not self._flag_ok(key, got, want):
                bad.append(f"flag {key} {got!r} vs {want!r}")
        for key, want in ref.get("extras", {}).items():
            got = man.get(key)
            if not self._extra_ok(got, want):
                bad.append(f"{key} {got!r} vs {want!r}")
        if bad:
            failures.append("refinement/flags: " + "; ".join(bad))
        return attempted, failures

    def _flag_ok(self, key, got, want) -> bool:
        atol = self.float_flags.get(key)
        if atol is None:
            return got == want
        got_l = got if isinstance(got, list) else [got]
        want_l = want if isinstance(want, list) else [want]
        return len(got_l) == len(want_l) and all(
            g is not None and abs(g - w) <= atol for g, w in zip(got_l, want_l)
        )

    @staticmethod
    def _extra_ok(got, want) -> bool:
        if isinstance(want, dict):
            return isinstance(got, dict) and got.keys() == want.keys() and all(
                _rel_ok(got[k], want[k], LAMBDA_RTOL) for k in want
            )
        return _rel_ok(got, want, LAMBDA_RTOL)


class SweepP(_Sweep):
    """sweep-p on the unit disk: theta=0.1, F=0, p in {2,4,8,16,24,32}."""

    command, stem, smoke_values = "sweep-p", "sweep_p", "2,4"


class SweepTheta(_Sweep):
    """sweep-theta at p=2 on the unit disk, warm-started rows."""

    command, stem, smoke_values = "sweep-theta", "sweep_theta", "0.1,0.2"
    float_flags = {
        "d_limit_gap": D_RTOL * 10.0,
        "antisym_defects": 1e-8,
        "max_abs_c": C_ATOL,
        # |c| / theta with theta down to 0.02
        "c_over_theta": C_ATOL / 0.02,
    }


class CheckFoliatedAnnulus:
    """check-foliated with the README configuration, 2 starts, certified."""

    def __init__(self, seed: int, smoke: bool, work: Path):
        self.seed, self.smoke, self.work = seed, smoke, work

    def prepare(self) -> None:
        self.out = self.work / "out"
        cfg = self.work / "config.json"
        cfg.write_text(json.dumps(FOLIATED_CONFIG))
        grid = SMOKE_GRID if self.smoke else "96x192"
        self.argv = [
            "check-foliated", "--config", str(cfg), "--grid", grid,
            "--starts", "2", "--seed", str(FOLIATED_SOLVER_SEED), "--out", str(self.out),
        ]

    def run(self) -> None:
        self.rc = _quiet(self.argv)

    def manifest_digest(self) -> None:
        return None

    def check(self, ref: dict) -> tuple[int, list]:
        try:
            doc = json.loads((self.out / "check_foliated.json").read_text())
            dumped = (self.out / "minimizer.txt").is_file()
        except (OSError, ValueError) as exc:
            return 1, [f"no report: {exc}"]
        res = doc["result"]
        bad = []
        if self.rc != 0 or not doc.get("passed"):
            bad.append(f"not passed ({doc.get('reason', 'certification or defect')})")
        if not doc.get("certification", {}).get("passed"):
            bad.append("certification failed")
        if not dumped:
            bad.append("minimizer not written")
        if not _rel_ok(res["lambda"], ref["lambda"], LAMBDA_RTOL):
            bad.append(f"lambda {res['lambda']!r} vs {ref['lambda']!r}")
        if not _rel_ok(res["d"], ref["d"], D_RTOL):
            bad.append(f"d {res['d']!r} vs {ref['d']!r}")
        if not abs(res["c"] - ref["c"]) <= C_ATOL:
            bad.append(f"c {res['c']!r} vs {ref['c']!r}")
        return 1, ["check-foliated: " + "; ".join(bad)] if bad else []


class FieldTransforms:
    """The functions behind ``polarmin rearrange`` on a seeded disk field:
    each op parses the field file, transforms it and dumps the result; then
    one exhaustive symmetry report.  No solver runs."""

    def __init__(self, seed: int, smoke: bool, work: Path):
        self.seed, self.smoke, self.work = seed, smoke, work

    def prepare(self) -> None:
        from polarmin.grids import Field, build_polar_grid, disk, dump_field
        from polarmin.rearrange import grid_half_planes

        n_r, n_a = (24, 48) if self.smoke else (128, 256)
        self.eps = 0.2 if self.smoke else 0.05
        grid = build_polar_grid(disk(1.0), n_r, n_a)
        rng = np.random.default_rng(self.seed)
        r, a = grid.r_nodes[:, None], grid.a_nodes[None, :]
        vals = 0.05 * rng.normal(size=grid.shape)
        for n in range(5):
            for m in range(3):
                vals = vals + rng.normal() * r**m * np.cos(n * a + rng.uniform(0.0, 2 * math.pi))
        self.field = Field(grid, vals)
        self.infile = self.work / "field.txt"
        self.infile.write_text(dump_field(self.field))
        self.ops = [("two-point", ["--angle", repr(h.normal_angle)]) for h in grid_half_planes(grid, 8)]
        self.ops += [("foliated", []), ("reflect-x1", []), ("reflect-x2", []),
                     ("mollify", ["--eps", repr(self.eps)])]

    def _outfile(self, k: int) -> Path:
        return self.work / f"op{k}.txt"

    def run(self) -> None:
        from polarmin import cli
        from polarmin.rearrange import symmetry_report

        for k, (op, extra) in enumerate(self.ops):
            _quiet(["rearrange", "--op", op, *extra,
                    "--in", str(self.infile), "--out", str(self._outfile(k))])
        report = symmetry_report(cli.parse_field(self.infile.read_text()), exhaustive=True)
        (self.work / "report.json").write_text(report.to_json())

    def manifest_digest(self) -> None:
        return None

    def check(self, ref: dict) -> tuple[int, list]:
        from polarmin.grids import Field, dump_field, parse_field, reflect_field
        from polarmin.rearrange import (
            HalfPlane, HOrder, check_H_order, foliated_symmetrize, mollify,
            symmetry_report, two_point_rearrange,
        )

        f = self.field
        sorted_rows = np.sort(f.values, axis=1)
        j = np.arange(f.grid.n_a)
        from_axis = np.minimum(j, f.grid.n_a - j)
        failures = []
        if parse_field(dump_field(f)).values.tobytes() != f.values.tobytes():
            failures.append("input: dump/parse round trip is not bit-exact")
        for k, (op, extra) in enumerate(self.ops):
            bad = []
            try:
                g = parse_field(self._outfile(k).read_text())
            except (OSError, ValueError) as exc:
                failures.append(f"{op}: unreadable output: {exc}")
                continue
            out = g.values
            if op == "two-point":
                h = HalfPlane(float(extra[1]))
                want = two_point_rearrange(f, h).values
                if check_H_order(g, h) != HOrder.IS_UH:
                    bad.append("not H-ordered")
            elif op == "foliated":
                want = foliated_symmetrize(f).values
                if any(np.any(out[:, from_axis == s + 1].max(axis=1) > out[:, from_axis == s].min(axis=1))
                       for s in range(f.grid.n_a // 2)):
                    bad.append("not nonincreasing in the angle from the axis")
            elif op == "mollify":
                want = mollify(f, self.eps).values
                const = mollify(Field(f.grid, np.full(f.grid.shape, 3.0)), self.eps).values
                if np.max(np.abs(const - 3.0)) > 1e-12:
                    bad.append("constants not preserved")
            else:
                want = reflect_field(f, op[-2:]).values
            if op != "mollify" and not np.array_equal(np.sort(out, axis=1), sorted_rows):
                bad.append("per-circle multisets changed")
            if out.tobytes() != np.ascontiguousarray(want).tobytes():
                bad.append("output differs from the in-memory transform")
            if bad:
                failures.append(f"{op} {' '.join(extra)}: " + "; ".join(bad))
        try:
            rep = json.loads((self.work / "report.json").read_text())
            quick = symmetry_report(f)
            if not (all(math.isfinite(v) for v in rep.values())
                    and rep["foliated_defect"] <= quick.foliated_defect + 1e-12):
                failures.append("exhaustive symmetry report not finite or worse than the moment estimate")
        except (OSError, ValueError, KeyError) as exc:
            failures.append(f"symmetry report unreadable: {exc}")
        return len(self.ops) + 1, failures


WORKLOADS = {
    "sweep_p": SweepP,
    "sweep_theta": SweepTheta,
    "check_foliated_annulus": CheckFoliatedAnnulus,
    "field_transforms": FieldTransforms,
}
