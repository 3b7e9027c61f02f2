"""Experiment harness and command-line interface.

Three batch experiments: a theta sweep at p = 2 on the disk (decay of the
norm-constraint dual toward the negative first nonzero Neumann eigenvalue,
anti-symmetry at small theta), a p sweep at fixed theta (symmetry breaking
against the anti-symmetric subspace), and a single foliated-symmetry check
with certification.  Sweeps emit one CSV (fixed column set) plus a JSON
manifest carrying the full sweep specification and all derived values
except wall times, so reruns with the same seed are byte-identical.

A row warm-starts from its predecessor on the same grid, so each grid's rows
run in sequence.  A sweep runs the last grid's rows itself and deals the other
grids' rows, then the refinement solve behind its grid_tol, over forked
children, one per spare CPU: on 2 CPUs the default sweep-p forks one, on 3 or
more two, and a one-grid sweep such as sweep-theta one.  Sweeps need "fork".
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass, fields, replace
from functools import cache, partial
from itertools import groupby
from pathlib import Path

from .functional import (
    ProblemParams,
    config_from_json,
    config_to_dict,
    eval_objective,
    lp_norm,
    zero_f,
)
from .grids import (
    RadialDomain,
    _check_dims,
    build_polar_grid,
    disk,
    dump_field,
    integrate,
    parse_field,
    reflect_field,
)
from .rearrange import HalfPlane, foliated_symmetrize, mollify, two_point_rearrange
from .solve import (
    MinimizeResult,
    SolveOptions,
    build_half_support_competitor,
    certify,
    minimize,
    minimize_antisymmetric,
)
from .spectral import neumann_mode

__all__ = [
    "SweepSpec",
    "SweepRow",
    "run_sweep_theta",
    "run_sweep_p",
    "run_check_foliated",
    "main",
]

DEFAULT_THETA_VALUES = (0.02, 0.05, 0.10, 0.20, 0.30)
DEFAULT_P_VALUES = (2.0, 4.0, 8.0, 16.0, 24.0, 32.0)


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: the base problem, the swept axis and its values, and the
    starts and seed of the row solves; the sweep sets every other option."""

    params_base: ProblemParams
    domain: RadialDomain
    axis: str  # "theta" | "p"
    values: tuple
    grid: tuple | None  # (n_r, n_a); None picks the default per row
    n_starts: int = 1
    seed: int = 0
    out_dir: str | None = None

    def __post_init__(self):
        if self.axis not in ("theta", "p"):
            raise ValueError("axis must be 'theta' or 'p'")
        if self.domain.kind != "disk":
            raise ValueError(f"{self.axis} sweep is posed on the disk")
        base = self.params_base
        if self.axis == "theta" and (base.p != 2.0 or base.f_spec.kind != "zero"):
            raise ValueError("theta sweep is posed at p = 2 with F = 0")
        vals = tuple(float(v) for v in self.values)
        if not vals or any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("values must be nonempty and strictly increasing")
        object.__setattr__(self, "values", vals)
        SolveOptions(self.n_starts, self.seed)  # admissibility of the solver settings
        for v in vals:
            self.params_at(v)  # admissibility of every row

    def params_at(self, value: float) -> ProblemParams:
        return replace(self.params_base, **{self.axis: value})

    def grid_for(self, value: float) -> tuple:
        if self.grid is not None:
            return self.grid
        if self.axis == "p" and value > 8.0:
            return (128, 256)
        return (96, 192)

    def to_dict(self) -> dict:
        return {
            "config": config_to_dict(self.params_base, self.domain),
            "axis": self.axis,
            "values": list(self.values),
            "grid": list(self.grid) if self.grid is not None else None,
            "opts": {"n_starts": self.n_starts, "seed": self.seed},
        }


# output column names of the row fields whose names differ
_OUTPUT_NAMES = {"lam": "lambda", "lam_as": "lambda_as"}


@dataclass
class SweepRow:
    """One sweep row.  Its fields, renamed by _OUTPUT_NAMES, are the output
    columns: the CSV has all but starts_agreement, the manifest all but
    the wall time runtime_s."""

    value: float
    lam: float
    lam_as: float | None
    c: float
    d: float
    foliated_defect: float
    antisym_defect: float
    even_defect: float
    converged: bool
    runtime_s: float
    starts_agreement: float = 0.0

    def to_csv(self) -> str:
        return ",".join(_csv_cell(name, getattr(self, name)) for name in _CSV_FIELDS)

    def to_manifest(self) -> dict:
        row = asdict(self)
        del row["runtime_s"]
        return {_OUTPUT_NAMES.get(k, k): v for k, v in row.items()}


_CSV_FIELDS = tuple(f.name for f in fields(SweepRow) if f.name != "starts_agreement")
CSV_HEADER = ",".join(_OUTPUT_NAMES.get(name, name) for name in _CSV_FIELDS)


def _csv_cell(name: str, v) -> str:
    if name == "runtime_s":
        return f"{v:.3f}"
    if isinstance(v, bool):
        return "true" if v else "false"
    return "" if v is None else repr(v)


def _csv_text(rows: list) -> str:
    return "\n".join([CSV_HEADER] + [r.to_csv() for r in rows]) + "\n"


def _validate_result(params, res: MinimizeResult) -> None:
    # re-check the result invariants before a row is written
    if abs(integrate(res.u)) > 1e-6:
        raise RuntimeError("row validation failed: nonzero mean")
    if abs(lp_norm(res.u, params.p) - 1.0) > 1e-6:
        raise RuntimeError("row validation failed: norm constraint")
    if res.lam != eval_objective(params, res.u):
        raise RuntimeError("row validation failed: stale objective value")


def _row_from(value: float, res: MinimizeResult, lam_as, runtime: float) -> SweepRow:
    return SweepRow(
        value=value,
        lam=res.lam,
        lam_as=lam_as,
        c=res.mult.c,
        d=res.mult.d,
        foliated_defect=res.symmetry.foliated_defect,
        antisym_defect=res.symmetry.antisym_defect,
        even_defect=res.symmetry.even_defect,
        converged=res.converged,
        runtime_s=runtime,
        starts_agreement=res.starts_agreement,
    )


def _row_opts(spec: SweepSpec, warm) -> SolveOptions:
    """A row's options: from warm, its grid segment's last minimizer, if any."""
    return SolveOptions(spec.n_starts, spec.seed, "eigenmode" if warm is None else warm)


@contextmanager
def _in_child(fn):
    """Run fn() in a forked child beside the caller.  Yields a function that
    waits for fn's return value and returns it, or raises fn's exception.
    The child is joined, or terminated and joined, before the block is left."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    parent = os.getpid()

    def run():  # runs in the child, on the inputs the fork copied
        if sys.platform.startswith("linux"):  # die with a SIGKILLed parent
            import ctypes

            ctypes.CDLL(None).prctl(1, 9)  # PR_SET_PDEATHSIG = 1, SIGKILL = 9
        if os.getppid() != parent:  # it died before the request took hold
            return
        try:
            out = fn()
        except Exception as exc:
            out = exc
        send.send(out)

    child = ctx.Process(target=run)
    child.start()
    send.close()

    def wait():
        try:
            out = recv.recv()
        except EOFError:  # the child died before it could send
            child.join()
            raise RuntimeError(f"forked solve exited with code {child.exitcode}") from None
        child.join()
        if isinstance(out, Exception):
            raise out
        return out

    try:
        yield wait
    finally:
        recv.close()
        child.terminate()  # a no-op once wait() has joined it
        child.join()


def _estimate_grid_tol(fine_lam, mid: SweepRow) -> float:
    """Gap between the middle row and its one-step refinement, whose lambda
    fine_lam() returns; the significance threshold for the strict
    inequalities the sweep reports."""
    return max(abs(fine_lam() - mid.lam), 1e-9)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _attempt(job):
    """job()'s value, or the exception it raised."""
    try:
        return job()
    except Exception as exc:
        return exc


def _value(out):
    if isinstance(out, Exception):
        raise out
    return out


def _run_rows(spec: SweepSpec, values: list, run_segment) -> tuple[list, dict, float]:
    """Run the rows of values in this order and the refinement of the middle
    value.  Each grid segment (a maximal run of values on one grid, which no
    warm start crosses) is run_segment(spec, segment) -> (rows, extras).  The
    parent runs the last; the others, then the refinement, are dealt round-robin
    over one forked child per spare CPU (at least one), which runs its share in
    order.  Errors surface as a sequential loop raises them."""
    mid = spec.values[len(spec.values) // 2]
    segments = [list(seg) for _, seg in groupby(values, key=spec.grid_for)]

    def refine():  # mid solved cold (one eigenmode start) on the doubled grid
        n_r, n_a = spec.grid_for(mid)
        fine_grid = build_polar_grid(spec.domain, 2 * n_r, 2 * n_a)
        return minimize(spec.params_at(mid), fine_grid, SolveOptions(seed=spec.seed)).lam

    jobs = [partial(run_segment, spec, seg) for seg in segments[:-1]] + [refine]
    n = min(len(jobs), max(1, _usable_cpus() - 1))
    with ExitStack() as stack:
        waits = [stack.enter_context(_in_child(lambda i=i: [_attempt(job) for job in jobs[i::n]]))
                 for i in range(n)]
        last = _attempt(partial(run_segment, spec, segments[-1]))
        share = cache(lambda i: waits[i]())  # child i's outcomes, waited for on first use
        outs = [_value(share(j % n)[j // n]) for j in range(len(jobs) - 1)] + [_value(last)]
        rows = [row for seg_rows, _ in outs for row in seg_rows]
        extras = {k: v for _, seg_extras in outs for k, v in seg_extras.items()}
        mid_row = next(r for r in rows if r.value == mid)
        fine = (len(jobs) - 1) % n  # the child whose share ends with the refinement
        return rows, extras, _estimate_grid_tol(lambda: _value(share(fine)[-1]), mid_row)


def _write_outputs(spec: SweepSpec, name: str, rows: list, manifest_extra: dict) -> None:
    if spec.out_dir is None:
        return
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}.csv").write_text(_csv_text(rows))
    manifest = dict(spec.to_dict())
    manifest["rows"] = [r.to_manifest() for r in rows]
    manifest.update(manifest_extra)
    (out / f"{name}_manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )


def _theta_segment(spec: SweepSpec, values: list) -> tuple[list, dict]:
    rows = []
    warm = None
    grid = build_polar_grid(spec.domain, *spec.grid_for(values[0]))
    for value in values:
        params = spec.params_at(value)
        t0 = time.perf_counter()
        res = minimize(params, grid, _row_opts(spec, warm))
        _validate_result(params, res)
        rows.append(_row_from(value, res, None, time.perf_counter() - t0))
        warm = res.u
    return rows, {}


def run_sweep_theta(spec: SweepSpec) -> tuple[list, dict]:
    """Sweep theta downward at p = 2, F = 0 on the disk, warm-starting each
    row from the previous minimizer.  Returns (rows, manifest_extras)."""
    if spec.axis != "theta":
        raise ValueError("theta sweep requires axis 'theta'")
    rows, _, grid_tol = _run_rows(spec, sorted(spec.values, reverse=True), _theta_segment)
    lam2 = neumann_mode(1, 1, radius=spec.domain.r_outer).eigenvalue
    # rows run with theta decreasing; lambda should not decrease along them
    lam_seq = [r.lam for r in rows]
    d_gap = [abs(r.d + lam2) for r in rows]
    anti_ok = [r.value for r in rows if r.antisym_defect <= 1e-2]
    extras = {
        "grid_tol": grid_tol,
        "reference_eigenvalue": lam2,
        "flags": {
            "lambda_monotone_violations": [
                rows[i].value
                for i in range(1, len(rows))
                if lam_seq[i] < lam_seq[i - 1] - grid_tol
            ],
            "d_limit_gap_monotone": all(
                d_gap[i] <= d_gap[i - 1] + grid_tol for i in range(1, len(d_gap))
            ),
            "d_limit_gap": d_gap,
            "antisym_defects": [r.antisym_defect for r in rows],
            "c_over_theta": [abs(r.c) / r.value for r in rows],
            "max_abs_c": max(abs(r.c) for r in rows),
            "empirical_antisym_theta0": max(anti_ok) if anti_ok else None,
            "empirical_antisym_theta0_note": (
                "largest swept theta whose minimizer is anti-symmetric at this "
                "grid; grid-dependent, not a continuum threshold"
            ),
        },
    }
    _write_outputs(spec, "sweep_theta", rows, extras)
    return rows, extras


def _p_segment(spec: SweepSpec, values: list) -> tuple[list, dict]:
    rows = []
    competitor_objectives = {}
    warm_full = warm_as = None
    grid = build_polar_grid(spec.domain, *spec.grid_for(values[0]))
    for value in values:
        params = spec.params_at(value)
        t0 = time.perf_counter()
        res_as = minimize_antisymmetric(params, grid, _row_opts(spec, warm_as))
        warm_as = res_as.u
        competitor = build_half_support_competitor(res_as.u, params)
        competitor_objectives[value] = eval_objective(params, competitor)
        res_full = minimize(params, grid, _row_opts(spec, warm_full))
        res_comp = minimize(params, grid, SolveOptions(seed=spec.seed, init=competitor))
        if res_comp.converged and (not res_full.converged or res_comp.lam < res_full.lam):
            res_full = res_comp
        warm_full = res_full.u
        _validate_result(params, res_full)
        rows.append(_row_from(value, res_full, res_as.lam, time.perf_counter() - t0))
    return rows, competitor_objectives


def run_sweep_p(spec: SweepSpec) -> tuple[list, dict]:
    """Sweep p upward at fixed theta on the disk.  Each row solves the full
    problem (with the half-support competitor as an extra start) and the
    anti-symmetric problem, and reports the empirical symmetry-breaking
    onset: the smallest p whose gap exceeds 3 * grid_tol."""
    if spec.axis != "p":
        raise ValueError("p sweep requires axis 'p'")
    rows, competitor_objectives, grid_tol = _run_rows(spec, sorted(spec.values), _p_segment)
    onset = next((r.value for r in rows if r.lam_as - r.lam > 3.0 * grid_tol), None)
    lam_as_seq = [r.lam_as for r in rows]
    extras = {
        "grid_tol": grid_tol,
        "competitor_objectives": {repr(k): v for k, v in sorted(competitor_objectives.items())},
        "flags": {
            "symmetry_breaking_onset_p": onset,
            "symmetry_breaking_onset_note": (
                "smallest swept p with lambda_as - lambda > 3*grid_tol at this "
                "grid; grid-dependent, not a continuum threshold"
            ),
            "lambda_as_strictly_decreasing": all(
                b < a for a, b in zip(lam_as_seq, lam_as_seq[1:])
            ),
        },
    }
    _write_outputs(spec, "sweep_p", rows, extras)
    return rows, extras


def run_check_foliated(
    params: ProblemParams,
    domain: RadialDomain,
    grid_dims: tuple,
    n_starts: int = 1,
    seed: int = 0,
    out_dir: str | None = None,
) -> dict:
    """Minimize from n_starts starts seeded by seed, certify, and report the
    minimizer's symmetry.  The returned dict records n_starts and seed
    under 'opts' and carries 'passed' = converged and certified, so every
    grid half-plane orders the field: foliated order, not minimality (the
    foliated defect is reported, not gated).  With out_dir set, writes it
    as JSON, and the gauge-fixed minimizer in the dump format."""
    grid = build_polar_grid(domain, *grid_dims)
    res = minimize(params, grid, SolveOptions(n_starts, seed))
    out = {
        "config": config_to_dict(params, domain),
        "grid": list(grid_dims),
        "opts": {"n_starts": n_starts, "seed": seed},
        "result": res.to_json_dict(),
    }
    if not res.converged:
        out["passed"] = False
        out["reason"] = "solver did not converge"
    else:
        record = certify(res, params)
        out["certification"] = asdict(record)
        out["passed"] = record.passed
    if out_dir is not None:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        (path / "check_foliated.json").write_text(json.dumps(out, sort_keys=True, indent=2) + "\n")
        (path / "minimizer.txt").write_text(dump_field(res.u))
    return out


# --- command line ------------------------------------------------------------


def _parse_grid(text: str) -> tuple:
    try:
        a, b = text.lower().split("x")
        dims = (int(a), int(b))
    except Exception as exc:
        raise argparse.ArgumentTypeError("grid must look like 96x192") from exc
    try:
        _check_dims(*dims)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return dims


def _load_config(path: str | None):
    if path is None:
        return ProblemParams(theta=0.1, p=2.0, f_spec=zero_f()), disk(1.0)
    return config_from_json(Path(path).read_text())


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="problem JSON (theta, p, q, F, domain)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--grid", type=_parse_grid, help="NRxNA, e.g. 96x192")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--starts", type=int, default=1)


def _make_out_dir(path: str | None) -> None:
    """Create the --out directory before any solve, so an unusable one is a
    usage error (OSError) instead of a failure after all the work."""
    if path is not None:
        Path(path).mkdir(parents=True, exist_ok=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="polarmin", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("sweep-theta", help="theta sweep at p=2 on the disk")
    _add_common(sp)
    sp.add_argument("--values", default=",".join(str(v) for v in DEFAULT_THETA_VALUES))

    pp = sub.add_parser("sweep-p", help="p sweep at fixed theta on the disk")
    _add_common(pp)
    pp.add_argument("--values", default=",".join(str(v) for v in DEFAULT_P_VALUES))

    cf = sub.add_parser("check-foliated", help="minimize and check foliated symmetry")
    _add_common(cf)

    eg = sub.add_parser("eig", help="print the disk Neumann mode table")
    eg.add_argument("--n-max", type=int, default=4)
    eg.add_argument("--k-max", type=int, default=3)
    eg.add_argument("--radius", type=float, default=1.0)
    eg.add_argument("--json", action="store_true")

    ra = sub.add_parser("rearrange", help="apply a transform to a dumped field file")
    ra.add_argument("--op", required=True,
                    choices=["two-point", "foliated", "mollify", "reflect-x1", "reflect-x2"])
    ra.add_argument("--angle", type=float, help="half-plane normal angle (two-point)")
    ra.add_argument("--eps", type=float, help="mollification radius")
    ra.add_argument("--in", dest="infile", required=True)
    ra.add_argument("--out", dest="outfile")

    args = ap.parse_args(argv)

    # an input the flags name that cannot be read (OSError) or is rejected
    # (ValueError) is a usage error; a ValueError raised inside a solve is not
    if args.cmd in ("sweep-theta", "sweep-p"):
        try:
            params, domain = _load_config(args.config)
            values = tuple(float(v) for v in args.values.split(","))
            spec = SweepSpec(
                params_base=params,
                domain=domain,
                axis="theta" if args.cmd == "sweep-theta" else "p",
                values=tuple(sorted(values)),
                grid=args.grid,
                n_starts=args.starts,
                seed=args.seed,
                out_dir=args.out,
            )
            _make_out_dir(args.out)
        except (OSError, ValueError) as exc:
            ap.error(str(exc))
        rows, extras = run_sweep_theta(spec) if args.cmd == "sweep-theta" else run_sweep_p(spec)
        sys.stdout.write(_csv_text(rows))
        print(json.dumps(extras.get("flags", {}), sort_keys=True))
        return 0 if all(r.converged for r in rows) else 1

    if args.cmd == "check-foliated":
        try:
            params, domain = _load_config(args.config)
            SolveOptions(args.starts, args.seed)  # admissibility of the solver settings
            _make_out_dir(args.out)
        except (OSError, ValueError) as exc:
            ap.error(str(exc))
        dims = args.grid if args.grid else (96, 192)
        out = run_check_foliated(params, domain, dims, args.starts, args.seed, out_dir=args.out)
        print(json.dumps(out, sort_keys=True, indent=2))
        return 0 if out["passed"] else 1

    if args.cmd == "eig":
        if args.n_max < 0 or args.k_max < 1:
            ap.error("--n-max must be >= 0 and --k-max >= 1")
        try:
            modes = [
                neumann_mode(n, k, radius=args.radius)
                for n in range(args.n_max + 1)
                for k in range(1, args.k_max + 1)
            ]
        except ValueError as exc:
            ap.error(str(exc))
        modes.sort(key=lambda m: m.eigenvalue)
        if args.json:
            print(json.dumps([asdict(m) for m in modes], indent=2, sort_keys=True))
        else:
            print("n  k  alpha_nk        eigenvalue")
            for m in modes:
                print(f"{m.n}  {m.k}  {m.alpha_nk:.10f}  {m.eigenvalue:.10f}")
        return 0

    if args.cmd == "rearrange":
        try:
            if args.outfile:
                out = Path(args.outfile)
                if out.is_dir():
                    ap.error(f"--out {out} is a directory")
                if not out.parent.is_dir():
                    ap.error(f"--out directory {out.parent} does not exist")
            f = parse_field(Path(args.infile).read_text())
            if args.op == "two-point":
                if args.angle is None:
                    ap.error("--angle is required for two-point")
                g = two_point_rearrange(f, HalfPlane(args.angle))
            elif args.op == "foliated":
                g = foliated_symmetrize(f)
            elif args.op == "mollify":
                if args.eps is None:
                    ap.error("--eps is required for mollify")
                g = mollify(f, args.eps)
            elif args.op == "reflect-x1":
                g = reflect_field(f, "x1")
            else:
                g = reflect_field(f, "x2")
        except (OSError, ValueError) as exc:
            ap.error(str(exc))
        text = dump_field(g)
        if args.outfile:
            Path(args.outfile).write_text(text)
        else:
            sys.stdout.write(text)
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
