"""Span tracing of polarmin's layers from outside the package.

Hooks wrap public (and a few private) names where polarmin's own callers
look them up at call time, e.g. ``polarmin.cli.minimize`` or the
``PolarGrid.h1_solve`` cached property and the solver it returns.  Nothing
inside ``src/`` is changed.  A hook whose target is gone is recorded as
missing; the per-layer metrics that depend on it are then reported as
null instead of aborting the run.

Spans are kept in memory as ``[name, start, end, parent, attrs]`` (their id
is their index) and written out by ``Tracer.dump`` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict

_perf = time.perf_counter

# span name -> (defining module, attribute, modules whose global is patched)
FUNCTION_HOOKS = {
    "grids.build": ("polarmin.grids", "build_polar_grid", ("polarmin.grids", "polarmin.cli")),
    "grids.dump": ("polarmin.grids", "dump_field", ("polarmin.grids", "polarmin.cli")),
    "grids.parse": ("polarmin.grids", "parse_field", ("polarmin.grids", "polarmin.cli")),
    "functional.eval_objective": (
        "polarmin.functional", "eval_objective",
        ("polarmin.functional", "polarmin.solve", "polarmin.cli"),
    ),
    "functional.multipliers": (
        "polarmin.functional", "multipliers_from_identities",
        ("polarmin.functional", "polarmin.solve"),
    ),
    # pointwise maps as the solver's inner loop calls them
    "functional.phi": ("polarmin.functional", "phi", ("polarmin.solve",)),
    "functional.psi": ("polarmin.functional", "psi", ("polarmin.solve",)),
    "functional.phi_prime": ("polarmin.functional", "phi_prime", ("polarmin.solve",)),
    "functional.g_term": ("polarmin.functional", "g_term", ("polarmin.solve",)),
    "functional.signed_power": ("polarmin.functional", "signed_power", ("polarmin.solve",)),
    "solve.minimize": ("polarmin.solve", "minimize", ("polarmin.solve", "polarmin.cli")),
    "solve.minimize_antisymmetric": (
        "polarmin.solve", "minimize_antisymmetric", ("polarmin.solve", "polarmin.cli"),
    ),
    "solve.start": ("polarmin.solve", "_solve_single", ("polarmin.solve",)),
    "solve.certify": ("polarmin.solve", "certify", ("polarmin.solve", "polarmin.cli")),
    "solve.competitor": (
        "polarmin.solve", "build_half_support_competitor", ("polarmin.solve", "polarmin.cli"),
    ),
    "solve.residual": ("polarmin.solve", "residual_rms", ("polarmin.solve",)),
    "rearrange.symmetry_report": (
        "polarmin.rearrange", "symmetry_report", ("polarmin.rearrange", "polarmin.solve"),
    ),
    "rearrange.two_point": (
        "polarmin.rearrange", "two_point_rearrange",
        ("polarmin.rearrange", "polarmin.solve", "polarmin.cli"),
    ),
    "rearrange.foliated": (
        "polarmin.rearrange", "foliated_symmetrize", ("polarmin.rearrange", "polarmin.cli"),
    ),
    "rearrange.mollifier_build": (
        "polarmin.rearrange", "mollification_matrix", ("polarmin.rearrange",),
    ),
    "rearrange.mollify": ("polarmin.rearrange", "mollify", ("polarmin.rearrange", "polarmin.cli")),
    "spectral.neumann_mode": (
        "polarmin.spectral", "neumann_mode",
        ("polarmin.spectral", "polarmin.solve", "polarmin.cli"),
    ),
    "spectral.eigenfield": ("polarmin.spectral", "eigenfield", ("polarmin.spectral", "polarmin.solve")),
    "cli.refine": ("polarmin.cli", "_estimate_grid_tol", ("polarmin.cli",)),
    "cli.row": ("polarmin.cli", "_row_from", ("polarmin.cli",)),
}

# span name -> (module, class, cached property)
PROPERTY_HOOKS = {
    "grids.stiffness": ("polarmin.grids", "PolarGrid", "stiffness"),
    "grids.h1_factor": ("polarmin.grids", "PolarGrid", "h1_solve"),
}

POINTWISE = ("functional.phi", "functional.psi", "functional.phi_prime",
             "functional.g_term", "functional.signed_power")
GRID_SIZES = ("96x192", "128x256", "192x384", "256x512")


def _grid_size(grid) -> str:
    return f"{grid.n_r}x{grid.n_a}"


def _attrs_minimize(args, kwargs, out):
    opts = kwargs.get("opts", args[2] if len(args) > 2 else None)
    return {"n_starts": getattr(opts, "n_starts", 1)}


def _attrs_start(args, kwargs, out):
    return {"iterations": out.iterations}


def _attrs_build(args, kwargs, out):
    return {"key": repr(out.key())}


def _attrs_mollifier(args, kwargs, out):
    return {"nnz": int(out.nnz)}


def _attrs_row(args, kwargs, out):
    runtime = kwargs.get("runtime", args[3] if len(args) > 3 else None)
    return {"runtime_s": float(runtime)}


ATTRS = {
    "solve.minimize": _attrs_minimize,
    "solve.start": _attrs_start,
    "grids.build": _attrs_build,
    "rearrange.mollifier_build": _attrs_mollifier,
    "cli.row": _attrs_row,
}


class Tracer:
    """In-memory span recorder; ``enabled`` gates recording, not the calls."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.enabled = True
        self.missing: list[str] = []
        self.missing_spans: set[str] = set()

    def wrap(self, name: str, fn, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = [name, _perf(), 0.0, tracer.stack[-1] if tracer.stack else -1, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = _perf()
                tracer.stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, out)
            return out

        return traced

    # -- installation ------------------------------------------------------

    def _miss(self, span: str, target: str) -> None:
        self.missing.append(target)
        self.missing_spans.add(span)

    def install(self) -> None:
        # import every site first: a module imported after a patch would
        # bind the wrapper and look like a site that bypasses the hook
        modules = {}
        for home, _, sites in FUNCTION_HOOKS.values():
            for name in (home, *sites):
                try:
                    modules[name] = importlib.import_module(name)
                except ImportError:
                    modules[name] = None
        for span, (home, attr, sites) in FUNCTION_HOOKS.items():
            original = getattr(modules[home], attr, None)
            if original is None:
                self._miss(span, f"{home}.{attr}")
                continue
            wrapped = self.wrap(span, original, ATTRS.get(span))
            for site in sites:
                # a site that no longer binds the original would bypass the hook
                if getattr(modules[site], attr, None) is original:
                    setattr(modules[site], attr, wrapped)
                else:
                    self._miss(span, f"{site}.{attr}")
        for span, (home, cls_name, prop) in PROPERTY_HOOKS.items():
            try:
                cls = getattr(importlib.import_module(home), cls_name, None)
            except ImportError:
                cls = None
            original = getattr(cls, "__dict__", {}).get(prop)
            if not isinstance(original, functools.cached_property):
                self._miss(span, f"{home}.{cls_name}.{prop}")
                continue
            if span == "grids.h1_factor":
                func = self._factor_hook(original.func)
            else:
                func = self._grid_hook(span, original.func)
            new = functools.cached_property(func)
            new.__set_name__(cls, prop)
            setattr(cls, prop, new)

    def _grid_hook(self, span, func):
        return self.wrap(span, func, lambda a, k, out: {"size": _grid_size(a[0])})

    def _factor_hook(self, func):
        """Time the factorization, and wrap the returned solver so every
        call records its right-hand-side column count and grid size."""
        factor = self._grid_hook("grids.h1_factor", func)
        tracer = self

        def build(grid):
            solver = factor(grid)
            size = _grid_size(grid)

            def attrs(args, kwargs, out):
                b = args[0]
                return {"size": size, "columns": 1 if b.ndim == 1 else int(b.shape[1])}

            return tracer.wrap("grids.h1_solve", solver, attrs)

        return build

    # -- derived numbers ---------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def totals(self):
        """Per span name: call count, summed duration, summed self time."""
        calls = defaultdict(int)
        dur = defaultdict(float)
        self_t = defaultdict(float)
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            calls[name] += 1
            dur[name] += end - start
            self_t[name] += own
        return calls, dur, self_t

    def dump(self, path, extra: dict) -> None:
        calls, dur, self_t = self.totals()
        head = {
            "run_id": self.run_id,
            "missing_hooks": self.missing,
            "summary": {
                n: {"calls": calls[n], "total_s": dur[n], "self_s": self_t[n]} for n in sorted(calls)
            },
            **extra,
        }
        with open(path, "w") as fh:
            fh.write(json.dumps(head, sort_keys=True) + "\n")
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps([self.run_id, i, name, start, end, parent, attrs]) + "\n")


# per-layer metric -> (unit, span names it needs)
LAYER_METRICS = {
    "grids.build_calls": ("count", ("grids.build",)),
    "grids.distinct_grids": ("count", ("grids.build",)),
    "grids.build_s": ("s", ("grids.build", "grids.stiffness")),
    "grids.h1_factor_calls": ("count", ("grids.h1_factor",)),
    "grids.h1_factor_s": ("s", ("grids.h1_factor",)),
    "grids.h1_solve_calls": ("count", ("grids.h1_factor",)),
    "grids.h1_solve_columns": ("count", ("grids.h1_factor",)),
    "grids.h1_solve_s": ("s", ("grids.h1_factor",)),
    **{f"grids.h1_factor_s.{g}": ("s", ("grids.h1_factor",)) for g in GRID_SIZES},
    **{f"grids.h1_solve_s.{g}": ("s", ("grids.h1_factor",)) for g in GRID_SIZES},
    "grids.dump_s": ("s", ("grids.dump",)),
    "grids.parse_s": ("s", ("grids.parse",)),
    "functional.eval_objective_calls": ("count", ("functional.eval_objective",)),
    "functional.eval_objective_s": ("s", ("functional.eval_objective",)),
    "functional.multipliers_s": ("s", ("functional.multipliers",)),
    "functional.pointwise_s": ("s", POINTWISE),
    "solve.minimize_calls": ("count", ("solve.minimize",)),
    "solve.minimize_s": ("s", ("solve.minimize",)),
    "solve.starts": ("count", ("solve.minimize",)),
    "solve.gradient_evals": ("count", ("grids.h1_factor",)),
    "solve.line_search_trials": ("count", ("functional.psi", "solve.minimize")),
    "solve.accept_ratio": ("ratio", ("functional.psi", "solve.minimize", "solve.start")),
    "solve.certify_s": ("s", ("solve.certify",)),
    "solve.competitor_s": ("s", ("solve.competitor",)),
    "solve.residual_s": ("s", ("solve.residual",)),
    "rearrange.symmetry_report_calls": ("count", ("rearrange.symmetry_report",)),
    "rearrange.symmetry_report_s": ("s", ("rearrange.symmetry_report",)),
    "rearrange.two_point_s": ("s", ("rearrange.two_point",)),
    "rearrange.foliated_s": ("s", ("rearrange.foliated",)),
    "rearrange.mollifier_build_s": ("s", ("rearrange.mollifier_build",)),
    "rearrange.mollify_apply_s": ("s", ("rearrange.mollify",)),
    "rearrange.mollifier_nnz": ("count", ("rearrange.mollifier_build",)),
    "spectral.neumann_mode_s": ("s", ("spectral.neumann_mode",)),
    "spectral.eigenfield_s": ("s", ("spectral.eigenfield",)),
    "cli.row_s.p50": ("s", ("cli.row",)),
    "cli.row_s.max": ("s", ("cli.row",)),
    "cli.refine_s": ("s", ("cli.refine",)),
}

# exact work counts that must repeat across traced runs at one seed
COUNTERS = (
    "grids.build_calls",
    "grids.distinct_grids",
    "grids.h1_factor_calls",
    "grids.h1_solve_calls",
    "grids.h1_solve_columns",
    "solve.gradient_evals",
    "solve.line_search_trials",
    "solve.starts",
    "solve.minimize_calls",
    "functional.eval_objective_calls",
    "rearrange.symmetry_report_calls",
)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values of one traced run; None where a hook is missing."""
    calls, dur, self_t = tracer.totals()
    by = defaultdict(list)
    for name, start, end, parent, attrs in tracer.spans:
        by[name].append((end - start, attrs or {}))

    def sized(name, size):
        return sum((d for d, a in by[name] if a.get("size") == size), 0.0)

    factor_self = defaultdict(float)
    for (name, _, _, _, attrs), own in zip(tracer.spans, tracer.self_times()):
        if name == "grids.h1_factor":
            factor_self[attrs["size"]] += own

    columns = sum(a["columns"] for _, a in by["grids.h1_solve"])
    starts = sum(a["n_starts"] for _, a in by["solve.minimize"])
    trials = calls["functional.psi"] - starts
    accepted = sum(a["iterations"] for _, a in by["solve.start"])
    rows = [a["runtime_s"] for _, a in by["cli.row"]]
    values = {
        "grids.build_calls": calls["grids.build"],
        "grids.distinct_grids": len({a["key"] for _, a in by["grids.build"]}),
        "grids.build_s": dur["grids.build"] + dur["grids.stiffness"],
        "grids.h1_factor_calls": calls["grids.h1_factor"],
        "grids.h1_factor_s": self_t["grids.h1_factor"],
        "grids.h1_solve_calls": calls["grids.h1_solve"],
        "grids.h1_solve_columns": columns,
        "grids.h1_solve_s": dur["grids.h1_solve"],
        **{f"grids.h1_factor_s.{g}": factor_self[g] for g in GRID_SIZES},
        **{f"grids.h1_solve_s.{g}": sized("grids.h1_solve", g) for g in GRID_SIZES},
        "grids.dump_s": self_t["grids.dump"],
        "grids.parse_s": self_t["grids.parse"],
        "functional.eval_objective_calls": calls["functional.eval_objective"],
        "functional.eval_objective_s": dur["functional.eval_objective"],
        "functional.multipliers_s": dur["functional.multipliers"],
        "functional.pointwise_s": sum(dur[n] for n in POINTWISE),
        "solve.minimize_calls": calls["solve.minimize"],
        "solve.minimize_s": dur["solve.minimize"],
        "solve.starts": starts,
        # three H1 solves (objective and both constraints) per gradient
        "solve.gradient_evals": columns // 3 if columns % 3 == 0 else columns / 3,
        # psi maps every start and every trial step back to the substituted variable
        "solve.line_search_trials": trials,
        "solve.accept_ratio": accepted / trials if trials > 0 else 0.0,
        "solve.certify_s": dur["solve.certify"],
        "solve.competitor_s": dur["solve.competitor"],
        "solve.residual_s": dur["solve.residual"],
        "rearrange.symmetry_report_calls": calls["rearrange.symmetry_report"],
        "rearrange.symmetry_report_s": dur["rearrange.symmetry_report"],
        "rearrange.two_point_s": dur["rearrange.two_point"],
        "rearrange.foliated_s": dur["rearrange.foliated"],
        "rearrange.mollifier_build_s": dur["rearrange.mollifier_build"],
        "rearrange.mollify_apply_s": self_t["rearrange.mollify"],
        "rearrange.mollifier_nnz": max((a["nnz"] for _, a in by["rearrange.mollifier_build"]), default=0),
        "spectral.neumann_mode_s": dur["spectral.neumann_mode"],
        "spectral.eigenfield_s": dur["spectral.eigenfield"],
        "cli.row_s.p50": statistics.median(rows) if rows else 0.0,
        "cli.row_s.max": max(rows, default=0.0),
        "cli.refine_s": dur["cli.refine"],
    }
    for name, (_, needs) in LAYER_METRICS.items():
        if tracer.missing_spans.intersection(needs):
            values[name] = None
    return values
